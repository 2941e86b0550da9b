"""Spans and counters around the public functions of each weilc layer.

The tracer replaces each listed function by a wrapper in every module
namespace that holds it (``diff`` is held by expr, forms, poisson,
prolongation, oracle and the benchmark's own workloads module), and each
listed method on its class.  Every call is counted.  A call opens a span
(name, start, end, parent) unless the same function is already open
further up the stack: recursive functions (``diff``, ``to_string``,
``eval_real``, ...) get one span for the outermost call, and their inner
calls are counted as nodes.

Node constructors (``add``, ``mul``, ...) and private helpers are not
wrapped; their time is self time of the public function that called them.

Spans live in compact arrays in memory and are written out by ``dump``
when the run ends.  A layer's self time is its spans' time minus the time
their child spans cover.
"""

from __future__ import annotations

import time
from array import array
from collections import Counter

LAYERS = ("algebra", "expr", "prolongation", "forms", "poisson", "oracle",
          "sampling", "config", "cli")

# public functions wrapped, per layer module
LAYER_API = {
    "algebra": ("build_algebra", "taylor_lift", "validate_morphism", "render_element",
                "apply_linear", "augmentation_morphism"),
    "expr": ("parse", "to_string", "diff", "eval_real", "eval_weil", "substitute",
             "prolong_function"),
    "prolongation": ("apply_field", "lie_bracket", "prolong_field", "prolong_map",
                     "pushforward_point"),
    "forms": ("wedge", "dform", "interior", "contract", "lie_derivative", "delta",
              "prolong_form", "function_form"),
    "poisson": ("bracket", "hamiltonian_field", "jacobi_check", "ad_prolong", "ad_tilde",
                "prolong_bracket", "omega_prolonged", "omega_at", "verify_a_poisson"),
    "oracle": ("run_suite", "taylor_coeffs", "classical_lie_one_form", "interior_eval",
               "poly_coeffs_exact", "form_is_zero_exact"),
    "sampling": ("rng_for", "catalog_algebra", "random_algebra", "random_element",
                 "random_point", "random_monomial", "random_polynomial", "random_expr",
                 "random_expr_with_consta", "random_one_form", "residual",
                 "residual_zero", "residual_forms"),
    "config": ("load_config", "parse_relation"),
    "cli": ("main",),
}
# (layer, class, methods) wrapped on the class
LAYER_METHODS = (
    ("algebra", "WeilElement", ("__mul__", "__rmul__")),
    ("prolongation", "AVectorField", ("apply", "apply_at")),
    ("forms", "CoordForm", ("evaluate", "__add__")),
)
# span names that differ from the function name
RENAMED = {"build_algebra": "build", "__mul__": "mul", "__rmul__": "mul",
           "__add__": "add", "run_suite": "suite"}


class Tracer:
    def __init__(self, algebra_names: dict):
        """``algebra_names`` maps (generators, relations) to the name under
        which multiply times are reported."""
        self.algebra_names = algebra_names
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.start = array("q")
        self.end = array("q")
        self.parent = array("q")
        self.name = array("q")
        self.stack = [-1]
        self.calls: Counter = Counter()  # outermost calls, by function
        self.nodes: Counter = Counter()  # all calls, recursion included
        self.suspended = False
        self.paused_ns = 0
        self.diff_args: set = set()
        self._restore: list = []

    # -- spans -------------------------------------------------------------------

    def name_id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def clock(self) -> int:
        return time.thread_time_ns() - self.paused_ns

    def open(self, nid: int) -> int:
        idx = len(self.start)
        self.name.append(nid)
        self.parent.append(self.stack[-1])
        self.end.append(0)
        self.stack.append(idx)
        self.start.append(self.clock())
        return idx

    def close(self, idx: int):
        self.end[idx] = self.clock()
        self.stack.pop()

    # -- wrapping ----------------------------------------------------------------

    def install(self, modules: list, classes: dict):
        """Wrap the listed functions in every given module namespace and the
        listed methods on ``classes`` (name -> class)."""
        import weilc

        for layer, names in LAYER_API.items():
            home = getattr(weilc, layer)
            for fname in names:
                fn = getattr(home, fname)
                wrapper = self._wrap(fn, f"{layer}.{RENAMED.get(fname, fname)}")
                for mod in modules:
                    if vars(mod).get(fname) is fn:
                        self._restore.append((mod, fname, fn))
                        setattr(mod, fname, wrapper)
        for layer, cls_name, methods in LAYER_METHODS:
            cls = classes[cls_name]
            wrappers = {}
            for m in methods:
                fn = vars(cls)[m]
                if fn not in wrappers:
                    wrappers[fn] = self._wrap(fn, f"{layer}.{RENAMED.get(m, m)}")
                self._restore.append((cls, m, fn))
                setattr(cls, m, wrappers[fn])

    def uninstall(self):
        for owner, name, fn in reversed(self._restore):
            setattr(owner, name, fn)
        self._restore.clear()

    def _wrap(self, fn, key: str):
        tracer = self
        active = [False]
        if key == "algebra.mul":
            span_id = self._mul_span_id
        elif key == "oracle.suite":
            def span_id(args):
                return tracer.name_id(f"oracle.suite.{args[0]}")
        else:
            nid = self.name_id(key)

            def span_id(args):
                return nid
        note_diff = key == "expr.diff"

        def wrapper(*args, **kwargs):
            if tracer.suspended:
                return fn(*args, **kwargs)
            tracer.nodes[key] += 1
            if active[0]:
                return fn(*args, **kwargs)
            tracer.calls[key] += 1
            if note_diff:
                tracer._note_diff_arg(args)
            active[0] = True
            idx = tracer.open(span_id(args))
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.close(idx)
                active[0] = False

        wrapper.__wrapped__ = fn
        return wrapper

    def _mul_span_id(self, args):
        algebra = args[0].algebra
        pres = algebra.presentation
        name = self.algebra_names.get((pres.generators, pres.relations), "other")
        return self.name_id(f"algebra.mul@{name}")

    def _note_diff_arg(self, args):
        """Remember (printed argument, index) for the distinct ratio.  The
        printing is excluded from every span: the clock stops meanwhile."""
        from weilc.expr import to_string

        t0 = time.thread_time_ns()
        self.suspended = True
        try:
            text = to_string(args[0])
        finally:
            self.suspended = False
        self.diff_args.add((hash(text), len(text), args[1]))
        self.paused_ns += time.thread_time_ns() - t0

    # -- results -----------------------------------------------------------------

    def totals(self):
        """Self seconds, inclusive seconds and span count, by span name."""
        import numpy as np

        start = np.frombuffer(self.start, dtype=np.int64)
        end = np.frombuffer(self.end, dtype=np.int64)
        parent = np.frombuffer(self.parent, dtype=np.int64)
        name = np.frombuffer(self.name, dtype=np.int64)
        dur = (end - start).astype(float) * 1e-9
        covered = np.zeros(len(dur))
        has_parent = parent >= 0
        np.add.at(covered, parent[has_parent], dur[has_parent])
        size = len(self.names)
        own = np.bincount(name, weights=dur - covered, minlength=size)
        incl = np.bincount(name, weights=dur, minlength=size)
        count = np.bincount(name, minlength=size)
        return {n: (float(own[i]), float(incl[i]), int(count[i]))
                for i, n in enumerate(self.names)}

    def dump(self, path: str):
        """Write the spans and the name table as a compressed numpy archive."""
        import numpy as np

        np.savez_compressed(
            path,
            names=np.array(self.names),
            name=np.frombuffer(self.name, dtype=np.int64),
            start_ns=np.frombuffer(self.start, dtype=np.int64),
            end_ns=np.frombuffer(self.end, dtype=np.int64),
            parent=np.frombuffer(self.parent, dtype=np.int64),
        )


def layer_metrics(tracer: Tracer, algebras, suites) -> dict:
    """The per-layer metrics of one traced run, by metric name."""
    totals = tracer.totals()
    own = {n: t[0] for n, t in totals.items()}
    root = sum(t[1] for n, t in totals.items() if n.startswith("bench."))

    def share(seconds):
        return seconds / root if root else 0.0

    out = {}
    for layer in LAYERS:
        s = sum(v for n, v in own.items() if n.split(".")[0] == layer)
        out[f"{layer}.self_s"] = s
        out[f"{layer}.share"] = share(s)
    out["unattributed.share"] = share(sum(v for n, v in own.items() if n.startswith("bench.")))

    def us_per_call(seconds, calls):
        return 1e6 * seconds / calls if calls else 0.0

    mul = [t for n, t in totals.items() if n.startswith("algebra.mul@")]
    out["algebra.mul.calls"] = tracer.calls["algebra.mul"]
    out["algebra.mul.self_s"] = sum(t[0] for t in mul)
    out["algebra.mul.us_per_call"] = us_per_call(out["algebra.mul.self_s"],
                                                 out["algebra.mul.calls"])
    for name in algebras:
        t = totals.get(f"algebra.mul@{name}", (0.0, 0.0, 0))
        out[f"algebra.mul.us_per_call.{name}"] = us_per_call(t[0], t[2])
    for fn in ("algebra.taylor_lift", "expr.diff", "expr.eval_real", "expr.eval_weil"):
        out[f"{fn}.calls"] = tracer.calls[fn]
        out[f"{fn}.self_s"] = own.get(fn, 0.0)
    out["algebra.build.self_s"] = own.get("algebra.build", 0.0)
    out["expr.diff.nodes"] = tracer.nodes["expr.diff"]
    calls = tracer.calls["expr.diff"]
    out["expr.diff.distinct_ratio"] = len(tracer.diff_args) / calls if calls else 0.0
    for fn in ("expr.parse", "expr.to_string", "prolongation.apply_at", "forms.evaluate",
               "config.load_config", "cli.main"):
        out[f"{fn}.self_s"] = own.get(fn, 0.0)
    for suite in suites:
        out[f"oracle.suite.{suite}.s"] = totals.get(f"oracle.suite.{suite}", (0, 0.0))[1]
    out["trace.spans"] = len(tracer.start)
    return out
