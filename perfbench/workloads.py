"""The three workloads: their set-up and their fixed, seeded op lists.

Everything here runs in the measured process, so it imports weilc and the
standard library only.  An op is a zero-argument callable that makes one
call into weilc; ``record`` turns its raw result into a JSON-ready dict for
the reference checker, outside the timed region.

The op list of a round is a pure function of (workload, seed, round): the
same seed gives the same inputs, and no op list depends on how fast the
machine is.
"""

from __future__ import annotations

import contextlib
import os
import random

from weilc import cli
from weilc.algebra import AlgebraPresentation, build_algebra, jets, trivial_algebra
from weilc.config import load_config
from weilc.expr import diff, eval_real, eval_weil, parse, to_string
from weilc.forms import CoordForm, dform, lie_derivative, wedge
from weilc.poisson import PoissonStructure, bracket
from weilc.prolongation import APoint, AVectorField

HERE = os.path.dirname(os.path.abspath(__file__))
CONFIGS = {
    "chart2": os.path.join(HERE, "configs", "chart2.yaml"),
    "chart3": os.path.join(HERE, "configs", "chart3.yaml"),
}

# Presentations by name, as the benchmark reports them (per-algebra
# multiply times are keyed by these names).
PRESENTATIONS = {
    "dual": (("eps",), ((2,),)),
    "jet2": (("t",), ((3,),)),
    "jet3": (("t",), ((4,),)),
    "jet4": (("t",), ((5,),)),
    "plane": (("a", "b"), ((2, 0), (1, 1), (0, 2))),
    "mixed": (("a", "b"), ((3, 0), (1, 1), (0, 2))),
    "square": (("a", "b"), ((2, 0), (0, 2))),
    "corner3": (
        ("a", "b", "c"),
        ((2, 0, 0), (0, 2, 0), (0, 0, 2), (1, 1, 0), (1, 0, 1), (0, 1, 1)),
    ),
    "jets10": (("t",), ((11,),)),
    "R": ((), ()),
}

PER_ALGEBRA = tuple(n for n in PRESENTATIONS if n != "R")

SUITES = ("hom_laws", "field_prolong", "bracket_prolong", "cartan", "poisson_full")

# -- verify ----------------------------------------------------------------------

VERIFY_SUITE_SEEDS = 60  # seeds per round; each seed runs all five suites
VERIFY_SUITE_TRIALS = 3
VERIFY_PF_TRIALS = 3
VERIFY_ALGEBRAS = ("dual", "jet2", "plane", "corner3")
# (config, bivector): three Poisson bivectors and one that is not
VERIFY_BIVECTORS = (
    ("chart2", "canonical2"),
    ("chart3", "so3"),
    ("chart2", "quadratic2"),
    ("chart3", "shifted3"),
)

# -- weil_eval -------------------------------------------------------------------

WEIL_EXPRESSIONS = (
    "x1^3*x2 - 2*x1*x2^2 + 0.5*x2 - 1",
    "exp(x1 - x2)",
    "sin(x1)*cos(x2)",
    "tan(x1/2 + x2/3)",
    "log(2 + x1^2 + x2)",
    "sqrt(2 + x1*x2)",
    "(x1 + x2)/(3 + x1 - x2)",
    "(2 + x2)^-3*x1^4",
    "exp(sin(x1*x2)) - cos(exp(x2)/2)",
    "sin(x1*x2)/(1 + x1^2)",
    "sqrt(exp(x1) + log(3 + x2))",
    "x1/(1 + x2^2)^2 + tan(sin(x1))",
)
WEIL_ALGEBRAS = ("dual", "jet4", "plane", "square", "corner3", "jets10")
WEIL_POINTS = 400  # points per algebra per round
WEIL_SAMPLES = 2  # points per (expression, algebra) checked against Taylor

# -- symbolic --------------------------------------------------------------------

# Growth expression templates and the fixed order in which each is
# differentiated; {a} and {b} are seeded constants in [1.1, 2.9], so every
# chain set prints differently and nearly every diff argument is new.
GROWTH = (
    ("sin({a}*x1*x2)/({b} + x1^2)", (0, 0, 0, 0, 0, 0)),
    ("exp({a}*x1*x2)*cos(x1 + {b}*x2)", (0, 1, 0, 1, 0, 1)),
    ("log({b} + x1^2*x2)/({a} + 2 - x2)", (1, 0, 1, 0, 1, 0)),
    ("tan(x1/{b})*sqrt({a} + 1 + x2)", (0, 1, 0, 0, 1, 1)),
)
CHAIN_SETS = 8  # chain sets per round, each differentiating every template
SYMBOLIC_BIVECTORS = {
    "canonical2": (2, {(0, 1): "1"}),
    "quadratic2": (2, {(0, 1): "1 + x1^2*x2"}),
    "so3": (3, {(0, 1): "x3", (1, 2): "x1", (0, 2): "-x2"}),
    "shifted3": (3, {(0, 1): "1", (1, 2): "x2"}),
}
JACOBI_TRIPLES = 4  # seeded triples of cubic polynomials per bivector
SYMBOLIC_POINTS = 8  # points per Jacobiator and form identity
DIFF_POINTS = 6  # points each new derivative is evaluated at
# Fixed forms on a 3-dimensional chart (coefficients by index tuple).  Every
# identity below has a result of degree at most 3, so none is vacuously
# empty: d(d(c)) of the 2-form c, or d(b ^ c), would be 4-forms on R^3.
FORM_W0 = {(): "x1^2*x2*x3 + sin(x1)*x3"}
FORM_A = {(0,): "x2*x3^2", (1,): "x1^3 - x3", (2,): "exp(x1)*x2"}
FORM_B = {(0,): "x3", (1,): "x1*x2", (2,): "x2^2 - x1"}
FORM_C = {(0, 1): "x3^2", (0, 2): "x1*x2*x3", (1, 2): "cos(x2)"}
FIELD_X = ("x2*x3", "x1 - x3^2", "x1*x2 + 1")
FORM_SETS = (
    ("dd", "w0"),
    ("dd", "a"),
    ("dd", "b"),
    ("leibniz", "a,b"),
    ("leibniz", "w0,c"),
    ("cartan", "w0"),
    ("cartan", "a"),
    ("cartan", "c"),
)


def rng_for(workload: str, seed: int, round_: int) -> random.Random:
    return random.Random(f"{workload}:{seed}:{round_}")


# -- set-up --------------------------------------------------------------------------


def build_named(name: str):
    gens, rels = PRESENTATIONS[name]
    return build_algebra(AlgebraPresentation(gens, rels))


def parse_form(coeffs: dict, algebra, n: int = 3) -> CoordForm:
    degree = len(next(iter(coeffs)))
    return CoordForm(
        degree, n, algebra, {idx: parse(text, n) for idx, text in coeffs.items()}
    )


def setup(workload: str) -> dict:
    """Everything a workload needs before its first op: configs loaded,
    algebras built, inputs parsed.  ``setup_s`` times this in a fresh
    process together with ``import weilc``."""
    if workload == "verify":
        # the check ops reload the configs themselves; loading here parses
        # every input once and fails early on a broken config
        return {"configs": {k: load_config(p) for k, p in CONFIGS.items()}}
    if workload == "weil_eval":
        algebras = {n: build_named(n) for n in WEIL_ALGEBRAS if n != "jets10"}
        algebras["jets10"] = jets(10)
        return {
            "algebras": algebras,
            "exprs": [parse(s, 2) for s in WEIL_EXPRESSIONS],
        }
    if workload == "symbolic":
        base = trivial_algebra()
        bivectors = {
            name: PoissonStructure(n, {k: parse(v, n) for k, v in entries.items()})
            for name, (n, entries) in SYMBOLIC_BIVECTORS.items()
        }
        forms = {
            "w0": parse_form(FORM_W0, base),
            "a": parse_form(FORM_A, base),
            "b": parse_form(FORM_B, base),
            "c": parse_form(FORM_C, base),
        }
        field = AVectorField(tuple(parse(c, 3) for c in FIELD_X), base)
        return {
            "bivectors": bivectors,
            "forms": forms,
            "field": field,
        }
    raise KeyError(workload)


# -- op lists -------------------------------------------------------------------------


class Op:
    """One call into weilc; ``run`` is timed, ``record`` is not."""

    __slots__ = ("kind", "run", "record")

    def __init__(self, kind, run, record):
        self.kind = kind
        self.run = run
        self.record = record


def build_ops(workload: str, state: dict, seed: int, rounds: int, tmpdir: str,
              smoke: bool = False):
    """Yield the ops of ``rounds`` rounds.  Ops are made one at a time, so
    that the inputs of ops not yet run do not add to peak RSS."""
    make_ops = {"verify": _verify_ops, "weil_eval": _weil_ops, "symbolic": _symbolic_ops}
    for r in range(rounds):
        yield from make_ops[workload](state, rng_for(workload, seed, r), tmpdir, r, smoke)


def _verify_ops(state, rng, tmpdir, round_, smoke):
    n_seeds = 1 if smoke else VERIFY_SUITE_SEEDS
    trials_s = 1 if smoke else VERIFY_SUITE_TRIALS
    trials_p = 2 if smoke else VERIFY_PF_TRIALS
    algebras = VERIFY_ALGEBRAS[:1] if smoke else VERIFY_ALGEBRAS
    specs = []
    for _ in range(n_seeds):
        s = rng.randrange(1, 2**31)
        for suite in SUITES:
            specs.append(dict(config="chart2", suite=suite, seed=s, trials=trials_s))
    bivector_specs = []
    for config, pi in VERIFY_BIVECTORS:
        for alg in algebras:
            bivector_specs.append(
                dict(config=config, suite="poisson_full", seed=rng.randrange(1, 2**31),
                     trials=trials_p, pi=pi, algebra=alg)
            )
    # every bivector check runs twice, once before and once after the suite
    # block, so that byte-identical reports are checked within the run
    specs = bivector_specs + specs + bivector_specs
    for k, spec in enumerate(specs):
        path = os.path.join(tmpdir, f"r{round_}-op{k}.json")
        argv = ["--config", CONFIGS[spec["config"]], "check", spec["suite"],
                "--seed", str(spec["seed"]), "--trials", str(spec["trials"]),
                "--json", path]
        if "pi" in spec:
            argv += ["--pi", spec["pi"], "--algebra", spec["algebra"]]
        yield Op("check", _cli_run(argv), _cli_record(spec, path))


def _cli_run(argv):
    def run():
        with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
            return cli.main(argv)
    return run


def _cli_record(spec, path):
    def record(code):
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
        os.remove(path)
        return {**spec, "exit": code, "report": text}
    return record


def _weil_ops(state, rng, tmpdir, round_, smoke):
    algebras, exprs = state["algebras"], state["exprs"]
    n_points = 1 if smoke else WEIL_POINTS
    # per (algebra, expression) pair, the points checked against the
    # Taylor reference
    sampled = {name: [set(rng.sample(range(n_points), min(WEIL_SAMPLES, n_points)))
                      for _ in exprs] for name in WEIL_ALGEBRAS}
    # points outermost, so that the ops of every algebra spread over the
    # whole run rather than one stretch of it
    for p in range(n_points):
        for name in WEIL_ALGEBRAS:
            algebra = algebras[name]
            coords = []
            for _ in range(2):
                vec = [rng.uniform(-0.5, 0.5) for _ in range(algebra.dim)]
                vec[0] = rng.uniform(-1.0, 1.0)
                coords.append(vec)
            point = APoint(algebra, tuple(algebra.element(v) for v in coords))
            for k, e in enumerate(exprs):
                meta = {"expr": WEIL_EXPRESSIONS[k], "algebra": name, "point": coords,
                        "taylor": p in sampled[name][k]}
                yield Op("eval_weil", _weil_run(e, point), _weil_record(meta))


def _weil_run(e, point):
    return lambda: eval_weil(e, point)


def _weil_record(meta):
    return lambda value: {**meta, "coeffs": [float(c) for c in value.coeffs]}


def _points(rng, n, count):
    return [[rng.uniform(-1.0, 1.0) for _ in range(n)] for _ in range(count)]


def _symbolic_ops(state, rng, tmpdir, round_, smoke):
    n_pts = 1 if smoke else SYMBOLIC_POINTS
    templates = GROWTH[:1] if smoke else GROWTH
    for _ in range(1 if smoke else CHAIN_SETS):
        texts = [t.format(a=round(rng.uniform(1.1, 2.9), 2), b=round(rng.uniform(1.1, 2.9), 2))
                 for t, _ in templates]
        chains = [[parse(text, 2)] for text in texts]
        for level in range(1, 3 if smoke else 7):
            for g, (_, order) in enumerate(templates):
                pts = _points(rng, 2, 1 if smoke else DIFF_POINTS)
                meta = {"growth": texts[g], "order": list(order[:level]), "points": pts}
                yield Op("diff", _diff_run(chains[g], order[level - 1], pts),
                         _plain_record(meta))
                # round trips stop at the 5th derivative, which prints to
                # about 20k characters; the 6th prints to over 100k
                yield Op("roundtrip", _roundtrip_run(chains[g], level - 1),
                         _plain_record({"growth": texts[g],
                                        "order": list(order[:level - 1])}))
    for name, (n, entries) in SYMBOLIC_BIVECTORS.items():
        pi = state["bivectors"][name]
        for _ in range(1 if smoke else JACOBI_TRIPLES):
            polys = [_cubic(rng, n) for _ in range(3)]
            pts = _points(rng, n, n_pts)
            meta = {"dim": n, "entries": {f"{i + 1},{j + 1}": v for (i, j), v in entries.items()},
                    "polys": polys, "points": pts}
            yield Op("jacobi", _jacobi_run(pi, [parse(p, n) for p in polys], pts),
                     _plain_record(meta))
    for kind, names in (FORM_SETS[::3] if smoke else FORM_SETS):
        pts = _points(rng, 3, n_pts)
        meta = {"identity": kind, "forms": names, "points": pts}
        yield Op("forms", _forms_run(state, kind, names, pts), _forms_record(meta))


def _plain_record(meta):
    return lambda value: {**meta, "value": value}


def _diff_run(chain, index, pts):
    def run():
        e = diff(chain[-1], index)
        chain.append(e)
        return [eval_real(e, p) for p in pts]
    return run


def _roundtrip_run(chain, level):
    def run():
        e = chain[level]
        return parse(to_string(e), 2) == e
    return run


def _cubic(rng, n) -> str:
    """A seeded cubic polynomial in grammar form, integer coefficients."""
    terms = []
    for k in range(4):
        degree = 3 if k == 0 else rng.randrange(0, 4)
        factors = [f"x{rng.randrange(1, n + 1)}" for _ in range(degree)]
        coeff = rng.choice([c for c in range(-3, 4) if c])
        terms.append("*".join([str(coeff)] + factors))
    return " + ".join(f"({t})" for t in terms)


def _jacobi_run(pi, polys, pts):
    f, g, h = polys

    def run():
        jac = (bracket(pi, f, bracket(pi, g, h)) + bracket(pi, g, bracket(pi, h, f))
               + bracket(pi, h, bracket(pi, f, g)))
        return [eval_real(jac, p) for p in pts]
    return run


def _forms_run(state, kind, names, pts):
    forms, field = state["forms"], state["field"]
    parts = [forms[n] for n in names.split(",")]

    def run():
        if kind == "dd":
            out = dform(dform(parts[0]))
        elif kind == "leibniz":
            # d(a ^ b); the reference rebuilds it from d, ^ and signs
            out = dform(wedge(parts[0], parts[1]))
        else:
            out = lie_derivative(field, parts[0])
        return out, {idx: [eval_real(c, p) for p in pts] for idx, c in out.coeffs.items()}
    return run


def _forms_record(meta):
    def record(result):
        form, values = result
        return {**meta, "degree": form.degree,
                "values": {",".join(map(str, idx)): v for idx, v in values.items()},
                "printed": {",".join(map(str, idx)): to_string(c)
                            for idx, c in form.coeffs.items()}}
    return record
