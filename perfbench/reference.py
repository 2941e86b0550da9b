"""Independent references for the benchmark's outputs.

Runs in a child process of the benchmark, so that sympy and mpmath stay out
of the measured process's timings and peak RSS.  Nothing here imports
weilc: sympy reads the same grammar strings through its own parser, and
every value weilc produced is recomputed by another route or tested
against a property the method must have.

Protocol: a JSON request ``{"workload", "records_path", "context"}`` on
stdin, the records one JSON object per line in that file; a
JSON reply ``{"failed": [[index, reason], ...]}`` on stdout.  A record
whose output disagrees with its reference is listed with the reason.
"""

from __future__ import annotations

import functools
import itertools
import json
import math
import sys
from fractions import Fraction

import mpmath as mp
import sympy as sp
import yaml
from sympy.parsing.sympy_parser import (
    convert_xor,
    parse_expr,
    rationalize,
    standard_transformations,
)

SYMBOLS = sp.symbols("x1:4")
_TRANSFORMS = standard_transformations + (convert_xor, rationalize)
REPORT_FIELDS = {"suite", "seed", "trials", "max_residual", "pass", "witnesses"}
# Tolerances: normalized residual |a - b| / (1 + |b|).  weilc computes in
# double precision; every reference below is exact or carries >= 30 digits.
REAL_TOL = 1e-11  # real part of eval_weil against plain math
TAYLOR_TOL = 1e-9  # all coefficients of eval_weil against the Taylor sum
VALUE_TOL = 1e-9  # derivative, Jacobiator and form values


def parse(text: str, n: int) -> sp.Expr:
    """Grammar string to sympy; decimal literals become exact rationals."""
    names = {f"x{i + 1}": SYMBOLS[i] for i in range(n)}
    return parse_expr(text, local_dict=names, transformations=_TRANSFORMS)


def close(value: float, ref, tol: float) -> bool:
    return math.isfinite(value) and abs(value - float(ref)) <= tol * (1.0 + abs(float(ref)))


# -- verify -------------------------------------------------------------------------


def poisson_verdicts(data: dict) -> dict[str, bool]:
    """Decide each bivector of a weilc config: Poisson iff every coordinate
    Jacobiator expands to 0."""
    n = data["chart_dim"]
    xs = SYMBOLS[:n]
    out = {}
    for name, entries in (data.get("bivectors") or {}).items():
        pi = sp.zeros(n, n)
        for key, text in entries.items():
            i, j = (int(s) - 1 for s in str(key).split(","))
            pi[i, j] = parse(str(text), n)
            pi[j, i] = -pi[i, j]

        def br(f, g):
            return sum(pi[a, b] * sp.diff(f, xs[a]) * sp.diff(g, xs[b])
                       for a in range(n) for b in range(n))

        out[name] = all(
            sp.expand(br(xs[i], br(xs[j], xs[k])) + br(xs[j], br(xs[k], xs[i]))
                      + br(xs[k], br(xs[i], xs[j]))) == 0
            for i, j, k in itertools.combinations(range(n), 3)
        )
    return out


def check_verify(records, context):
    verdicts, tols = {}, {}
    for name, path in context["configs"].items():
        with open(path, encoding="utf-8") as fh:
            data = yaml.safe_load(fh)
        verdicts[name] = poisson_verdicts(data)
        tols[name] = float(data["suites"]["tol"])
    failed = []
    first_text = {}
    for k, rec in enumerate(records):
        pi = rec.get("pi")
        expected = 0 if pi is None or verdicts[rec["config"]][pi] else 4
        reason = _verify_reason(rec, expected, tols[rec["config"]])
        key = (rec["config"], rec["suite"], rec["seed"], rec["trials"], pi, rec.get("algebra"))
        if reason is None and first_text.setdefault(key, rec["report"]) != rec["report"]:
            reason = "report differs from an identical earlier run"
        if reason is not None:
            failed.append([k, reason])
    return failed


def _verify_reason(rec, expected, tol):
    if rec["exit"] != expected:
        return f"exit code {rec['exit']}, expected {expected}"
    try:
        report = json.loads(rec["report"])
    except json.JSONDecodeError:
        return "report is not JSON"
    if set(report) != REPORT_FIELDS:
        return f"report fields {sorted(report)}"
    if (report["suite"], report["seed"], report["trials"]) != (
            rec["suite"], rec["seed"], rec["trials"]):
        return "report does not echo suite, seed and trials"
    if report["pass"] != (expected == 0):
        return f"report pass={report['pass']} with exit code {rec['exit']}"
    if report["pass"]:
        r = report["max_residual"]
        if not (isinstance(r, float) and math.isfinite(r) and r <= tol):
            return f"passing report with max_residual {r!r}"
    else:
        checks = {w["inputs"].get("check") for w in report["witnesses"]}
        if not report["witnesses"] or checks != {"jacobi"}:
            return f"non-Poisson bivector failed on {sorted(map(str, checks))}"
    return None


# -- weil_eval ---------------------------------------------------------------------


def standard_basis(generators, relations):
    """Standard monomials of R[gens]/(relations), in the documented basis
    order: by total degree, then by exponents descending in generator
    order."""
    k = len(generators)
    bounds = []
    for i in range(k):
        bounds.append(min(r[i] for r in relations
                          if r[i] > 0 and sum(r) == r[i]))
    mons = [m for m in itertools.product(*(range(b) for b in bounds))
            if not any(all(a >= b for a, b in zip(m, r)) for r in relations)]
    mons.sort(key=lambda m: (sum(m), tuple(-e for e in m)))
    return mons


class TruncatedRing:
    """R[gens] modulo monomial relations; elements are {exponents: value}."""

    def __init__(self, generators, relations):
        self.relations = [tuple(r) for r in relations]
        self.basis = standard_basis(generators, self.relations)
        self.k = len(generators)

    def killed(self, m) -> bool:
        return any(all(a >= b for a, b in zip(m, r)) for r in self.relations)

    def mul(self, p, q):
        out = {}
        for ma, ca in p.items():
            for mb, cb in q.items():
                m = tuple(a + b for a, b in zip(ma, mb))
                if not self.killed(m):
                    out[m] = out.get(m, 0) + ca * cb
        return out


@functools.lru_cache(maxsize=None)
def _fd_weights(order: int, half: int) -> tuple[Fraction, ...]:
    """Exact central-difference weights w_k, k = -half..half, with
    sum w_k k^t = t! [t == order] for t = 0..2*half."""
    size = 2 * half + 1
    rows = [[Fraction(k) ** t for k in range(-half, half + 1)] for t in range(size)]
    rhs = [Fraction(math.factorial(order)) if t == order else Fraction(0)
           for t in range(size)]
    aug = [row + [rhs[t]] for t, row in enumerate(rows)]
    for col in range(size):
        piv = next(r for r in range(col, size) if aug[r][col] != 0)
        aug[col], aug[piv] = aug[piv], aug[col]
        aug[col] = [v / aug[col][col] for v in aug[col]]
        for r in range(size):
            if r != col and aug[r][col] != 0:
                f = aug[r][col]
                aug[r] = [v - f * w for v, w in zip(aug[r], aug[col])]
    return tuple(aug[t][size] for t in range(size))


def partials(f, r, height: int) -> dict:
    """All partials of f at r up to total order ``height``, by central
    differences on one grid in high precision.  Step 1e-15 keeps the
    truncation near 1e-30; 30 + 15*height digits keep the rounding there."""
    n = len(r)
    step_digits = 15
    with mp.workdps(30 + step_digits * height):
        step = mp.mpf(10) ** -step_digits
        center = [mp.mpf(c) for c in r]
        values = {}

        def at(ks):
            if ks not in values:
                values[ks] = f(*(c + k * step for c, k in zip(center, ks)))
            return values[ks]

        stencils = []  # per order: the (offset, weight) pairs with weight != 0
        for a in range(height + 1):
            half = a // 2 + 1
            stencils.append([(k, mp.mpf(w.numerator) / w.denominator)
                             for k, w in zip(range(-half, half + 1), _fd_weights(a, half))
                             if w != 0])
        out = {}
        for alpha in itertools.product(range(height + 1), repeat=n):
            if sum(alpha) > height:
                continue
            total = mp.mpf(0)
            for taps in itertools.product(*(stencils[a] for a in alpha)):
                total += at(tuple(k for k, _ in taps)) * mp.fprod(w for _, w in taps)
            out[alpha] = total / step ** sum(alpha)
    return out


def taylor_reference(f, ring: TruncatedRing, coords) -> dict:
    """sum over alpha of d^alpha f(r) n^alpha / alpha!, with r the real parts
    and n the nilpotent parts of the coordinates, products taken in the
    truncated ring."""
    height = max(sum(m) for m in ring.basis)
    zero = (0,) * ring.k
    real = [c[0] for c in coords]
    nil = [{m: mp.mpf(c) for m, c in zip(ring.basis, vec) if m != zero and c != 0}
           for vec in coords]
    derivs = partials(f, real, height)
    with mp.workdps(40):
        powers = []  # powers[i][a] = n_i^a in the truncated ring
        for n_i in nil:
            seq = [{zero: mp.mpf(1)}]
            for _ in range(height):
                seq.append(ring.mul(seq[-1], n_i))
            powers.append(seq)
        out = {}
        for alpha, d in derivs.items():
            term = {zero: mp.mpf(d) / math.prod(math.factorial(a) for a in alpha)}
            for i, a in enumerate(alpha):
                term = ring.mul(term, powers[i][a])
            for m, c in term.items():
                out[m] = out.get(m, 0) + c
    return out


def check_weil_eval(records, context):
    rings = {name: TruncatedRing(*pres) for name, pres in context["presentations"].items()}
    funcs = {}
    failed = []
    for k, rec in enumerate(records):
        if rec["expr"] not in funcs:
            e = parse(rec["expr"], 2)
            funcs[rec["expr"]] = (sp.lambdify(SYMBOLS[:2], e, "math"),
                                  sp.lambdify(SYMBOLS[:2], e, "mpmath"))
        f_math, f_mp = funcs[rec["expr"]]
        coeffs = rec["coeffs"]
        real = f_math(*(c[0] for c in rec["point"]))
        if not close(coeffs[0], real, REAL_TOL):
            failed.append([k, f"real part {coeffs[0]!r}, math gives {real!r}"])
            continue
        if rec["taylor"]:
            ring = rings[rec["algebra"]]
            ref = taylor_reference(f_mp, ring, rec["point"])
            scale = 1.0 + max(abs(float(v)) for v in ref.values())
            worst = max(abs(c - float(ref.get(m, 0))) for m, c in zip(ring.basis, coeffs))
            if not worst <= TAYLOR_TOL * scale:
                failed.append([k, f"Taylor residual {worst / scale:.3e}"])
    return failed


# -- symbolic -----------------------------------------------------------------------


def _sym_form(terms: list, n: int) -> dict:
    """[[index list, grammar string], ...] to {index tuple: sympy expr}."""
    return {tuple(idx): parse(text, n) for idx, text in terms}


def form_d(w: dict, n: int) -> dict:
    out = {}
    for idx, c in w.items():
        for i in range(n):
            if i in idx:
                continue
            pos = sum(1 for j in idx if j < i)
            key = idx[:pos] + (i,) + idx[pos:]
            out[key] = out.get(key, 0) + (-1) ** pos * sp.diff(c, SYMBOLS[i])
    return out


def form_wedge(a: dict, b: dict) -> dict:
    out = {}
    for ia, ca in a.items():
        for ib, cb in b.items():
            seq = ia + ib
            if len(set(seq)) < len(seq):
                continue
            inversions = sum(1 for x, y in itertools.combinations(seq, 2) if x > y)
            key = tuple(sorted(seq))
            out[key] = out.get(key, 0) + (-1) ** inversions * ca * cb
    return out


def form_interior(field, w: dict) -> dict:
    out = {}
    for idx, c in w.items():
        for k, i in enumerate(idx):
            key = idx[:k] + idx[k + 1:]
            out[key] = out.get(key, 0) + (-1) ** k * field[i] * c
    return out


def _add_forms(a: dict, b: dict) -> dict:
    out = dict(a)
    for k, v in b.items():
        out[k] = out.get(k, 0) + v
    return out


def _values(expr, points, n):
    f = sp.lambdify(SYMBOLS[:n], expr, "mpmath")
    with mp.workdps(30):
        return [f(*(mp.mpf(x) for x in p)) for p in points]


def _poly_jacobiator(dim, entries, polys):
    xs = SYMBOLS[:dim]
    pi = {}
    for key, text in entries.items():
        i, j = (int(s) - 1 for s in key.split(","))
        pi[(i, j)] = sp.Poly(parse(text, dim), *xs, domain="QQ")
    ps = [sp.Poly(parse(p, dim), *xs, domain="QQ") for p in polys]

    def br(f, g):
        out = sp.Poly(0, *xs, domain="QQ")
        for (i, j), p in pi.items():
            out += p * (f.diff(xs[i]) * g.diff(xs[j]) - f.diff(xs[j]) * g.diff(xs[i]))
        return out

    f, g, h = ps
    return br(f, br(g, h)) + br(g, br(h, f)) + br(h, br(f, g))


def _derivative(chains: dict, growth: str, order: tuple):
    """sympy's partial of ``growth`` along ``order``, reusing shorter ones."""
    key = (growth, order)
    if key not in chains:
        if order:
            chains[key] = sp.diff(_derivative(chains, growth, order[:-1]), SYMBOLS[order[-1]])
        else:
            chains[key] = parse(growth, 2)
    return chains[key]


def check_symbolic(records, context):
    n_forms = 3
    forms = {name: _sym_form(c, n_forms) for name, c in context["forms"].items()}
    field = [parse(c, n_forms) for c in context["field"]]
    chains = {}
    failed = []
    for k, rec in enumerate(records):
        kind = rec["kind"]
        if kind == "diff":
            refs = _values(_derivative(chains, rec["growth"], tuple(rec["order"])),
                           rec["points"], 2)
            bad = [(v, r) for v, r in zip(rec["value"], refs) if not close(v, r, VALUE_TOL)]
            if bad:
                failed.append([k, f"derivative {bad[0][0]!r}, sympy gives {float(bad[0][1])!r}"])
        elif kind == "roundtrip":
            if rec["value"] is not True:
                failed.append([k, "parse(to_string(e)) != e"])
        elif kind == "jacobi":
            jac = _poly_jacobiator(rec["dim"], rec["entries"], rec["polys"])
            for v, p in zip(rec["value"], rec["points"]):
                ref = jac.eval({s: sp.Rational(x) for s, x in zip(SYMBOLS, p)})
                if not close(v, ref, VALUE_TOL):
                    failed.append([k, f"Jacobiator {v!r}, sympy gives {float(ref)!r}"])
                    break
        elif kind == "forms":
            reason = _forms_reason(rec, forms, field, n_forms)
            if reason is not None:
                failed.append([k, reason])
        else:
            failed.append([k, f"unknown record kind {kind!r}"])
    return failed


def _forms_reason(rec, forms, field, n):
    names = rec["forms"].split(",")
    if rec["identity"] == "dd":
        for text in rec["printed"].values():
            if sp.expand(parse(text, n)) != 0:
                return f"d(d(w)) coefficient {text!r} does not expand to 0"
        ref = {}
    elif rec["identity"] == "leibniz":
        ref = form_d(form_wedge(forms[names[0]], forms[names[1]]), n)
    else:
        w = forms[names[0]]
        ref = _add_forms(form_interior(field, form_d(w, n)),
                         form_d(form_interior(field, w), n) if w and len(next(iter(w))) else {})
    keys = {",".join(map(str, idx)) for idx in ref} | set(rec["values"])
    for key in keys:
        idx = tuple(int(s) for s in key.split(",")) if key else ()
        expr = sp.sympify(ref.get(idx, 0))
        refs = _values(expr, rec["points"], n)
        got = rec["values"].get(key, [0.0] * len(rec["points"]))
        for v, r in zip(got, refs):
            if not close(v, r, VALUE_TOL):
                return f"{rec['identity']} coefficient {key or '()'}: {v!r}, sympy gives {float(r)!r}"
    return None


CHECKERS = {"verify": check_verify, "weil_eval": check_weil_eval, "symbolic": check_symbolic}


def main() -> int:
    request = json.load(sys.stdin)
    with open(request["records_path"], encoding="utf-8") as fh:
        records = [json.loads(line) for line in fh]
    failed = CHECKERS[request["workload"]](records, request["context"])
    json.dump({"failed": failed}, sys.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
