"""Independent numeric oracles and the randomized check-suite registry.

Nothing here reuses the algebra arithmetic it is checking: Taylor
coefficients come from central finite differences (exact rational stencil
weights, a fixed step and working precision, nodes evaluated through mpmath
so the caller can supply high-precision function handles), and polynomial
identities can be settled in exact rational arithmetic.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache, partial
from typing import Callable, Sequence

from .algebra import WeilElement, apply_linear
from .errors import DimensionMismatch, DomainError, UnknownSuite, WeilcError
from .expr import (
    AFunction,
    Add,
    ConstR,
    Expr,
    Mul,
    Neg,
    Pow,
    Sub,
    Var,
    ZERO,
    add,
    chart_point,
    diff,
    eval_weil,
    is_zero,
    mul,
    same_chart,
    substitute,
    to_string,
)
from .forms import (
    CoordForm,
    contract,
    delta,
    dform,
    interior,
    lie_derivative,
    prolong_form,
    wedge,
)
from .poisson import CheckReport, _a_poisson_trial, _run_trials, canonical_structure
from .prolongation import (
    VectorField,
    apply_field,
    lie_bracket,
    prolong_field,
    prolong_map,
)
from . import sampling


# -- finite-difference Taylor coefficients ------------------------------------------


# the stencil step, scaled by max(1, |r|), and the working precision in digits
STEP = 1e-3
DPS = 50


def _solve_exact(rows: list[list[Fraction]], rhs: list[Fraction]) -> list[Fraction]:
    n = len(rows)
    aug = [row[:] + [rhs[i]] for i, row in enumerate(rows)]
    for col in range(n):
        pivot = next(r for r in range(col, n) if aug[r][col] != 0)
        aug[col], aug[pivot] = aug[pivot], aug[col]
        inv = aug[col][col]
        aug[col] = [v / inv for v in aug[col]]
        for r in range(n):
            if r != col and aug[r][col] != 0:
                factor = aug[r][col]
                aug[r] = [v - factor * w for v, w in zip(aug[r], aug[col])]
    return [aug[i][n] for i in range(n)]


@lru_cache(maxsize=None)
def central_diff_weights(deriv: int, half_width: int) -> tuple[Fraction, ...]:
    """Exact weights w_k, k = -m..m, with sum w_k k^t = t! delta(t, deriv)."""
    m = half_width
    size = 2 * m + 1
    offsets = list(range(-m, m + 1))
    rows = [[Fraction(k) ** t for k in offsets] for t in range(size)]
    rhs = [
        Fraction(math.factorial(deriv)) if t == deriv else Fraction(0)
        for t in range(size)
    ]
    return tuple(_solve_exact(rows, rhs))


def _probe(f: Callable, x):
    import mpmath as mp  # loaded already by taylor_coeffs, the only caller

    try:
        value = f(x)
    except (ValueError, ZeroDivisionError, OverflowError, DomainError) as exc:
        raise DomainError(f"stencil point {float(x)} outside the domain") from exc
    if isinstance(value, (complex, mp.mpc)):
        if abs(complex(value).imag) > 0:
            raise DomainError(f"complex value at stencil point {float(x)}")
        value = complex(value).real
    if mp.isnan(value) or mp.isinf(value):
        raise DomainError(f"non-finite value at stencil point {float(x)}")
    return value


def taylor_coeffs(f: Callable, r: float, h: int) -> list[float]:
    """Taylor coefficients f, f'/1!, ..., f^(h)/h! at r by central differences.

    The truncation error is O(STEP^accuracy) per coefficient, with the
    accuracy h + 2 rounded up to even.  Orders above 6 are refused:
    the weights grow too fast for the result to mean anything in double
    precision.  Node arithmetic runs through mpmath at DPS digits, so
    passing an mpmath-aware handle (or any pure-Python arithmetic function)
    removes the float cancellation floor; a double-only handle bottoms out
    near eps/STEP^h.
    """
    if not 0 <= h <= 6:
        raise DomainError(f"oracle order {h} outside 0..6")
    # imported here, not at module level: only this oracle uses mpmath, a test
    # dependency, and it would add to the start-up of every weilc command
    try:
        import mpmath as mp
    except ImportError as exc:
        raise WeilcError(
            "taylor_coeffs needs mpmath, from weilc's test extra: "
            "pip install 'weilc[test]'"
        ) from exc

    acc = h + 2 + h % 2
    out = [0.0] * (h + 1)
    with mp.workdps(DPS):
        scale = mp.mpf(STEP) * max(1.0, abs(r))
        center = mp.mpf(r)
        widths = [0 if j == 0 else (acc + j) // 2 for j in range(h + 1)]
        m_max = max(widths)
        values = {k: _probe(f, center + k * scale) for k in range(-m_max, m_max + 1)}
        out[0] = float(values[0])
        for j in range(1, h + 1):
            m = widths[j]
            weights = central_diff_weights(j, m)
            total = mp.mpf(0)
            for k, w in zip(range(-m, m + 1), weights):
                if w != 0:
                    total += mp.mpf(w.numerator) * values[k] / w.denominator
            out[j] = float(total / scale**j / math.factorial(j))
    return out


# -- exact polynomial expansion ------------------------------------------------------


def poly_coeffs_exact(e: Expr, n: int) -> dict[tuple[int, ...], Fraction]:
    """Expand a polynomial expression exactly over the rationals.

    Settles identities such as d(d(omega)) = 0 or bracket antisymmetry
    without floating error; raises ValueError on non-polynomial nodes and
    DimensionMismatch on a variable beyond ``n``.  A shared subexpression is
    expanded once per call.
    """
    if e.top >= n:
        raise DimensionMismatch(f"expression uses x{e.top + 1} on a chart of dimension {n}")
    return dict(_poly_coeffs(e, n, {}))


def _poly_coeffs(e: Expr, n: int, memo: dict) -> dict[tuple[int, ...], Fraction]:
    # results are memoised by node identity, so none is mutated once built
    key = id(e)
    out = memo.get(key)
    if out is not None:
        return out
    if isinstance(e, Var):
        out = {tuple(1 if i == e.index else 0 for i in range(n)): Fraction(1)}
    elif isinstance(e, ConstR):
        out = {(0,) * n: Fraction(e.value)} if e.value else {}
    elif isinstance(e, (Add, Sub)):
        total = dict(_poly_coeffs(e.left, n, memo))
        sign = 1 if isinstance(e, Add) else -1
        for expt, c in _poly_coeffs(e.right, n, memo).items():
            total[expt] = total.get(expt, Fraction(0)) + sign * c
        out = {k: v for k, v in total.items() if v}
    elif isinstance(e, Neg):
        out = {k: -v for k, v in _poly_coeffs(e.arg, n, memo).items()}
    elif isinstance(e, Mul):
        out = _poly_product(_poly_coeffs(e.left, n, memo), _poly_coeffs(e.right, n, memo))
    elif isinstance(e, Pow):
        if e.exponent < 0:
            raise ValueError("negative power is not polynomial")
        base = _poly_coeffs(e.base, n, memo)
        out = {(0,) * n: Fraction(1)}
        for _ in range(e.exponent):
            out = _poly_product(out, base)
    else:
        raise ValueError(f"{type(e).__name__} node is not polynomial")
    memo[key] = out
    return out


def _poly_product(left: dict, right: dict) -> dict[tuple[int, ...], Fraction]:
    out: dict[tuple[int, ...], Fraction] = {}
    for ea, ca in left.items():
        for eb, cb in right.items():
            expt = tuple(x + y for x, y in zip(ea, eb))
            out[expt] = out.get(expt, Fraction(0)) + ca * cb
    return {k: v for k, v in out.items() if v}


def form_is_zero_exact(w: CoordForm, n: int) -> bool:
    """Exact rational test that every coefficient expands to zero."""
    return all(not poly_coeffs_exact(c, n) for c in w.coeffs.values())


# -- independent coordinate formulas used as second routes ---------------------------


def classical_lie_one_form(
    components: Sequence[Expr], w: CoordForm
) -> CoordForm:
    """Lie derivative of a 1-form by the textbook coordinate formula
    (theta applied to coefficients plus contraction against the Jacobian),
    an independent route to the Cartan-formula implementation."""
    comps = tuple(components)
    coeffs = {}
    for i in range(w.dim):
        total: Expr = ZERO
        phi_i = w.coefficient((i,))
        for j in range(w.dim):
            total = add(total, mul(comps[j], diff(phi_i, j)))
        for j in range(w.dim):
            total = add(total, mul(w.coefficient((j,)), diff(comps[j], i)))
        if not is_zero(total):
            coeffs[(i,)] = total
    return CoordForm(1, w.dim, w.algebra, coeffs)


def interior_eval(
    field: VectorField, w: CoordForm, point
) -> dict[tuple[int, ...], WeilElement]:
    """First-slot contraction assembled from separately evaluated pieces."""
    algebra = same_chart(field, w)
    point = chart_point(point, w)
    comp_values = [eval_weil(c, point, algebra) for c in field.components]
    zero = eval_weil(ZERO, point, algebra)
    out: dict[tuple[int, ...], WeilElement] = {}
    for idx, c in w.coeffs.items():
        value = eval_weil(c, point, algebra)
        for k, i in enumerate(idx):
            rest = idx[:k] + idx[k + 1 :]
            term = comp_values[i] * value
            if k % 2:
                term = -term
            out[rest] = out.get(rest, zero) + term
    return out


# -- suites ---------------------------------------------------------------------------


def _suite_hom_laws(rng, rec):
    """Evaluation is a ring homomorphism, and composition evaluates through
    images of points."""
    algebra = sampling.random_algebra(rng)
    n = rng.integers(1, 4)
    f = sampling.random_expr(rng, n)
    g = sampling.random_expr(rng, n)
    lam = rng.uniform(-2.0, 2.0)
    point = sampling.random_point(rng, algebra, n)
    rec.inputs = lambda: {"f": to_string(f), "g": to_string(g), "algebra": algebra.describe()}
    fv = eval_weil(f, point)
    gv = eval_weil(g, point)
    rec.check("sum", eval_weil(add(f, g), point), fv + gv)
    rec.check("product", eval_weil(mul(f, g), point), fv * gv)
    rec.check("scalar", eval_weil(mul(ConstR(lam), f), point), fv * lam)
    # composition: evaluating g after a polynomial map equals evaluating
    # the substituted expression
    comps = [sampling.random_polynomial(rng, n, max_degree=2) for _ in range(n)]
    image = prolong_map(comps, point)
    # the substituted tree shares g's constant leaves, which keep one value
    # at a time: it is evaluated at point before g moves them to the image
    composed = eval_weil(substitute(g, comps), point)
    rec.check("composition", eval_weil(g, image), composed)


def _suite_field_prolong(rng, rec):
    """Prolonged fields: the defining equation, derivation law, additivity,
    the module law, and the linear-endomorphism law."""
    algebra = sampling.random_algebra(rng)
    n = rng.integers(1, 4)
    theta = sampling.random_field(rng, n)
    eta = sampling.random_field(rng, n)
    f = sampling.random_expr(rng, n)
    g = sampling.random_expr(rng, n)
    point = sampling.random_point(rng, algebra, n)
    big_d = prolong_field(theta, algebra)
    rec.inputs = lambda: {
        "theta": ", ".join(to_string(c) for c in theta.components),
        "f": to_string(f),
        "algebra": algebra.describe(),
    }
    # defining equation: applying the prolonged field matches prolonging
    # the base action
    rec.check(
        "defining", big_d.apply_at(f, point), eval_weil(apply_field(theta, f), point)
    )
    # derivation law on products
    lhs = big_d.apply_at(mul(f, g), point)
    rhs = (
        big_d.apply_at(f, point) * eval_weil(g, point)
        + eval_weil(f, point) * big_d.apply_at(g, point)
    )
    rec.check("derivation", lhs, rhs)
    # additivity of prolongation
    rec.check(
        "additive",
        prolong_field(theta + eta, algebra).apply_at(f, point),
        big_d.apply_at(f, point) + prolong_field(eta, algebra).apply_at(f, point),
    )
    # module law: scaling the base field scales the action
    scale = sampling.random_polynomial(rng, n, max_degree=2)
    rec.check(
        "module",
        prolong_field(theta.scale(scale), algebra).apply_at(f, point),
        eval_weil(scale, point) * big_d.apply_at(f, point),
    )
    # linear-endomorphism law: an arbitrary linear reading of the
    # coefficients cannot tell the operator route from the symbolic one
    matrix = rng.uniform(-1.0, 1.0, (algebra.dim, algebra.dim))
    lhs = apply_linear(matrix, big_d.apply_at(f, point))
    rhs = apply_linear(matrix, eval_weil(apply_field(theta, f), point))
    rec.check("endomorphism", lhs, rhs)


def _suite_bracket_prolong(rng, rec):
    """Prolongation commutes with the field bracket."""
    algebra = sampling.random_algebra(rng)
    n = rng.integers(1, 4)
    theta1 = sampling.random_field(rng, n)
    theta2 = sampling.random_field(rng, n)
    f = sampling.random_expr(rng, n)
    point = sampling.random_point(rng, algebra, n)
    d1 = prolong_field(theta1, algebra)
    d2 = prolong_field(theta2, algebra)
    # scaled by its terms, like Jacobi: the two second-order terms can
    # cancel to a rounding of their own size, so the bracket plus the
    # second is checked against the first
    lhs = prolong_field(lie_bracket(theta1, theta2), algebra).apply_at(f, point)
    lhs = lhs + d2.apply_at(d1.apply(f), point)
    rhs = d1.apply_at(d2.apply(f), point)
    rec.inputs = lambda: {
        "theta1": ", ".join(to_string(c) for c in theta1.components),
        "theta2": ", ".join(to_string(c) for c in theta2.components),
        "f": to_string(f),
        "algebra": algebra.describe(),
    }
    rec.check("bracket", lhs, rhs)


def _suite_cartan(rng, rec):
    """Interior product, Lie derivative, and exterior derivative identities,
    each checked once per trial."""
    algebra = sampling.random_algebra(rng)
    n = rng.integers(2, 4)
    theta = sampling.random_field(rng, n)
    point = sampling.random_point(rng, algebra, n)
    d_a = prolong_field(theta, algebra)
    eta_base = sampling.random_one_form(rng, n, None)
    eta = prolong_form(eta_base, algebra)
    f = sampling.random_polynomial(rng, n)
    f_a = AFunction(f, n, algebra)
    rec.inputs = lambda: {
        "theta": ", ".join(to_string(c) for c in theta.components),
        "algebra": algebra.describe(),
    }
    zero = algebra.zero()
    # interior product commutes with prolongation (numeric contraction
    # against the symbolic base route)
    base_interior = contract(theta, eta_base).expr
    lhs_map = interior_eval(d_a, eta, point)
    rec.check(
        "interior_prolongation",
        lhs_map.get((), zero),
        eval_weil(base_interior, point, algebra),
    )
    # degree-2 contraction formula on a decomposable wedge
    x1f = sampling.random_one_form(rng, n, algebra, with_consta=True)
    y1f = sampling.random_one_form(rng, n, algebra, with_consta=True)
    pair = wedge(x1f, y1f)
    lhs2 = interior(d_a, pair)
    rhs2 = y1f.scale(contract(d_a, x1f)) - x1f.scale(contract(d_a, y1f))
    rec.check("contraction_degree2", lhs2, rhs2, point)
    # Lie derivative commutes with prolongation (Cartan formula against
    # the classical coordinate formula, prolonged)
    lhs3 = lie_derivative(d_a, eta)
    rhs3 = prolong_form(classical_lie_one_form(theta.components, eta_base), algebra)
    rec.check("lie_prolongation", lhs3, rhs3, point)
    # scaling the field before prolonging
    lhs4 = lie_derivative(d_a.scale(f_a), eta)
    rhs4 = prolong_form(classical_lie_one_form(theta.scale(f).components, eta_base), algebra)
    rec.check("lie_scaled_field", lhs4, rhs4, point)
    # scaling the form before prolonging
    lhs5 = lie_derivative(d_a, eta.scale(f_a))
    rhs5 = prolong_form(classical_lie_one_form(theta.components, eta_base.scale(f)), algebra)
    rec.check("lie_scaled_form", lhs5, rhs5, point)
    # Lie derivative of a differential is the differential of the action
    rec.check(
        "lie_of_differential", lie_derivative(d_a, delta(f_a)), delta(d_a.apply(f_a)), point
    )
    # general-derivation laws, with algebra constants in play
    phi = AFunction(sampling.random_expr_with_consta(rng, n, algebra), n, algebra)
    gen_d = VectorField(
        tuple(
            sampling.random_expr_with_consta(rng, n, algebra, depth=2)
            for _ in range(n)
        ),
        algebra,
    )
    x_form = sampling.random_one_form(rng, n, algebra, with_consta=True)
    # built once each, and shared only within one side or across sub-checks
    lie_x = lie_derivative(gen_d, x_form)
    lie_x_phi = lie_x.scale(phi)
    delta_phi = delta(phi)
    contract_x = contract(gen_d, x_form)
    gen_d_phi = gen_d.apply(phi)
    lhs7 = lie_derivative(gen_d.scale(phi), x_form)
    rhs7 = lie_x_phi + delta_phi.scale(contract_x)
    rec.check("lie_function_times_derivation", lhs7, rhs7, point)
    lhs8 = lie_derivative(gen_d, x_form.scale(phi))
    rhs8 = x_form.scale(gen_d_phi) + lie_x_phi
    rec.check("lie_leibniz", lhs8, rhs8, point)
    rec.check(
        "lie_of_differential_general",
        lie_derivative(gen_d, delta_phi),
        delta(gen_d_phi),
        point,
    )
    # square of the differential vanishes
    w0 = CoordForm(0, n, algebra, {(): sampling.random_expr(rng, n, depth=3)})
    rec.check("dd_zero", dform(dform(w0)), None, point)
    # Lie derivative commutes with the differential
    rec.check(
        "lie_commutes_with_d", lie_derivative(gen_d, dform(x_form)), dform(lie_x), point
    )
    # interior product is a degree -1 derivation against wedge; on two
    # 1-forms the degree-0 contractions act as scalars on the other leg
    lhs_w = interior(gen_d, wedge(x_form, y1f))
    rhs_w = y1f.scale(contract_x) - x_form.scale(contract(gen_d, y1f))
    rec.check("interior_derivation", lhs_w, rhs_w, point)


# each suite is the body of one trial, called as suite(rng, rec); poisson_full
# also takes pi= and algebra=
SUITES = {
    "hom_laws": _suite_hom_laws,
    "field_prolong": _suite_field_prolong,
    "bracket_prolong": _suite_bracket_prolong,
    "cartan": _suite_cartan,
    "poisson_full": _a_poisson_trial,
}


def run_suite(
    suite_id: str,
    seed: int,
    trials: int,
    tol: float,
    pi=None,
    algebra=None,
) -> CheckReport:
    """Run a registered suite; deterministic given (suite, seed, trials).

    Only ``poisson_full`` takes ``pi`` and ``algebra``; they default to
    the canonical bivector on R^2 over the dual numbers.  Giving either to
    another suite is a usage error.
    """
    if suite_id not in SUITES:
        raise UnknownSuite(
            f"{suite_id!r} is not one of {sorted(SUITES)}"
        )
    trial = SUITES[suite_id]
    if suite_id == "poisson_full":
        pi = pi if pi is not None else canonical_structure(1)
        algebra = algebra if algebra is not None else sampling.catalog_algebra("dual")
        trial = partial(trial, pi=pi, algebra=algebra)
    elif pi is not None or algebra is not None:
        raise WeilcError(
            f"suite {suite_id!r} takes no pi or algebra; only poisson_full does"
        )
    return _run_trials(suite_id, seed, trials, tol, trial)
