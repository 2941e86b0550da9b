"""Poisson structures on the chart and their prolongation to the Weil chart.

The structure is a skew bivector with expression entries; the base bracket
is {f, g} = sum_(i<j) pi_ij (d_i f d_j g - d_j f d_i g).  Prolonged
operations reuse the same entries with Weil evaluation semantics.  They
accept any bivector, Poisson or not: the suites prolong non-Poisson ones to
test that the paper's condition is necessary, and ``jacobi_check`` only
reports.

Every bracket and prolonged operation comes from two contractions with
the bivector: ``_pair`` (both brackets and the 2-form) and ``_sharp`` (ad
and ad~).  ``omega_at`` is a separate numeric route for the checks.  All
of them, ``omega_at`` included, take their operands through one rule,
``_operands``.  It owns what only the bivector decides (degree 1, pi's
chart) and leaves one shared algebra and chart to ``same_chart``.
"""

from __future__ import annotations

import math
import sys
from functools import partial
from typing import Callable, Mapping, Sequence

from .algebra import WeilAlgebra, WeilElement, augmentation, monomial_name, trivial_algebra
from .errors import (
    DegreeError,
    DimensionMismatch,
    DomainError,
    Record,
    WeilcError,
    refuse_assignment,
    write_field,
)
from .expr import (
    AFunction,
    ConstR,
    Expr,
    ONE,
    Var,
    ZERO,
    add,
    chart_point,
    diff,
    eval_real,
    eval_weil,
    is_zero,
    mul,
    neg,
    on_chart,
    require_base,
    same_chart,
    sub,
    to_string,
)
from .forms import CoordForm, contract, delta, lie_derivative, zero_form
from .prolongation import VectorField


# -- check reports ----------------------------------------------------------------


class Witness(Record):
    __setattr__ = __delattr__ = refuse_assignment
    __match_args__ = ("inputs", "residual")
    __hash__ = None

    def __init__(self, inputs: dict[str, str], residual: float):
        write_field(self, "inputs", inputs)
        write_field(self, "residual", residual)


class CheckReport(Record):
    """Outcome of a randomized verification run; pass means the worst
    residual stayed within tolerance.  ``redrawn`` counts the trials drawn
    again after a domain error; it is shown in the summary, not the JSON."""

    __setattr__ = __delattr__ = refuse_assignment
    __match_args__ = ("suite", "seed", "trials", "tol", "max_residual", "passed",
                      "witnesses", "warning", "redrawn")

    def __init__(
        self,
        suite: str,
        seed: int,
        trials: int,
        tol: float,
        max_residual: float,
        passed: bool,
        witnesses: tuple[Witness, ...] = (),
        warning: str | None = None,
        redrawn: int = 0,
    ):
        write_field(self, "suite", suite)
        write_field(self, "seed", seed)
        write_field(self, "trials", trials)
        write_field(self, "tol", tol)
        write_field(self, "max_residual", max_residual)
        write_field(self, "passed", passed)
        write_field(self, "witnesses", witnesses)
        write_field(self, "warning", warning)
        write_field(self, "redrawn", redrawn)

    def to_dict(self) -> dict:
        out = {
            "suite": self.suite,
            "seed": self.seed,
            "trials": self.trials,
            "max_residual": self.max_residual,
            "pass": self.passed,
            "witnesses": [
                {"inputs": w.inputs, "residual": w.residual} for w in self.witnesses
            ],
        }
        if self.warning is not None:
            out["warning"] = self.warning
        return out

    def summary(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        redrawn = f" redrawn={self.redrawn}" if self.redrawn else ""
        return (
            f"[{status}] {self.suite}: trials={self.trials} seed={self.seed} "
            f"max_residual={self.max_residual:.3e} tol={self.tol:.1e}{redrawn}"
        )


MAX_WITNESSES = 10


class _Recorder:
    """Accumulates residuals and failure witnesses for one run, and makes its
    verdict: the one place a ``CheckReport`` is built.

    Every sub-check hands ``check`` its two sides, and the recorder computes
    the residual, through the residual functions of ``sampling``: no suite
    computes one of its own.  Any failing sub-check sets ``failed``, and the
    report passes when none did.

    ``inputs`` is the current trial's zero-argument callable that renders
    its inputs as a dict of strings.  It is rendered for witnesses only: at
    most once per trial, when a failing sub-check is kept as a witness, so a
    passing run renders nothing."""

    def __init__(self, tol: float):
        self.tol = tol
        self.max_residual = 0.0
        self.failed = False
        self.witnesses: list[Witness] = []
        self.inputs: Callable[[], dict[str, str]] = dict
        # the inputs callable last rendered, and its rendering
        self._shown: tuple = (None, None)
        self.redrawn = 0

    def check(self, name: str, lhs, rhs=None, point=None):
        """Record the residual of the current trial's sub-check ``name``; a
        failing one becomes a witness that carries the trial's inputs.

        The sides are two ``WeilElement``s, two ``CoordForm``s compared at
        ``point``, or two floats, read as elements of the trivial algebra.
        A missing ``rhs`` is zero.  A bare ``Fraction`` is an exact residual:
        it fails whenever it is not zero, whatever ``tol`` is, and reads as a
        float, inf past the float range."""
        from . import sampling

        exact = False
        if isinstance(lhs, CoordForm):
            if rhs is None:
                rhs = zero_form(lhs.degree, lhs.dim, lhs.algebra)
            value = sampling.residual_forms(lhs, rhs, point)
        elif isinstance(lhs, WeilElement):
            value = sampling.residual_zero(lhs) if rhs is None else sampling.residual(lhs, rhs)
        else:
            # the float types are tested first, so only an exact residual,
            # whose expansion loaded fractions already, imports it here
            if not isinstance(lhs, (float, int)):
                from fractions import Fraction

                exact = isinstance(lhs, Fraction)
            if exact:
                try:
                    value = float(abs(lhs))
                except OverflowError:
                    value = math.inf
            else:
                real = trivial_algebra()
                rhs = 0.0 if rhs is None else rhs
                value = sampling.residual(real.from_real(lhs), real.from_real(rhs))
        # max() skips NaN, so a non-finite residual counts as inf
        if not math.isfinite(value):
            value = math.inf
        self.max_residual = max(self.max_residual, value)
        # a non-finite residual fails whatever the tolerance
        failed = lhs != 0 if exact else not (value <= self.tol and value < math.inf)
        self.failed |= failed
        if failed and len(self.witnesses) < MAX_WITNESSES:
            if self._shown[0] is not self.inputs:
                self._shown = (self.inputs, self.inputs())
            self.witnesses.append(Witness({"check": name, **self._shown[1]}, float(value)))

    def report(self, suite: str, seed: int, trials: int) -> CheckReport:
        """The verdict; zero trials are a vacuous pass, with a warning."""
        return CheckReport(
            suite=suite,
            seed=seed,
            trials=trials,
            tol=self.tol,
            max_residual=float(self.max_residual),
            passed=not self.failed,
            witnesses=tuple(self.witnesses),
            warning=None if trials else "no trials were run; the pass is vacuous",
            redrawn=self.redrawn,
        )


def check_settings(seed: int, trials: int, tol: float) -> None:
    """The one rule for a check's settings: a finite ``tol`` of 0 or more,
    0 or more ``trials`` and a seed of 0 or more.  Anything else is a usage
    error.  A config load runs it too, so it reads no draws: the seed rule is
    ``sampling.rng_for``'s, repeated here with its message."""
    if not tol >= 0:
        raise WeilcError(f"tolerance {tol} is negative or NaN; use 0 or more")
    if tol > sys.float_info.max:
        raise WeilcError(f"tolerance {tol} is not finite; it would pass every finite residual")
    if trials < 0:
        raise WeilcError(f"trial count {trials} is negative; use 0 or more")
    if seed < 0:
        raise WeilcError(f"seed {seed} is negative; seeds are integers >= 0")


def _run_trials(
    suite: str, seed: int, trials: int, tol: float, trial: Callable[..., None]
) -> CheckReport:
    """Run ``trial(rng, rec)`` ``trials`` times on one generator seeded by
    ``seed``, under ``check_settings``.

    A trial that raises ``DomainError`` (a random expression left its
    domain) is drawn again from the same generator; what it recorded
    before the error stays.  After more than ``trials`` redraws the error
    propagates.
    """
    from . import sampling

    check_settings(seed, trials, tol)
    rng = sampling.rng_for(seed)
    rec = _Recorder(tol)
    for _ in range(trials):
        while True:
            try:
                trial(rng, rec)
                break
            except DomainError:
                rec.redrawn += 1
                if rec.redrawn > trials:
                    raise
    return rec.report(suite, seed, trials)


# -- the structure -----------------------------------------------------------------


# the largest chart a bivector or config may have.  Each poisson_full trial
# draws points, forms and gradients over every chart variable: `weilc check
# poisson_full --trials 1` on {x1,x2} = 1 over the dual numbers took 0.5-0.8 s
# at this dimension, 1.7 s at 4,000 and 11 s at 12,800 (2-vCPU Xeon VM,
# Python 3.11).
MAX_CHART_DIM = 2000


class PoissonStructure:
    """Skew bivector, upper triangle stored, entries ConstA-free.  ``entries``
    holds the non-zero ones in (i, j) order, the order every contraction
    sums them in.  A chart of more than ``MAX_CHART_DIM`` variables raises
    WeilcError."""

    algebra = None  # on the base chart, so ``on_chart`` refuses constants

    def __init__(self, dim: int, entries: Mapping[tuple[int, int], Expr]):
        if dim > MAX_CHART_DIM:
            raise WeilcError(
                f"a bivector on {dim} variables; the chart has at most "
                f"{MAX_CHART_DIM} (MAX_CHART_DIM)"
            )
        self.dim = dim
        on_chart(entries.values(), self)
        cleaned: dict[tuple[int, int], Expr] = {}
        for (i, j), e in entries.items():
            if not (0 <= i < j < dim):
                raise DimensionMismatch(
                    f"bivector entry ({i}, {j}) is not an upper-triangle pair"
                )
            if not is_zero(e):
                cleaned[(i, j)] = e
        self.entries = dict(sorted(cleaned.items()))

    def describe(self) -> str:
        pairs = ", ".join(
            f"pi[{i + 1},{j + 1}]={to_string(e)}" for (i, j), e in self.entries.items()
        )
        return f"PoissonStructure(dim={self.dim}, {pairs or '0'})"

    __repr__ = describe


def canonical_structure(pairs: int) -> PoissonStructure:
    """The constant symplectic bivector on R^(2*pairs): {q_k, p_k} = 1."""
    entries = {(2 * k, 2 * k + 1): ONE for k in range(pairs)}
    return PoissonStructure(2 * pairs, entries)


def _operands(pi: PoissonStructure, *operands: AFunction | CoordForm) -> WeilAlgebra | None:
    """The operand rule of every prolonged operation: forms have degree 1,
    each operand lives on pi's chart, and the operands share one chart and
    algebra (``same_chart``), which is returned."""
    for op in operands:
        if isinstance(op, CoordForm) and op.degree != 1:
            raise DegreeError(f"a degree-{op.degree} form where a 1-form belongs")
        if op.dim != pi.dim:
            raise DimensionMismatch(
                f"operand on a {op.dim}-dimensional chart, bivector on {pi.dim}"
            )
    return same_chart(*operands)


# -- the two contractions with the bivector ------------------------------------------


def _pair(pi: PoissonStructure, a: Sequence[Expr], b: Sequence[Expr]) -> Expr:
    """sum_(i<j) pi_ij (a_i b_j - a_j b_i) over per-index expressions."""
    out: Expr = ZERO
    for (i, j), p in pi.entries.items():
        out = add(out, mul(p, sub(mul(a[i], b[j]), mul(a[j], b[i]))))
    return out


def _sharp(pi: PoissonStructure, a: Sequence[Expr]) -> tuple[Expr, ...]:
    """The components sum_i pi_ij a_i of the field that pi makes of a."""
    comps: list[Expr] = [ZERO] * pi.dim
    for (i, j), p in pi.entries.items():
        comps[j] = add(comps[j], mul(p, a[i]))
        comps[i] = sub(comps[i], mul(p, a[j]))
    return tuple(comps)


def _gradient(pi: PoissonStructure, f: Expr) -> list[Expr]:
    return [diff(f, k) for k in range(pi.dim)]


def _base_gradient(pi: PoissonStructure, f: Expr) -> list[Expr]:
    require_base((f,), "a function in the base bracket")
    return _gradient(pi, f)


def _one_form(pi: PoissonStructure, x: CoordForm) -> list[Expr]:
    return [x.coefficient((k,)) for k in range(pi.dim)]


# -- base operations ----------------------------------------------------------------


def bracket(pi: PoissonStructure, f: Expr, g: Expr) -> Expr:
    """The base bracket; antisymmetric and a derivation in each slot."""
    return _pair(pi, _base_gradient(pi, f), _base_gradient(pi, g))


def hamiltonian_field(pi: PoissonStructure, f: Expr) -> VectorField:
    """ad(f): the field with components {f, x_i}."""
    return VectorField(_sharp(pi, _base_gradient(pi, f)))


def jacobi_check(
    pi: PoissonStructure, trials: int, tol: float, seed: int = 0
) -> CheckReport:
    """Jacobi identity check on the coordinate triples; it only reports and
    leaves ``pi`` as it was.

    The Jacobiator is a trivector, the Schouten bracket [pi, pi], so it
    vanishes exactly when it does on every triple x_i, x_j, x_k with
    i < j < k.  On a triple it is sum_l (pi_il d_l pi_jk + pi_jl d_l pi_ki
    + pi_kl d_l pi_ij), identically zero when pi_ij, pi_jk and pi_ik are
    finite real constants (an absent entry is 0).  So only the triples
    through an entry that is not are built, once, after the settings pass
    ``check_settings``; a skipped triple would record 0, so the report is
    the same as over all C(n, 3).  When every one expands as a
    polynomial (``oracle.poly_coeffs_exact``), the verdict is exact: each
    failing triple's largest coefficient goes to the recorder as an exact
    residual, with its monomial.  Otherwise each trial evaluates all of them
    at one uniform point of [-1,1]^n, and the recorder scales each by its
    terms, as ``poisson_full``'s ``jacobi`` sub-check: the first two
    against minus the third.  Zero trials are a vacuous pass either way.
    """
    # the suites load on first use, and oracle imports this module
    from .oracle import poly_coeffs_exact

    check_settings(seed, trials, tol)
    varying = [pair for pair, p in pi.entries.items()
               if type(p) is not ConstR or not math.isfinite(p.value)]
    # sorted, as combinations(range(n), 3) orders them
    triples = sorted({tuple(sorted((*pair, k)))
                      for pair in varying for k in range(pi.dim) if k not in pair})
    jacobiators = []
    for triple in triples:
        f, g, h = (Var(i) for i in triple)
        first = add(bracket(pi, f, bracket(pi, g, h)), bracket(pi, g, bracket(pi, h, f)))
        jacobiators.append((first, bracket(pi, h, bracket(pi, f, g)), (f, g, h)))

    def names(triple) -> dict[str, str]:
        return {key: to_string(x) for key, x in zip("fgh", triple)}

    def trial(rng, rec: _Recorder):
        point = rng.uniform(-1.0, 1.0, pi.dim)
        for first, third, triple in jacobiators:
            rec.inputs = lambda triple=triple: {
                **names(triple), "point": str([round(x, 6) for x in point])}
            rec.check("jacobi", eval_real(first, point), -eval_real(third, point))

    try:
        expansions = [poly_coeffs_exact(add(first, third), pi.dim)
                      for first, third, _ in jacobiators]
    except (ValueError, OverflowError):  # not a polynomial, or an inf or NaN constant
        expansions = None
    if expansions is None or trials < 1:
        return _run_trials("jacobi", seed, trials, tol, trial)
    rec = _Recorder(tol)
    variables = [to_string(Var(i)) for i in range(pi.dim)]
    for coeffs, (_, _, triple) in zip(expansions, jacobiators):
        if coeffs:
            monomial, c = max(coeffs.items(), key=lambda item: abs(item[1]))
            rec.inputs = lambda triple=triple, monomial=monomial: {
                **names(triple), "monomial": monomial_name(monomial, variables)}
            rec.check("jacobi", c)
    return rec.report("jacobi", seed, trials)


# -- prolonged operations -------------------------------------------------------------


def ad_prolong(pi: PoissonStructure, fn: AFunction) -> VectorField:
    """The Hamiltonian derivation of fn: applying it to psi gives {fn, psi}."""
    algebra = _operands(pi, fn)
    return VectorField(_sharp(pi, _gradient(pi, fn.expr)), algebra)


def ad_tilde(pi: PoissonStructure, x: CoordForm) -> VectorField:
    """Extend ad linearly over functions from differentials to all 1-forms."""
    algebra = _operands(pi, x)
    return VectorField(_sharp(pi, _one_form(pi, x)), algebra)


def prolong_bracket(pi: PoissonStructure, phi: AFunction, psi: AFunction) -> AFunction:
    """The bracket on the Weil chart; on prolonged functions it reduces to
    the prolonged base bracket."""
    algebra = _operands(pi, phi, psi)
    out = _pair(pi, _gradient(pi, phi.expr), _gradient(pi, psi.expr))
    return AFunction(out, pi.dim, algebra)


def omega_prolonged(pi: PoissonStructure, x: CoordForm, y: CoordForm) -> AFunction:
    """The prolonged 2-form on a pair of 1-forms: -sum X_i Y_j pi_ij.

    The sign convention makes -omega(delta phi, delta psi) the bracket.
    """
    algebra = _operands(pi, x, y)
    out = _pair(pi, _one_form(pi, x), _one_form(pi, y))
    return AFunction(neg(out), pi.dim, algebra)


def omega_at(pi: PoissonStructure, x: CoordForm, y: CoordForm, point) -> WeilElement:
    """Evaluate the 2-form pairing by ring-combining evaluated pieces."""
    algebra = _operands(pi, x, y)
    point = chart_point(point, pi)
    out = eval_weil(ZERO, point, algebra)
    for (i, j), p in pi.entries.items():
        pv = eval_weil(p, point, algebra)
        xi = eval_weil(x.coefficient((i,)), point, algebra)
        xj = eval_weil(x.coefficient((j,)), point, algebra)
        yi = eval_weil(y.coefficient((i,)), point, algebra)
        yj = eval_weil(y.coefficient((j,)), point, algebra)
        out = out + pv * (xi * yj - xj * yi)
    return -out


# -- the verification suite -----------------------------------------------------------


def verify_a_poisson(
    pi: PoissonStructure,
    algebra: WeilAlgebra,
    trials: int,
    tol: float,
    seed: int = 0,
) -> CheckReport:
    """Randomized check that the prolonged bracket gives an algebra-valued
    Poisson structure: bracket laws plus the 2-form identities.

    Runs every sub-check once per trial; witnesses carry the sub-check
    name.
    """
    return _run_trials(
        "poisson_full", seed, trials, tol, partial(_a_poisson_trial, pi=pi, algebra=algebra)
    )


def _a_poisson_trial(rng, rec: _Recorder, pi: PoissonStructure, algebra: WeilAlgebra):
    """One trial of ``verify_a_poisson``, the ``poisson_full`` suite."""
    from . import sampling

    n = pi.dim

    def fn(expr: Expr) -> AFunction:
        return AFunction(expr, n, algebra)

    def br(a: AFunction, b: AFunction) -> AFunction:
        return prolong_bracket(pi, a, b)

    point = sampling.random_point(rng, algebra, n)
    phi = fn(sampling.random_expr_with_consta(rng, n, algebra))
    psi = fn(sampling.random_expr_with_consta(rng, n, algebra))
    chi = fn(sampling.random_polynomial(rng, n))
    scalar = sampling.random_element(rng, algebra)
    x_form = sampling.random_one_form(rng, n, algebra, with_consta=True)
    y_form = sampling.random_one_form(rng, n, algebra, with_consta=True)
    rec.inputs = lambda: {
        "phi": to_string(phi.expr),
        "psi": to_string(psi.expr),
        "pi": pi.describe(),
        "algebra": algebra.describe(),
        "point": str([round(c.real, 6) for c in point]),
    }
    # built once each, and shared only within one side or across sub-checks
    phi_psi = br(phi, psi)
    phi_chi = br(phi, chi)
    # antisymmetry
    rec.check("antisymmetry", (phi_psi + br(psi, phi))(point))
    # bilinearity over the algebra
    lhs = br(scalar * phi + psi, chi)(point)
    rhs = scalar * phi_chi(point) + br(psi, chi)(point)
    rec.check("bilinearity", lhs, rhs)
    # Leibniz in the second slot
    psi_v = eval_weil(psi.expr, point, algebra)
    chi_v = eval_weil(chi.expr, point, algebra)
    lhs = br(phi, psi * chi)(point)
    rhs = phi_psi(point) * chi_v + psi_v * phi_chi(point)
    rec.check("leibniz", lhs, rhs)
    # Jacobi, scaled by its terms like the other sub-checks: the first two
    # against minus the third
    first = br(phi, br(psi, chi))(point) + br(psi, br(chi, phi))(point)
    third = br(chi, phi_psi)(point)
    rec.check("jacobi", first, -third)
    # pairing against the 2-form: ad_tilde(X) phi = -omega(X, delta phi)
    lhs = ad_tilde(pi, x_form).apply_at(phi, point)
    rhs = -omega_at(pi, x_form, delta(phi), point)
    rec.check("pairing_function", lhs, rhs)
    # double extension: contracting Y against ad_tilde(X) = -omega(X, Y)
    lhs = contract(ad_tilde(pi, x_form), y_form)(point)
    rhs = -omega_at(pi, x_form, y_form, point)
    rec.check("pairing_form", lhs, rhs)
    # the differential intertwines bracket and Lie derivative
    lie = lie_derivative(ad_prolong(pi, phi), delta(psi))
    rec.check("differential_of_bracket", lie, delta(phi_psi), point)
    # prolongation equality of the 2-form on base one-forms
    fx = sampling.random_one_form(rng, n, None)
    fy = sampling.random_one_form(rng, n, None)
    rec.check(
        "two_form_prolongation",
        omega_at(pi, fx, fy, point),
        omega_prolonged(pi, fx, fy)(point),
    )
    # augmentation compatibility: the bracket covers the base bracket
    f0 = sampling.random_polynomial(rng, n)
    g0 = sampling.random_polynomial(rng, n)
    down = eval_real(bracket(pi, f0, g0), point.base_point())
    up = augmentation(br(fn(f0), fn(g0))(point))
    rec.check("augmentation", up, down)
