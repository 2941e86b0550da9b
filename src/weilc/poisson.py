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

import json
import math
from dataclasses import dataclass
from functools import partial
from itertools import combinations
from typing import Callable, Mapping, Sequence

from .algebra import WeilAlgebra, WeilElement, augmentation
from .errors import (
    DegreeError,
    DimensionMismatch,
    DomainError,
    WeilcError,
)
from .expr import (
    AFunction,
    Expr,
    ONE,
    Var,
    ZERO,
    add,
    chart_point,
    diff,
    eval_real,
    eval_weil,
    mul,
    neg,
    on_chart,
    require_base,
    same_chart,
    sub,
    to_string,
)
from .forms import CoordForm, contract, delta, lie_derivative
from .prolongation import VectorField
from . import sampling


# -- check reports ----------------------------------------------------------------


@dataclass(frozen=True)
class Witness:
    inputs: dict[str, str]
    residual: float


@dataclass(frozen=True)
class CheckReport:
    """Outcome of a randomized verification run; pass means the worst
    residual stayed within tolerance.  ``redrawn`` counts the trials drawn
    again after a domain error; it is shown in the summary, not the JSON."""

    suite: str
    seed: int
    trials: int
    tol: float
    max_residual: float
    passed: bool
    witnesses: tuple[Witness, ...] = ()
    warning: str | None = None
    redrawn: int = 0

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

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, indent=2) + "\n"

    def summary(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        redrawn = f" redrawn={self.redrawn}" if self.redrawn else ""
        return (
            f"[{status}] {self.suite}: trials={self.trials} seed={self.seed} "
            f"max_residual={self.max_residual:.3e} tol={self.tol:.1e}{redrawn}"
        )


MAX_WITNESSES = 10


class _Recorder:
    """Accumulates residuals and failure witnesses for one run."""

    def __init__(self, tol: float):
        self.tol = tol
        self.max_residual = 0.0
        self.witnesses: list[Witness] = []
        # the current trial's inputs, which ``check`` witnesses carry
        self.inputs: dict[str, str] = {}
        self.redrawn = 0

    def _passes(self, value: float) -> bool:
        # a non-finite residual fails whatever the tolerance
        return value <= self.tol and value < math.inf

    def check(self, name: str, value: float):
        """Record the residual of the current trial's sub-check ``name``; a
        failing one becomes a witness that carries the trial's inputs."""
        # max() skips NaN, so a non-finite residual counts as inf
        if not math.isfinite(value):
            value = math.inf
        self.max_residual = max(self.max_residual, value)
        if not self._passes(value) and len(self.witnesses) < MAX_WITNESSES:
            self.witnesses.append(Witness({"check": name, **self.inputs}, float(value)))

    def report(self, suite: str, seed: int, trials: int) -> CheckReport:
        return CheckReport(
            suite=suite,
            seed=seed,
            trials=trials,
            tol=self.tol,
            max_residual=float(self.max_residual),
            passed=self._passes(self.max_residual),
            witnesses=tuple(self.witnesses),
            redrawn=self.redrawn,
        )


def _run_trials(
    suite: str, seed: int, trials: int, tol: float, trial: Callable[..., None]
) -> CheckReport:
    """Run ``trial(rng, rec)`` ``trials`` times on one generator seeded by
    ``seed``; fewer than one trial gives a vacuous pass with a warning.

    A trial that raises ``DomainError`` (a random expression left its
    domain) is drawn again from the same generator; what it recorded
    before the error stays.  After more than ``trials`` redraws the error
    propagates.  A negative or NaN ``tol`` is a usage error.
    """
    if not tol >= 0:
        raise WeilcError(f"tolerance {tol} is negative or NaN; use 0 or more")
    rng = sampling.rng_for(seed)
    if trials < 1:
        return CheckReport(suite, seed, 0, tol, 0.0, True,
                           warning="no trials were run; the pass is vacuous")
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


class PoissonStructure:
    """Skew bivector, upper triangle stored, entries ConstA-free."""

    algebra = None  # on the base chart, so ``on_chart`` refuses constants

    def __init__(self, dim: int, entries: Mapping[tuple[int, int], Expr]):
        self.dim = dim
        on_chart(entries.values(), self)
        cleaned: dict[tuple[int, int], Expr] = {}
        for (i, j), e in entries.items():
            if not (0 <= i < j < dim):
                raise DimensionMismatch(
                    f"bivector entry ({i}, {j}) is not an upper-triangle pair"
                )
            if e != ZERO:
                cleaned[(i, j)] = e
        self.entries = cleaned

    def describe(self) -> str:
        pairs = ", ".join(
            f"pi[{i + 1},{j + 1}]={to_string(e)}" for (i, j), e in sorted(self.entries.items())
        )
        return f"PoissonStructure(dim={self.dim}, {pairs or '0'})"

    __repr__ = describe


def canonical_structure(pairs: int) -> PoissonStructure:
    """The constant symplectic bivector on R^(2*pairs): {q_k, p_k} = 1."""
    entries = {(2 * k, 2 * k + 1): ONE for k in range(pairs)}
    return PoissonStructure(2 * pairs, entries)


def so3_structure() -> PoissonStructure:
    """The Lie-Poisson bivector with {x1,x2}=x3, {x2,x3}=x1, {x3,x1}=x2."""
    return PoissonStructure(
        3, {(0, 1): Var(2), (1, 2): Var(0), (0, 2): neg(Var(1))}
    )


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
    for (i, j), p in sorted(pi.entries.items()):
        out = add(out, mul(p, sub(mul(a[i], b[j]), mul(a[j], b[i]))))
    return out


def _sharp(pi: PoissonStructure, a: Sequence[Expr]) -> tuple[Expr, ...]:
    """The components sum_i pi_ij a_i of the field that pi makes of a."""
    comps: list[Expr] = [ZERO] * pi.dim
    for (i, j), p in sorted(pi.entries.items()):
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
    i < j < k.  Those C(n, 3) Jacobiators are built once, and each trial
    evaluates all of them at one uniform point of [-1,1]^n.
    """
    jacobiators = []
    for triple in combinations(range(pi.dim), 3):
        f, g, h = (Var(i) for i in triple)
        jacobiator = add(
            add(bracket(pi, f, bracket(pi, g, h)), bracket(pi, g, bracket(pi, h, f))),
            bracket(pi, h, bracket(pi, f, g)),
        )
        names = {"f": to_string(f), "g": to_string(g), "h": to_string(h)}
        jacobiators.append((jacobiator, names))

    def trial(rng, rec: _Recorder):
        point = rng.uniform(-1.0, 1.0, pi.dim)
        shown = str([round(x, 6) for x in point])
        for jacobiator, names in jacobiators:
            rec.inputs = {**names, "point": shown}
            rec.check("jacobi", abs(eval_real(jacobiator, point)))

    return _run_trials("jacobi", seed, trials, tol, trial)


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
    coords = chart_point(point, pi)
    out = eval_weil(ZERO, coords, algebra)
    for (i, j), p in sorted(pi.entries.items()):
        pv = eval_weil(p, coords, algebra)
        xi = eval_weil(x.coefficient((i,)), coords, algebra)
        xj = eval_weil(x.coefficient((j,)), coords, algebra)
        yi = eval_weil(y.coefficient((i,)), coords, algebra)
        yj = eval_weil(y.coefficient((j,)), coords, algebra)
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
    rec.inputs = {
        "phi": to_string(phi.expr),
        "psi": to_string(psi.expr),
        "pi": pi.describe(),
        "algebra": algebra.describe(),
        "point": str([round(c.real, 6) for c in point]),
    }
    # antisymmetry
    rec.check(
        "antisymmetry",
        sampling.residual_zero((br(phi, psi) + br(psi, phi))(point)),
    )
    # bilinearity over the algebra
    lhs = br(scalar * phi + psi, chi)(point)
    rhs = scalar * br(phi, chi)(point) + br(psi, chi)(point)
    rec.check("bilinearity", sampling.residual(lhs, rhs))
    # Leibniz in the second slot
    psi_v = eval_weil(psi.expr, point, algebra)
    chi_v = eval_weil(chi.expr, point, algebra)
    lhs = br(phi, psi * chi)(point)
    rhs = br(phi, psi)(point) * chi_v + psi_v * br(phi, chi)(point)
    rec.check("leibniz", sampling.residual(lhs, rhs))
    # Jacobi, scaled by its terms like the other sub-checks: the first two
    # against minus the third
    first = br(phi, br(psi, chi))(point) + br(psi, br(chi, phi))(point)
    third = br(chi, br(phi, psi))(point)
    rec.check("jacobi", sampling.residual(first, -third))
    # pairing against the 2-form: ad_tilde(X) phi = -omega(X, delta phi)
    lhs = ad_tilde(pi, x_form).apply_at(phi, point)
    rhs = -omega_at(pi, x_form, delta(phi), point)
    rec.check("pairing_function", sampling.residual(lhs, rhs))
    # double extension: contracting Y against ad_tilde(X) = -omega(X, Y)
    lhs = contract(ad_tilde(pi, x_form), y_form)(point)
    rhs = -omega_at(pi, x_form, y_form, point)
    rec.check("pairing_form", sampling.residual(lhs, rhs))
    # the differential intertwines bracket and Lie derivative
    lie = lie_derivative(ad_prolong(pi, phi), delta(psi))
    rec.check(
        "differential_of_bracket",
        sampling.residual_forms(lie, delta(br(phi, psi)), point),
    )
    # prolongation equality of the 2-form on base one-forms
    fx = sampling.random_one_form(rng, n, None)
    fy = sampling.random_one_form(rng, n, None)
    rec.check(
        "two_form_prolongation",
        sampling.residual(
            omega_at(pi, fx, fy, point),
            omega_prolonged(pi, fx, fy)(point),
        ),
    )
    # augmentation compatibility: the bracket covers the base bracket
    f0 = sampling.random_polynomial(rng, n)
    g0 = sampling.random_polynomial(rng, n)
    down = eval_real(bracket(pi, f0, g0), point.base_point())
    up = augmentation(br(fn(f0), fn(g0))(point))
    gap = abs(up - down) / (1.0 + max(abs(up), abs(down)))
    rec.check("augmentation", gap)
