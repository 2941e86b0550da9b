"""Poisson structures on the chart and their prolongation to the Weil chart.

The structure is a skew bivector with expression entries; the base bracket
is {f, g} = sum_(i<j) pi_ij (d_i f d_j g - d_j f d_i g).  Prolonged
operations reuse the same entries with Weil evaluation semantics, and are
gated on a randomized Jacobi check ("trusted") because the bracket laws on
the prolonged side presuppose the base Lie structure.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Mapping

from .algebra import WeilAlgebra, WeilElement, augmentation
from .errors import (
    AlgebraMismatch,
    DegreeError,
    DimensionMismatch,
    UntrustedStructure,
)
from .expr import (
    AFunction,
    Expr,
    Var,
    ZERO,
    add,
    contains_consta,
    diff,
    eval_real,
    eval_weil,
    mul,
    neg,
    sub,
    to_string,
)
from .forms import CoordForm, contract, delta, lie_derivative
from .prolongation import AVectorField, VectorField
from . import sampling


# -- check reports ----------------------------------------------------------------


@dataclass(frozen=True)
class Witness:
    inputs: dict[str, str]
    residual: float


@dataclass(frozen=True)
class CheckReport:
    """Outcome of a randomized verification run; pass means the worst
    residual stayed within tolerance."""

    suite: str
    seed: int
    trials: int
    tol: float
    max_residual: float
    passed: bool
    witnesses: tuple[Witness, ...] = ()
    warning: str | None = None

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
        return (
            f"[{status}] {self.suite}: trials={self.trials} seed={self.seed} "
            f"max_residual={self.max_residual:.3e} tol={self.tol:.1e}"
        )


class _Recorder:
    """Accumulates residuals and failure witnesses for one run."""

    def __init__(self, tol: float, max_witnesses: int = 10):
        self.tol = tol
        self.max_residual = 0.0
        self.witnesses: list[Witness] = []
        self.max_witnesses = max_witnesses

    def record(self, value: float, inputs: dict[str, str]):
        # max() and > both skip NaN, so a non-finite residual counts as inf
        if not math.isfinite(value):
            value = math.inf
        self.max_residual = max(self.max_residual, value)
        if value > self.tol and len(self.witnesses) < self.max_witnesses:
            self.witnesses.append(Witness(dict(inputs), float(value)))

    def report(self, suite: str, seed: int, trials: int) -> CheckReport:
        return CheckReport(
            suite=suite,
            seed=seed,
            trials=trials,
            tol=self.tol,
            max_residual=float(self.max_residual),
            passed=self.max_residual <= self.tol,
            witnesses=tuple(self.witnesses),
        )


def vacuous_report(suite: str, seed: int, tol: float) -> CheckReport:
    return CheckReport(
        suite=suite,
        seed=seed,
        trials=0,
        tol=tol,
        max_residual=0.0,
        passed=True,
        witnesses=(),
        warning="no trials were run; the pass is vacuous",
    )


# -- the structure -----------------------------------------------------------------


class PoissonStructure:
    """Skew bivector, upper triangle stored, entries ConstA-free."""

    def __init__(self, dim: int, entries: Mapping[tuple[int, int], Expr]):
        self.dim = dim
        cleaned: dict[tuple[int, int], Expr] = {}
        for (i, j), e in entries.items():
            if not (0 <= i < j < dim):
                raise DimensionMismatch(
                    f"bivector entry ({i}, {j}) is not an upper-triangle pair"
                )
            if contains_consta(e):
                raise AlgebraMismatch("bivector entries must be ConstA-free")
            if e != ZERO:
                cleaned[(i, j)] = e
        self.entries = cleaned
        self.trusted = False

    def component(self, i: int, j: int) -> Expr:
        if i == j:
            return ZERO
        if i < j:
            return self.entries.get((i, j), ZERO)
        return neg(self.entries.get((j, i), ZERO))

    def describe(self) -> str:
        pairs = ", ".join(
            f"pi[{i + 1},{j + 1}]={to_string(e)}" for (i, j), e in sorted(self.entries.items())
        )
        return f"PoissonStructure(dim={self.dim}, {pairs or '0'})"

    __repr__ = describe


def canonical_structure(pairs: int) -> PoissonStructure:
    """The constant symplectic bivector on R^(2*pairs): {q_k, p_k} = 1."""
    from .expr import ONE

    entries = {(2 * k, 2 * k + 1): ONE for k in range(pairs)}
    return PoissonStructure(2 * pairs, entries)


def so3_structure() -> PoissonStructure:
    """The Lie-Poisson bivector with {x1,x2}=x3, {x2,x3}=x1, {x3,x1}=x2."""
    return PoissonStructure(
        3, {(0, 1): Var(2), (1, 2): Var(0), (0, 2): neg(Var(1))}
    )


def _ensure_trusted(pi: PoissonStructure, force: bool):
    if not (pi.trusted or force):
        raise UntrustedStructure(
            "run jacobi_check first (or pass force=True) before prolonging"
        )


# -- base operations ----------------------------------------------------------------


def bracket(pi: PoissonStructure, f: Expr, g: Expr) -> Expr:
    """The base bracket; antisymmetric and a derivation in each slot."""
    for e in (f, g):
        if contains_consta(e):
            raise AlgebraMismatch("the base bracket takes ConstA-free functions")
    out: Expr = ZERO
    for (i, j), p in sorted(pi.entries.items()):
        term = sub(mul(diff(f, i), diff(g, j)), mul(diff(f, j), diff(g, i)))
        out = add(out, mul(p, term))
    return out


def hamiltonian_field(pi: PoissonStructure, f: Expr) -> VectorField:
    """ad(f): the field with components {f, x_i}."""
    return VectorField(tuple(bracket(pi, f, Var(i)) for i in range(pi.dim)))


def jacobi_check(
    pi: PoissonStructure, trials: int, tol: float, seed: int = 0
) -> CheckReport:
    """Randomized Jacobi identity check; marks the structure trusted on pass.

    Trials alternate between coordinate triples and random cubic
    polynomials, evaluated at uniform points of [-1,1]^n.
    """
    if trials < 1:
        return vacuous_report("jacobi", seed, tol)
    rng = sampling.rng_for(seed)
    rec = _Recorder(tol)
    n = pi.dim
    coordinate_triples = [
        (Var(i), Var(j), Var(k))
        for i in range(n)
        for j in range(i + 1, n)
        for k in range(j + 1, n)
    ]
    for t in range(trials):
        if coordinate_triples and t % 2 == 0:
            f, g, h = coordinate_triples[t // 2 % len(coordinate_triples)]
        else:
            f = sampling.random_polynomial(rng, n)
            g = sampling.random_polynomial(rng, n)
            h = sampling.random_polynomial(rng, n)
        point = rng.uniform(-1.0, 1.0, n)
        jacobiator = add(
            add(bracket(pi, f, bracket(pi, g, h)), bracket(pi, g, bracket(pi, h, f))),
            bracket(pi, h, bracket(pi, f, g)),
        )
        value = abs(eval_real(jacobiator, point))
        rec.record(
            value,
            {
                "f": to_string(f),
                "g": to_string(g),
                "h": to_string(h),
                "point": str([round(x, 6) for x in point]),
            },
        )
    report = rec.report("jacobi", seed, trials)
    pi.trusted = report.passed
    return report


# -- prolonged operations -------------------------------------------------------------


def ad_prolong(
    pi: PoissonStructure, fn: AFunction, force: bool = False
) -> AVectorField:
    """The Hamiltonian derivation of fn: applying it to psi gives {fn, psi}."""
    _ensure_trusted(pi, force)
    if fn.dim != pi.dim:
        raise DimensionMismatch("function chart does not match the bivector")
    comps: list[Expr] = [ZERO] * pi.dim
    for (i, j), p in sorted(pi.entries.items()):
        comps[j] = add(comps[j], mul(p, diff(fn.expr, i)))
        comps[i] = sub(comps[i], mul(p, diff(fn.expr, j)))
    return AVectorField(tuple(comps), fn.algebra)


def ad_tilde(
    pi: PoissonStructure, x: CoordForm, force: bool = False
) -> AVectorField:
    """Extend ad linearly over functions from differentials to all 1-forms."""
    _ensure_trusted(pi, force)
    if x.degree != 1:
        raise DegreeError("ad_tilde takes a degree-1 form")
    if x.dim != pi.dim:
        raise DimensionMismatch("form chart does not match the bivector")
    comps: list[Expr] = [ZERO] * pi.dim
    for (i, j), p in sorted(pi.entries.items()):
        comps[j] = add(comps[j], mul(p, x.coefficient((i,))))
        comps[i] = sub(comps[i], mul(p, x.coefficient((j,))))
    return AVectorField(tuple(comps), x.algebra)


def prolong_bracket(
    pi: PoissonStructure, phi: AFunction, psi: AFunction, force: bool = False
) -> AFunction:
    """The bracket on the Weil chart; on prolonged functions it reduces to
    the prolonged base bracket."""
    _ensure_trusted(pi, force)
    if phi.algebra is not psi.algebra:
        raise AlgebraMismatch("bracket arguments over different algebras")
    if phi.dim != pi.dim or psi.dim != pi.dim:
        raise DimensionMismatch("function chart does not match the bivector")
    out: Expr = ZERO
    for (i, j), p in sorted(pi.entries.items()):
        term = sub(
            mul(diff(phi.expr, i), diff(psi.expr, j)),
            mul(diff(phi.expr, j), diff(psi.expr, i)),
        )
        out = add(out, mul(p, term))
    return AFunction(out, pi.dim, phi.algebra)


def omega_prolonged(
    pi: PoissonStructure, x: CoordForm, y: CoordForm, force: bool = False
) -> AFunction:
    """The prolonged 2-form on a pair of 1-forms: -sum X_i Y_j pi_ij.

    The sign convention makes -omega(delta phi, delta psi) the bracket.
    """
    _ensure_trusted(pi, force)
    if x.degree != 1 or y.degree != 1:
        raise DegreeError("the 2-form pairs two degree-1 forms")
    if x.algebra is not y.algebra:
        raise AlgebraMismatch("forms over different algebras")
    if x.dim != pi.dim or y.dim != pi.dim:
        raise DimensionMismatch("form chart does not match the bivector")
    out: Expr = ZERO
    for (i, j), p in sorted(pi.entries.items()):
        term = sub(
            mul(x.coefficient((i,)), y.coefficient((j,))),
            mul(x.coefficient((j,)), y.coefficient((i,))),
        )
        out = add(out, mul(p, term))
    return AFunction(neg(out), pi.dim, x.algebra)


def omega_at(
    pi: PoissonStructure, x: CoordForm, y: CoordForm, point, force: bool = False
) -> WeilElement:
    """Evaluate the 2-form pairing by ring-combining evaluated pieces."""
    _ensure_trusted(pi, force)
    algebra = x.algebra
    out = algebra.zero()
    for (i, j), p in sorted(pi.entries.items()):
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
    name.  Does not require trust (this is the verifier).
    """
    if trials < 1:
        return vacuous_report("poisson_full", seed, tol)
    rng = sampling.rng_for(seed)
    rec = _Recorder(tol)
    n = pi.dim

    def fn(expr: Expr) -> AFunction:
        return AFunction(expr, n, algebra)

    for _ in range(trials):
        point = sampling.random_point(rng, algebra, n)
        phi = fn(sampling.random_expr_with_consta(rng, n, algebra))
        psi = fn(sampling.random_expr_with_consta(rng, n, algebra))
        chi = fn(sampling.random_polynomial(rng, n))
        scalar = sampling.random_element(rng, algebra)
        x_form = sampling.random_one_form(rng, n, algebra, with_consta=True)
        y_form = sampling.random_one_form(rng, n, algebra, with_consta=True)
        inputs = {
            "phi": to_string(phi.expr),
            "psi": to_string(psi.expr),
            "pi": pi.describe(),
            "algebra": algebra.describe(),
            "point": str([round(c.real, 6) for c in point]),
        }

        def br(a: AFunction, b: AFunction) -> AFunction:
            return prolong_bracket(pi, a, b, force=True)

        def check(name: str, value: float):
            rec.record(value, {"check": name, **inputs})

        # antisymmetry
        check(
            "antisymmetry",
            sampling.residual_zero((br(phi, psi) + br(psi, phi))(point)),
        )
        # bilinearity over the algebra
        lhs = br(scalar * phi + psi, chi)(point)
        rhs = scalar * br(phi, chi)(point) + br(psi, chi)(point)
        check("bilinearity", sampling.residual(lhs, rhs))
        # Leibniz in the second slot
        psi_v = eval_weil(psi.expr, point, algebra)
        chi_v = eval_weil(chi.expr, point, algebra)
        lhs = br(phi, psi * chi)(point)
        rhs = br(phi, psi)(point) * chi_v + psi_v * br(phi, chi)(point)
        check("leibniz", sampling.residual(lhs, rhs))
        # Jacobi
        jac = (
            br(phi, br(psi, chi))(point)
            + br(psi, br(chi, phi))(point)
            + br(chi, br(phi, psi))(point)
        )
        check("jacobi", sampling.residual_zero(jac))
        # pairing against the 2-form: ad_tilde(X) phi = -omega(X, delta phi)
        lhs = ad_tilde(pi, x_form, force=True).apply_at(phi, point)
        rhs = -omega_at(pi, x_form, delta(phi), point, force=True)
        check("pairing_function", sampling.residual(lhs, rhs))
        # double extension: contracting Y against ad_tilde(X) = -omega(X, Y)
        lhs = contract(ad_tilde(pi, x_form, force=True), y_form)(point)
        rhs = -omega_at(pi, x_form, y_form, point, force=True)
        check("pairing_form", sampling.residual(lhs, rhs))
        # the differential intertwines bracket and Lie derivative
        lie = lie_derivative(ad_prolong(pi, phi, force=True), delta(psi))
        check(
            "differential_of_bracket",
            sampling.residual_forms(lie, delta(br(phi, psi)), point),
        )
        # prolongation equality of the 2-form on base one-forms
        fx = sampling.random_one_form(rng, n, algebra, with_consta=False)
        fy = sampling.random_one_form(rng, n, algebra, with_consta=False)
        base_value = omega_prolonged(pi, fx, fy, force=True)
        check(
            "two_form_prolongation",
            sampling.residual(
                omega_at(pi, fx, fy, point, force=True),
                eval_weil(base_value.expr, point, algebra),
            ),
        )
        # augmentation compatibility: the bracket covers the base bracket
        f0 = sampling.random_polynomial(rng, n)
        g0 = sampling.random_polynomial(rng, n)
        down = eval_real(bracket(pi, f0, g0), point.base_point())
        up = augmentation(br(fn(f0), fn(g0))(point))
        check("augmentation", abs(up - down) / (1.0 + max(abs(up), abs(down))))

    return rec.report("poisson_full", seed, trials)
