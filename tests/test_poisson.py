"""Base Poisson structure, prolonged bracket, 2-form, and the verifier."""

import math
from fractions import Fraction

import numpy as np
import pytest

from weilc import (
    AFunction,
    APoint,
    CoordForm,
    ad_prolong,
    ad_tilde,
    bracket,
    canonical_structure,
    delta,
    dual_numbers,
    hamiltonian_field,
    jacobi_check,
    jets,
    omega_prolonged,
    parse,
    prolong_bracket,
    prolong_field,
    so3_structure,
    verify_a_poisson,
)
from weilc.errors import AlgebraMismatch, UntrustedStructure
from weilc.expr import ConstA, ConstR, Var, eval_real, eval_weil
from weilc.oracle import poly_coeffs_exact
from weilc.poisson import PoissonStructure, _Recorder, omega_at
from weilc.sampling import random_point, residual, rng_for


def perturbed_so3():
    return PoissonStructure(
        3,
        {
            (0, 1): parse("x3 + 0.1*x1^2", 3),
            (1, 2): parse("x1", 3),
            (0, 2): parse("-x2", 3),
        },
    )


def trusted(pi):
    pi.trusted = True
    return pi


@pytest.fixture
def canonical():
    return trusted(canonical_structure(1))


@pytest.fixture
def dual():
    return dual_numbers()


class TestBracket:
    def test_canonical_coordinates(self, canonical):
        assert bracket(canonical, Var(0), Var(1)) == ConstR(1.0)
        assert bracket(canonical, Var(1), Var(0)) == ConstR(-1.0)

    def test_leibniz_at_a_point(self, canonical):
        f = Var(0)
        g = parse("x2*x2", 2)
        expanded = bracket(canonical, f, g)
        point = [1.0, 3.0]
        assert eval_real(expanded, point) == 6.0
        pairwise = bracket(canonical, f, Var(1))
        rhs = eval_real(pairwise, point) * 3.0 + 3.0 * eval_real(pairwise, point)
        assert eval_real(expanded, point) == rhs

    def test_biderivation_exact(self, canonical):
        # {f, g*h} - {f,g}*h - g*{f,h} expands to the zero polynomial
        f, g, h = parse("x1^2*x2", 2), parse("x1 + x2", 2), parse("x2^3", 2)
        from weilc.expr import Mul, add, mul, sub

        residue = sub(
            bracket(canonical, f, Mul(g, h)),
            add(
                mul(bracket(canonical, f, g), h),
                mul(g, bracket(canonical, f, h)),
            ),
        )
        assert not poly_coeffs_exact(residue, 2)

    def test_consta_rejected(self, canonical, dual):
        with pytest.raises(AlgebraMismatch):
            bracket(canonical, ConstA(dual.unit()), Var(0))


class TestJacobiCheck:
    def test_canonical_passes(self):
        pi = canonical_structure(1)
        report = jacobi_check(pi, trials=40, tol=1e-9, seed=2)
        assert report.passed
        assert report.max_residual <= 1e-12
        assert pi.trusted

    def test_so3_passes(self):
        pi = so3_structure()
        report = jacobi_check(pi, trials=60, tol=1e-9, seed=2)
        assert report.passed
        assert pi.trusted

    def test_so3_coordinate_jacobiator_vanishes_symbolically(self):
        pi = so3_structure()
        triple = (Var(0), Var(1), Var(2))
        from weilc.expr import add

        jac = add(
            add(
                bracket(pi, triple[0], bracket(pi, triple[1], triple[2])),
                bracket(pi, triple[1], bracket(pi, triple[2], triple[0])),
            ),
            bracket(pi, triple[2], bracket(pi, triple[0], triple[1])),
        )
        assert not poly_coeffs_exact(jac, 3)

    def test_perturbed_fails_with_witness(self):
        pi = perturbed_so3()
        report = jacobi_check(pi, trials=40, tol=1e-9, seed=2)
        assert not report.passed
        assert report.max_residual > 1e-3
        assert report.witnesses
        assert not pi.trusted

    def test_perturbed_jacobiator_closed_form(self):
        # on the coordinate triple the defect is exactly 0.2 * x1 * x2
        pi = perturbed_so3()
        from weilc.expr import add

        jac = add(
            add(
                bracket(pi, Var(0), bracket(pi, Var(1), Var(2))),
                bracket(pi, Var(1), bracket(pi, Var(2), Var(0))),
            ),
            bracket(pi, Var(2), bracket(pi, Var(0), Var(1))),
        )
        coeffs = poly_coeffs_exact(jac, 3)
        assert coeffs == {(1, 1, 0): Fraction(0.2)}

    def test_zero_trials_is_vacuous_with_warning(self):
        pi = canonical_structure(1)
        report = jacobi_check(pi, trials=0, tol=1e-9, seed=0)
        assert report.passed and report.trials == 0
        assert report.warning is not None
        assert not pi.trusted


class TestHamiltonianField:
    def test_coordinate_function(self, canonical):
        assert hamiltonian_field(canonical, Var(0)).components == (
            ConstR(0.0),
            ConstR(1.0),
        )

    def test_kinetic_energy(self, canonical):
        field = hamiltonian_field(canonical, parse("x2^2/2", 2))
        rng = rng_for(3)
        for _ in range(10):
            xs = rng.uniform(-1, 1, 2)
            assert abs(eval_real(field.components[0], xs) + xs[1]) <= 1e-15
            assert eval_real(field.components[1], xs) == 0.0

    def test_derivation_into_fields(self, canonical):
        # ad(f*g) = f*ad(g) + g*ad(f), componentwise as polynomials
        f, g = Var(0), Var(1)
        from weilc.expr import Mul, sub

        lhs = hamiltonian_field(canonical, Mul(f, g))
        rhs = hamiltonian_field(canonical, g).scale(f) + hamiltonian_field(
            canonical, f
        ).scale(g)
        for a, b in zip(lhs.components, rhs.components):
            assert not poly_coeffs_exact(sub(a, b), 2)

    def test_generates_bracket(self, canonical):
        f, g = parse("x1^2 + x2", 2), parse("x1*x2", 2)
        from weilc.prolongation import apply_field
        from weilc.expr import sub

        residue = sub(
            apply_field(hamiltonian_field(canonical, f), g), bracket(canonical, f, g)
        )
        assert not poly_coeffs_exact(residue, 2)


class TestProlongedOperations:
    def test_trust_gate(self, dual):
        pi = canonical_structure(1)
        q = AFunction(Var(0), 2, dual)
        with pytest.raises(UntrustedStructure):
            ad_prolong(pi, q)
        ad_prolong(pi, q, force=True)
        jacobi_check(pi, trials=10, tol=1e-9, seed=0)
        ad_prolong(pi, q)

    def test_ad_prolong_canonical(self, canonical, dual):
        q = AFunction(Var(0), 2, dual)
        p = AFunction(Var(1), 2, dual)
        field = ad_prolong(canonical, q)
        rng = rng_for(5)
        for _ in range(5):
            xi = random_point(rng, dual, 2)
            assert field.apply_at(p, xi) == dual.unit()

    def test_ad_prolong_matches_prolonged_hamiltonian_field(self, canonical, dual):
        f = parse("x2^2/2", 2)
        xi = APoint(dual, (dual.element([1, 1]), dual.element([2, 1])))
        via_ad = ad_prolong(canonical, AFunction(f, 2, dual))
        via_base = prolong_field(hamiltonian_field(canonical, f), dual)
        probe = AFunction(Var(0), 2, dual)
        assert via_ad.apply_at(probe, xi).allclose(via_base.apply_at(probe, xi), 1e-12)
        # frozen: {p^2/2, q} = -p evaluated at p = 2 + eps
        assert via_ad.apply_at(probe, xi).allclose(dual.element([-2, -1]), 1e-12)

    def test_ad_is_derivation(self, canonical, dual):
        rng = rng_for(6)
        phi = AFunction(parse("x1^2*x2", 2), 2, dual)
        psi1 = AFunction(parse("sin(x1)", 2), 2, dual)
        psi2 = AFunction(parse("x2^3", 2), 2, dual)
        field = ad_prolong(canonical, phi)
        for _ in range(5):
            xi = random_point(rng, dual, 2)
            lhs = field.apply_at(psi1 * psi2, xi)
            rhs = field.apply_at(psi1, xi) * psi2(xi) + psi1(xi) * field.apply_at(
                psi2, xi
            )
            assert lhs.allclose(rhs, 1e-9)


class TestProlongBracket:
    def test_canonical_coordinates(self, canonical, dual):
        q = AFunction(Var(0), 2, dual)
        p = AFunction(Var(1), 2, dual)
        assert prolong_bracket(canonical, q, p).expr == ConstR(1.0)

    def test_algebra_bilinearity(self, canonical, dual):
        eps = dual.generator("eps")
        q = AFunction(Var(0), 2, dual)
        p = AFunction(Var(1), 2, dual)
        value = prolong_bracket(canonical, eps * q, p)
        xi = random_point(rng_for(7), dual, 2)
        assert value(xi) == eps

    def test_so3_third_coordinate(self, dual):
        pi = trusted(so3_structure())
        x1 = AFunction(Var(0), 3, dual)
        x2 = AFunction(Var(1), 3, dual)
        xi = APoint(
            dual,
            (dual.element([0.3, 0.1]), dual.element([-0.4, 0.7]), dual.element([2, 1])),
        )
        assert prolong_bracket(pi, x1, x2)(xi) == dual.element([2, 1])

    def test_reduces_to_prolonged_base_bracket(self, canonical, dual):
        f, g = parse("x1^2 + x2", 2), parse("exp(x1)*x2", 2)
        rng = rng_for(8)
        for _ in range(10):
            xi = random_point(rng, dual, 2)
            lifted = prolong_bracket(
                canonical, AFunction(f, 2, dual), AFunction(g, 2, dual)
            )(xi)
            base = eval_weil(bracket(canonical, f, g), xi)
            assert lifted.allclose(base, 1e-9)

    def test_mismatched_algebras(self, canonical, dual):
        other = jets(2)
        with pytest.raises(AlgebraMismatch):
            prolong_bracket(
                canonical, AFunction(Var(0), 2, dual), AFunction(Var(1), 2, other)
            )


class TestOmega:
    def test_canonical_pairing(self, canonical, dual):
        dq = CoordForm(1, 2, dual, {(0,): ConstR(1.0)})
        dp = CoordForm(1, 2, dual, {(1,): ConstR(1.0)})
        value = omega_prolonged(canonical, dq, dp)
        xi = random_point(rng_for(9), dual, 2)
        assert value(xi) == -dual.unit()

    def test_skewness_exact(self, canonical, dual):
        eps = dual.generator("eps")
        x = CoordForm(1, 2, dual, {(0,): Var(1), (1,): ConstA(eps)})
        xi = APoint(dual, (dual.element([1, 1]), dual.element([3, 1])))
        assert np.all(omega_prolonged(canonical, x, x)(xi).coeffs == 0.0)

    def test_prolongation_equality_example(self, canonical, dual):
        x = CoordForm(1, 2, dual, {(0,): Var(1)})  # x2 * dx1
        y = CoordForm(1, 2, dual, {(1,): ConstR(1.0)})  # dx2
        xi = APoint(dual, (dual.element([1, 1]), dual.element([3, 1])))
        value = omega_prolonged(canonical, x, y)(xi)
        assert value == dual.element([-3, -1])
        assert omega_at(canonical, x, y, xi) == dual.element([-3, -1])

    def test_bracket_recovery(self, canonical, dual):
        phi = AFunction(parse("x1^2*x2", 2), 2, dual)
        psi = AFunction(parse("sin(x2)", 2), 2, dual)
        rng = rng_for(10)
        for _ in range(5):
            xi = random_point(rng, dual, 2)
            via_form = -omega_prolonged(canonical, delta(phi), delta(psi))(xi)
            via_bracket = prolong_bracket(canonical, phi, psi)(xi)
            assert via_form.allclose(via_bracket, 1e-12)

    def test_ad_tilde_consistency(self, canonical, dual):
        phi = AFunction(parse("x1*x2", 2), 2, dual)
        field_a = ad_tilde(canonical, delta(phi))
        field_b = ad_prolong(canonical, phi)
        rng = rng_for(11)
        probe = AFunction(parse("x1^2 + x2", 2), 2, dual)
        for _ in range(5):
            xi = random_point(rng, dual, 2)
            assert field_a.apply_at(probe, xi).allclose(
                field_b.apply_at(probe, xi), 1e-12
            )


class TestVerifyAPoisson:
    def test_canonical_dual_passes(self):
        pi = canonical_structure(1)
        report = verify_a_poisson(pi, dual_numbers(), trials=40, tol=1e-9, seed=3)
        assert report.passed
        assert report.max_residual <= 1e-9

    def test_so3_jets_passes(self):
        pi = so3_structure()
        report = verify_a_poisson(pi, jets(2), trials=40, tol=1e-9, seed=3)
        assert report.passed

    def test_perturbed_fails_on_jacobi(self):
        pi = perturbed_so3()
        report = verify_a_poisson(pi, dual_numbers(), trials=40, tol=1e-9, seed=3)
        assert not report.passed
        assert report.max_residual > 1e-3
        assert any(w.inputs.get("check") == "jacobi" for w in report.witnesses)

    def test_report_invariant(self):
        pi = canonical_structure(1)
        report = verify_a_poisson(pi, dual_numbers(), trials=20, tol=1e-9, seed=4)
        assert report.passed == (report.max_residual <= report.tol)
        payload = report.to_dict()
        assert set(payload) == {
            "suite",
            "seed",
            "trials",
            "max_residual",
            "pass",
            "witnesses",
        }


class TestRecorder:
    """A non-finite residual is a failure with a witness, never a pass."""

    def test_nan_residual_fails(self):
        rec = _Recorder(1e-9)
        rec.record(math.nan, {"check": "nan"})
        report = rec.report("x", 1, 1)
        assert not report.passed
        assert report.max_residual == math.inf
        assert len(report.witnesses) == 1

    def test_residual_of_inf_elements_fails(self):
        A = dual_numbers()
        big = A.element([math.inf, 1.0])
        with np.errstate(invalid="ignore"):
            value = residual(big, big)
        rec = _Recorder(1e-9)
        rec.record(value, {"check": "inf"})
        report = rec.report("x", 1, 1)
        assert not report.passed
        assert report.max_residual == math.inf
        assert len(report.witnesses) == 1


class TestHamiltonianFieldSo3:
    def test_rotation_generator(self):
        pi = so3_structure()
        field = hamiltonian_field(pi, Var(0))
        xs = [0.3, -0.7, 1.1]
        values = [eval_real(c, xs) for c in field.components]
        # ad(x1) rotates the (x2, x3) plane: (0, x3, -x2)
        assert values[0] == 0.0
        assert abs(values[1] - 1.1) <= 1e-15
        assert abs(values[2] + (-0.7)) <= 1e-15
