"""Coordinate forms: differential, wedge, contraction, Lie derivative."""

import pytest

from weilc import (
    AFunction,
    APoint,
    CoordForm,
    VectorField,
    contract,
    delta,
    dform,
    dual_numbers,
    interior,
    jets,
    lie_derivative,
    parse,
    prolong_field,
    prolong_form,
    wedge,
)
from weilc.errors import AlgebraMismatch, DegreeError
from weilc.expr import ConstA, ConstR, Mul, Var, eval_weil
from weilc.forms import function_form, zero_form
from weilc.oracle import form_is_zero_exact
from weilc.sampling import (
    random_one_form,
    random_point,
    random_polynomial,
    residual_forms,
    rng_for,
)


@pytest.fixture
def dual():
    return dual_numbers()


def afn(text, n, algebra):
    return AFunction(parse(text, n), n, algebra)


class TestDelta:
    def test_square(self, dual):
        form = delta(afn("x1^2", 1, dual))
        assert form.coefficient((0,)) == parse("2*x1", 1)

    def test_algebra_linearity(self, dual):
        eps = dual.generator("eps")
        form = delta(AFunction(Mul(ConstA(eps), Var(0)), 1, dual))
        assert form.coefficient((0,)) == ConstA(eps)

    def test_leibniz(self, dual):
        form = delta(afn("x1*x2", 2, dual))
        assert form.coefficient((0,)) == Var(1)
        assert form.coefficient((1,)) == Var(0)

    def test_leibniz_randomized(self, dual):
        rng = rng_for(1)
        phi = afn("sin(x1)*x2", 2, dual)
        psi = afn("x1^2 + exp(x2)", 2, dual)
        lhs = delta(phi * psi)
        rhs = delta(phi).scale(psi) + delta(psi).scale(phi)
        for _ in range(10):
            xi = random_point(rng, dual, 2)
            assert residual_forms(lhs, rhs, xi) <= 1e-12


class TestWedge:
    def one_forms(self, dual):
        dx1 = CoordForm(1, 2, dual, {(0,): ConstR(1.0)})
        dx2 = CoordForm(1, 2, dual, {(1,): ConstR(1.0)})
        return dx1, dx2

    def test_antisymmetry(self, dual):
        dx1, dx2 = self.one_forms(dual)
        assert wedge(dx1, dx2).coefficient((0, 1)) == ConstR(1.0)
        assert wedge(dx2, dx1).coefficient((0, 1)) == ConstR(-1.0)

    def test_repeat_vanishes(self, dual):
        dx1, _ = self.one_forms(dual)
        assert wedge(dx1, dx1).coeffs == {}

    def test_function_coefficients(self, dual):
        a = CoordForm(1, 2, dual, {(0,): Var(1)})
        b = CoordForm(1, 2, dual, {(1,): Var(0)})
        assert wedge(a, b).coefficient((0, 1)) == Mul(Var(1), Var(0))

    def test_graded_commutativity_and_associativity(self, dual):
        rng = rng_for(4)
        n = 3
        for _ in range(10):
            x = random_one_form(rng, n, dual, with_consta=True)
            y = random_one_form(rng, n, dual, with_consta=True)
            z = random_one_form(rng, n, dual)
            xi = random_point(rng, dual, n)
            assert residual_forms(wedge(x, y), -wedge(y, x), xi) <= 1e-12
            assert (
                residual_forms(wedge(wedge(x, y), z), wedge(x, wedge(y, z)), xi)
                <= 1e-12
            )
            # degree (2,1): sign (-1)^2 = +1
            xy = wedge(x, y)
            assert residual_forms(wedge(xy, z), wedge(z, xy), xi) <= 1e-12

    def test_degree_above_dimension_vanishes(self, dual):
        dx1, dx2 = self.one_forms(dual)
        assert wedge(wedge(dx1, dx2), dx1).coeffs == {}


class TestDform:
    def test_basic(self, dual):
        w = CoordForm(1, 2, dual, {(0,): Var(1)})  # x2 dx1
        d = dform(w)
        assert d.coefficient((0, 1)) == ConstR(-1.0)

    def test_dd_zero_exact(self, dual):
        w = function_form(afn("x1^2*x2", 2, dual))
        assert form_is_zero_exact(dform(dform(w)), 2)
        rng = rng_for(5)
        for _ in range(10):
            coeff = random_polynomial(rng, 3, max_degree=4)
            w0 = CoordForm(0, 3, dual, {(): coeff})
            assert form_is_zero_exact(dform(dform(w0)), 3)
            w1 = random_one_form(rng, 3, dual)
            if all(
                _is_polynomial(c) for c in w1.coeffs.values()
            ):
                assert form_is_zero_exact(dform(dform(w1)), 3)

    def test_differential_of_scaled_differential(self, dual):
        # d(psi * d(phi)) = d(psi) ^ d(phi)
        psi, phi = afn("x1", 2, dual), afn("x2", 2, dual)
        lhs = dform(delta(phi).scale(psi))
        assert lhs.coefficient((0, 1)) == ConstR(1.0)
        rhs = wedge(delta(psi), delta(phi))
        assert rhs.coefficient((0, 1)) == ConstR(1.0)

    def test_product_rule_against_one_form(self, dual):
        rng = rng_for(6)
        phi = afn("exp(x1)*x2", 2, dual)
        w = random_one_form(rng, 2, dual, with_consta=True)
        lhs = dform(w.scale(phi))
        rhs = wedge(delta(phi), w) + dform(w).scale(phi)
        for _ in range(10):
            xi = random_point(rng, dual, 2)
            assert residual_forms(lhs, rhs, xi) <= 1e-12


def _is_polynomial(e):
    from weilc.oracle import poly_coeffs_exact

    try:
        poly_coeffs_exact(e, 3)
        return True
    except ValueError:
        return False


class TestInterior:
    def test_coordinate_contractions(self, dual):
        d1 = VectorField((ConstR(1.0), ConstR(0.0)), dual)
        dx1 = CoordForm(1, 2, dual, {(0,): ConstR(1.0)})
        dx12 = CoordForm(2, 2, dual, {(0, 1): ConstR(1.0)})
        assert interior(d1, dx1).coefficient(()) == ConstR(1.0)
        assert interior(d1, dx12).coefficient((1,)) == ConstR(1.0)

    def test_degree_error(self, dual):
        d1 = VectorField((ConstR(1.0),), dual)
        with pytest.raises(DegreeError):
            interior(d1, zero_form(0, 1, dual))

    def test_prolongation_identity_example(self, dual):
        # contraction of the prolonged field against the prolonged form,
        # evaluated where the base contraction is 2*x1^2
        theta = VectorField((Var(0),))
        eta_base = delta(AFunction(parse("x1^2", 1), 1, None))
        lhs_field = prolong_field(theta, dual)
        eta = prolong_form(eta_base, dual)
        xi = APoint(dual, (dual.element([2, 1]),))
        lhs = contract(lhs_field, eta)(xi)
        assert lhs == dual.element([8, 8])
        base_value = contract(theta, eta_base).expr
        assert eval_weil(base_value, xi) == dual.element([8, 8])

    def test_derivation_of_degree_minus_one(self, dual):
        rng = rng_for(7)
        n = 3
        d = VectorField(tuple(random_polynomial(rng, n) for _ in range(n)), dual)
        for _ in range(5):
            x = random_one_form(rng, n, dual, with_consta=True)
            y = random_one_form(rng, n, dual, with_consta=True)
            xi = random_point(rng, dual, n)
            lhs = interior(d, wedge(x, y))
            rhs = y.scale(contract(d, x)) - x.scale(contract(d, y))
            assert residual_forms(lhs, rhs, xi) <= 1e-12


class TestLieDerivative:
    def test_differential_of_action(self, dual):
        # applying the derivative to a differential gives the differential
        # of the action
        d1 = VectorField((ConstR(1.0),), dual)
        phi = afn("x1^2", 1, dual)
        lhs = lie_derivative(d1, delta(phi))
        assert lhs.coefficient((0,)) == ConstR(2.0)
        rhs = delta(d1.apply(phi))
        assert rhs.coefficient((0,)) == ConstR(2.0)

    def test_prolongation_example(self, dual):
        theta = VectorField((Var(0),))
        eta_base = delta(AFunction(Var(0), 1, None))
        lhs = lie_derivative(prolong_field(theta, dual), prolong_form(eta_base, dual))
        xi = APoint(dual, (dual.element([2, 1]),))
        values = lhs.evaluate(xi)
        assert values[(0,)] == dual.unit()

    def test_scaled_derivation_law(self, dual):
        # phi*D acts through phi and the contraction correction
        phi = afn("x2", 2, dual)
        d1 = VectorField((ConstR(1.0), ConstR(0.0)), dual)
        x = CoordForm(1, 2, dual, {(0,): ConstR(1.0)})
        lhs = lie_derivative(d1.scale(phi), x)
        assert lhs.coefficient((1,)) == ConstR(1.0)
        assert lhs.coefficient((0,)) in (None, ConstR(0.0)) or lhs.coefficient(
            (0,)
        ) == ConstR(0.0)
        rhs = lie_derivative(d1, x).scale(phi) + delta(phi).scale(contract(d1, x))
        xi = APoint(dual, (dual.element([1, 0]), dual.element([3, 1])))
        assert residual_forms(lhs, rhs, xi) <= 1e-15

    def test_commutes_with_differential(self, dual):
        rng = rng_for(8)
        n = 2
        for _ in range(10):
            d = VectorField(
                tuple(random_polynomial(rng, n) for _ in range(n)), dual
            )
            w = random_one_form(rng, n, dual, with_consta=True)
            xi = random_point(rng, dual, n)
            assert (
                residual_forms(
                    lie_derivative(d, dform(w)), dform(lie_derivative(d, w)), xi
                )
                <= 1e-11
            )

    def test_degree_zero_uses_contraction_only(self, dual):
        d1 = VectorField((Var(0),), dual)
        phi = afn("x1^2", 1, dual)
        out = lie_derivative(d1, function_form(phi))
        xi = APoint(dual, (dual.element([2, 1]),))
        assert out.evaluate(xi)[()] == d1.apply(phi)(xi)


class TestProlongForm:
    def test_wedge_of_differentials_prolongs_coefficientwise(self, dual):
        f1 = AFunction(parse("x1*x2", 2), 2, None)
        f2 = AFunction(parse("x2^2", 2), 2, None)
        eta = wedge(delta(f1), delta(f2))
        lifted = prolong_form(eta, dual)
        direct = wedge(
            delta(afn("x1*x2", 2, dual)), delta(afn("x2^2", 2, dual))
        )
        assert lifted.coeffs == direct.coeffs

    def test_consta_rejected(self, dual):
        eps = dual.generator("eps")
        w = CoordForm(1, 1, dual, {(0,): ConstA(eps)})
        with pytest.raises(AlgebraMismatch):
            prolong_form(w, jets(2))

    def test_mixed_algebra_operations_rejected(self, dual):
        other = jets(2)
        a = CoordForm(1, 1, dual, {(0,): ConstR(1.0)})
        b = CoordForm(1, 1, other, {(0,): ConstR(1.0)})
        with pytest.raises(AlgebraMismatch):
            wedge(a, b)
