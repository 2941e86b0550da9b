"""Fields, their prolongations, brackets, and point transport."""

import numpy as np
import pytest

import weilc
from weilc import (
    AFunction,
    APoint,
    VectorField,
    apply_field,
    augmentation_morphism,
    dual_numbers,
    jets,
    lie_bracket,
    parse,
    prolong_field,
    prolong_map,
    pushforward_point,
    validate_morphism,
)
from weilc.algebra import apply_linear
from weilc.errors import AlgebraMismatch, DimensionMismatch
from weilc.expr import (
    ConstA,
    ConstR,
    Mul,
    Var,
    ZERO,
    eval_real,
    eval_weil,
    substitute,
    to_string,
)
from weilc.oracle import poly_coeffs_exact
from weilc.sampling import random_expr_with_consta, random_field, random_point, rng_for


def dual_point(*coeff_vectors):
    A = dual_numbers()
    return A, APoint(A, tuple(A.element(v) for v in coeff_vectors))


class TestApplyField:
    def test_constant_field(self):
        theta = VectorField((ConstR(1.0), ConstR(0.0)))
        assert apply_field(theta, parse("x1*x2", 2)) == Var(1)

    def test_rotation_kills_radius(self):
        theta = VectorField(tuple(parse(t, 2) for t in ("x2", "-x1")))
        action = apply_field(theta, parse("x1^2 + x2^2", 2))
        rng = rng_for(2)
        for _ in range(10):
            xs = rng.uniform(-2, 2, 2)
            assert eval_weil(action, APoint.from_reals(dual_numbers(), xs)).coeffs[0] == 0.0

    def test_euler_field_on_log(self):
        theta = VectorField((Var(0),))
        action = apply_field(theta, parse("log(x1)", 1))
        rng = rng_for(3)
        for _ in range(10):
            x = float(rng.uniform(0.3, 2.0))
            A = dual_numbers()
            assert abs(eval_weil(action, APoint.from_reals(A, [x])).real - 1.0) <= 1e-12

    def test_consta_rejected(self):
        eps = dual_numbers().generator("eps")
        with pytest.raises(AlgebraMismatch):
            VectorField((ConstA(eps),))


class TestProlongField:
    def test_defining_example(self):
        A, xi = dual_point([3, 1])
        theta = VectorField((ConstR(1.0),))
        value = prolong_field(theta, A).apply_at(parse("x1^2", 1), xi)
        assert value == A.element([6, 2])

    def test_algebra_linearity(self):
        A, xi = dual_point([2, 1])
        eps = A.generator("eps")
        theta = prolong_field(VectorField((ConstR(1.0),)), A)
        phi = AFunction(Mul(ConstA(eps), Var(0)), 1, A)
        assert theta.apply_at(phi, xi) == eps
        assert theta.apply_at(phi, xi) == eps * theta.apply_at(parse("x1", 1), xi)

    def test_module_law(self):
        # scaling the field by f before prolonging equals scaling the action
        A, xi = dual_point([2, 1])
        f = parse("x1", 1)
        theta = VectorField((ConstR(1.0),))
        scaled = prolong_field(theta.scale(f), A)
        lhs = scaled.apply_at(parse("x1", 1), xi)
        assert lhs == A.element([2, 1])
        rhs = eval_weil(f, xi) * prolong_field(theta, A).apply_at(parse("x1", 1), xi)
        assert lhs == rhs

    def test_derivation_law_randomized(self):
        rng = rng_for(7)
        A = jets(3)
        for _ in range(30):
            theta = VectorField(
                tuple(parse(t, 2) for t in ("x1*x2", "x2^2 - x1"))
            )
            f = parse("sin(x1) + x2^2", 2)
            g = parse("exp(x2)*x1", 2)
            xi = random_point(rng, A, 2)
            d = prolong_field(theta, A)
            lhs = d.apply_at(Mul(f, g), xi)
            rhs = d.apply_at(f, xi) * eval_weil(g, xi) + eval_weil(f, xi) * d.apply_at(
                g, xi
            )
            assert lhs.allclose(rhs, 1e-9)

    def test_scale_rejects_another_algebra(self):
        A, _ = dual_point([2, 1])
        d = prolong_field(VectorField((parse("x1", 1),)), A)
        with pytest.raises(AlgebraMismatch):
            d.scale(jets(2).unit())
        with pytest.raises(AlgebraMismatch):
            d.scale(ConstA(jets(2).unit()))

    def test_scale_takes_a_float(self):
        A, xi = dual_point([2, 1])
        d = prolong_field(VectorField((parse("x1^2", 1),)), A)
        f = parse("sin(x1)", 1)
        assert d.scale(2.0).apply_at(f, xi) == d.scale(ConstR(2.0)).apply_at(f, xi)
        assert d.scale(2.0).components == d.scale(ConstR(2.0)).components

    def test_base_scale_takes_a_number(self):
        theta = VectorField((parse("x1", 1),))
        for scalar in (2.0, 2):
            (comp,) = theta.scale(scalar).components
            assert to_string(comp) == "2*x1"
            assert eval_real(comp, [1.5]) == 3.0
        with pytest.raises(TypeError):
            theta.scale("2")
        with pytest.raises(AlgebraMismatch):
            theta.scale(dual_numbers().unit())

    def test_endomorphism_law(self):
        rng = rng_for(8)
        A = jets(2)
        theta = VectorField((parse("x1^2", 1),))
        f = parse("sin(x1)", 1)
        for _ in range(10):
            xi = random_point(rng, A, 1)
            matrix = rng.uniform(-1, 1, (A.dim, A.dim))
            lhs = apply_linear(matrix, prolong_field(theta, A).apply_at(f, xi))
            rhs = apply_linear(matrix, eval_weil(apply_field(theta, f), xi))
            assert lhs.allclose(rhs, 1e-12)


class TestLieBracket:
    def test_coordinate_fields_commute(self):
        t1 = VectorField((ConstR(1.0), ConstR(0.0)))
        t2 = VectorField((ConstR(0.0), ConstR(1.0)))
        assert lie_bracket(t1, t2).components == (ZERO, ZERO)

    def test_euler_against_translation(self):
        t1 = VectorField((Var(0),))
        t2 = VectorField((ConstR(1.0),))
        assert lie_bracket(t1, t2).components == (ConstR(-1.0),)

    def test_antisymmetry_exact_symbolically(self):
        rng = rng_for(9)
        from weilc.sampling import random_polynomial

        for _ in range(20):
            t1 = VectorField(tuple(random_polynomial(rng, 2) for _ in range(2)))
            t2 = VectorField(tuple(random_polynomial(rng, 2) for _ in range(2)))
            fwd = lie_bracket(t1, t2)
            rev = lie_bracket(t2, t1)
            for a, b in zip(fwd.components, rev.components):
                total = poly_coeffs_exact(a, 2)
                for expt, c in poly_coeffs_exact(b, 2).items():
                    total[expt] = total.get(expt, 0) + c
                assert not any(total.values())

    def test_jacobi_exact_symbolically(self):
        fields = [
            VectorField(tuple(parse(t, 2) for t in comps))
            for comps in (("x2", "x1"), ("x1^2", "0"), ("1", "x1*x2"))
        ]
        t1, t2, t3 = fields
        total_components = []
        for a, b, c in ((t1, t2, t3), (t2, t3, t1), (t3, t1, t2)):
            total_components.append(lie_bracket(a, lie_bracket(b, c)).components)
        for parts in zip(*total_components):
            coeffs: dict = {}
            for part in parts:
                for expt, c in poly_coeffs_exact(part, 2).items():
                    coeffs[expt] = coeffs.get(expt, 0) + c
            assert not any(coeffs.values())

    def test_bracket_prolongation_example(self):
        A, xi = dual_point([2, 1])
        t1 = VectorField((Var(0),))
        t2 = VectorField((ConstR(1.0),))
        f = parse("x1^2", 1)
        base = eval_weil(apply_field(lie_bracket(t1, t2), f), xi)
        assert base == A.element([-4, -2])
        d1, d2 = prolong_field(t1, A), prolong_field(t2, A)
        operator = d1.apply_at(d2.apply(f), xi) - d2.apply_at(d1.apply(f), xi)
        assert base.allclose(operator, 1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            lie_bracket(VectorField((Var(0),)), VectorField((Var(0), Var(1))))


class TestOneFieldClass:
    """Base and prolonged fields are one class; a base field's algebra is None."""

    def test_the_prolonged_name_is_the_same_class(self):
        assert weilc.AVectorField is weilc.VectorField
        assert prolong_field(VectorField((Var(0),)), jets(2)).algebra is not None
        assert VectorField((Var(0),)).algebra is None

    def test_base_apply_at_is_the_prolonged_apply_at(self):
        rng = rng_for(11)
        A = jets(3)
        f = parse("sin(x1)*x2 + exp(x2)", 2)
        for _ in range(10):
            theta = random_field(rng, 2)
            xi = random_point(rng, A, 2)
            base = theta.apply_at(f, xi)
            prolonged = prolong_field(theta, A).apply_at(f, xi)
            assert base.algebra is A
            assert base.coeffs == prolonged.coeffs

    def test_bracket_of_prolonged_fields_is_the_prolonged_bracket(self):
        rng = rng_for(12)
        A = jets(2)
        for _ in range(10):
            t1, t2 = random_field(rng, 2), random_field(rng, 2)
            assert lie_bracket(prolong_field(t1, A), prolong_field(t2, A)) == (
                prolong_field(lie_bracket(t1, t2), A)
            )

    def test_bracket_with_algebra_constants_is_the_commutator(self):
        rng = rng_for(13)
        A = jets(2)
        f = parse("x1^2*x2 + sin(x2)", 2)
        for _ in range(10):
            d1, d2 = (
                VectorField(
                    tuple(random_expr_with_consta(rng, 2, A, depth=2) for _ in range(2)),
                    A,
                )
                for _ in range(2)
            )
            xi = random_point(rng, A, 2)
            lhs = lie_bracket(d1, d2).apply_at(f, xi)
            rhs = d1.apply_at(d2.apply(f), xi) - d2.apply_at(d1.apply(f), xi)
            assert lhs.allclose(rhs, 1e-12)

    def test_base_apply_is_a_base_function(self):
        theta = VectorField((Var(0),))
        f = parse("x1^2", 1)
        applied = theta.apply(f)
        assert applied.algebra is None and applied.expr == apply_field(theta, f)
        A, xi = dual_point([3, 1])
        assert applied(xi).coeffs == prolong_field(theta, A).apply(f)(xi).coeffs == [18, 12]

    def test_prolonged_field_with_constants_hashes(self):
        A = dual_numbers()
        eps = A.generator("eps")
        d = VectorField((Mul(ConstA(eps), Var(0)),), A)
        twin = VectorField((Mul(ConstA(A.generator("eps")), Var(0)),), A)
        assert d == twin and hash(d) == hash(twin)
        assert len({d, twin, VectorField((Var(0),), A)}) == 2


class TestPushforward:
    def test_truncation(self):
        source = jets(2, "x")
        target = dual_numbers()
        matrix = np.zeros((2, 3))
        matrix[0, 0] = matrix[1, 1] = 1.0
        morphism = validate_morphism(source, target, matrix)
        xi = APoint(source, (source.element([1, 1, 1]),))
        assert pushforward_point(morphism, xi).coords[0] == target.element([1, 1])

    def test_augmentation_is_base_projection(self):
        A = dual_numbers()
        xi = APoint(A, (A.element([3, 6]),))
        down = pushforward_point(augmentation_morphism(A), xi)
        assert down.coords[0].coeffs == [3.0]
        assert xi.base_point() == (3.0,)

    def test_functoriality_probe(self):
        source = jets(2, "x")
        target = dual_numbers()
        matrix = np.zeros((2, 3))
        matrix[0, 0] = matrix[1, 1] = 1.0
        morphism = validate_morphism(source, target, matrix)
        f = parse("x1^2", 1)
        xi = APoint(source, (source.element([1, 1, 0]),))
        left = eval_weil(f, pushforward_point(morphism, xi))
        right = morphism.apply(eval_weil(f, xi))
        assert left == target.element([1, 2])
        assert right == target.element([1, 2])

    def test_source_mismatch(self):
        A = dual_numbers()
        B = jets(2)
        xi = APoint(B, (B.unit(),))
        with pytest.raises(AlgebraMismatch):
            pushforward_point(augmentation_morphism(A), xi)


class TestProlongMap:
    def test_identity(self):
        A, xi = dual_point([3, 1], [0, 2])
        assert prolong_map([Var(0), Var(1)], xi).coords == xi.coords

    def test_square_map(self):
        A, xi = dual_point([3, 1])
        image = prolong_map([parse("x1^2", 1)], xi)
        assert image.coords[0] == A.element([9, 6])

    def test_chain_rule_both_orders(self):
        A, xi = dual_point([3, 1])
        g = parse("x1 + 1", 1)
        h = [parse("x1^2", 1)]
        via_image = eval_weil(g, prolong_map(h, xi))
        via_substitution = eval_weil(substitute(g, h), xi)
        assert via_image == A.element([10, 6])
        assert via_substitution == A.element([10, 6])


class TestErrorPropagation:
    def test_apply_at_on_empty_field(self):
        A, xi = dual_point()
        empty = prolong_field(VectorField(()), A)
        with pytest.raises(DimensionMismatch, match="vector field has no components"):
            empty.apply_at(ConstR(1.0), xi)

    def test_prolong_map_domain_error(self):
        A = dual_numbers()
        xi = APoint(A, (A.generator("eps"),))
        with pytest.raises(Exception) as err:
            prolong_map([parse("1/x1", 1)], xi)
        from weilc.errors import DomainError

        assert isinstance(err.value, DomainError)
