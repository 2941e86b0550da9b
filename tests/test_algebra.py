"""Algebra construction, ring arithmetic, lifts, and morphisms."""

import copy
import math
import random
from itertools import combinations_with_replacement, product

import mpmath
import numpy as np
import pytest
from hypothesis import assume, given, strategies as st

from weilc import (
    AlgebraPresentation,
    PRIMITIVES,
    augmentation,
    augmentation_morphism,
    build_algebra,
    dual_numbers,
    jets,
    render_element,
    taylor_lift,
    trivial_algebra,
    validate_morphism,
)
from weilc.algebra import (
    _CHUNK,
    _compile,
    _sqrt_derivs,
    _tan_derivs,
    apply_linear,
    monomial_name,
)
from weilc.errors import (
    AlgebraMismatch,
    DomainError,
    EmptyRelation,
    NotFiniteDimensional,
    NotMorphism,
)
from weilc.expr import eval_weil, parse
from weilc.oracle import taylor_coeffs
from weilc.prolongation import APoint
from weilc.sampling import CATALOG, catalog_algebra, random_element, rng_for


def two_gen_algebra():
    return build_algebra(AlgebraPresentation(("x", "y"), ((3, 0), (1, 1), (0, 2))))


SAMPLE_ALGEBRAS = [
    dual_numbers,
    lambda: jets(2),
    lambda: jets(3),
    two_gen_algebra,
    lambda: build_algebra(AlgebraPresentation(("a", "b"), ((2, 0), (0, 2)))),
    trivial_algebra,
]


class TestBuild:
    def test_dual_numbers(self):
        A = dual_numbers()
        assert A.dim == 2
        assert A.height == 1
        assert A.basis_names() == ["1", "eps"]

    def test_two_generator_example(self):
        A = two_gen_algebra()
        assert A.dim == 4
        assert A.height == 2
        assert set(A.basis_names()) == {"1", "x", "x^2", "y"}

    def test_standard_monomials_match_brute_force(self):
        # independent enumeration: all monomials in the pure-power box that
        # no relation divides
        pres = AlgebraPresentation(("x", "y"), ((3, 0), (1, 1), (0, 2)))
        expected = {
            m
            for m in product(range(3), range(2))
            if not any(
                all(r <= e for r, e in zip(rel, m)) for rel in pres.relations
            )
        }
        assert set(build_algebra(pres).basis) == expected

    def test_not_finite_dimensional(self):
        with pytest.raises(NotFiniteDimensional):
            AlgebraPresentation(("x", "y"), ((1, 1),))

    def test_empty_relation_rejected(self):
        with pytest.raises(EmptyRelation):
            AlgebraPresentation(("x",), ((0,),))

    def test_trivial_algebra(self):
        R = trivial_algebra()
        assert R.dim == 1
        assert R.height == 0
        assert R.maximal_ideal_basis == ()

    def test_trivial_algebra_is_one_shared_algebra(self):
        # it is the augmentation target, so augmentations built apart mix
        assert trivial_algebra() is trivial_algebra()
        A = dual_numbers()
        a, b = A.element([3, 6]), A.element([-1, 2])
        total = augmentation_morphism(A)(a) + augmentation_morphism(A)(b)
        assert total.algebra is trivial_algebra() and total.coeffs == [2.0]

    def test_unit_is_first_basis_element(self):
        for factory in SAMPLE_ALGEBRAS:
            A = factory()
            assert A.basis[0] == tuple([0] * len(A.presentation.generators))

    def test_a_copy_keeps_the_algebra(self):
        # an algebra is an identity handle: elements of a copy mix with the
        # original's
        A = dual_numbers()
        for twin in (copy.copy(A), copy.deepcopy(A)):
            assert twin is A
            assert twin.unit() + A.unit() == A.element([2.0, 0.0])


def basis_products(A):
    """Dense table of e_i e_j as a basis index, or -1 when the product lies in
    the ideal; built from the basis monomials and the relations alone."""
    index = {m: k for k, m in enumerate(A.basis)}
    table = [[-1] * A.dim for _ in range(A.dim)]
    for i, mi in enumerate(A.basis):
        for j, mj in enumerate(A.basis):
            m = tuple(a + b for a, b in zip(mi, mj))
            if not any(all(r <= e for r, e in zip(rel, m))
                       for rel in A.presentation.relations):
                table[i][j] = index[m]
    return table


class TestMultiplicationTable:
    @pytest.mark.parametrize("factory", SAMPLE_ALGEBRAS)
    def test_unit_row_and_column(self, factory):
        A = factory()
        table = basis_products(A)
        for i in range(A.dim):
            assert table[0][i] == i
            assert table[i][0] == i

    @pytest.mark.parametrize("factory", SAMPLE_ALGEBRAS)
    def test_product_plan_is_the_dense_table(self, factory):
        A = factory()
        table = basis_products(A)
        expected = [(i, j, table[i][j]) for i in range(A.dim)
                    for j in range(i, A.dim) if table[i][j] >= 0]
        assert list(A.product_plan) == expected

    @pytest.mark.parametrize("factory", SAMPLE_ALGEBRAS)
    def test_exhaustive_commutativity_and_associativity(self, factory):
        A = factory()
        basis = [A.element(row) for row in np.eye(A.dim)]
        for i in range(A.dim):
            for j in range(A.dim):
                assert basis[i] * basis[j] == basis[j] * basis[i]
                for k in range(A.dim):
                    assert (basis[i] * basis[j]) * basis[k] == basis[i] * (
                        basis[j] * basis[k]
                    )

    @pytest.mark.parametrize("factory", SAMPLE_ALGEBRAS)
    def test_nilpotency_degree_matches_height(self, factory):
        A = factory()
        h = A.height
        basis = [A.element(row) for row in np.eye(A.dim)]
        nil = [basis[i] for i in A.maximal_ideal_basis]
        if not nil:
            return
        for combo in combinations_with_replacement(nil, h + 1):
            out = combo[0]
            for e in combo[1:]:
                out = out * e
            assert not any(out.coeffs)
        found = False
        for combo in combinations_with_replacement(nil, h):
            out = combo[0]
            for e in combo[1:]:
                out = out * e
            if any(out.coeffs):
                found = True
                break
        assert found


class TestRingOps:
    def test_dual_square(self):
        A = dual_numbers()
        a = A.from_real(3) + A.generator("eps")
        assert (a * a) == A.element([9, 6])

    def test_truncation_at_degree_three(self):
        A = jets(2, "x")
        left = A.from_real(1) + A.generator("x")
        right = A.element([1, 1, 1])
        assert left * right == A.element([1, 2, 2])

    def test_algebra_mismatch(self):
        a = dual_numbers().unit()
        b = jets(2).unit()
        with pytest.raises(AlgebraMismatch):
            a * b

    def test_scalar_and_division(self):
        A = jets(2)
        a = A.element([2, 1, 0])
        assert a * 0.5 == A.element([1, 0.5, 0])
        assert (a / a).allclose(A.unit(), 1e-12)

    @given(
        st.lists(st.integers(-8, 8), min_size=3, max_size=3),
        st.lists(st.integers(-8, 8), min_size=3, max_size=3),
        st.lists(st.integers(-8, 8), min_size=3, max_size=3),
    )
    def test_ring_laws_exact_on_integers(self, xs, ys, zs):
        A = jets(2)
        a, b, c = A.element(xs), A.element(ys), A.element(zs)
        assert a * b == b * a
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c


class TestElementFormat:
    """Coefficients are a list of Python floats, whatever built the element."""

    def test_every_path_yields_a_list_of_floats(self):
        A = jets(2)
        a = A.element(np.array([0.5, 2, -1]))
        b = A.element([1, True, 0.25])
        pure = [
            A.element((1, 2, 3)), A.zero(), A.unit(), A.from_real(2), A.generator("t"),
            a.nilpotent_part(), a + b, a + 1, 1 + a, a - b, a - 1, 1 - a, -a,
            a * b, a * 2, 2 * a, a * 0.5, a * np.float64(0.5), a / b, a / 2,
            a / np.float64(2), a + np.float64(1), a**3, a**-2,
            taylor_lift(PRIMITIVES["exp"], a),
            apply_linear(np.eye(3), a),
            validate_morphism(A, dual_numbers(), [[1, 0, 0], [0, 1, 0]]).apply(a),
            augmentation_morphism(A).apply(a),
            eval_weil(parse("sin(x1)*x2 + 3", 2), APoint(A, (a, b))),
            random_element(rng_for(1), A),
        ]
        for value in pure:
            assert type(value.coeffs) is list
            assert all(type(c) is float for c in value.coeffs), value.coeffs

    @pytest.mark.parametrize(
        "bad", ["12", [[1, 2]], [[1], [2]], np.array([[1.0], [2.0]]), [1, 2, 3], [1],
                3.0, np.array(3.0), ["1", "2"], [None, 1]],
        ids=["string", "row", "column", "column-array", "too-long", "too-short",
             "scalar", "0-d-array", "strings", "none"],
    )
    def test_element_rejects_what_is_not_one_real_per_basis_monomial(self, bad):
        with pytest.raises(AlgebraMismatch):
            dual_numbers().element(bad)

    def test_equality_is_float_equality(self):
        A = dual_numbers()
        nan = A.element([math.nan, 0.0])
        assert nan != nan  # the same NaN object is still not equal
        assert A.element([-0.0, 1.0]) == A.element([0.0, 1.0])
        assert A.element([1.0, 2.0]) != A.element([1.0, 2.5])
        assert not nan.allclose(nan)

    def test_division_by_zero_scalar_is_a_domain_error(self):
        A = dual_numbers()
        with pytest.raises(DomainError, match="division by zero"):
            A.unit() / 0
        with pytest.raises(DomainError):
            A.unit() / A.zero()


def reference_product(A, a, b):
    """Dense-table product over coefficient lists, summed in basis order.

    The diagonal slot gets a_i b_i and each later j gets a_i b_j + a_j b_i;
    zero contributions are skipped, as the original dense loop did.
    """
    table = basis_products(A)
    out = [0.0] * A.dim
    for i in range(A.dim):
        for j in range(i, A.dim):
            k = table[i][j]
            if k < 0:
                continue
            v = a[i] * b[i] if i == j else a[i] * b[j] + a[j] * b[i]
            if v != 0.0:
                out[k] += v
    return out


def assert_bitwise(actual, expected):
    """Equal bit for bit, signed zeros included; NaN only where expected has NaN."""
    actual, expected = np.asarray(actual, float), np.asarray(expected, float)
    nan = np.isnan(expected)
    assert np.array_equal(np.isnan(actual), nan)
    assert actual[~nan].tobytes() == expected[~nan].tobytes()


KERNEL_ALGEBRAS = [catalog_algebra(name) for name, _ in CATALOG] + [jets(10)]
EXTREMES = st.sampled_from(
    [0.0, -0.0, 1.0, -1.0, 1e200, -1e200, 1e-200, float("inf"), float("-inf")]
)
COEFFS = st.one_of(st.floats(allow_nan=False), EXTREMES)


def elements(data, A, coeffs, count):
    return [
        A.element(data.draw(st.lists(coeffs, min_size=A.dim, max_size=A.dim)))
        for _ in range(count)
    ]


class TestProductKernel:
    """The product plan against a dense-table reference built here."""

    @given(st.sampled_from(KERNEL_ALGEBRAS), st.data())
    def test_product_matches_dense_reference(self, A, data):
        a, b = elements(data, A, COEFFS, 2)
        reference = reference_product(A, a.coeffs, b.coeffs)
        assert_bitwise((a * b).coeffs, reference)

    @given(st.sampled_from(KERNEL_ALGEBRAS), st.data())
    def test_bitwise_commutative(self, A, data):
        a, b = elements(data, A, COEFFS, 2)
        assert_bitwise((a * b).coeffs, (b * a).coeffs)

    @given(st.sampled_from(KERNEL_ALGEBRAS), st.integers(0, 6), st.data())
    def test_power_is_repeated_product(self, A, k, data):
        (a,) = elements(data, A, COEFFS, 1)
        expected = A.unit().coeffs
        for _ in range(k):
            expected = reference_product(A, expected, a.coeffs)
        assert_bitwise((a**k).coeffs, expected)

    @given(
        st.sampled_from(KERNEL_ALGEBRAS),
        st.sampled_from(sorted(PRIMITIVES)),
        st.data(),
    )
    def test_taylor_lift_is_the_taylor_sum(self, A, name, data):
        # g(a) = sum_j g^(j)(r) n^j / j!, with n^j by reference products
        nil = data.draw(st.lists(COEFFS, min_size=A.dim - 1, max_size=A.dim - 1))
        a = A.element([data.draw(st.floats(-3, 3))] + nil)
        prim = PRIMITIVES[name]
        try:
            lifted = taylor_lift(prim, a)
        except DomainError:
            assume(False)
        derivs = prim.derivatives(a.real, A.height)
        n = a.nilpotent_part().coeffs
        expected = A.from_real(derivs[0]).coeffs
        power = A.unit().coeffs
        factorial = 1.0
        for j in range(1, A.height + 1):
            power = reference_product(A, power, n)
            if not any(power):
                break
            factorial *= j
            scale = derivs[j] / factorial
            expected = [e + p * scale for e, p in zip(expected, power)]
        assert_bitwise(lifted.coeffs, expected)


def full_plan_taylor_sum(prim, a):
    """g(a) with every power n^j = n^(j-1) * n taken from the unit through the
    full product plan, summed as taylor_lift sums it."""
    A = a.algebra
    derivs = prim.derivatives(a.real, A.height)
    n = a.nilpotent_part()
    out = A.from_real(derivs[0]).coeffs
    power = A.unit()
    factorial = 1.0
    for j in range(1, A.height + 1):
        power = power * n
        if not any(power.coeffs):
            break
        factorial *= j
        scale = derivs[j] / factorial
        out = [o + p * scale for o, p in zip(out, power.coeffs)]
    return out


FINITE_COEFFS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([0.0, -0.0, 1.0, -1.0, 1e200, -1e200, 1e-200]),
)


class TestCompiledKernels:
    """The generated kernels against loops written here, and lifts whose
    powers stay in the maximal ideal against the full-plan Taylor sum."""

    @staticmethod
    def assert_plan_loop(rng, plan, dim):
        a = [rng.uniform(-1e3, 1e3) for _ in range(dim)]
        b = [rng.uniform(-1e3, 1e3) for _ in range(dim)]
        expected = [0.0] * dim
        for i, j, k in plan:
            expected[k] += a[i] * b[i] if i == j else a[i] * b[j] + a[j] * b[i]
        assert_bitwise(_compile(plan, dim)(a, b), expected)

    def test_long_slot_compiles_and_matches_the_plan_loop(self):
        # 5000 terms in one slot, far past the `+` chain CPython compiles
        rng = random.Random(3)
        dim = 60
        pairs = [sorted((rng.randrange(dim), rng.randrange(dim))) for _ in range(5000)]
        plan = tuple((i, j, 7) for i, j in pairs) + ((0, 0, 0), (2, 5, 1), (1, 1, 1))
        self.assert_plan_loop(rng, plan, dim)

    @pytest.mark.parametrize("terms", [_CHUNK - 1, _CHUNK, _CHUNK + 1, 2 * _CHUNK + 1])
    def test_slots_at_the_chunk_length_match_the_plan_loop(self, terms):
        # the first statement of a slot, and the continuation lines after it
        rng = random.Random(terms)
        pairs = [sorted((rng.randrange(40), rng.randrange(40))) for _ in range(terms)]
        self.assert_plan_loop(rng, tuple((i, j, 3) for i, j in pairs) + ((0, 1, 1),), 40)

    @given(COEFFS, COEFFS)
    def test_trivial_algebra_kernel_is_the_real_product(self, x, y):
        # dim 1: the kernel unpacks one-element lists
        A = trivial_algebra()
        assert_bitwise(A._mul([x], [y]), reference_product(A, [x], [y]))
        assert_bitwise(A._ideal_mul([x], [y]), [0.0])

    def test_rebuilt_algebra_reuses_its_kernels(self):
        assert jets(4)._mul is jets(4)._mul
        assert jets(4)._ideal_mul is jets(4)._ideal_mul

    @pytest.mark.parametrize("bad", [1e200, float("inf"), float("-inf")])
    @pytest.mark.parametrize("name", ["exp", "sin", "recip"])
    def test_non_finite_lift_is_a_domain_error(self, name, bad):
        A = jets(10)
        with pytest.raises(DomainError):
            taylor_lift(PRIMITIVES[name], A.element([0.5, bad] + [0.0] * (A.dim - 2)))

    @given(
        st.sampled_from([catalog_algebra("mixed"), jets(10)]),
        st.sampled_from(sorted(PRIMITIVES)),
        st.data(),
    )
    def test_lift_is_the_full_plan_taylor_sum(self, A, name, data):
        nil = data.draw(
            st.lists(FINITE_COEFFS, min_size=A.dim - 1, max_size=A.dim - 1)
        )
        a = A.element([data.draw(st.floats(-3, 3))] + nil)
        prim = PRIMITIVES[name]
        try:
            lifted = taylor_lift(prim, a)
        except DomainError:
            try:
                expected = full_plan_taylor_sum(prim, a)
            except (DomainError, ArithmeticError, ValueError):
                return  # the derivatives themselves are undefined at a.real
            assert not all(map(math.isfinite, expected))
            return
        assert_bitwise(lifted.coeffs, full_plan_taylor_sum(prim, a))


class TestAugmentation:
    def test_examples(self):
        A = dual_numbers()
        assert augmentation(A.element([3, 6])) == 3
        assert augmentation(A.element([0, 1])) == 0
        assert augmentation(A.unit()) == 1

    @given(
        st.lists(st.floats(-2, 2, allow_nan=False), min_size=4, max_size=4),
        st.lists(st.floats(-2, 2, allow_nan=False), min_size=4, max_size=4),
    )
    def test_ring_homomorphism(self, xs, ys):
        A = two_gen_algebra()
        a, b = A.element(xs), A.element(ys)
        assert abs(augmentation(a * b) - augmentation(a) * augmentation(b)) <= 1e-12
        assert abs(augmentation(a + b) - augmentation(a) - augmentation(b)) <= 1e-12


class TestTaylorLift:
    def test_exp_at_zero(self):
        A = dual_numbers()
        a = A.generator("eps")
        assert taylor_lift(PRIMITIVES["exp"], a).allclose(A.element([1, 1]), 1e-15)

    def test_exp_at_one_against_oracle(self):
        A = dual_numbers()
        a = A.from_real(1) + A.generator("eps")
        lifted = taylor_lift(PRIMITIVES["exp"], a)
        oracle = taylor_coeffs(mpmath.exp, 1.0, 1)
        assert np.all(np.abs(lifted.coeffs - oracle) <= 1e-9 * (1 + np.abs(oracle)))
        assert abs(lifted.coeffs[0] - 2.718281828459045) <= 1e-9

    def test_log_domain_error(self):
        A = dual_numbers()
        with pytest.raises(DomainError):
            taylor_lift(PRIMITIVES["log"], A.generator("eps"))
        with pytest.raises(DomainError):
            taylor_lift(PRIMITIVES["recip"], A.generator("eps"))

    def test_sqrt_derivatives_keep_the_general_power_formula(self):
        # the x^p rule that sqrt used before it was folded, with the branches
        # for p an integer, r = 0 and a zero factor, none of which p = 0.5
        # and r > 0 reach, left out
        def power_rule(p, r, order):
            out = []
            factor = 1.0
            for j in range(order + 1):
                e = p - j
                out.append(factor * r**e)
                factor *= p - j
            return out

        for r in (1e-6, 0.01, 0.3, 0.5, 1.0, 2.25, 7.0, 1e3, 1e8):
            for order in range(7):
                expected = [x.hex() for x in power_rule(0.5, r, order)]
                assert [x.hex() for x in _sqrt_derivs(r, order)] == expected

    def test_sqrt_squares_back(self):
        A = jets(2)
        a = A.from_real(2.25) + A.generator("t")
        root = taylor_lift(PRIMITIVES["sqrt"], a)
        assert (root * root).allclose(a, 1e-12)

    @pytest.mark.parametrize("name,fn,low", [
        ("exp", mpmath.exp, -2.0),
        ("sin", mpmath.sin, -2.0),
        ("log", mpmath.log, 0.5),
    ])
    def test_oracle_agreement_all_heights(self, name, fn, low):
        rng = np.random.Generator(np.random.PCG64(5))
        for _ in range(10):
            h = int(rng.integers(1, 5))
            r = float(rng.uniform(low, 2.0))
            A = jets(h)
            lifted = taylor_lift(PRIMITIVES[name], A.from_real(r) + A.generator("t"))
            oracle = taylor_coeffs(fn, r, h)
            assert np.all(
                np.abs(lifted.coeffs - oracle) <= 1e-6 * (1 + np.abs(oracle))
            )

    @given(st.one_of(st.floats(-1.6, 1.6), st.sampled_from([0.0, -0.0])))
    def test_tan_derivatives_keep_the_recurrence_bit_for_bit(self, r):
        # the polynomials P_j are built once per order; their values at
        # tan(r) are summed as the recurrence below sums them on every call
        t = math.tan(r)
        poly = [0.0, 1.0]
        expected = []
        for _ in range(13):
            expected.append(sum(c * t**i for i, c in enumerate(poly)))
            dpoly = [i * c for i, c in enumerate(poly)][1:] or [0.0]
            nxt = [0.0] * (len(dpoly) + 2)
            for i, c in enumerate(dpoly):
                nxt[i] += c
                nxt[i + 2] += c
            poly = nxt
        for order in range(13):
            actual = _tan_derivs(r, order)
            assert [x.hex() for x in actual] == [x.hex() for x in expected[: order + 1]]

    def test_tan_consistency(self):
        # tan = sin/cos through independent code paths
        A = jets(3)
        a = A.from_real(0.4) + A.generator("t")
        direct = taylor_lift(PRIMITIVES["tan"], a)
        quotient = taylor_lift(PRIMITIVES["sin"], a) / taylor_lift(
            PRIMITIVES["cos"], a
        )
        assert direct.allclose(quotient, 1e-12)


class TestMorphisms:
    def test_truncation_morphism(self):
        source = jets(2, "x")
        target = dual_numbers()
        matrix = np.zeros((2, 3))
        matrix[0, 0] = 1.0
        matrix[1, 1] = 1.0
        morphism = validate_morphism(source, target, matrix)
        value = morphism.apply(source.element([1, 2, 5]))
        assert value == target.element([1, 2])

    def test_augmentation_morphism_every_algebra(self):
        for factory in SAMPLE_ALGEBRAS:
            A = factory()
            morphism = augmentation_morphism(A)
            a = A.element(np.linspace(1, 2, A.dim))
            assert morphism.apply(a).coeffs[0] == augmentation(a)

    def test_unit_violation(self):
        A = dual_numbers()
        matrix = np.array([[1.0, 1.0], [0.0, 1.0]])  # eps -> 1 + eps
        with pytest.raises(NotMorphism):
            validate_morphism(A, A, matrix)

    def test_multiplicativity_violation(self):
        # x -> eps is fine on degree 1 but x^2 -> eps breaks eps^2 = 0
        source = jets(2, "x")
        target = dual_numbers()
        matrix = np.array([[1.0, 0, 0], [0, 1.0, 1.0]])
        with pytest.raises(NotMorphism, match=r"basis pair \(x, x\)"):
            validate_morphism(source, target, matrix)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_entry_rejected(self, bad):
        A = dual_numbers()
        with pytest.raises(NotMorphism, match="non-finite"):
            validate_morphism(A, A, [[1.0, 0.0], [bad, bad]])

    def test_product_overflowing_to_nan_rejected(self):
        # eps -> 1e200 (a + b - a^2 + ab): the a^2 b slot of its square is
        # inf - inf, and the a^2 slot is inf
        target = build_algebra(AlgebraPresentation(("a", "b"), ((3, 0), (0, 3))))
        names = target.basis_names()
        image = [0.0] * target.dim
        for name, sign in (("a", 1), ("b", 1), ("a^2", -1), ("a*b", 1)):
            image[names.index(name)] = sign * 1e200
        matrix = [[1.0 if k == 0 else 0.0, c] for k, c in enumerate(image)]
        with pytest.raises(NotMorphism, match=r"basis pair \(eps, eps\)"):
            validate_morphism(dual_numbers(), target, matrix)

    def test_apply_linear_shape_check(self):
        A = dual_numbers()
        with pytest.raises(AlgebraMismatch):
            apply_linear(np.eye(3), A.unit())


class TestRendering:
    def test_examples(self):
        A = dual_numbers()
        assert render_element(A.element([9, 6])) == "9 + 6*eps"
        assert render_element(A.element([3, -2])) == "3 - 2*eps"
        assert render_element(A.element([0, 1])) == "eps"
        assert render_element(A.zero()) == "0"

    def test_seventeen_digits(self):
        A = dual_numbers()
        text = render_element(A.element([1 / 3, 0]), sig=17)
        assert text == "0.33333333333333331"

    def test_monomial_names(self):
        assert monomial_name((0, 0), ("x", "y")) == "1"
        assert monomial_name((2, 1), ("x", "y")) == "x^2*y"


class TestFunctionalIdentities:
    """Independent identities of the lifted elementary functions."""

    def _random_elements(self, algebra, count, seed):
        rng = np.random.Generator(np.random.PCG64(seed))
        for _ in range(count):
            coeffs = rng.uniform(-0.5, 0.5, algebra.dim)
            coeffs[0] = rng.uniform(-1.0, 1.0)
            yield algebra.element(coeffs)

    @pytest.mark.parametrize(
        "factory", [dual_numbers, lambda: jets(3), two_gen_algebra]
    )
    def test_exp_is_a_homomorphism_from_addition(self, factory):
        A = factory()
        pairs = zip(
            self._random_elements(A, 15, 21), self._random_elements(A, 15, 22)
        )
        for a, b in pairs:
            lhs = taylor_lift(PRIMITIVES["exp"], a + b)
            rhs = taylor_lift(PRIMITIVES["exp"], a) * taylor_lift(
                PRIMITIVES["exp"], b
            )
            assert lhs.allclose(rhs, 1e-9)

    def test_log_inverts_exp(self):
        A = jets(4)
        for a in self._random_elements(A, 15, 23):
            assert taylor_lift(
                PRIMITIVES["log"], taylor_lift(PRIMITIVES["exp"], a)
            ).allclose(a, 1e-9)

    def test_pythagorean_identity(self):
        A = jets(4)
        for a in self._random_elements(A, 15, 24):
            s = taylor_lift(PRIMITIVES["sin"], a)
            c = taylor_lift(PRIMITIVES["cos"], a)
            assert (s * s + c * c).allclose(A.unit(), 1e-9)

    def test_overflow_becomes_domain_error(self):
        A = dual_numbers()
        with pytest.raises(DomainError):
            taylor_lift(PRIMITIVES["exp"], A.from_real(1e4))

    @pytest.mark.parametrize("name,r", [
        ("recip", 1e-200),  # r^2 underflows to zero
        ("sin", float("inf")),
        ("sqrt", float("nan")),
    ])
    def test_undefined_derivatives_become_domain_error(self, name, r):
        A = dual_numbers()
        with pytest.raises(DomainError):
            taylor_lift(PRIMITIVES[name], A.from_real(r) + A.generator("eps"))
