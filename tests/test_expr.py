"""Parser, printer, symbolic differentiation, and the two evaluators."""

import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from weilc import dual_numbers, jets, trivial_algebra
from weilc.errors import (
    AlgebraMismatch,
    DimensionMismatch,
    DomainError,
    ParseError,
    UnknownSymbol,
)
from weilc.expr import (
    AFunction,
    Add,
    Apply,
    ConstA,
    ConstR,
    Div,
    FUNCTIONS,
    Mul,
    Neg,
    Pow,
    Sub,
    Var,
    ZERO,
    diff,
    eval_real,
    eval_weil,
    parse,
    prolong_function,
    substitute,
    to_string,
)
from weilc.oracle import taylor_coeffs
from weilc.prolongation import APoint


class TestParse:
    def test_basic_shapes(self):
        assert parse("x1^2 + sin(x2)", 2) == Add(
            Pow(Var(0), 2), Apply(FUNCTIONS["sin"], Var(1))
        )
        assert parse("x1*(x2+3)", 2) == Mul(Var(0), Add(Var(1), ConstR(3.0)))

    def test_error_positions(self):
        with pytest.raises(ParseError) as err:
            parse("x1 +", 2)
        assert err.value.position == 4
        with pytest.raises(ParseError):
            parse("x1 $ x2", 2)
        with pytest.raises(ParseError):
            parse("(x1", 1)

    def test_unknown_symbols(self):
        with pytest.raises(UnknownSymbol):
            parse("y + 1", 2)
        with pytest.raises(UnknownSymbol):
            parse("x5", 2)
        with pytest.raises(UnknownSymbol):
            parse("foo(x1)", 1)

    def test_precedence(self):
        assert parse("-x1^2", 1) == Neg(Pow(Var(0), 2))
        assert parse("2*-3", 1) == Mul(ConstR(2.0), ConstR(-3.0))
        assert parse("x1 - -3", 1) == Sub(Var(0), ConstR(-3.0))
        assert parse("x1 + x2*x1", 2) == Add(Var(0), Mul(Var(1), Var(0)))
        assert parse("x1/x2/x1", 2) == Div(Div(Var(0), Var(1)), Var(0))
        assert parse("x1^-2", 1) == Pow(Var(0), -2)

    def test_scientific_literals(self):
        assert parse("1.5e-3", 1) == ConstR(0.0015)
        assert parse("2E+2", 1) == ConstR(200.0)
        assert parse(".5", 1) == ConstR(0.5)


def _exprs():
    leaves = st.one_of(
        st.integers(0, 2).map(Var),
        st.floats(allow_nan=False, allow_infinity=False, width=64).map(ConstR),
        st.integers(-50, 50).map(lambda v: ConstR(float(v))),
    )

    def extend(children):
        return st.one_of(
            st.tuples(children, children).map(lambda t: Add(*t)),
            st.tuples(children, children).map(lambda t: Sub(*t)),
            st.tuples(children, children).map(lambda t: Mul(*t)),
            st.tuples(children, children).map(lambda t: Div(*t)),
            children.filter(lambda e: not isinstance(e, ConstR)).map(Neg),
            st.tuples(children, st.integers(-4, 5)).map(lambda t: Pow(*t)),
            st.tuples(
                st.sampled_from(sorted(FUNCTIONS)), children
            ).map(lambda t: Apply(FUNCTIONS[t[0]], t[1])),
        )

    return st.recursive(leaves, extend, max_leaves=16)


class TestPrinter:
    @settings(max_examples=300)
    @given(_exprs())
    def test_round_trip(self, e):
        assert parse(to_string(e), 3) == e

    def test_negative_constant_as_power_base(self):
        e = Pow(ConstR(-3.0), 2)
        assert to_string(e) == "(-3)^2"
        assert parse(to_string(e), 1) == e

    def test_diff_output_round_trips(self):
        e = parse("x1^3*sin(x2) - exp(x1*x2)", 2)
        d = diff(e, 0)
        assert parse(to_string(d), 2) == d


class TestDiff:
    def test_power_rule(self):
        assert diff(parse("x1^2", 1), 0) == parse("2*x1", 1)

    def test_chain_rule_shape(self):
        d = diff(parse("sin(x1*x2)", 2), 1)
        assert d == Mul(Apply(FUNCTIONS["cos"], Mul(Var(0), Var(1))), Var(0))

    def test_algebra_constants_are_annihilated(self):
        eps = dual_numbers().generator("eps")
        assert diff(ConstA(eps), 0) == ZERO
        assert diff(Mul(ConstA(eps), Var(0)), 0) == ConstA(eps)

    @pytest.mark.parametrize(
        "text,n",
        [
            ("x1^3 + 2*x1*x2", 2),
            ("sin(x1)*cos(x2) - tan(x1/2)", 2),
            ("exp(x1*x2) + log(x1 + 3)", 2),
            ("sqrt(x1 + 2)/(x2 + 4)", 2),
            ("x1^-2 + 1/(x1 + 5)", 1),
        ],
    )
    def test_against_central_differences(self, text, n):
        e = parse(text, n)
        rng = np.random.Generator(np.random.PCG64(11))
        for _ in range(5):
            xs = rng.uniform(0.2, 1.0, n)
            for i in range(n):
                step = 1e-6
                shifted = xs.copy()
                shifted[i] += step
                shifted2 = xs.copy()
                shifted2[i] -= step
                numeric = (eval_real(e, shifted) - eval_real(e, shifted2)) / (2 * step)
                symbolic = eval_real(diff(e, i), xs)
                assert abs(numeric - symbolic) <= 1e-6 * (1 + abs(numeric))


class TestEvalWeil:
    def test_square_at_dual_point(self):
        A = dual_numbers()
        xi = APoint(A, (A.element([3, 1]),))
        assert eval_weil(parse("x1^2", 1), xi) == A.element([9, 6])

    def test_homomorphism_on_product(self):
        A = dual_numbers()
        xi = APoint(A, (A.element([1, 1]),))
        f, g = parse("x1", 1), parse("x1^2", 1)
        left = eval_weil(Mul(f, g), xi)
        assert left == A.element([1, 3])
        assert left == eval_weil(f, xi) * eval_weil(g, xi)

    def test_sin_against_oracle(self):
        A = jets(2)
        xi = APoint(A, (A.from_real(0.7) + A.generator("t"),))
        value = eval_weil(parse("sin(x1)", 1), xi)
        oracle = taylor_coeffs(mpmath.sin, 0.7, 2)
        assert np.all(np.abs(value.coeffs - oracle) <= 1e-9 * (1 + np.abs(oracle)))
        closed = [math.sin(0.7), math.cos(0.7), -math.sin(0.7) / 2]
        assert np.all(np.abs(value.coeffs - closed) <= 1e-9)

    def test_consta_mismatch(self):
        A, B = dual_numbers(), jets(2)
        xi = APoint(B, (B.unit(),))
        with pytest.raises(AlgebraMismatch):
            eval_weil(Mul(ConstA(A.generator("eps")), Var(0)), xi)

    def test_division_needs_invertible_denominator(self):
        A = dual_numbers()
        xi = APoint(A, (A.generator("eps"),))
        with pytest.raises(DomainError):
            eval_weil(parse("1/x1", 1), xi)

    def test_variable_out_of_range(self):
        A = dual_numbers()
        xi = APoint(A, (A.unit(),))
        with pytest.raises(DimensionMismatch):
            eval_weil(parse("x2", 2), xi)

    def test_overflow_is_a_domain_error(self):
        A = dual_numbers()
        xi = APoint(A, (A.element([1e200, 1.0]),))
        with pytest.raises(DomainError, match="non-finite"):
            eval_weil(parse("x1^2", 1), xi)


class TestEvalReal:
    def test_examples(self):
        assert eval_real(parse("x1^2 + x2", 2), [2, 1]) == 5.0
        with pytest.raises(DomainError):
            eval_real(parse("1/x1", 1), [0.0])
        with pytest.raises(DomainError):
            eval_real(parse("log(x1)", 1), [-1.0])

    def test_projection_through_augmentation(self):
        A = dual_numbers()
        xi = APoint(A, (A.element([3, 1]),))
        f = parse("x1^2", 1)
        assert eval_weil(f, xi).real == eval_real(f, [3.0])

    def test_trivial_algebra_matches_exactly(self):
        R = trivial_algebra()
        rng = np.random.Generator(np.random.PCG64(3))
        e = parse("x1^3 - 2*x1*x2 + cos(x2)", 2)
        for _ in range(10):
            xs = rng.uniform(-1, 1, 2)
            xi = APoint.from_reals(R, xs)
            assert eval_weil(e, xi).coeffs[0] == eval_real(e, xs)


class TestSubstitute:
    def test_composition(self):
        g = parse("x1^2 + 1", 1)
        h = parse("sin(x1)", 1)
        composed = substitute(g, [h])
        assert composed == Add(Pow(Apply(FUNCTIONS["sin"], Var(0)), 2), ConstR(1.0))

    def test_arity_check(self):
        with pytest.raises(DimensionMismatch):
            substitute(parse("x2", 2), [Var(0)])


class TestAFunction:
    def test_call_and_partial(self):
        A = dual_numbers()
        fn = AFunction(parse("x1^2", 1), 1, A)
        xi = APoint(A, (A.element([3, 1]),))
        assert fn(xi) == A.element([9, 6])
        assert fn.partial(0)(xi) == A.element([6, 2])

    def test_algebra_guard(self):
        A, B = dual_numbers(), jets(2)
        with pytest.raises(AlgebraMismatch):
            AFunction(ConstA(A.generator("eps")), 1, B)

    def test_dimension_guard(self):
        with pytest.raises(DimensionMismatch):
            AFunction(parse("x2", 2), 1, dual_numbers())

    def test_prolong_refuses_consta(self):
        A = dual_numbers()
        with pytest.raises(AlgebraMismatch):
            prolong_function(ConstA(A.generator("eps")), 1, A)

    def test_arithmetic(self):
        A = dual_numbers()
        fn = prolong_function(parse("x1", 1), 1, A)
        eps = A.generator("eps")
        xi = APoint(A, (A.element([2, 1]),))
        assert (eps * fn)(xi) == eps * fn(xi)
        assert (fn + 1.0)(xi) == fn(xi) + A.unit()
