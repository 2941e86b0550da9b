"""Parser, printer, symbolic differentiation, and the two evaluators."""

import copy
import math
import pickle

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
    WeilcError,
)
from weilc.algebra import PRIMITIVES
from weilc.expr import (
    _CHAIN,
    AFunction,
    Add,
    Apply,
    ConstA,
    ConstR,
    Div,
    FUNCTIONS,
    MAX_DEPTH,
    MAX_EXPONENT,
    MAX_NODE_DEPTH,
    Mul,
    Neg,
    Pow,
    Sub,
    Var,
    ZERO,
    add,
    diff,
    div,
    eval_real,
    eval_weil,
    is_zero,
    mul,
    parse,
    power,
    prolong_function,
    sub,
    substitute,
    to_string,
)
from weilc.oracle import taylor_coeffs
from weilc.prolongation import APoint

from structures import real_point


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

    @pytest.mark.parametrize("digits", ["1" * 5000, "1" * 3, "10", "3"])
    def test_a_variable_above_the_chart_is_unknown_at_any_length(self, digits):
        # int() refuses more than 4300 digits, so the length is counted first
        with pytest.raises(UnknownSymbol, match="exceeds chart dimension 2") as err:
            parse("1 + x" + digits, 2)
        assert err.value.position == 4
        assert parse("x10", 10) == Var(9)

    @pytest.mark.parametrize(
        "text, kind, start, length",
        [("x1 + " + "a" * 5000, UnknownSymbol, "unknown identifier 'aaa", 5000),
         ("x1 + " + "f" * 5000 + "(x1)", UnknownSymbol, "unknown function 'fff", 5000),
         ("x" + "1" * 5000, UnknownSymbol, "variable 'x11", 5001),
         ("1" * 5000 + "e999", ParseError, "number '111", 5004),
         ("x1 " + "b" * 5000, ParseError, "unexpected 'bbb", 5000)],
        ids=["identifier", "function", "variable", "number", "trailing"],
    )
    def test_a_long_refused_token_is_quoted_in_part(self, text, kind, start, length):
        # a bounded prefix and the token's length, not the whole token
        with pytest.raises(kind) as err:
            parse(text, 2)
        message = str(err.value)
        assert message.startswith(start) and f"... ({length} characters)" in message
        assert len(message) < 200

    def test_precedence(self):
        assert parse("-x1^2", 1) == Neg(Pow(Var(0), 2))
        assert parse("2*-3", 1) == Mul(ConstR(2.0), ConstR(-3.0))
        assert parse("x1 - -3", 1) == Sub(Var(0), ConstR(-3.0))
        assert parse("x1 + x2*x1", 2) == Add(Var(0), Mul(Var(1), Var(0)))
        assert parse("x1/x2/x1", 2) == Div(Div(Var(0), Var(1)), Var(0))
        assert parse("x1^-2", 1) == Pow(Var(0), -2)

    def test_depth_bound(self):
        nested = "(" * 2000 + "x1" + ")" * 2000
        long_sum = " + ".join(["x1"] * 3000)
        for text in (nested, long_sum, "-" * 2000 + "x1"):
            with pytest.raises(ParseError, match=str(MAX_DEPTH)):
                parse(text, 1)
        # the bound itself is accepted
        assert parse("(" * MAX_DEPTH + "x1" + ")" * MAX_DEPTH, 1) == Var(0)
        assert isinstance(parse("-" * (MAX_DEPTH - 1) + "x1", 1), Neg)
        deep = parse(" + ".join(["x1"] * MAX_DEPTH), 1)
        assert to_string(deep) == " + ".join(["x1"] * MAX_DEPTH)

    @pytest.mark.parametrize("text, position", [("x1^" + "9" * 5000, 3), ("x1^10001", 3),
                                                ("x1^-10001", 4), ("2 + x1^00010001", 7)])
    def test_an_exponent_above_the_bound_is_refused(self, text, position):
        # x^k costs k products, and int() refuses more than 4300 digits
        with pytest.raises(ParseError, match=f"exponent exceeds {MAX_EXPONENT}") as err:
            parse(text, 1)
        assert type(err.value) is ParseError
        assert err.value.position == position
        assert parse("x1^10000", 1) == Pow(Var(0), MAX_EXPONENT)
        assert parse("x1^-010000", 1) == Pow(Var(0), -MAX_EXPONENT)

    def test_scientific_literals(self):
        assert parse("1.5e-3", 1) == ConstR(0.0015)
        assert parse("2E+2", 1) == ConstR(200.0)
        assert parse(".5", 1) == ConstR(0.5)

    @pytest.mark.parametrize("text, position", [("1e999", 0), ("x1 + 1e999", 5),
                                                ("-1E400*x1", 1), ("x1^2 - (1e308*1e309)", 14)])
    def test_a_literal_that_is_not_finite_is_refused(self, text, position):
        # it would print as inf, which does not parse back
        with pytest.raises(ParseError, match="is not finite") as err:
            parse(text, 1)
        assert err.value.position == position
        assert parse("1e-999", 1) == ConstR(0.0)  # underflow is finite

    @pytest.mark.parametrize("text, position", [("\u0663 + x1", 0), ("x1^\u0663", 3),
                                                ("x1 + 1\u0660", 6), ("x1*\u00b2", 3)])
    def test_digits_are_ascii(self, text, position):
        # an Arabic-Indic or superscript digit is a stray character, not a digit
        with pytest.raises(ParseError, match="unexpected character") as err:
            parse(text, 1)
        assert err.value.position == position
        assert type(err.value) is ParseError


# the derivative chains of the symbolic benchmark (perfbench/workloads.py,
# GROWTH), with fixed constants: each template and its order of variables
_GROWTH = (
    ("sin(1.37*x1*x2)/(2.81 + x1^2)", (0, 0, 0, 0, 0)),
    ("exp(2.05*x1*x2)*cos(x1 + 1.12*x2)", (0, 1, 0, 1, 0)),
    ("log(1.9 + x1^2*x2)/(2.63 + 2 - x2)", (1, 0, 1, 0, 1)),
    ("tan(x1/2.4)*sqrt(1.58 + 1 + x2)", (0, 1, 0, 0, 1)),
)


@pytest.mark.parametrize("template, order", _GROWTH, ids=["sin", "exp", "log", "tan"])
def test_derivative_chains_print_and_parse_back(template, order):
    # the benchmark's round trips; the 5th derivatives print to 0.5k-32k
    # characters
    e = parse(template, 2)
    for index in (None,) + order:
        if index is not None:
            e = diff(e, index)
        assert parse(to_string(e), 2) == e


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

    @pytest.mark.parametrize("text", [
        "1e200*x1*1e200", "x1*1e308 + x1*1e308", "x1*1e308 - (-1e308)*x1",
        "-1e308*x1 - 1e308*x1", "x1^2*1e308*1e308", "(1e200*x1)/1e-200",
        "1e-200*x1*1e-200", "x1/(1e-200*1e-200)", "1e308/1e-308*x1", "x1*1e200 + 1e-200*x1"])
    def test_diff_of_large_and_small_literals_round_trips(self, text):
        # folding two constants to inf printed "inf", which parse refuses
        d = diff(parse(text, 1), 0)
        assert parse(to_string(d), 1) == d

    @pytest.mark.parametrize("calls, parses_back", [(98, True), (99, False)])
    def test_a_derivative_parses_back_within_the_depth_bound(self, calls, parses_back):
        # the partial of sin^k(x1) is k + 2 levels deep: the round trip holds
        # up to MAX_DEPTH levels, and past it parse refuses the printed text
        d = diff(parse("sin(" * calls + "x1" + ")" * calls, 1), 0)
        assert d.depth == calls + 2
        if parses_back:
            assert parse(to_string(d), 1) == d
        else:
            with pytest.raises(ParseError, match=f"deeper than {MAX_DEPTH}"):
                parse(to_string(d), 1)


# an inner function in (0.2, 1.0] on [0.2, 1.0]^2: inside the domain of
# every primitive, and below tan's pole at pi/2
_INNER = "0.2 + 0.5*x1*x2 + 0.3*x1^2"

# every rule of diff: each chain-rule row (recip, which the grammar does not
# name, built by hand), the power rule, and the quotient rule, also where
# the denominator is free of x2
_RULES = {
    **{name: lambda name=name: Apply(PRIMITIVES[name], parse(_INNER, 2)) for name in PRIMITIVES},
    **{f"power{k}": lambda k=k: power(parse(_INNER, 2), k) for k in (-3, -1, 2, 3, 5)},
    "quotient": lambda: parse("(1.3*x1 + sin(x2))/(2 + x1*x2)", 2),
    "quotient_free_denominator": lambda: parse("(x1*x2 + sin(x2))/(2 + x1^2)", 2),
    "quotient_of_functions": lambda: parse("sqrt(x1 + x2)/log(1 + x1)", 2),
}


def _central(e, xs, i, step=1e-6):
    up, down = list(xs), list(xs)
    up[i] += step
    down[i] -= step
    return (eval_real(e, up) - eval_real(e, down)) / (2 * step)


class TestDiff:
    def test_every_primitive_has_a_chain_row(self):
        assert set(_CHAIN) == set(PRIMITIVES)

    @pytest.mark.parametrize("rule", sorted(_RULES))
    def test_each_rule_matches_central_differences(self, rule):
        # each first partial against central differences of the expression,
        # each second partial against those of the first
        e = _RULES[rule]()
        rng = np.random.Generator(np.random.PCG64(11))
        for _ in range(5):
            xs = rng.uniform(0.2, 1.0, 2)
            for i in range(2):
                first = diff(e, i)
                numeric = _central(e, xs, i)
                assert abs(numeric - eval_real(first, xs)) <= 1e-6 * (1 + abs(numeric))
                for j in range(2):
                    numeric = _central(first, xs, j)
                    second = eval_real(diff(first, j), xs)
                    assert abs(numeric - second) <= 1e-6 * (1 + abs(numeric))

    def test_power_rule(self):
        assert diff(parse("x1^2", 1), 0) == parse("2*x1", 1)

    @pytest.mark.parametrize("k", [2.5, 2.0, -1.0, True, np.int64(2)],
                             ids=["2.5", "2.0", "-1.0", "True", "int64"])
    def test_a_power_refuses_an_exponent_that_is_no_int(self, k):
        # x1^2.5 would print as text that parse refuses
        with pytest.raises(WeilcError, match="is not an integer"):
            Pow(Var(0), k)

    def test_power_of_a_variable_refuses_a_fraction(self):
        with pytest.raises(WeilcError, match="exponent 2.5 is not an integer"):
            power(Var(0), 2.5)

    def test_a_power_takes_an_int_past_the_parse_bound(self):
        # diff of the lowest power parse accepts goes one below it
        d = diff(parse(f"x1^-{MAX_EXPONENT}", 1), 0)
        assert to_string(d) == f"-{MAX_EXPONENT}*x1^-{MAX_EXPONENT + 1}"
        assert Pow(Var(0), 10**30).exponent == 10**30

    def test_chain_rule_shape(self):
        d = diff(parse("sin(x1*x2)", 2), 1)
        assert d == Mul(Apply(FUNCTIONS["cos"], Mul(Var(0), Var(1))), Var(0))

    @pytest.mark.parametrize("i", [-1, -2, -10**30])
    def test_a_negative_index_is_refused(self, i):
        # refused, not read as a variable no expression has
        with pytest.raises(DimensionMismatch, match=f"derivative index {i} is negative"):
            diff(parse("x1*x2", 2), i)

    def test_an_index_past_the_expression_is_a_zero_partial(self):
        # diff knows no chart: x3 may be a coordinate the expression lacks
        assert diff(parse("x1*x2", 2), 2) == ZERO

    @pytest.mark.parametrize(
        "text,i,printed,value",
        [
            # (1e-170)^2 underflows to 0: the quotient rule would divide by it
            ("x1/1e-170", 0, "1e+170", 1e170),
            ("x2^2/2", 1, "2*x2/2", 0.5),
            ("sin(x1)/2 - x2", 0, "cos(x1)/2", math.cos(0.5) / 2),
            ("x1/-3", 0, "-0.3333333333333333", -1 / 3),
            ("x1/0", 0, "1/0", None),
        ],
        ids=["tiny", "energy", "sin", "negative", "zero"],
    )
    def test_a_quotient_by_a_real_constant_divides_the_partial(self, text, i, printed, value):
        d = diff(parse(text, 2), i)
        assert to_string(d) == printed
        if value is None:
            with pytest.raises(DomainError):
                eval_real(d, (0.5, 0.5))
        else:
            assert eval_real(d, (0.5, 0.5)) == value

    @pytest.mark.parametrize(
        "text,printed,value",
        [
            # the quotient rule squared 1e-170*x2, to 0 at x2 = 1
            ("x1/(1e-170*x2)", "1/(1e-170*x2)", 1e170),
            ("x1/x2", "1/x2", 1.0),
            ("sin(x1)/(x2 + 4)", "cos(x1)/(x2 + 4)", math.cos(1.0) / 5),
            # the denominator's partial is not zero: the quotient rule,
            # (u' - (u/v)*v')/v, which reuses the quotient and squares nothing
            ("x1/(x1 + x2)", "(1 - x1/(x1 + x2))/(x1 + x2)", 0.25),
        ],
        ids=["tiny", "bare", "shifted", "quotient_rule"],
    )
    def test_a_denominator_free_of_the_variable_divides_the_partial(self, text, printed, value):
        d = diff(parse(text, 2), 0)
        assert to_string(d) == printed
        assert eval_real(d, (1.0, 1.0)) == value

    def test_a_tiny_algebra_constant_denominator_keeps_a_finite_partial(self):
        A = dual_numbers()
        one = APoint(A, (A.from_real(1.0),))
        # the quotient rule squared the dual constant 1e-150, whose square's
        # reciprocal is not liftable
        c = ConstA(A.element([1e-150, 0.0]))
        d = diff(Div(Var(0), c), 0)
        assert to_string(d) == "1/[1e-150]"
        assert eval_weil(d, one).coeffs == [1e150, 0.0]
        # at 1e-170 the derivative no longer squares c, and 1/c lifts: c is
        # real, so its lift needs 1/c alone and not -1/c^2, which overflows
        d = diff(Div(Var(0), ConstA(A.element([1e-170, 0.0]))), 0)
        assert to_string(d) == "1/[1e-170]"
        assert eval_weil(d, one).coeffs == [1e170, 0.0]

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
        oracle = np.array(taylor_coeffs(mpmath.sin, 0.7, 2))
        assert np.all(np.abs(value.coeffs - oracle) <= 1e-9 * (1 + np.abs(oracle)))
        closed = np.array([math.sin(0.7), math.cos(0.7), -math.sin(0.7) / 2])
        assert np.all(np.abs(value.coeffs - closed) <= 1e-9)

    def test_consta_mismatch(self):
        A, B = dual_numbers(), jets(2)
        xi = APoint(B, (B.unit(),))
        with pytest.raises(AlgebraMismatch):
            eval_weil(Mul(ConstA(A.generator("eps")), Var(0)), xi)

    @pytest.mark.parametrize(
        "make",
        [lambda: APoint(dual_numbers(), (0.5,)),
         lambda: APoint(dual_numbers(), (dual_numbers().unit(), 0.5)),
         lambda: eval_weil(Var(0), (0.5,)),
         lambda: eval_weil(Var(0), (0.5,), dual_numbers())],
        ids=["apoint", "apoint-second", "eval_weil", "eval_weil-with-algebra"],
    )
    def test_a_coordinate_that_is_not_a_weil_element_is_refused(self, make):
        with pytest.raises(AlgebraMismatch, match="point coordinate 0.5 is not a Weil element"):
            make()

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

    def test_non_finite_results_are_domain_errors(self):
        with pytest.raises(DomainError, match="non-finite"):
            eval_real(parse("x1*x1", 1), [1e200])
        with pytest.raises(DomainError, match="non-finite"):
            eval_real(parse("x1*x1 - x1*x1", 1), [1e200])
        with pytest.raises(DomainError, match="sin"):
            eval_real(parse("sin(x1)", 1), [math.inf])

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
            xi = real_point(R, xs)
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

    @pytest.mark.parametrize("i", [5, 2, -1, -2])
    def test_partial_refuses_an_index_off_the_chart(self, i):
        fn = AFunction(parse("x1*x2", 2), 2, dual_numbers())
        with pytest.raises(DimensionMismatch,
                           match=f"derivative index {i} off a chart of dimension 2"):
            fn.partial(i)
        assert fn.partial(1).expr == Var(0)

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


_X1, _X2 = Var(0), Var(1)
_EPS = dual_numbers().generator("eps")
_SIN, _COS = FUNCTIONS["sin"], FUNCTIONS["cos"]
_BINARY = (Add, Sub, Mul, Div)


def _sample_nodes():
    """One node of each class, over two variables and a constant."""
    return [
        _X1,
        ConstR(2.0),
        ConstA(_EPS),
        *(kind(_X1, _X2) for kind in _BINARY),
        Neg(_X1),
        Pow(_X1, 2),
        Apply(_SIN, _X1),
    ]


class TestNodeContract:
    """Nodes compare and hash by class and fields (the facts they hold are
    derived, never compared), refuse assignment, and survive copy, deepcopy
    and pickle."""

    @pytest.mark.parametrize(
        "node, other",
        [
            (Var(0), Var(1)),
            (ConstR(2.0), ConstR(3.0)),
            (ConstA(_EPS), ConstA(_EPS.algebra.unit())),
            *((kind(_X1, _X2), kind(_X2, _X2)) for kind in _BINARY),
            *((kind(_X1, _X2), kind(_X1, _X1)) for kind in _BINARY),
            *((kind(_X1, _X2), kind(_X2, _X1)) for kind in _BINARY),
            (Neg(_X1), Neg(_X2)),
            (Pow(_X1, 2), Pow(_X2, 2)),
            (Pow(_X1, 2), Pow(_X1, 3)),
            (Apply(_SIN, _X1), Apply(_COS, _X1)),
            (Apply(_SIN, _X1), Apply(_SIN, _X2)),
        ],
    )
    def test_nodes_differing_in_one_field_compare_unequal(self, node, other):
        assert node != other
        assert node == type(node)(*(getattr(node, name) for name in type(node).__match_args__))

    def test_binary_classes_compare_unequal(self):
        for kind in _BINARY:
            for other in _BINARY:
                assert (kind(_X1, _X2) == other(_X1, _X2)) == (kind is other)

    def test_equal_trees_hash_equal(self):
        text = "x1*sin(x2)^2 - x2/(1 + x1) + -x1"
        assert parse(text, 2) is not parse(text, 2)
        assert hash(parse(text, 2)) == hash(parse(text, 2))
        d = diff(parse(text, 2), 0)
        assert hash(d) == hash(parse(to_string(d), 2))

    @pytest.mark.parametrize("node", _sample_nodes(), ids=lambda n: type(n).__name__)
    def test_assignment_raises(self, node):
        for name in [*type(node).__match_args__, "facts", "depth", "top"]:
            with pytest.raises(AttributeError):
                setattr(node, name, None)
            with pytest.raises(AttributeError):
                delattr(node, name)

    @pytest.mark.parametrize("node", _sample_nodes(), ids=lambda n: type(n).__name__)
    def test_copies_are_equal_with_the_same_facts(self, node):
        copies = [copy.copy(node), copy.deepcopy(node)]
        if not isinstance(node, ConstA):
            # a loaded ConstA lives over a new algebra (see the pickle test)
            copies.append(pickle.loads(pickle.dumps(node)))
        for twin in copies:
            assert twin == node
            assert type(twin) is type(node)
            assert twin.facts == node.facts

    def test_a_tree_with_algebra_constants_hashes(self):
        tree = Mul(ConstA(_EPS), _X1)
        twin = Mul(ConstA(_EPS.algebra.generator("eps")), _X1)
        assert tree == twin and hash(tree) == hash(twin)
        assert len({tree, twin, Mul(ConstA(_EPS.algebra.unit()), _X1)}) == 2

    def test_a_load_rebuilds_one_algebra_for_all_its_constants(self):
        # an algebra pickles as its presentation: one load builds one new
        # algebra, with the same kernels, shared by every constant it holds
        algebra = _EPS.algebra
        tree = Add(Mul(ConstA(_EPS), _X1), ConstA(algebra.unit()))
        loads = [pickle.loads(pickle.dumps(tree)) for _ in range(2)]
        rebuilt = []
        for twin in loads:
            (product, unit) = (twin.left, twin.right)
            new = product.left.value.algebra
            assert unit.value.algebra is new and twin.algebra is new
            assert new is not algebra
            assert new.presentation == algebra.presentation
            assert new._mul is algebra._mul
            assert product.left.value.coeffs == _EPS.coeffs
            assert twin != tree and to_string(twin) == to_string(tree)
            rebuilt.append(new)
        assert rebuilt[0] is not rebuilt[1]

    def test_a_derivative_round_trips(self):
        d = diff(parse("x1^3*sin(x2) - exp(x1*x2)/x2", 2), 1)
        for twin in (copy.copy(d), copy.deepcopy(d), pickle.loads(pickle.dumps(d))):
            assert twin == d
            assert twin.facts == d.facts


def _chain(terms):
    """x1 + x1*x2 + ... + x1*x2 with ``terms`` terms, built with ``add``:
    a left-leaning tree, one level deeper per term."""
    e = _X1
    for _ in range(terms - 1):
        e = add(e, Mul(_X1, _X2))
    return e


class TestDepthLimit:
    def test_a_tree_at_the_limit_works(self):
        e = _chain(MAX_NODE_DEPTH - 1)
        assert e.depth == MAX_NODE_DEPTH
        assert to_string(e).count("+") == MAX_NODE_DEPTH - 2
        assert diff(e, 0).depth == MAX_NODE_DEPTH - 1
        value = 1.0 + 2.0 * (MAX_NODE_DEPTH - 2)
        assert eval_real(e, [1.0, 2.0]) == value
        A = dual_numbers()
        # e is x1 times a constant in x2, so at x1 = 1 + eps its derivative
        # equals its value
        x = (A.element([1.0, 1.0]), A.from_real(2.0))
        assert eval_weil(e, x) == A.element([value, value])
        assert hash(e) == hash(_chain(MAX_NODE_DEPTH - 1))
        twin = pickle.loads(pickle.dumps(e))
        assert twin == e
        assert twin.depth == MAX_NODE_DEPTH
        assert copy.deepcopy(e) == e

    def test_one_level_more_raises(self):
        e = _chain(MAX_NODE_DEPTH - 1)
        for build in (
            lambda: add(e, _X1),
            lambda: Sub(_X1, e),
            lambda: Mul(e, e),
            lambda: Div(e, _X2),
            lambda: Neg(e),
            lambda: Pow(e, 2),
            lambda: Apply(_SIN, e),
        ):
            with pytest.raises(WeilcError, match=f"deeper than {MAX_NODE_DEPTH}") as err:
                build()
            # a usage error (exit 2), never a DomainError that a trial redraws
            assert type(err.value) is WeilcError

    def test_a_long_library_chain_raises(self):
        # 3000 terms used to raise RecursionError in eval_real, diff,
        # to_string and hash
        with pytest.raises(WeilcError, match=f"deeper than {MAX_NODE_DEPTH}"):
            _chain(3000)

    def test_parse_refuses_before_the_node_limit(self):
        # chains, signs and calls in any mix: ParseError, never the
        # constructors' WeilcError
        wrapped = "sin(-(" * (MAX_DEPTH // 2 - 1) + "x1" + "))" * (MAX_DEPTH // 2 - 1)
        chain = " + ".join(["x1"] * (MAX_DEPTH - 1))
        for text in (
            "sin(-(" * 49 + chain + "))" * 49,
            chain + " + " + wrapped,
            wrapped + "^2" * 500,
            "x1" + "^2" * 1000,
            " * ".join([wrapped] * 400),
        ):
            with pytest.raises(ParseError, match=str(MAX_DEPTH)):
                parse(text, 1)


# -- folding rules -------------------------------------------------------------
# The folding constructors as first written, with isinstance tests: the
# reference the class-tested constructors must agree with.  Two constants
# fold only to a finite constant; otherwise the node is built.


def _ref_is_const(e, v):
    return isinstance(e, ConstR) and e.value == v


def _ref_add(a, b):
    if isinstance(a, ConstR) and isinstance(b, ConstR):
        v = a.value + b.value
        return ConstR(v) if math.isfinite(v) else Add(a, b)
    if _ref_is_const(a, 0.0):
        return b
    if _ref_is_const(b, 0.0):
        return a
    return Add(a, b)


def _ref_sub(a, b):
    if isinstance(a, ConstR) and isinstance(b, ConstR):
        v = a.value - b.value
        return ConstR(v) if math.isfinite(v) else Sub(a, b)
    if _ref_is_const(b, 0.0):
        return a
    if _ref_is_const(a, 0.0):
        return Neg(b)
    return Sub(a, b)


def _ref_mul(a, b):
    if isinstance(a, ConstR) and isinstance(b, ConstR):
        v = a.value * b.value
        return ConstR(v) if math.isfinite(v) else Mul(a, b)
    if _ref_is_const(a, 0.0) or _ref_is_const(b, 0.0):
        return ZERO
    if _ref_is_const(a, 1.0):
        return b
    if _ref_is_const(b, 1.0):
        return a
    return Mul(a, b)


def _ref_div(a, b):
    if isinstance(a, ConstR) and isinstance(b, ConstR) and b.value != 0.0:
        v = a.value / b.value
        return ConstR(v) if math.isfinite(v) else Div(a, b)
    if _ref_is_const(b, 1.0):
        return a
    return Div(a, b)


_OPERANDS = st.one_of(
    st.sampled_from([
        ZERO, ConstR(0.0), ConstR(-0.0), ConstR(1.0), ConstR(math.nan), ConstR(-1.0),
        ConstR(math.inf), _X1, Mul(_X1, _X2), ConstA(_EPS), ConstA(_EPS.algebra.zero()),
    ]),
    st.floats().map(ConstR),
)


def _same(x, y):
    """Equal trees, with constants told apart by repr: -0.0 from 0.0, and
    any NaN equal to any NaN."""
    if type(x) is ConstR and type(y) is ConstR:
        return repr(x.value) == repr(y.value)
    return x == y


class TestFolding:
    @given(_OPERANDS, _OPERANDS)
    def test_constructors_match_the_reference_rules(self, a, b):
        for new, ref in ((add, _ref_add), (sub, _ref_sub), (mul, _ref_mul), (div, _ref_div)):
            got, want = new(a, b), ref(a, b)
            assert type(got) is type(want)
            assert _same(got, want), (new.__name__, a, b)
            # an operand or ZERO comes back as that very object
            for kept in (a, b, ZERO):
                if want is kept:
                    assert got is kept, (new.__name__, a, b)

    @pytest.mark.parametrize("build, kind, a, b", [
        (add, Add, 1e308, 1e308), (sub, Sub, -1e308, 1e308), (mul, Mul, 1e200, 1e200),
        (div, Div, 1e200, 1e-200), (mul, Mul, 0.0, math.inf)])
    def test_a_non_finite_fold_builds_the_node(self, build, kind, a, b):
        # the node evaluates to what the fold would have made, so evaluation
        # still refuses it
        e = build(ConstR(a), ConstR(b))
        assert type(e) is kind
        with pytest.raises(DomainError, match="non-finite"):
            eval_real(e, [])

    @given(_OPERANDS)
    def test_the_zero_test_agrees_with_equality(self, e):
        assert is_zero(e) == (e == ZERO)
