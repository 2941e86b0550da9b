"""Walks over shared subexpressions, and the tokenizer.

``diff``, ``substitute``, ``eval_real``, ``eval_weil`` and ``to_string``
visit a node that occurs more than once in a DAG only once per call.  The
``_ref_*`` functions below are the plain tree recursions they replaced,
kept as the reference: on every input the walks must give equal trees,
identical strings, bitwise-equal values and the same first error.
"""

import math

import pytest
from hypothesis import given, settings, strategies as st

from weilc import dual_numbers, jets, trivial_algebra
from weilc.algebra import RECIPROCAL, render_element, taylor_lift
from weilc.errors import AlgebraMismatch, DimensionMismatch, DomainError, ParseError
from weilc.expr import (
    _CHAIN,
    _TOKEN,
    FUNCTIONS,
    Add,
    Apply,
    ConstA,
    ConstR,
    Div,
    Mul,
    Neg,
    Pow,
    Sub,
    Var,
    ONE,
    ZERO,
    _Parser,
    _point_coords,
    _precedence,
    add,
    consta_algebra,
    diff,
    div,
    eval_real,
    eval_weil,
    mul,
    neg,
    power,
    sub,
    substitute,
    to_string,
)
from weilc.sampling import random_expr, random_expr_with_consta, random_point, rng_for

# -- the tree recursions, as references ---------------------------------------------


def _ref_diff(e, i):
    if isinstance(e, Var):
        return ONE if e.index == i else ZERO
    if isinstance(e, (ConstR, ConstA)):
        return ZERO
    if isinstance(e, Add):
        return add(_ref_diff(e.left, i), _ref_diff(e.right, i))
    if isinstance(e, Sub):
        return sub(_ref_diff(e.left, i), _ref_diff(e.right, i))
    if isinstance(e, Neg):
        return neg(_ref_diff(e.arg, i))
    if isinstance(e, Mul):
        return add(mul(_ref_diff(e.left, i), e.right), mul(e.left, _ref_diff(e.right, i)))
    if isinstance(e, Div):
        return div(
            sub(mul(_ref_diff(e.left, i), e.right), mul(e.left, _ref_diff(e.right, i))),
            power(e.right, 2),
        )
    if isinstance(e, Pow):
        return mul(
            mul(ConstR(float(e.exponent)), power(e.base, e.exponent - 1)),
            _ref_diff(e.base, i),
        )
    if isinstance(e, Apply):
        return mul(_CHAIN[e.fn.name](e.arg), _ref_diff(e.arg, i))
    raise TypeError(f"cannot differentiate {type(e).__name__}")


def _ref_substitute(e, replacements):
    if isinstance(e, Var):
        if e.index >= len(replacements):
            raise DimensionMismatch(
                f"substitution provides {len(replacements)} components, "
                f"expression uses x{e.index + 1}"
            )
        return replacements[e.index]
    if isinstance(e, (ConstR, ConstA)):
        return e
    if isinstance(e, Add):
        return add(_ref_substitute(e.left, replacements), _ref_substitute(e.right, replacements))
    if isinstance(e, Sub):
        return sub(_ref_substitute(e.left, replacements), _ref_substitute(e.right, replacements))
    if isinstance(e, Mul):
        return mul(_ref_substitute(e.left, replacements), _ref_substitute(e.right, replacements))
    if isinstance(e, Div):
        return div(_ref_substitute(e.left, replacements), _ref_substitute(e.right, replacements))
    if isinstance(e, Neg):
        return neg(_ref_substitute(e.arg, replacements))
    if isinstance(e, Pow):
        return power(_ref_substitute(e.base, replacements), e.exponent)
    if isinstance(e, Apply):
        return Apply(e.fn, _ref_substitute(e.arg, replacements))
    raise TypeError(f"cannot substitute into {type(e).__name__}")


def _ref_eval_weil(e, point, algebra=None):
    coords = _point_coords(point)
    if algebra is None:
        if coords:
            algebra = coords[0].algebra
        else:
            algebra = consta_algebra(e)
        if algebra is None:
            raise AlgebraMismatch("no algebra can be inferred for evaluation")
    for c in coords:
        if c.algebra is not algebra:
            raise AlgebraMismatch("point coordinates live over different algebras")
    value = _ref_eval_weil_rec(e, coords, algebra)
    if not all(map(math.isfinite, value.coeffs.tolist())):
        raise DomainError(f"non-finite result {render_element(value)}")
    return value


def _ref_eval_weil_rec(e, coords, algebra):
    if isinstance(e, Var):
        if e.index >= len(coords):
            raise DimensionMismatch(
                f"x{e.index + 1} evaluated at a {len(coords)}-coordinate point"
            )
        return coords[e.index]
    if isinstance(e, ConstR):
        return algebra.from_real(e.value)
    if isinstance(e, ConstA):
        if e.value.algebra is not algebra:
            raise AlgebraMismatch("algebra constant does not match the point")
        return e.value
    if isinstance(e, Add):
        return _ref_eval_weil_rec(e.left, coords, algebra) + _ref_eval_weil_rec(
            e.right, coords, algebra)
    if isinstance(e, Sub):
        return _ref_eval_weil_rec(e.left, coords, algebra) - _ref_eval_weil_rec(
            e.right, coords, algebra)
    if isinstance(e, Mul):
        return _ref_eval_weil_rec(e.left, coords, algebra) * _ref_eval_weil_rec(
            e.right, coords, algebra)
    if isinstance(e, Div):
        denom = _ref_eval_weil_rec(e.right, coords, algebra)
        return _ref_eval_weil_rec(e.left, coords, algebra) * taylor_lift(RECIPROCAL, denom)
    if isinstance(e, Neg):
        return -_ref_eval_weil_rec(e.arg, coords, algebra)
    if isinstance(e, Pow):
        return _ref_eval_weil_rec(e.base, coords, algebra) ** e.exponent
    if isinstance(e, Apply):
        return taylor_lift(e.fn, _ref_eval_weil_rec(e.arg, coords, algebra))
    raise TypeError(f"cannot evaluate {type(e).__name__}")


def _ref_eval_real(e, xs):
    value = _ref_eval_real_rec(e, xs)
    if not math.isfinite(value):
        raise DomainError(f"non-finite result {value}")
    return value


def _ref_eval_real_rec(e, xs):
    if isinstance(e, Var):
        if e.index >= len(xs):
            raise DimensionMismatch(
                f"x{e.index + 1} evaluated at a {len(xs)}-coordinate point"
            )
        return float(xs[e.index])
    if isinstance(e, ConstR):
        return e.value
    if isinstance(e, ConstA):
        if e.value.algebra.dim != 1:
            raise AlgebraMismatch("algebra constant in real evaluation")
        return e.value.real
    if isinstance(e, Add):
        return _ref_eval_real_rec(e.left, xs) + _ref_eval_real_rec(e.right, xs)
    if isinstance(e, Sub):
        return _ref_eval_real_rec(e.left, xs) - _ref_eval_real_rec(e.right, xs)
    if isinstance(e, Mul):
        return _ref_eval_real_rec(e.left, xs) * _ref_eval_real_rec(e.right, xs)
    if isinstance(e, Div):
        denom = _ref_eval_real_rec(e.right, xs)
        if denom == 0.0:
            raise DomainError("division by zero")
        return _ref_eval_real_rec(e.left, xs) / denom
    if isinstance(e, Neg):
        return -_ref_eval_real_rec(e.arg, xs)
    if isinstance(e, Pow):
        base = _ref_eval_real_rec(e.base, xs)
        if base == 0.0 and e.exponent < 0:
            raise DomainError("zero raised to a negative power")
        try:
            return base**e.exponent
        except OverflowError as exc:
            raise DomainError(f"{base}^{e.exponent} overflows") from exc
    if isinstance(e, Apply):
        r = _ref_eval_real_rec(e.arg, xs)
        try:
            return e.fn.derivatives(r, 0)[0]
        except OverflowError as exc:
            raise DomainError(f"{e.fn.name} overflows at {r}") from exc
        except (ValueError, ZeroDivisionError) as exc:
            raise DomainError(f"{e.fn.name} undefined at {r}") from exc
    raise TypeError(f"cannot evaluate {type(e).__name__}")


def _ref_wrap(e, minimum):
    s = _ref_to_string(e)
    return f"({s})" if _precedence(e) < minimum else s


def _ref_to_string(e):
    if isinstance(e, Var):
        return f"x{e.index + 1}"
    if isinstance(e, ConstR):
        v = e.value
        return str(int(v)) if v.is_integer() and abs(v) < 1e16 else repr(v)
    if isinstance(e, ConstA):
        return f"[{e.value!r}]"
    if isinstance(e, Add):
        return f"{_ref_wrap(e.left, 1)} + {_ref_wrap(e.right, 2)}"
    if isinstance(e, Sub):
        return f"{_ref_wrap(e.left, 1)} - {_ref_wrap(e.right, 2)}"
    if isinstance(e, Mul):
        return f"{_ref_wrap(e.left, 2)}*{_ref_wrap(e.right, 3)}"
    if isinstance(e, Div):
        return f"{_ref_wrap(e.left, 2)}/{_ref_wrap(e.right, 3)}"
    if isinstance(e, Neg):
        return f"-{_ref_wrap(e.arg, 3)}"
    if isinstance(e, Pow):
        return f"{_ref_wrap(e.base, 5)}^{e.exponent}"
    if isinstance(e, Apply):
        return f"{e.fn.name}({_ref_to_string(e.arg)})"
    raise TypeError(f"cannot print {type(e).__name__}")


def _ref_tokens(text):
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if m is None or m.end() == pos:
            stripped = text[pos:].lstrip()
            if not stripped:
                break
            raise ParseError(f"unexpected character {stripped[0]!r}", pos)
        for kind in ("num", "ident", "op"):
            val = m.group(kind)
            if val is not None:
                tokens.append((kind, val, m.start(kind)))
        pos = m.end()
    tokens.append(("end", "", len(text)))
    return tokens


# -- helpers ------------------------------------------------------------------------


def _outcome(fn, *args):
    """("ok", value) or ("error", class, message) of one call."""
    try:
        return ("ok", fn(*args))
    except Exception as exc:  # the first error of either side, whatever it is
        return ("error", type(exc), str(exc))


def _same(new, ref, key):
    assert new[0] == ref[0], (new, ref)
    if new[0] == "error":
        assert new == ref
    else:
        assert key(new[1]) == key(ref[1])


def _element_bits(a):
    return id(a.algebra), a.coeffs.tobytes()


def _tree(e):
    # printed by the reference printer, so the new printer is not its own judge
    return e, _ref_to_string(e)


# -- exponential DAG ----------------------------------------------------------------


def _doubling_dag(levels):
    """x1^(2^levels) as `levels` nested Mul nodes, each holding one child twice:
    levels + 1 distinct nodes, 2^(levels + 1) - 1 tree nodes."""
    e = Var(0)
    for _ in range(levels):
        e = Mul(e, e)
    return e


class TestSharedDag:
    def test_walks_visit_each_node_once(self):
        e = _doubling_dag(40)
        assert eval_real(e, [1.0]) == 1.0
        d = diff(e, 0)
        assert eval_real(d, [1.0]) == 2.0**40
        assert eval_real(substitute(e, [Neg(Var(0))]), [1.0]) == 1.0
        A = dual_numbers()
        eps = A.generator("eps")
        value = eval_weil(e, (A.unit() + eps,))
        assert value == A.element([1.0, 2.0**40])

    def test_printing_a_dag_prints_each_node_once(self):
        e = _doubling_dag(3)
        assert to_string(e) == "x1*x1*(x1*x1)*(x1*x1*(x1*x1))"

    def test_memoized_diff_returns_a_shared_dag(self):
        # the second Mul operand is the same object as the first, so its
        # derivative is too
        e = _doubling_dag(2)
        d = diff(e, 0)
        assert isinstance(d, Add)
        assert d.left.left is d.right.right


# -- walks against the tree recursions ----------------------------------------------

# real coordinates: ordinary values, zeros, and values that overflow exp or powers
_COORD = st.one_of(
    st.floats(-3.0, 3.0, allow_nan=False, allow_infinity=False),
    st.sampled_from([0.0, -0.0, 1.0, -1.0, 800.0, -800.0, 1e155]),
)
# a wrapper that can leave the domain: division, log and sqrt of a random
# expression that may be zero or negative at the point
_WRAP = st.sampled_from(["plain", "div", "log", "sqrt", "tan"])
_ALGEBRAS = (trivial_algebra, dual_numbers, lambda: jets(2))


def _build(seed, n, wrap, consta):
    rng = rng_for(seed)
    algebra = _ALGEBRAS[seed % len(_ALGEBRAS)]()
    if consta:
        e = random_expr_with_consta(rng, n, algebra, depth=3)
    else:
        e = random_expr(rng, n, depth=4)
    other = random_expr(rng, n, depth=2)
    if wrap == "div":
        e = div(e, other)
    elif wrap != "plain":
        e = Apply(FUNCTIONS[wrap], e)
    replacements = [random_expr(rng, n, depth=2) for _ in range(n)]
    return rng, algebra, e, replacements


# overflowing points make numpy warn before eval_weil raises DomainError
@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@settings(max_examples=150, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(1, 3),
    wrap=_WRAP,
    consta=st.booleans(),
    order=st.lists(st.integers(0, 2), min_size=1, max_size=3),
    xs=st.lists(_COORD, min_size=3, max_size=3),
    short=st.booleans(),
)
def test_walks_match_tree_recursions(seed, n, wrap, consta, order, xs, short):
    rng, algebra, e, replacements = _build(seed, n, wrap, consta)
    xs = xs[:n]
    if short:
        # too few components for the highest variable: DimensionMismatch
        replacements = replacements[:-1]
    coords = tuple(c + x for c, x in zip(random_point(rng, algebra, n).coords, xs))

    new_chain, ref_chain = [e], [e]
    for i in order:
        i = i % n
        new_chain.append(diff(new_chain[-1], i))
        ref_chain.append(_ref_diff(ref_chain[-1], i))
    for new, ref in zip(new_chain, ref_chain):
        assert new == ref
        assert to_string(new) == _ref_to_string(ref)
        _same(_outcome(substitute, new, replacements),
              _outcome(_ref_substitute, ref, replacements), _tree)
        _same(_outcome(eval_real, new, xs), _outcome(_ref_eval_real, ref, xs), float.hex)
        _same(_outcome(eval_weil, new, coords), _outcome(_ref_eval_weil, ref, coords),
              _element_bits)


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), xs=st.lists(_COORD, min_size=2, max_size=2))
def test_shared_operands_match_tree_recursions(seed, xs):
    # random_expr builds trees; here every operand is reused, as diff reuses it
    rng = rng_for(seed)
    a, b = random_expr(rng, 2, depth=2), random_expr(rng, 2, depth=2)
    e = div(mul(add(a, b), a), sub(b, mul(a, a)))
    for new, ref in ((e, e), (diff(e, 0), _ref_diff(e, 0))):
        assert new == ref
        assert to_string(new) == _ref_to_string(ref)
        _same(_outcome(eval_real, new, xs), _outcome(_ref_eval_real, ref, xs), float.hex)


# -- tokenizer -------------------------------------------------------------------------

_TEXT_CHARS = list("x1 2.0eE+-*/^()sin_9") + ["\t", "\n", "$", "#", "é", "\x1c", " "]


@settings(max_examples=400, deadline=None)
@given(st.text(alphabet=st.sampled_from(_TEXT_CHARS), max_size=24), st.integers(0, 3))
def test_tokenizer_matches_the_scanning_loop(text, trailing):
    text += " " * trailing
    # a ParseError's message ends with its position
    assert _outcome(lambda t: _Parser(t, 3).tokens, text) == _outcome(_ref_tokens, text)
