"""Walks over shared subexpressions, the facts each node holds, and the
tokenizer.

``diff``, ``substitute``, ``eval_real``, ``eval_weil`` and ``to_string``
visit a node that occurs more than once in a DAG only once per call.  The
``_ref_*`` functions below are the plain tree recursions they replaced,
kept as the reference: on every input the walks must give equal trees,
identical strings, bitwise-equal values and the same first error.

Each node's ``depth``, ``top`` and ``algebra`` replaced a walk over the
DAG; ``_ref_levels`` and ``_ref_scan`` are that walk, kept as the
reference for the facts.

``parse`` takes all its tokens with one ``findall`` and parses them with one
precedence loop; ``_ref_tokens`` and ``_ref_parse``, a token scan and a
recursive descent with one method per grammar rule, are the parser it
replaced.  On every text both give equal trees or the same first error.
"""

import math
import re
import struct

import pytest
from hypothesis import example, given, settings, strategies as st

from weilc import dual_numbers, jets, trivial_algebra
from weilc.algebra import RECIPROCAL, render_element, taylor_lift
from weilc.errors import (
    AlgebraMismatch,
    DimensionMismatch,
    DomainError,
    ParseError,
    UnknownSymbol,
)
from weilc.expr import (
    _CHAIN,
    _TOKEN,
    FUNCTIONS,
    MAX_DEPTH,
    MAX_EXPONENT,
    AFunction,
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
    _error,
    _point_coords,
    _precedence,
    add,
    diff,
    div,
    eval_real,
    eval_weil,
    mul,
    neg,
    parse,
    power,
    sub,
    substitute,
    to_string,
)
from weilc.sampling import (
    CATALOG,
    catalog_algebra,
    random_expr,
    random_expr_with_consta,
    random_point,
    rng_for,
)

# -- the tree recursions, as references ---------------------------------------------


def _ref_levels(e):
    """The distinct nodes of the DAG level by level, root first: a node
    appears once on each level at which the tree has it, so the level count
    is the tree's depth."""
    level = [e]
    while level:
        yield level
        below = {}
        for node in level:
            kind = type(node)
            if kind in (Add, Sub, Mul, Div):
                below[id(node.left)] = node.left
                below[id(node.right)] = node.right
            elif kind is Neg or kind is Apply:
                below[id(node.arg)] = node.arg
            elif kind is Pow:
                below[id(node.base)] = node.base
        level = list(below.values())


def _ref_scan(e):
    """The algebra of the ConstA leaves (None when there are none) and the
    largest variable index used (-1 for a closed expression).  Constants
    over two algebras raise AlgebraMismatch."""
    found = None
    top = -1
    for level in _ref_levels(e):
        for node in level:
            kind = type(node)
            if kind is Var:
                if node.index > top:
                    top = node.index
            elif kind is ConstA and node.value.algebra is not found:
                if found is not None:
                    raise AlgebraMismatch("expression mixes constants of two algebras")
                found = node.value.algebra
    return found, top


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
            algebra = _ref_scan(e)[0]
        if algebra is None:
            raise AlgebraMismatch("no algebra can be inferred for evaluation")
    for c in coords:
        if c.algebra is not algebra:
            raise AlgebraMismatch("point coordinates live over different algebras")
    value = _ref_eval_weil_rec(e, coords, algebra)
    if not all(map(math.isfinite, value.coeffs)):
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


# the recursive descent's patterns, with ASCII digits as the grammar has them
_REF_TOKEN = re.compile(
    r"\s*(?:(?P<num>(?:[0-9]+\.?[0-9]*|\.[0-9]+)(?:[eE][+-]?[0-9]+)?)"
    r"|(?P<ident>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<op>[-+*/^()]))"
)

_REF_VAR = re.compile(r"x([1-9]\d*)$")


def _ref_quoted(val):
    # a token of more than 40 characters is cut to 40, and its length given
    return repr(val) if len(val) <= 40 else f"{val[:40]!r}... ({len(val)} characters)"


def _ref_tokens(text):
    tokens = []
    pos = 0
    while pos < len(text):
        m = _REF_TOKEN.match(text, pos)
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


class _RefParser:
    def __init__(self, text, n):
        self.tokens = _ref_tokens(text)
        self.n = n
        self.i = 0
        self.depth = 0

    def peek(self):
        return self.tokens[self.i]

    def next(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect_op(self, op):
        kind, val, pos = self.next()
        if kind != "op" or val != op:
            raise ParseError(f"expected {op!r}", pos)

    def parse(self):
        e = self.expression()
        kind, val, pos = self.peek()
        if kind != "end":
            raise ParseError(f"unexpected {_ref_quoted(val)}", pos)
        return self.shallow(e, 0)

    def shallow(self, e, pos):
        if e.depth > MAX_DEPTH:
            raise ParseError(f"expression tree is deeper than {MAX_DEPTH}", pos)
        return e

    def expression(self):
        e = self.term()
        while True:
            kind, val, pos = self.peek()
            if kind == "op" and val in "+-":
                self.next()
                rhs = self.term()
                e = self.shallow(Add(e, rhs) if val == "+" else Sub(e, rhs), pos)
            else:
                return e

    def term(self):
        e = self.unary()
        while True:
            kind, val, pos = self.peek()
            if kind == "op" and val in "*/":
                self.next()
                rhs = self.unary()
                e = self.shallow(Mul(e, rhs) if val == "*" else Div(e, rhs), pos)
            else:
                return e

    def nested(self, production):
        self.depth += 1
        if self.depth > MAX_DEPTH:
            raise ParseError(f"expression nests deeper than {MAX_DEPTH}", self.peek()[2])
        e = production()
        self.depth -= 1
        return e

    def unary(self):
        kind, val, _ = self.peek()
        if kind == "op" and val == "-":
            self.next()
            inner = self.nested(self.unary)
            if isinstance(inner, ConstR):
                return ConstR(-inner.value)
            return Neg(inner)
        return self.power()

    def power(self):
        e = self.atom()
        while True:
            kind, val, pos = self.peek()
            if kind == "op" and val == "^":
                self.next()
                e = self.shallow(Pow(e, self.exponent()), pos)
            else:
                return e

    def exponent(self):
        sign = 1
        kind, val, pos = self.peek()
        if kind == "op" and val == "-":
            self.next()
            sign = -1
            kind, val, pos = self.peek()
        if kind != "num" or not re.fullmatch(r"[0-9]+", val):
            raise ParseError("expected an integer exponent", pos)
        if len(val.lstrip("0")) > len(str(MAX_EXPONENT)) or int(val) > MAX_EXPONENT:
            raise ParseError(f"exponent exceeds {MAX_EXPONENT}", pos)
        self.next()
        return sign * int(val)

    def atom(self):
        kind, val, pos = self.next()
        if kind == "num":
            if not math.isfinite(float(val)):  # refused, as parse refuses it
                raise ParseError(f"number {_ref_quoted(val)} is not finite", pos)
            return ConstR(float(val))
        if kind == "ident":
            m = _REF_VAR.match(val)
            if m is not None:
                digits = m.group(1)
                if len(digits) > len(str(self.n)) or int(digits) > self.n:
                    raise UnknownSymbol(
                        f"variable {_ref_quoted(val)} exceeds chart dimension {self.n}", pos
                    )
                return Var(int(digits) - 1)
            nxt_kind, nxt_val, _ = self.peek()
            if nxt_kind == "op" and nxt_val == "(":
                if val not in FUNCTIONS:
                    raise UnknownSymbol(f"unknown function {_ref_quoted(val)}", pos)
                self.next()
                arg = self.nested(self.expression)
                self.expect_op(")")
                return Apply(FUNCTIONS[val], arg)
            raise UnknownSymbol(f"unknown identifier {_ref_quoted(val)}", pos)
        if kind == "op" and val == "(":
            e = self.nested(self.expression)
            self.expect_op(")")
            return e
        if kind == "end":
            raise ParseError("unexpected end of input", pos)
        raise ParseError(f"unexpected {val!r}", pos)


def _ref_parse(text, n):
    return _RefParser(text, n).parse()


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
    return id(a.algebra), struct.pack(f"{len(a.coeffs)}d", *a.coeffs)


def _tree(e):
    # printed by the reference printer, so the new printer is not its own judge
    return e, _ref_to_string(e)


# -- exponential DAG ----------------------------------------------------------------


def _doubling_dag(levels, leaf=Var(0)):
    """leaf^(2^levels) as `levels` nested Mul nodes, each holding one child
    twice: `levels` distinct Mul nodes, and 2^levels copies of the leaf in
    the tree."""
    e = leaf
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

    def test_structure_queries_visit_each_node_once_per_level(self):
        A = dual_numbers()
        e = _doubling_dag(40, Add(Var(1), ConstA(A.generator("eps"))))
        assert e.depth == sum(1 for _ in _ref_levels(e)) == 42  # as parse counts
        assert (e.algebra, e.top) == _ref_scan(e) == (A, 1)
        assert AFunction(e, 2, A).expr is e
        with pytest.raises(DimensionMismatch):
            AFunction(e, 1, A)
        with pytest.raises(AlgebraMismatch):
            AFunction(e, 2, dual_numbers())
        plain = _doubling_dag(40)
        assert (plain.algebra, plain.top) == _ref_scan(plain) == (None, 0)

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


# eval_weil walks coefficient lists: every catalog algebra, the highest order
# the kernels are tested at, and R itself, against the WeilElement operators
_LIST_WALK_ALGEBRAS = tuple(catalog_algebra(name) for name, _ in CATALOG) + (
    jets(10), trivial_algebra())
_SHAPE = st.sampled_from(["plain", "negative_pow", "zero_denominator", "nilpotent_denominator"])


@settings(max_examples=200, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    algebra=st.sampled_from(_LIST_WALK_ALGEBRAS),
    shape=_SHAPE,
    order=st.lists(st.integers(0, 1), max_size=2),
    xs=st.lists(_COORD, min_size=2, max_size=2),
)
def test_list_walk_matches_the_element_recursion(seed, algebra, shape, order, xs):
    rng = rng_for(seed)
    e = random_expr_with_consta(rng, 2, algebra, depth=3)
    other = random_expr(rng, 2, depth=2)
    if shape == "negative_pow":
        e = Pow(e, -int(rng.integers(1, 4)))
    elif shape == "zero_denominator":  # the lift of 1/0 raises
        e = Div(e, Sub(other, other))
    elif shape == "nilpotent_denominator":
        nil = [0.0] + [float(c) for c in rng.uniform(-0.5, 0.5, algebra.dim - 1)]
        e = Div(other, ConstA(algebra.element(nil)))
    coords = tuple(c + x for c, x in zip(random_point(rng, algebra, 2).coords, xs))
    for i in order:
        e = diff(e, i)
    _same(_outcome(eval_weil, e, coords), _outcome(_ref_eval_weil, e, coords),
          _element_bits)


def test_a_real_constant_evaluates_to_floats():
    # ConstR keeps what it is given; the walk's list holds floats all the same
    for algebra in (trivial_algebra(), jets(2)):
        value = eval_weil(ConstR(1), (), algebra)
        assert type(value.coeffs) is list
        assert [type(c) for c in value.coeffs] == [float] * algebra.dim
        assert value == algebra.unit()


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


# -- the facts each node holds, against the walk they replaced -----------------------


def _facts(e):
    return e.depth, e.top, e.algebra


def _ref_facts(e):
    algebra, top = _ref_scan(e)
    return sum(1 for _ in _ref_levels(e)), top, algebra


@settings(max_examples=150, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(1, 3),
    wrap=_WRAP,
    consta=st.booleans(),
    i=st.integers(0, 2),
)
def test_facts_match_the_reference_walk(seed, n, wrap, consta, i):
    rng, algebra, e, replacements = _build(seed, n, wrap, consta)
    # a separately built algebra: its constants never mix with ``algebra``'s
    other = _ALGEBRAS[(seed + 1) % len(_ALGEBRAS)]()
    foreign = random_expr_with_consta(rng, n, other, depth=2)
    results = [e, diff(e, i % n), diff(diff(e, i % n), 0), substitute(e, replacements)]
    results += [parse(to_string(r), n) for r in results if r.algebra is None]
    for r in results:
        assert _facts(r) == _ref_facts(r)
        for kind in (Add, Sub, Mul, Div):
            mixed = r.algebra is not None and foreign.algebra is not None
            if mixed:
                with pytest.raises(AlgebraMismatch, match="two algebras"):
                    kind(r, foreign)
            else:
                built = kind(r, foreign)
                assert _facts(built) == _ref_facts(built)
        for built in (Neg(r), Pow(r, 3), Apply(FUNCTIONS["exp"], r)):
            assert _facts(built) == _ref_facts(built)
    if e.algebra is not None:
        # substituting foreign constants into e mixes them with its own
        if foreign.algebra is not None and e.top >= 0:
            with pytest.raises(AlgebraMismatch, match="two algebras"):
                substitute(e, [foreign] * n)


# -- tokenizer and parser ------------------------------------------------------------

_TEXT_CHARS = list("x1 2.0eE+-*/^()sin_9") + ["\t", "\n", "$", "#", "é", "\x1c", " ", "٣"]


def _tokens(text):
    """The tokens parse reads, in the reference's (kind, value, position)
    form: the kind by the first character, as parse tells them apart, and
    the position, or the stray character, as parse's errors report them."""
    tokens = _TOKEN.findall(text)
    end = _error(text, len(tokens), "end")
    if str(end) != f"end (at position {len(text)})":
        raise end
    kinds = [
        "num" if t[0] in "0123456789." else "ident" if t[0].isalpha() or t[0] == "_" else "op"
        for t in tokens
    ]
    positions = [_error(text, k, "").position for k in range(len(tokens))]
    return list(zip(kinds, tokens, positions)) + [("end", "", len(text))]


@settings(max_examples=400, deadline=None)
@given(st.text(alphabet=st.sampled_from(_TEXT_CHARS), max_size=24), st.integers(0, 3))
def test_tokenizer_matches_the_scanning_loop(text, trailing):
    text += " " * trailing
    # a ParseError's message ends with its position
    assert _outcome(_tokens, text) == _outcome(_ref_tokens, text)


_LEAVES = ["x1", "x2", "x3", "0", "2", "2.5", ".5", "3.", "1e3", "1.5E-2", "12"]
# one of these put anywhere breaks most texts, each in its own way
_JUNK = ["x4", "x0", "x01", "y", "foo", "sin", "1e999", "٣", "é", "$", ".", "^", "^-",
         "^2.5", "^x1", "(", ")", "+", "*", "-", "foo(", "exp(", ""]


_OPERATORS = ["+", "-", "*", "/", " + ", " - ", " * ", " / "]


def _grammar_texts():
    def extend(inner):
        return st.one_of(
            # a chain of binary operators in any mix
            st.tuples(inner, st.lists(st.tuples(st.sampled_from(_OPERATORS), inner),
                                      min_size=1, max_size=4))
            .map(lambda t: t[0] + "".join(op + s for op, s in t[1])),
            inner.map(lambda s: "-" + s),
            inner.map(lambda s: f"({s})"),
            st.tuples(st.sampled_from(sorted(FUNCTIONS)), inner).map(lambda t: f"{t[0]}({t[1]})"),
            st.tuples(inner, st.sampled_from(["2", "-1", "0", "-3", "10", "-12"])).map("^".join),
        )

    return st.recursive(st.sampled_from(_LEAVES), extend, max_leaves=10)


def _deep_texts():
    # nests and chains at, and just past, MAX_DEPTH
    shapes = [
        lambda k: "(" * k + "x1" + ")" * k,
        lambda k: "-" * k + "x1",
        lambda k: "-" * k + "2",
        lambda k: "sin(" * k + "x1" + ")" * k,
        lambda k: "-(" * (k // 2) + "x1" + ")" * (k // 2),
        lambda k: " + ".join(["x1"] * k),
        lambda k: "*".join(["x2"] * k),
        lambda k: "x1" + "^2" * k,
        lambda k: "x1" + "^-1" * (k - 1),
        lambda k: "-" * (k - 1) + "x1^2",
        lambda k: "x1 - " * (k - 1) + "(" * k + "x1" + ")" * k,
    ]
    return st.tuples(st.sampled_from(shapes), st.integers(MAX_DEPTH - 2, MAX_DEPTH + 2)).map(
        lambda t: t[0](t[1]))


@settings(max_examples=500, deadline=None)
@given(
    st.one_of(_grammar_texts(), _deep_texts()),
    st.integers(0, 10**6),
    st.one_of(st.none(), st.sampled_from(_JUNK)),
)
@example("x1 + 2", 5, "1e999")  # the two refusals parse added
@example("x1 + 2", 0, "\u0663")
@example("x1^2", 3, "\u0663")
@example(" + ".join(["x1"] * MAX_DEPTH), 0, "x2 * ")
@example("(" * MAX_DEPTH + "x1" + ")" * MAX_DEPTH, 0, "-")
@example("-2*-x1^-3 - -.5/sin(-(3.))^2", 0, None)
@example("x1^010000 - x1^-10000", 0, None)  # the exponent bound, and past it
@example("x1^10001", 0, None)
@example("x1^-10001", 0, None)
@example("x1 + x" + "1" * 5000, 0, None)  # more digits than int() converts
@example("x1 + " + "a" * 41, 0, None)  # a refused token past the quoted length
@example("x1 " + "1" * 40, 0, None)
def test_parser_matches_the_recursive_descent(text, at, junk):
    if junk is not None:
        at %= len(text) + 1
        text = text[:at] + junk + text[at:]
    # equal trees, or the same class and message (which ends with the position)
    _same(_outcome(parse, text, 3), _outcome(_ref_parse, text, 3), key=lambda e: e)

