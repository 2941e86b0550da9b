"""Walks over shared subexpressions, the partials each node keeps, the
facts each node holds, and the tokenizer.

``diff``, ``substitute``, ``eval_real``, ``eval_weil`` and ``to_string``
visit a node that occurs more than once in a DAG only once per call.  The
``_ref_*`` functions below are the plain tree recursions they replaced,
kept as the reference: on every input the walks must give equal trees,
identical strings, bitwise-equal values and the same first error.

``diff`` keeps each node's partials on the node, so a node is
differentiated by one index once in its lifetime: a repeat call returns
the same tree, and a warm cache gives the trees a cold one gives.  It
builds one chain-rule factor per node and reuses the node where its
derivative holds it; ``_plain_diff`` builds each anew, and on a tree with
no quotient the two give equal trees and bit-equal values.
``eval_weil`` keeps each node's value with the APoint it was computed at,
so a node is evaluated once at one point for as long as that point is its
last: a value read from the node is the value a fresh tree computes.

Each node's ``depth``, ``top`` and ``algebra`` replaced a walk over the
DAG; ``_ref_levels`` and ``_ref_scan`` are that walk, kept as the
reference for the facts.

``parse`` tokenizes its text one scan at a time and parses the tokens with
one precedence loop; ``_ref_tokens`` and ``_ref_parse``, a token scan and a
recursive descent with one method per grammar rule, are the parser it
replaced.  On every text both give equal trees or the same first error,
also where ``parse`` reuses a repeated group, which it parses once per call
and skips unread where its text repeats.

``==`` and ``hash`` walk a DAG with a per-call memo; ``_ref_equal`` and
``_ref_hash`` are the plain recursions they must agree with.
"""

import copy
import math
import operator
import pickle
import re
import struct

import pytest
from hypothesis import example, given, settings, strategies as st

import weilc.expr
import weilc.prolongation
from weilc import APoint, dual_numbers, jets, trivial_algebra
from weilc.algebra import PRIMITIVES, RECIPROCAL, render_element, taylor_lift
from weilc.errors import (
    AlgebraMismatch,
    DimensionMismatch,
    DomainError,
    ParseError,
    UnknownSymbol,
)
from weilc.expr import (
    _CHAIN,
    AFunction,
    Add,
    Apply,
    ConstA,
    ConstR,
    Div,
    MAX_DEPTH,
    MAX_EXPONENT,
    Mul,
    Neg,
    Pow,
    Sub,
    Var,
    ONE,
    ZERO,
    _diff,
    _error,
    _eval_weil,
    _fail,
    _precedence,
    _tokenize,
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
from weilc.forms import CoordForm
from weilc.oracle import SUITES, run_suite
from weilc.poisson import _gradient, verify_a_poisson
from weilc.sampling import (
    CATALOG,
    catalog_algebra,
    random_expr,
    random_expr_with_consta,
    random_point,
    rng_for,
)

from structures import so3_structure

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
        d_right = _ref_diff(e.right, i)
        numerator = sub(_ref_diff(e.left, i), mul(e, d_right))
        return ZERO if numerator == ZERO else div(numerator, e.right)
    if isinstance(e, Pow):
        return mul(
            mul(ConstR(float(e.exponent)), power(e.base, e.exponent - 1)),
            _ref_diff(e.base, i),
        )
    if isinstance(e, Apply):
        return mul(_CHAIN[e.fn.name](e), _ref_diff(e.arg, i))
    raise TypeError(f"cannot differentiate {type(e).__name__}")


_PLAIN_CHAIN = {
    "exp": lambda u: Apply(PRIMITIVES["exp"], u),
    "log": lambda u: div(ONE, u),
    "sin": lambda u: Apply(PRIMITIVES["cos"], u),
    "cos": lambda u: neg(Apply(PRIMITIVES["sin"], u)),
    "tan": lambda u: add(ONE, power(Apply(PRIMITIVES["tan"], u), 2)),
    "sqrt": lambda u: div(ConstR(0.5), Apply(PRIMITIVES["sqrt"], u)),
}


def _plain_diff(e, i):
    """The rules of ``_ref_diff`` with nothing shared: each partial builds
    its own chain-rule factor, and the quotient rule squares its
    denominator, ``(u'v - uv')/v^2``."""
    if isinstance(e, (Var, ConstR, ConstA)):
        return _ref_diff(e, i)
    if isinstance(e, Add):
        return add(_plain_diff(e.left, i), _plain_diff(e.right, i))
    if isinstance(e, Sub):
        return sub(_plain_diff(e.left, i), _plain_diff(e.right, i))
    if isinstance(e, Neg):
        return neg(_plain_diff(e.arg, i))
    if isinstance(e, Mul):
        return add(mul(_plain_diff(e.left, i), e.right), mul(e.left, _plain_diff(e.right, i)))
    if isinstance(e, Div):
        return div(sub(mul(_plain_diff(e.left, i), e.right), mul(e.left, _plain_diff(e.right, i))),
                   power(e.right, 2))
    if isinstance(e, Pow):
        return mul(mul(ConstR(float(e.exponent)), power(e.base, e.exponent - 1)),
                   _plain_diff(e.base, i))
    if isinstance(e, Apply):
        return mul(_PLAIN_CHAIN[e.fn.name](e.arg), _plain_diff(e.arg, i))
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


def _ref_eval_weil(e, point):
    value = _ref_eval_weil_rec(e, point.coords, point.algebra)
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
    # a repr of more than 40 characters is cut to 40, and its length given
    text = repr(val)
    return text if len(text) <= 40 else f"{text[:40]}... ({len(text)} characters)"


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
                if val not in PRIMITIVES:
                    raise UnknownSymbol(f"unknown function {_ref_quoted(val)}", pos)
                self.next()
                arg = self.nested(self.expression)
                self.expect_op(")")
                return Apply(PRIMITIVES[val], arg)
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
        value = eval_weil(e, APoint(A, (A.unit() + eps,)))
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


# -- equality and hash ------------------------------------------------------------------


def _ref_equal(a, b):
    """The compare the node classes once generated: the same class, and each
    field equal, a value being equal to itself as in a tuple compare."""
    if type(a) is not type(b):
        return False
    if isinstance(a, Var):
        return a.index == b.index
    if isinstance(a, (ConstR, ConstA)):
        return a.value is b.value or a.value == b.value
    if isinstance(a, Neg):
        return a.arg is b.arg or _ref_equal(a.arg, b.arg)
    if isinstance(a, Pow):
        return (a.base is b.base or _ref_equal(a.base, b.base)) and a.exponent == b.exponent
    if isinstance(a, Apply):
        return (a.fn is b.fn or a.fn == b.fn) and (a.arg is b.arg or _ref_equal(a.arg, b.arg))
    return all(x is y or _ref_equal(x, y) for x, y in ((a.left, b.left), (a.right, b.right)))


def _ref_hash(e):
    """The hash of the class and the fields, by a plain recursion."""
    kind = type(e)
    if kind is Var:
        return hash((kind, e.index))
    if kind in (ConstR, ConstA):
        return hash((kind, e.value))
    if kind is Neg:
        return hash((kind, _ref_hash(e.arg)))
    if kind is Pow:
        return hash((kind, _ref_hash(e.base), e.exponent))
    if kind is Apply:
        return hash((kind, e.fn, _ref_hash(e.arg)))
    return hash((kind, _ref_hash(e.left), _ref_hash(e.right)))


class _OverBudget(Exception):
    pass


def _counted(monkeypatch, name, budget):
    """Count the calls of weilc.expr's ``name``, which recurses through its
    module name, and stop the call past ``budget`` of them."""
    real = getattr(weilc.expr, name)
    calls = []

    def counting(*args):
        calls.append(None)
        if len(calls) > budget:
            raise _OverBudget
        return real(*args)

    monkeypatch.setattr(weilc.expr, name, counting)
    return calls


def _within_budget(fn, *args):
    """fn(*args), or None where it ran past its budget.  The trees here have
    2^40 leaves, so the tests assert on what this returns, never on a tree,
    which a failure report would print in full."""
    try:
        return fn(*args)
    except _OverBudget:
        return None


class TestEqualityAndHash:
    """``==`` and ``hash`` walk a DAG once per call: two equal DAGs built
    apart compare in one visit per pair of binary nodes, and hash in one
    per node and edge."""

    def test_two_builds_of_a_doubling_dag_compare_once_per_pair(self, monkeypatch):
        a, b = _doubling_dag(40), _doubling_dag(40)
        changed = Mul(_doubling_dag(39), _doubling_dag(39, Var(1)))
        calls = _counted(monkeypatch, "_equal", 2**9)
        # one call per level: each right operand is the left one again
        assert _within_budget(operator.eq, a, b) is True
        assert len(calls) == 40
        for x, y in ((a, changed), (changed, b)):
            del calls[:]
            assert _within_budget(operator.ne, x, y) is True
            assert len(calls) <= 2 * 40

    def test_two_builds_of_a_doubling_dag_hash_once_per_node(self, monkeypatch):
        a, b = _doubling_dag(40), _doubling_dag(40)
        calls = _counted(monkeypatch, "_hash", 2 * (2 * 40 + 1))
        first = _within_budget(hash, a)
        # a call per node, and one more per level for the repeated operand
        assert first is not None and len(calls) == 2 * 40 + 1
        assert _within_budget(hash, b) == first

    def test_an_expression_never_equals_another_type(self):
        assert (Var(0) == 0) is False and Var(0) != "x1" and ConstR(2.0) != 2.0


# one NaN object, in every tree grown from a recipe that names it
_NAN = float("nan")
_LEAF_RECIPES = st.sampled_from(
    [("var", 0), ("var", 1), ("r", 0.0), ("r", -0.0), ("r", 2.5), ("r", _NAN), ("nan",), ("a",)])


def _recipes():
    """Nested tuples naming a tree: grown twice, they give equal trees that
    share no node."""
    def extend(inner):
        return st.one_of(
            st.tuples(st.sampled_from(["add", "sub", "mul", "div"]), inner, inner),
            st.tuples(st.just("neg"), inner),
            st.tuples(st.just("pow"), inner, st.sampled_from([2, 3, -1])),
            st.tuples(st.just("apply"), st.sampled_from(["sin", "cos", "exp"]), inner),
        )

    return st.recursive(_LEAF_RECIPES, extend, max_leaves=8)


_BINARY_NODES = {"add": Add, "sub": Sub, "mul": Mul, "div": Div}


def _grow(recipe, algebra):
    """A new tree from a recipe, its algebra constants over ``algebra``; a
    ("nan",) leaf is a NaN of its own."""
    kind = recipe[0]
    if kind == "var":
        return Var(recipe[1])
    if kind == "r":
        return ConstR(recipe[1])
    if kind == "nan":
        return ConstR(float("nan"))
    if kind == "a":
        return ConstA(algebra.generator("eps"))
    if kind == "neg":
        return Neg(_grow(recipe[1], algebra))
    if kind == "pow":
        return Pow(_grow(recipe[1], algebra), recipe[2])
    if kind == "apply":
        return Apply(PRIMITIVES[recipe[1]], _grow(recipe[2], algebra))
    return _BINARY_NODES[kind](_grow(recipe[1], algebra), _grow(recipe[2], algebra))


def _changed(recipe, k, leaf):
    """The recipe with its k-th node in preorder changed: a leaf replaced by
    ``leaf``, an operator, exponent or primitive by another.  Returns the
    recipe and what is left of k."""
    kind = recipe[0]
    if k == 0:
        if kind in _BINARY_NODES:
            return ("sub" if kind == "add" else "add",) + recipe[1:], -1
        if kind == "pow":
            return ("pow", recipe[1], recipe[2] + 1), -1
        if kind == "apply":
            return ("apply", "cos" if recipe[1] == "sin" else "sin", recipe[2]), -1
        if kind == "neg":
            return recipe[1], -1
        return leaf, -1
    k -= 1
    parts = list(recipe)
    for j, part in enumerate(parts):
        if isinstance(part, tuple) and k >= 0:
            parts[j], k = _changed(part, k, leaf)
    return tuple(parts), k


@st.composite
def _recipe_pairs(draw):
    first = draw(_recipes())
    how = draw(st.sampled_from(["same", "changed", "other"]))
    if how == "same":
        return first, first
    if how == "other":
        return first, draw(_recipes())
    return first, _changed(first, draw(st.integers(0, 20)), draw(_LEAF_RECIPES))[0]


@settings(max_examples=300, deadline=None)
@given(pair=_recipe_pairs(), two_algebras=st.booleans(),
       order=st.lists(st.integers(0, 1), max_size=2))
@example(pair=(("r", _NAN), ("r", _NAN)), two_algebras=False, order=[])  # one NaN: equal
@example(pair=(("nan",), ("nan",)), two_algebras=False, order=[])  # two NaNs: unequal
@example(pair=(("mul", ("r", 0.0), ("var", 0)), ("mul", ("r", -0.0), ("var", 0))),
         two_algebras=False, order=[])
@example(pair=(("a",), ("a",)), two_algebras=True, order=[])
@example(pair=(("apply", "sin", ("var", 0)), ("apply", "cos", ("var", 0))),
         two_algebras=False, order=[0])
@example(pair=(("add", ("var", 0), ("var", 1)), ("sub", ("var", 0), ("var", 1))),
         two_algebras=False, order=[])
def test_equality_and_hash_match_the_plain_recursion(pair, two_algebras, order):
    A = dual_numbers()
    B = dual_numbers() if two_algebras else A
    a, b = _grow(pair[0], A), _grow(pair[1], B)
    for i in order:
        # diff results are DAGs: a product's operands appear in both terms
        a, b = diff(a, i), diff(b, i)
    same = a is b or _ref_equal(a, b)
    assert (a == b) is same and (a != b) is not same
    assert hash(a) == _ref_hash(a) and hash(b) == _ref_hash(b)
    if same:
        assert hash(a) == hash(b)


# -- the partials each node keeps ------------------------------------------------------

_GROWTH = "x1^3*sin(x2) - exp(x1*x2)/x2 + sqrt(x1 + 2)*log(x2 + 3)"


class TestPartialsOnTheNode:
    def test_a_repeat_diff_returns_the_same_tree(self):
        e = parse(_GROWTH, 2)
        for i in (0, 1, 0, 1):
            assert diff(e, i) is diff(e, i)
        assert diff(diff(e, 0), 1) is diff(diff(e, 0), 1)
        # equal trees built apart keep their partials apart, equal all the same
        twin = parse(_GROWTH, 2)
        assert diff(twin, 0) is not diff(e, 0) and diff(twin, 0) == diff(e, 0)

    def test_a_second_gradient_computes_no_derivative(self, monkeypatch):
        pi = so3_structure()
        A = jets(2)
        phi = AFunction(mul(parse(_GROWTH + " + x3^2", 3), ConstA(A.generator("t"))), 3, A)
        first = _gradient(pi, phi.expr)
        entries = []

        def counting(e, i):
            entries.append((e, i))
            return _diff(e, i)

        monkeypatch.setattr(weilc.expr, "_diff", counting)
        second = _gradient(pi, phi.expr)
        # one entry per coordinate, each served from the node: no recursion
        assert [(e is phi.expr, i) for e, i in entries] == [(True, 0), (True, 1), (True, 2)]
        assert all(a is b for a, b in zip(first, second))

    def test_a_filled_cache_stays_out_of_copies(self):
        e = parse(_GROWTH, 2)
        d0, d1 = diff(e, 0), diff(e, 1)
        for twin in (copy.copy(e), copy.deepcopy(e), pickle.loads(pickle.dumps(e))):
            assert twin == e and hash(twin) == hash(e)
            assert not hasattr(twin, "_partials")
            assert to_string(diff(twin, 0)) == to_string(d0)
            assert to_string(diff(twin, 1)) == to_string(d1)
            assert diff(twin, 0) is not d0
        # the cache changes neither equality nor hash
        fresh = parse(_GROWTH, 2)
        assert fresh == e and hash(fresh) == hash(e)

    def test_the_partials_of_a_function_share_its_factor(self):
        e = parse("sin(x1*x2)", 2)
        d0, d1 = diff(e, 0), diff(e, 1)
        assert d0.left is d1.left
        assert d0.left == Apply(PRIMITIVES["cos"], e.arg) and d0.left.arg is e.arg
        # kept with the partials, under a key that no index uses
        assert e._partials == {None: d0.left, 0: d0, 1: d1}

    def test_the_power_rule_factor_is_shared(self):
        e = parse("(x1*x2)^3", 2)
        d0, d1 = diff(e, 0), diff(e, 1)
        assert d0.left is d1.left
        assert d0.left == parse("3*(x1*x2)^2", 2) and d0.left.right.base is e.base

    def test_exp_tan_and_sqrt_reuse_their_node(self):
        e = parse("exp(x1*x2)", 2)
        assert diff(e, 0).left is e and diff(e, 1).left is e
        e = parse("tan(x1*x2)", 2)
        factor = diff(e, 0).left
        assert factor == add(ONE, power(e, 2)) and factor.right.base is e
        e = parse("sqrt(x1*x2)", 2)
        factor = diff(e, 0).left
        assert factor == div(ConstR(0.5), e) and factor.right is e

    def test_the_quotient_rule_reuses_the_quotient(self):
        e = parse("x1/(x1 + x2)", 2)
        d = diff(e, 0)
        assert d == parse("(1 - x1/(x1 + x2))/(x1 + x2)", 2)
        assert d.left.right is e and d.right is e.right
        # a denominator free of the variable: the partial over the denominator
        e = parse("sin(x1)/(x2 + 4)", 2)
        d = diff(e, 0)
        assert type(d) is Div and d.left is diff(e.left, 0) and d.right is e.right

    def test_a_gradient_lifts_each_factor_once(self, monkeypatch):
        # the partials by x1 and x2 hold one cos node: one value, one lift
        e = parse("sin(x1*x2)", 2)
        d0, d1 = diff(e, 0), diff(e, 1)
        lifted = []
        lift = weilc.expr._lift

        def counting(fn, algebra, coeffs):
            lifted.append(fn.name)
            return lift(fn, algebra, coeffs)

        monkeypatch.setattr(weilc.expr, "_lift", counting)
        point = _jet2_point([0.3, 1.0, 0.0], [0.7, 0.0, 1.0])
        eval_weil(d0, point)
        eval_weil(d1, point)
        assert lifted == ["cos"]


def _computed_partials(monkeypatch):
    """Wrap _diff so that it records each (node, index) whose partial it
    computes, rather than reads from the node.  The nodes are held, so their
    ids stay valid."""
    computed = []

    def recording(e, i):
        partials = getattr(e, "_partials", None)
        if type(e) not in (Var, ConstR, ConstA) and (partials is None or i not in partials):
            computed.append((e, i))
        return _diff(e, i)

    monkeypatch.setattr(weilc.expr, "_diff", recording)
    return computed


def test_no_partial_is_computed_twice(monkeypatch):
    # a poisson_full run, so3 over jet2, and a cartan run: the suites that
    # differentiate the same functions again and again
    counts = []
    for _ in range(2):
        computed = _computed_partials(monkeypatch)
        verify_a_poisson(so3_structure(), jets(2), 3, 1e-9, seed=42)
        run_suite("cartan", 42, 3, 1e-9)
        pairs = {(id(e), i) for e, i in computed}
        assert len(pairs) == len(computed) > 0
        counts.append(len(computed))
        monkeypatch.undo()
    # fresh trees each run: the same work, counted deterministically
    assert counts[0] == counts[1]


# -- the value each node keeps with its point ------------------------------------------


def _jet2_point(*vectors):
    A = jets(2)
    return APoint(A, tuple(A.element(v) for v in vectors))


def _computed_values(monkeypatch):
    """Wrap _eval_weil so that it records each (node, coordinate lists,
    algebra) whose value it computes: a value is read when the list returned
    is the one the node kept before the call.  A twin APoint holds the same
    coordinate lists, so a caller that builds a new point shows as a
    repeat.  The nodes and lists are held, so their ids stay valid."""
    computed = []

    def recording(e, coords, algebra, key):
        kept = getattr(e, "_value", None)
        value = _eval_weil(e, coords, algebra, key)
        if type(e) not in (Var, ConstA) and (kept is None or value is not kept[1]):
            computed.append((e, coords, algebra))
        return value

    monkeypatch.setattr(weilc.expr, "_eval_weil", recording)
    return computed


def _nodes(e):
    """The distinct nodes of e's DAG that keep a value: all but the leaves
    that return one at once."""
    return {id(node): node for level in _ref_levels(e) for node in level
            if type(node) not in (Var, ConstA)}


class TestValueOnTheNode:
    def test_values_follow_the_point(self):
        # P, a twin Q with bit-equal coordinates, R over another algebra, P
        # again: every value is that of a tree that was never evaluated
        e = parse(_GROWTH, 2)
        tree = diff(add(e, mul(e, diff(e, 0))), 1)
        p = _jet2_point([0.5, 1.0, 0.25], [1.5, -1.0, 0.5])
        q = _jet2_point([0.5, 1.0, 0.25], [1.5, -1.0, 0.5])
        D = dual_numbers()
        r = APoint(D, (D.element([0.5, 1.0]), D.element([1.5, -1.0])))
        for point in (p, q, r, p):
            fresh = copy.deepcopy(tree)
            assert _element_bits(eval_weil(tree, point)) == _element_bits(
                eval_weil(fresh, point))

    def test_a_repeat_at_one_point_computes_nothing(self, monkeypatch):
        e = parse(_GROWTH, 2)
        tree = add(diff(e, 0), mul(e, diff(e, 1)))
        p = _jet2_point([0.5, 1.0, 0.25], [1.5, -1.0, 0.5])
        first = eval_weil(tree, p)
        computed = _computed_values(monkeypatch)
        again = eval_weil(tree, p)
        assert computed == []
        assert _element_bits(again) == _element_bits(first)
        # a twin point at the same coordinates shares no value with p
        eval_weil(tree, APoint(p.algebra, p.coords))
        assert len(computed) == len(_nodes(tree))

    def test_the_shared_constants_take_each_algebra_in_turn(self):
        D, A = dual_numbers(), jets(2)
        for point, dim in ((APoint(D, (D.unit(),)), 2), (APoint(A, (A.unit(),)), 3),
                           (APoint(D, ()), 2), (APoint(A, ()), 3)):
            assert len(eval_weil(ZERO, point).coeffs) == dim
            assert len(eval_weil(ONE, point).coeffs) == dim

    def test_a_point_with_no_coordinates_keeps_its_algebra(self):
        D, A = dual_numbers(), jets(2)
        e = ConstA(A.element([1, 2, 3]))
        with pytest.raises(AlgebraMismatch, match="algebra constant does not match"):
            eval_weil(e, APoint(D, ()))
        with pytest.raises(AlgebraMismatch, match="live over different algebras"):
            AFunction(e, 0, A)(APoint(D, ()))
        assert eval_weil(e, APoint(A, ())) == A.element([1, 2, 3])

    def test_a_point_needs_an_algebra(self):
        with pytest.raises(AlgebraMismatch, match="a point needs an algebra"):
            APoint(None, ())
        with pytest.raises(AlgebraMismatch, match="a point needs an algebra"):
            APoint(None, (dual_numbers().unit(),))

    def test_there_is_one_point_class(self):
        assert weilc.APoint is weilc.prolongation.APoint is weilc.expr.APoint

    def test_a_kept_value_stays_out_of_copies(self, monkeypatch):
        e = parse(_GROWTH, 2)
        tree = add(diff(e, 0), mul(e, diff(e, 1)))
        p = _jet2_point([0.5, 1.0, 0.25], [1.5, -1.0, 0.5])
        value = eval_weil(tree, p)
        for twin in (copy.deepcopy(tree), pickle.loads(pickle.dumps(tree))):
            assert twin == tree and hash(twin) == hash(tree)
            assert not hasattr(twin, "_value")
            computed = _computed_values(monkeypatch)
            assert _element_bits(eval_weil(twin, p)) == _element_bits(value)
            # the copy's first evaluation computes every one of its nodes
            assert {id(node) for node, _, _ in computed} == set(_nodes(twin))
            assert len(computed) == len(_nodes(twin))
            monkeypatch.undo()


def test_form_evaluate_matches_eval_weil(monkeypatch):
    # the coefficients share a subtree: each value is eval_weil's on a fresh
    # copy of the coefficient, bit for bit
    p = _jet2_point([0.5, 1.0, 0.25], [1.5, -1.0, 0.5], [-0.5, 0.25, 1.0])
    A = p.algebra
    shared = parse(_GROWTH, 2)
    t = ConstA(A.generator("t"))
    form = CoordForm(1, 3, A, {(0,): shared, (1,): mul(shared, Var(0)),
                               (2,): add(shared, mul(t, Var(2)))})
    values = form.evaluate(p)
    assert list(values) == list(form.coeffs)
    assert {idx: _element_bits(v) for idx, v in values.items()} == {
        idx: _element_bits(eval_weil(copy.deepcopy(c), p))
        for idx, c in form.coeffs.items()}
    # the first error raised is that of the first coefficient that raises
    zero_div, bad_log = div(ONE, sub(Var(0), Var(0))), parse("log(x1 - x1 - 1)", 3)
    bad = CoordForm(1, 3, A, {(0,): shared, (1,): zero_div, (2,): bad_log})
    first = _outcome(eval_weil, zero_div, p)
    assert first[0] == "error"
    assert _outcome(bad.evaluate, p) == first
    assert _outcome(bad.evaluate, APoint(A, p.coords)) == first
    # at a new point, each shared node is computed once per call
    nodes = {}
    for c in form.coeffs.values():
        nodes.update(_nodes(c))
    for _ in range(2):
        computed = _computed_values(monkeypatch)
        assert form.evaluate(APoint(A, p.coords)) == values
        assert len(computed) == len(nodes)
        assert {id(node) for node, _, _ in computed} == set(nodes)
        monkeypatch.undo()


def test_no_value_is_computed_twice_at_a_point(monkeypatch):
    # every registered suite that evaluates over an algebra, poisson_full
    # with so3 over jet2: the suites evaluate the same subtrees again and
    # again at one trial's point.  jacobi evaluates with eval_real only, and
    # its exact path evaluates nothing
    counts = []
    for _ in range(2):
        run = {}
        for suite in (suite for suite in SUITES if suite != "jacobi"):
            computed = _computed_values(monkeypatch)
            if suite == "poisson_full":
                run_suite(suite, 42, 3, 1e-9, pi=so3_structure(), algebra=jets(2))
            else:
                run_suite(suite, 42, 3, 1e-9)
            pairs = {(id(e), id(algebra), *map(id, coords))
                     for e, coords, algebra in computed}
            assert len(pairs) == len(computed) > 0, suite
            run[suite] = len(computed)
            monkeypatch.undo()
        counts.append(run)
    # fresh trees each run: the same work, counted deterministically
    assert counts[0] == counts[1]


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
        e = Apply(PRIMITIVES[wrap], e)
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
    warm=st.lists(st.tuples(st.integers(0, 2**16), st.integers(0, 2)), max_size=6),
)
def test_walks_match_tree_recursions(seed, n, wrap, consta, order, xs, short, warm):
    rng, algebra, e, replacements = _build(seed, n, wrap, consta)
    xs = xs[:n]
    if short:
        # too few components for the highest variable: DimensionMismatch
        replacements = replacements[:-1]
    point = APoint(algebra, (c + x for c, x in zip(random_point(rng, algebra, n).coords, xs)))

    # differentiate random subtrees first, in random index order: a warm
    # cache must give the trees and strings a cold one gives
    nodes = [node for level in _ref_levels(e) for node in level]
    for k, i in warm:
        diff(nodes[k % len(nodes)], i % n)

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
        _same(_outcome(eval_weil, new, point), _outcome(_ref_eval_weil, ref, point),
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
    point = APoint(algebra, (c + x for c, x in zip(random_point(rng, algebra, 2).coords, xs)))
    for i in order:
        e = diff(e, i)
    _same(_outcome(eval_weil, e, point), _outcome(_ref_eval_weil, e, point),
          _element_bits)


def test_a_real_constant_evaluates_to_floats():
    # ConstR keeps what it is given; the walk's list holds floats all the same
    for algebra in (trivial_algebra(), jets(2)):
        value = eval_weil(ConstR(1), APoint(algebra, ()))
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


@settings(max_examples=120, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    wrap=st.sampled_from(["plain", "exp", "tan", "log", "sqrt"]),
    order=st.lists(st.integers(0, 1), min_size=1, max_size=3),
)
def test_a_tree_with_no_quotient_has_the_plain_derivatives(seed, wrap, order):
    # diff shares the factors the plain rules build again: equal trees, and
    # values equal to the bit
    rng = rng_for(seed)
    e = random_expr(rng, 2, depth=3)
    if wrap != "plain":
        e = Apply(PRIMITIVES[wrap], e)
    point = random_point(rng, jets(2) if seed % 2 else trivial_algebra(), 2)
    xs = list(point.base_point())
    if wrap in ("log", "sqrt"):
        # their first partial holds a quotient, which the next one differentiates
        order = order[:1]
    new = plain = e
    for i in order:
        new, plain = diff(new, i), _plain_diff(plain, i)
        assert new == plain
        assert to_string(new) == _ref_to_string(plain)
        _same(_outcome(eval_real, new, xs), _outcome(eval_real, plain, xs), float.hex)
        _same(_outcome(eval_weil, new, point), _outcome(eval_weil, plain, point),
              _element_bits)


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
        for built in (Neg(r), Pow(r, 3), Apply(PRIMITIVES["exp"], r)):
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
    tokens = _tokenize(text)
    end = _error(text, len(text), "end")
    if str(end) != f"end (at position {len(text)})":
        raise end
    kinds = [
        "num" if t[0] in "0123456789." else "ident" if t[0].isalpha() or t[0] == "_" else "op"
        for t in tokens
    ]
    positions = [_fail(text, tokens, k, "").position for k in range(len(tokens))]
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
            st.tuples(st.sampled_from(sorted(PRIMITIVES)), inner).map(lambda t: f"{t[0]}({t[1]})"),
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
    total = st.integers(MAX_DEPTH - 2, MAX_DEPTH + 2)
    return st.one_of(
        st.tuples(st.sampled_from(shapes), total).map(lambda t: t[0](t[1])),
        st.builds(_regrouped, total, st.integers(1, MAX_DEPTH - 2), st.integers(0, MAX_DEPTH),
                  st.sampled_from(["(", "sin("]), st.sampled_from(["(", "sin("]),
                  st.sampled_from(["(", "sin(", "-"])),
    )


def _regrouped(total, d, signs, first, second, wrapper):
    """A group of internal nesting d at nest 1, then the same group, opened
    as a parenthesis or a call, under total - d wrappers: parse reuses it
    only while it nests within MAX_DEPTH."""
    signs = min(signs, d - 1)
    inner = "-" * signs + "(" * (d - 1 - signs) + "x1" + ")" * (d - 1 - signs) + ")"
    k = total - d
    return f"{first}{inner} * {wrapper * k}{second}{inner}{')' * k * (wrapper != '-')}"


def _repeated_texts():
    # a drawn text repeated as a parenthesis and as a call argument
    return _grammar_texts().map(lambda g: f"({g})*sin({g}) - ({g})^2")


@settings(max_examples=500, deadline=None)
@given(
    st.one_of(_grammar_texts(), _repeated_texts(), _deep_texts()),
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
@example("(12)*(1 2)", 0, None)  # groups are told apart by their texts
@example(_regrouped(MAX_DEPTH + 1, 50, 0, "(", "(", "("), 0, None)  # a reuse past the bound
@example(_regrouped(MAX_DEPTH, 50, 20, "(", "sin(", "-"), 0, None)  # one within it
@example("(x1 + x2)*(x1 + x2 + x3)", 0, None)  # a read text that begins a longer group
@example("(x1 + (x2))*(x1 + (x2) + x3)", 0, None)
@example("(x1)*sin(x1", 0, None)  # a repeat never closed
@example("(x1)*(x1", 0, None)
@example("sin(x1 + (x2))*(x1 + (x2))", 0, None)  # a repeat at the end of the text
@example("((x1))*(((x1)) - ((x1)))", 0, None)
@example("(x1 + x2)*(x1 + x2) + y", 0, None)  # an error just after a skipped group
@example("sin((x1))*((x1)) ^ x", 0, None)
@example("(x1)*(x1)*(x1))", 0, None)
def test_parser_matches_the_recursive_descent(text, at, junk):
    if junk is not None:
        at %= len(text) + 1
        text = text[:at] + junk + text[at:]
    # equal trees, or the same class and message (which ends with the position)
    _same(_outcome(parse, text, 3), _outcome(_ref_parse, text, 3), key=lambda e: e)



# -- groups shared by the parser -----------------------------------------------------

# the growth templates of the symbolic benchmark at a=1.7, b=2.3, and the
# indices of their first five derivatives
_PRINTED = [
    ("sin(1.7*x1*x2)/(2.3 + x1^2)", (0, 0, 0, 0, 0)),
    ("exp(1.7*x1*x2)*cos(x1 + 2.3*x2)", (0, 1, 0, 1, 0)),
    ("log(2.3 + x1^2*x2)/(1.7 + 2 - x2)", (1, 0, 1, 0, 1)),
    ("tan(x1/2.3)*sqrt(1.7 + 1 + x2)", (0, 1, 0, 0, 1)),
]


def _printed_derivative(template, order):
    e = parse(template, 2)
    for i in order:
        e = diff(e, i)
    return e, to_string(e)


def _distinct(e):
    return {id(node): node for level in _ref_levels(e) for node in level}


@pytest.mark.parametrize(
    "template, order, bound",
    [
        # 456, 635, 706 and 75 distinct nodes when each partial built its own
        # chain-rule factor and the quotient rule squared its denominator; the
        # fourth had 67 while a quotient partial that folds to 0 stayed 0/v
        ("sin(1.7*x1*x2)/(2.3 + x1^2)", (0, 0, 0, 0, 0, 0), 169),
        ("exp(1.7*x1*x2)*cos(x1 + 2.3*x2)", (0, 1, 0, 1, 0, 1), 332),
        ("log(2.3 + x1^2*x2)/(1.7 + 2 - x2)", (1, 0, 1, 0, 1, 0), 434),
        ("tan(x1/2.3)*sqrt(1.7 + 1 + x2)", (0, 1, 0, 0, 1, 1), 37),
    ],
)
def test_a_sixth_derivative_stays_shared(template, order, bound):
    e = parse(template, 2)
    for i in order:
        e = diff(e, i)
    assert len(_distinct(e)) <= bound


class TestSharedGroups:
    """``parse`` parses the text of each parenthesized group or call
    argument once per call, so a repeated group is one node."""

    def test_a_call_argument_and_a_parenthesis_are_one_node(self):
        e = parse("sin(x1 + x2)*(x1 + x2)", 2)
        assert e.left.arg is e.right

    def test_tokens_not_characters_are_compared(self):
        # groups that differ only in their spaces parse to equal trees
        e = parse("(x1+x2)*(x1 + x2)", 2)
        assert e.left == e.right

    def test_nested_whitespace_variants_are_equal(self):
        e = parse("((x1+x2)*x3)*((x1 + x2) * x3)", 3)
        assert e.left == e.right
        # the inner group read in the first factor, skipped in the second
        e = parse("((x1+x2)*x3)*((x1+x2) * x3)", 3)
        assert e.left == e.right
        e = parse("(x1)*((x1)+x2)*((x1) + x2)", 2)
        assert e.left.right == e.right

    def test_the_memo_lives_for_one_call(self):
        first, second = parse("(x1 + x2)", 2), parse("(x1 + x2)", 2)
        assert first == second and first is not second

    @pytest.mark.parametrize("template, order", _PRINTED)
    def test_a_printed_derivative_parses_back_as_a_dag(self, template, order):
        e, text = _printed_derivative(template, order)
        parsed = parse(text, 2)
        # 17,373, 1,607, 5,046 and 201 distinct nodes without the sharing
        assert len(_distinct(parsed)) <= 2 * len(_distinct(e))
        ref = _ref_parse(text, 2)
        assert parsed == ref
        assert to_string(parsed) == to_string(ref) == text
        for i in (0, 1):
            assert diff(parsed, i) == diff(ref, i)
        for xs in ([0.3, -0.7], [-0.45, 0.2], [0.9, 0.55]):
            _same(_outcome(eval_real, parsed, xs), _outcome(eval_real, ref, xs),
                  key=lambda v: struct.pack("d", v))

    def test_parse_builds_each_binary_node_once(self, monkeypatch):
        # the printed 5th derivative of the first template: 41,143
        # characters, of which a parse without the sharing built 7,669
        # binary nodes
        _, text = _printed_derivative(*_PRINTED[0])
        built = []
        init = weilc.expr._Binary.__init__

        def counting(self, left, right):
            built.append(self)
            init(self, left, right)

        monkeypatch.setattr(weilc.expr._Binary, "__init__", counting)
        parsed = parse(text, 2)
        assert len(text) == 41_143
        assert len(built) == 125
        binary = {id(node) for node in _distinct(parsed).values()
                  if isinstance(node, weilc.expr._Binary)}
        assert binary == {id(node) for node in built}

    def test_a_repeated_group_is_skipped_untokenized(self, monkeypatch):
        # of the 41,143 characters of the printed 5th derivative, those of
        # each repeat of a group already read are not tokenized
        _, text = _printed_derivative(*_PRINTED[0])
        scanned = []
        tokenize = weilc.expr._tokenize

        def counting(text, start, end):
            scanned.append(end - start)
            return tokenize(text, start, end)

        monkeypatch.setattr(weilc.expr, "_tokenize", counting)
        parse(text, 2)
        assert sum(scanned) < len(text) / 10
