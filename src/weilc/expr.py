"""Expression trees for smooth functions on a chart, and their evaluation.

An expression over variables x1..xn denotes an element of C^inf(M) when it
contains no algebra-valued constants; evaluating it on a tuple of Weil
elements computes the prolonged function.  Allowing ConstA leaves extends
the same trees to the algebra-valued function class the rest of the
package works with.

Trees share subtrees: ``diff`` reuses the operands of a product or a
quotient, so its results are DAGs.  Each walk (``diff``, ``substitute``,
``eval_real``, ``eval_weil``, ``to_string``) visits a shared subexpression
once per call: a memo keyed by node identity, and dropped when the call
returns, holds each node's first result.  The visiting order is that of
the tree walk, so results and the first error raised are the same.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from typing import Iterator, Sequence

from .algebra import (
    PRIMITIVES,
    RECIPROCAL,
    PrimitiveFn,
    WeilAlgebra,
    WeilElement,
    render_element,
    taylor_lift,
)
from .errors import (
    AlgebraMismatch,
    DimensionMismatch,
    DomainError,
    ParseError,
    UnknownSymbol,
)


class Expr:
    """Base node.  Arithmetic operators build folded trees."""

    __slots__ = ()

    def _coerce(self, other) -> "Expr | None":
        if isinstance(other, Expr):
            return other
        if isinstance(other, (int, float)):
            return ConstR(float(other))
        if isinstance(other, WeilElement):
            return ConstA(other)
        return None

    def __add__(self, other):
        o = self._coerce(other)
        return add(self, o) if o is not None else NotImplemented

    def __radd__(self, other):
        o = self._coerce(other)
        return add(o, self) if o is not None else NotImplemented

    def __sub__(self, other):
        o = self._coerce(other)
        return sub(self, o) if o is not None else NotImplemented

    def __rsub__(self, other):
        o = self._coerce(other)
        return sub(o, self) if o is not None else NotImplemented

    def __mul__(self, other):
        o = self._coerce(other)
        return mul(self, o) if o is not None else NotImplemented

    def __rmul__(self, other):
        o = self._coerce(other)
        return mul(o, self) if o is not None else NotImplemented

    def __truediv__(self, other):
        o = self._coerce(other)
        return div(self, o) if o is not None else NotImplemented

    def __rtruediv__(self, other):
        o = self._coerce(other)
        return div(o, self) if o is not None else NotImplemented

    def __pow__(self, k):
        return power(self, k) if isinstance(k, int) else NotImplemented

    def __neg__(self):
        return neg(self)

    def __repr__(self):
        return to_string(self)


@dataclass(frozen=True, repr=False)
class Var(Expr):
    index: int


@dataclass(frozen=True, repr=False)
class ConstR(Expr):
    value: float


@dataclass(frozen=True, repr=False)
class ConstA(Expr):
    value: WeilElement


@dataclass(frozen=True, repr=False)
class Add(Expr):
    left: Expr
    right: Expr


@dataclass(frozen=True, repr=False)
class Sub(Expr):
    left: Expr
    right: Expr


@dataclass(frozen=True, repr=False)
class Mul(Expr):
    left: Expr
    right: Expr


@dataclass(frozen=True, repr=False)
class Div(Expr):
    left: Expr
    right: Expr


@dataclass(frozen=True, repr=False)
class Neg(Expr):
    arg: Expr


@dataclass(frozen=True, repr=False)
class Pow(Expr):
    base: Expr
    exponent: int


@dataclass(frozen=True, repr=False)
class Apply(Expr):
    fn: PrimitiveFn
    arg: Expr


ZERO = ConstR(0.0)
ONE = ConstR(1.0)


def _is_const(e: Expr, v: float) -> bool:
    return isinstance(e, ConstR) and e.value == v


# -- folding constructors (constant folding and 0/1 identities only) ------------


def add(a: Expr, b: Expr) -> Expr:
    if isinstance(a, ConstR) and isinstance(b, ConstR):
        return ConstR(a.value + b.value)
    if _is_const(a, 0.0):
        return b
    if _is_const(b, 0.0):
        return a
    return Add(a, b)


def sub(a: Expr, b: Expr) -> Expr:
    if isinstance(a, ConstR) and isinstance(b, ConstR):
        return ConstR(a.value - b.value)
    if _is_const(b, 0.0):
        return a
    if _is_const(a, 0.0):
        return neg(b)
    return Sub(a, b)


def mul(a: Expr, b: Expr) -> Expr:
    if isinstance(a, ConstR) and isinstance(b, ConstR):
        return ConstR(a.value * b.value)
    if _is_const(a, 0.0) or _is_const(b, 0.0):
        return ZERO
    if _is_const(a, 1.0):
        return b
    if _is_const(b, 1.0):
        return a
    return Mul(a, b)


def div(a: Expr, b: Expr) -> Expr:
    if isinstance(a, ConstR) and isinstance(b, ConstR) and b.value != 0.0:
        return ConstR(a.value / b.value)
    if _is_const(b, 1.0):
        return a
    return Div(a, b)


def neg(a: Expr) -> Expr:
    if isinstance(a, ConstR):
        return ConstR(-a.value)
    return Neg(a)


def power(base: Expr, k: int) -> Expr:
    if k == 0:
        return ONE
    if k == 1:
        return base
    if isinstance(base, ConstR) and (base.value != 0.0 or k > 0):
        try:
            return ConstR(base.value**k)
        except OverflowError:
            return Pow(base, k)
    return Pow(base, k)


# -- structure queries -----------------------------------------------------------


def _levels(e: Expr) -> Iterator[list[Expr]]:
    """The nodes of the tree level by level, root first; iterative, so that
    a deep tree costs no stack."""
    level = [e]
    while level:
        yield level
        below: list[Expr] = []
        for node in level:
            # exact types (no node class is subclassed): cheaper than isinstance
            kind = type(node)
            if kind in (Add, Sub, Mul, Div):
                below += (node.left, node.right)
            elif kind is Neg or kind is Apply:
                below.append(node.arg)
            elif kind is Pow:
                below.append(node.base)
        level = below


def contains_consta(e: Expr) -> bool:
    return any(isinstance(n, ConstA) for level in _levels(e) for n in level)


def consta_algebra(e: Expr) -> WeilAlgebra | None:
    """The unique algebra of the ConstA leaves, or None; mixing raises."""
    found: WeilAlgebra | None = None
    for node in (n for level in _levels(e) for n in level):
        if isinstance(node, ConstA):
            if found is None:
                found = node.value.algebra
            elif node.value.algebra is not found:
                raise AlgebraMismatch("expression mixes constants of two algebras")
    return found


def max_var_index(e: Expr) -> int:
    """Largest variable index used, or -1 for a closed expression."""
    indices = (n.index for level in _levels(e) for n in level if isinstance(n, Var))
    return max(indices, default=-1)


# -- differentiation --------------------------------------------------------------

_CHAIN = {
    "exp": lambda u: Apply(PRIMITIVES["exp"], u),
    "log": lambda u: div(ONE, u),
    "sin": lambda u: Apply(PRIMITIVES["cos"], u),
    "cos": lambda u: neg(Apply(PRIMITIVES["sin"], u)),
    "tan": lambda u: add(ONE, power(Apply(PRIMITIVES["tan"], u), 2)),
    "sqrt": lambda u: div(ConstR(0.5), Apply(PRIMITIVES["sqrt"], u)),
    "recip": lambda u: neg(div(ONE, power(u, 2))),
}


def diff(e: Expr, i: int) -> Expr:
    """Partial derivative with respect to x_(i+1); ConstA leaves are constants."""
    return _diff(e, i, {})


def _diff(e: Expr, i: int, memo: dict) -> Expr:
    kind = type(e)
    if kind is Var:
        return ONE if e.index == i else ZERO
    if kind is ConstR or kind is ConstA:
        return ZERO
    key = id(e)
    d = memo.get(key)
    if d is not None:
        return d
    if kind is Add:
        d = add(_diff(e.left, i, memo), _diff(e.right, i, memo))
    elif kind is Sub:
        d = sub(_diff(e.left, i, memo), _diff(e.right, i, memo))
    elif kind is Neg:
        d = neg(_diff(e.arg, i, memo))
    elif kind is Mul:
        d = add(mul(_diff(e.left, i, memo), e.right), mul(e.left, _diff(e.right, i, memo)))
    elif kind is Div:
        d = div(
            sub(mul(_diff(e.left, i, memo), e.right), mul(e.left, _diff(e.right, i, memo))),
            power(e.right, 2),
        )
    elif kind is Pow:
        d = mul(
            mul(ConstR(float(e.exponent)), power(e.base, e.exponent - 1)),
            _diff(e.base, i, memo),
        )
    elif kind is Apply:
        d = mul(_CHAIN[e.fn.name](e.arg), _diff(e.arg, i, memo))
    else:
        raise TypeError(f"cannot differentiate {kind.__name__}")
    memo[key] = d
    return d


def substitute(e: Expr, replacements: Sequence[Expr]) -> Expr:
    """Replace x_(i+1) by replacements[i] everywhere, rebuilding folded."""
    return _substitute(e, replacements, {})


def _substitute(e: Expr, replacements: Sequence[Expr], memo: dict) -> Expr:
    kind = type(e)
    if kind is Var:
        if e.index >= len(replacements):
            raise DimensionMismatch(
                f"substitution provides {len(replacements)} components, "
                f"expression uses x{e.index + 1}"
            )
        return replacements[e.index]
    if kind is ConstR or kind is ConstA:
        return e
    key = id(e)
    out = memo.get(key)
    if out is not None:
        return out
    if kind is Add:
        out = add(_substitute(e.left, replacements, memo),
                  _substitute(e.right, replacements, memo))
    elif kind is Sub:
        out = sub(_substitute(e.left, replacements, memo),
                  _substitute(e.right, replacements, memo))
    elif kind is Mul:
        out = mul(_substitute(e.left, replacements, memo),
                  _substitute(e.right, replacements, memo))
    elif kind is Div:
        out = div(_substitute(e.left, replacements, memo),
                  _substitute(e.right, replacements, memo))
    elif kind is Neg:
        out = neg(_substitute(e.arg, replacements, memo))
    elif kind is Pow:
        out = power(_substitute(e.base, replacements, memo), e.exponent)
    elif kind is Apply:
        out = Apply(e.fn, _substitute(e.arg, replacements, memo))
    else:
        raise TypeError(f"cannot substitute into {kind.__name__}")
    memo[key] = out
    return out


# -- evaluation --------------------------------------------------------------------


def _point_coords(point) -> tuple[WeilElement, ...]:
    coords = getattr(point, "coords", point)
    return tuple(coords)


def eval_weil(e: Expr, point, algebra: WeilAlgebra | None = None) -> WeilElement:
    """Evaluate over a tuple of Weil elements (one per chart coordinate).

    For a ConstA-free expression f this computes the prolongation of f at
    the given point; the recursion realizes the homomorphism laws
    eval(f+g) = eval(f)+eval(g) and eval(f*g) = eval(f)*eval(g).
    """
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
    value = _eval_weil(e, coords, algebra, {})
    # ring arithmetic overflows silently; one check here covers every path
    if not all(map(math.isfinite, value.coeffs.tolist())):
        raise DomainError(f"non-finite result {render_element(value)}")
    return value


def _eval_weil(e: Expr, coords, algebra: WeilAlgebra, memo: dict) -> WeilElement:
    kind = type(e)
    if kind is Var:
        if e.index >= len(coords):
            raise DimensionMismatch(
                f"x{e.index + 1} evaluated at a {len(coords)}-coordinate point"
            )
        return coords[e.index]
    if kind is ConstA:
        if e.value.algebra is not algebra:
            raise AlgebraMismatch("algebra constant does not match the point")
        return e.value
    key = id(e)
    value = memo.get(key)
    if value is not None:
        return value
    if kind is ConstR:
        value = algebra.from_real(e.value)
    elif kind is Add:
        value = _eval_weil(e.left, coords, algebra, memo) + _eval_weil(
            e.right, coords, algebra, memo)
    elif kind is Sub:
        value = _eval_weil(e.left, coords, algebra, memo) - _eval_weil(
            e.right, coords, algebra, memo)
    elif kind is Mul:
        value = _eval_weil(e.left, coords, algebra, memo) * _eval_weil(
            e.right, coords, algebra, memo)
    elif kind is Div:
        denom = _eval_weil(e.right, coords, algebra, memo)
        value = _eval_weil(e.left, coords, algebra, memo) * taylor_lift(RECIPROCAL, denom)
    elif kind is Neg:
        value = -_eval_weil(e.arg, coords, algebra, memo)
    elif kind is Pow:
        value = _eval_weil(e.base, coords, algebra, memo) ** e.exponent
    elif kind is Apply:
        value = taylor_lift(e.fn, _eval_weil(e.arg, coords, algebra, memo))
    else:
        raise TypeError(f"cannot evaluate {kind.__name__}")
    memo[key] = value
    return value


def eval_real(e: Expr, xs: Sequence[float]) -> float:
    """Plain real evaluation; the height-0 case of eval_weil."""
    value = _eval_real(e, xs, {})
    # float arithmetic overflows silently; one check here covers every path
    if not math.isfinite(value):
        raise DomainError(f"non-finite result {value}")
    return value


def _eval_real(e: Expr, xs: Sequence[float], memo: dict) -> float:
    kind = type(e)
    if kind is Var:
        if e.index >= len(xs):
            raise DimensionMismatch(
                f"x{e.index + 1} evaluated at a {len(xs)}-coordinate point"
            )
        return float(xs[e.index])
    if kind is ConstR:
        return e.value
    key = id(e)
    value = memo.get(key)
    if value is not None:
        return value
    if kind is Add:
        value = _eval_real(e.left, xs, memo) + _eval_real(e.right, xs, memo)
    elif kind is Sub:
        value = _eval_real(e.left, xs, memo) - _eval_real(e.right, xs, memo)
    elif kind is Mul:
        value = _eval_real(e.left, xs, memo) * _eval_real(e.right, xs, memo)
    elif kind is Div:
        denom = _eval_real(e.right, xs, memo)
        if denom == 0.0:
            raise DomainError("division by zero")
        value = _eval_real(e.left, xs, memo) / denom
    elif kind is Neg:
        value = -_eval_real(e.arg, xs, memo)
    elif kind is Pow:
        base = _eval_real(e.base, xs, memo)
        if base == 0.0 and e.exponent < 0:
            raise DomainError("zero raised to a negative power")
        try:
            value = base**e.exponent
        except OverflowError as exc:
            raise DomainError(f"{base}^{e.exponent} overflows") from exc
    elif kind is Apply:
        r = _eval_real(e.arg, xs, memo)
        try:
            value = e.fn.derivatives(r, 0)[0]
        except OverflowError as exc:
            raise DomainError(f"{e.fn.name} overflows at {r}") from exc
        except (ValueError, ZeroDivisionError) as exc:
            raise DomainError(f"{e.fn.name} undefined at {r}") from exc
    elif kind is ConstA:
        if e.value.algebra.dim != 1:
            raise AlgebraMismatch("algebra constant in real evaluation")
        value = e.value.real
    else:
        raise TypeError(f"cannot evaluate {kind.__name__}")
    memo[key] = value
    return value


# -- parsing -----------------------------------------------------------------------

FUNCTIONS = {name: PRIMITIVES[name] for name in ("exp", "log", "sin", "cos", "tan", "sqrt")}

_TOKEN = re.compile(
    r"\s*(?:(?P<num>(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?)"
    r"|(?P<ident>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<op>[-+*/^()]))"
)

_VAR = re.compile(r"x([1-9]\d*)$")

# deepest nesting (signs and parentheses), and deepest tree, that parse
# accepts; the printer, the evaluators and diff recurse once per tree level
MAX_DEPTH = 100


class _Parser:
    def __init__(self, text: str, n: int):
        self.text = text
        self.n = n
        self.tokens: list[tuple[str, str, int]] = []
        pos = 0
        for m in _TOKEN.finditer(text):
            # finditer skips what no token matches: a gap ends the token run
            if m.start() != pos:
                break
            kind = m.lastgroup
            self.tokens.append((kind, m.group(kind), m.start(kind)))
            pos = m.end()
        stripped = text[pos:].lstrip()
        if stripped:
            raise ParseError(f"unexpected character {stripped[0]!r}", pos)
        self.tokens.append(("end", "", len(text)))
        self.i = 0
        self.depth = 0

    def peek(self):
        return self.tokens[self.i]

    def next(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect_op(self, op: str):
        kind, val, pos = self.next()
        if kind != "op" or val != op:
            raise ParseError(f"expected {op!r}", pos)

    def parse(self) -> Expr:
        e = self.expression()
        kind, val, pos = self.peek()
        if kind != "end":
            raise ParseError(f"unexpected {val!r}", pos)
        return e

    def expression(self) -> Expr:
        e = self.term()
        while True:
            kind, val, _ = self.peek()
            if kind == "op" and val in "+-":
                self.next()
                rhs = self.term()
                e = Add(e, rhs) if val == "+" else Sub(e, rhs)
            else:
                return e

    def term(self) -> Expr:
        e = self.unary()
        while True:
            kind, val, _ = self.peek()
            if kind == "op" and val in "*/":
                self.next()
                rhs = self.unary()
                e = Mul(e, rhs) if val == "*" else Div(e, rhs)
            else:
                return e

    def nested(self, production) -> Expr:
        # the parser recurses only here: into a sign's operand or parentheses
        self.depth += 1
        if self.depth > MAX_DEPTH:
            raise ParseError(f"expression nests deeper than {MAX_DEPTH}", self.peek()[2])
        e = production()
        self.depth -= 1
        return e

    def unary(self) -> Expr:
        kind, val, _ = self.peek()
        if kind == "op" and val == "-":
            self.next()
            inner = self.nested(self.unary)
            # fold a sign applied directly to a literal, so that printed
            # negative constants reparse to themselves
            if isinstance(inner, ConstR):
                return ConstR(-inner.value)
            return Neg(inner)
        return self.power()

    def power(self) -> Expr:
        e = self.atom()
        while True:
            kind, val, _ = self.peek()
            if kind == "op" and val == "^":
                self.next()
                e = Pow(e, self.exponent())
            else:
                return e

    def exponent(self) -> int:
        sign = 1
        kind, val, pos = self.peek()
        if kind == "op" and val == "-":
            self.next()
            sign = -1
            kind, val, pos = self.peek()
        if kind != "num" or not re.fullmatch(r"\d+", val):
            raise ParseError("expected an integer exponent", pos)
        self.next()
        return sign * int(val)

    def atom(self) -> Expr:
        kind, val, pos = self.next()
        if kind == "num":
            return ConstR(float(val))
        if kind == "ident":
            m = _VAR.match(val)
            if m is not None:
                idx = int(m.group(1))
                if idx > self.n:
                    raise UnknownSymbol(
                        f"variable {val!r} exceeds chart dimension {self.n}", pos
                    )
                return Var(idx - 1)
            nxt_kind, nxt_val, _ = self.peek()
            if nxt_kind == "op" and nxt_val == "(":
                if val not in FUNCTIONS:
                    raise UnknownSymbol(f"unknown function {val!r}", pos)
                self.next()
                arg = self.nested(self.expression)
                self.expect_op(")")
                return Apply(FUNCTIONS[val], arg)
            raise UnknownSymbol(f"unknown identifier {val!r}", pos)
        if kind == "op" and val == "(":
            e = self.nested(self.expression)
            self.expect_op(")")
            return e
        if kind == "end":
            raise ParseError("unexpected end of input", pos)
        raise ParseError(f"unexpected {val!r}", pos)


def parse(text: str, n: int) -> Expr:
    """Parse an expression over x1..xn.  Raises ParseError / UnknownSymbol,
    and ParseError for a tree deeper than MAX_DEPTH (a long sum included)."""
    parser = _Parser(text, n)
    e = parser.parse()
    # each node takes at least one token, so a short text needs no walk
    if len(parser.tokens) > MAX_DEPTH and sum(1 for _ in _levels(e)) > MAX_DEPTH:
        raise ParseError(f"expression tree is deeper than {MAX_DEPTH}", 0)
    return e


# -- printing ----------------------------------------------------------------------

_PREC_ADD, _PREC_MUL, _PREC_NEG, _PREC_POW, _PREC_ATOM = 1, 2, 3, 4, 5


def _precedence(e: Expr) -> int:
    if isinstance(e, (Add, Sub)):
        return _PREC_ADD
    if isinstance(e, (Mul, Div)):
        return _PREC_MUL
    if isinstance(e, Neg):
        return _PREC_NEG
    if isinstance(e, ConstR) and e.value < 0:
        return _PREC_NEG  # prints with a leading sign
    if isinstance(e, Pow):
        return _PREC_POW
    return _PREC_ATOM


def _wrap(e: Expr, minimum: int, memo: dict) -> str:
    s = _to_string(e, memo)
    return f"({s})" if _precedence(e) < minimum else s


def to_string(e: Expr) -> str:
    """Render in the published grammar; parse(to_string(e)) == e for every
    tree the parser or diff can produce (signs live on literals, never as a
    Neg of a literal)."""
    return _to_string(e, {})


def _to_string(e: Expr, memo: dict) -> str:
    kind = type(e)
    if kind is Var:
        return f"x{e.index + 1}"
    if kind is ConstR:
        v = e.value
        return str(int(v)) if v.is_integer() and abs(v) < 1e16 else repr(v)
    key = id(e)
    s = memo.get(key)
    if s is not None:
        return s
    if kind is Add:
        s = f"{_wrap(e.left, _PREC_ADD, memo)} + {_wrap(e.right, _PREC_ADD + 1, memo)}"
    elif kind is Sub:
        s = f"{_wrap(e.left, _PREC_ADD, memo)} - {_wrap(e.right, _PREC_ADD + 1, memo)}"
    elif kind is Mul:
        s = f"{_wrap(e.left, _PREC_MUL, memo)}*{_wrap(e.right, _PREC_MUL + 1, memo)}"
    elif kind is Div:
        s = f"{_wrap(e.left, _PREC_MUL, memo)}/{_wrap(e.right, _PREC_MUL + 1, memo)}"
    elif kind is Neg:
        s = f"-{_wrap(e.arg, _PREC_NEG, memo)}"
    elif kind is Pow:
        s = f"{_wrap(e.base, _PREC_ATOM, memo)}^{e.exponent}"
    elif kind is Apply:
        s = f"{e.fn.name}({_to_string(e.arg, memo)})"
    elif kind is ConstA:
        s = f"[{e.value!r}]"
    else:
        raise TypeError(f"cannot print {kind.__name__}")
    memo[key] = s
    return s


# -- algebra-valued functions -------------------------------------------------------


@dataclass(frozen=True, repr=False)
class AFunction:
    """An expression together with its chart dimension and value algebra."""

    expr: Expr
    dim: int
    algebra: WeilAlgebra

    def __post_init__(self):
        found = consta_algebra(self.expr)
        if found is not None and found is not self.algebra:
            raise AlgebraMismatch("expression constants disagree with the algebra")
        if max_var_index(self.expr) >= self.dim:
            raise DimensionMismatch(
                f"expression uses x{max_var_index(self.expr) + 1} "
                f"on a chart of dimension {self.dim}"
            )

    def __call__(self, point) -> WeilElement:
        coords = _point_coords(point)
        if len(coords) != self.dim:
            raise DimensionMismatch(
                f"point has {len(coords)} coordinates, chart has {self.dim}"
            )
        return eval_weil(self.expr, coords, self.algebra)

    def partial(self, i: int) -> "AFunction":
        return AFunction(diff(self.expr, i), self.dim, self.algebra)

    def _combine(self, other, op) -> "AFunction":
        if isinstance(other, AFunction) and other.dim != self.dim:
            raise DimensionMismatch("functions over different charts")
        try:
            expr = scalar_expr(other, self.algebra)
        except TypeError:
            return NotImplemented
        return AFunction(op(self.expr, expr), self.dim, self.algebra)

    def __add__(self, other):
        return self._combine(other, add)

    def __radd__(self, other):
        return self._combine(other, lambda a, b: add(b, a))

    def __sub__(self, other):
        return self._combine(other, sub)

    def __rsub__(self, other):
        return self._combine(other, lambda a, b: sub(b, a))

    def __mul__(self, other):
        return self._combine(other, mul)

    def __rmul__(self, other):
        return self._combine(other, lambda a, b: mul(b, a))

    def __neg__(self):
        return AFunction(neg(self.expr), self.dim, self.algebra)

    def __repr__(self):
        return f"AFunction({to_string(self.expr)} over {self.algebra.describe()})"


def scalar_expr(value, algebra: WeilAlgebra) -> Expr:
    """The expression of a scalar over ``algebra``: an AFunction, a Weil
    element, a real number or an Expr.  Raises AlgebraMismatch when the
    scalar lives over another algebra, TypeError for any other type."""
    if isinstance(value, AFunction):
        found, expr = value.algebra, value.expr
    elif isinstance(value, WeilElement):
        found, expr = value.algebra, ConstA(value)
    elif isinstance(value, (int, float)):
        return ConstR(float(value))
    elif isinstance(value, Expr):
        found, expr = consta_algebra(value), value
    else:
        raise TypeError(f"{type(value).__name__} is not a scalar")
    if found is not None and found is not algebra:
        raise AlgebraMismatch("scalar over a different algebra")
    return expr


def prolong_function(f: Expr, dim: int, algebra: WeilAlgebra) -> AFunction:
    """Reinterpret a base-chart function for Weil evaluation (f to f^A)."""
    if contains_consta(f):
        raise AlgebraMismatch("only ConstA-free functions can be prolonged")
    return AFunction(f, dim, algebra)
