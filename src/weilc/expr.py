"""Expression trees for smooth functions on a chart, and their evaluation.

An expression over variables x1..xn denotes an element of C^inf(M) when it
contains no algebra-valued constants; evaluating it on a tuple of Weil
elements computes the prolonged function.  Allowing ConstA leaves extends
the same trees to the algebra-valued function class the rest of the
package works with.
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
    if isinstance(e, Var):
        return ONE if e.index == i else ZERO
    if isinstance(e, (ConstR, ConstA)):
        return ZERO
    if isinstance(e, Add):
        return add(diff(e.left, i), diff(e.right, i))
    if isinstance(e, Sub):
        return sub(diff(e.left, i), diff(e.right, i))
    if isinstance(e, Neg):
        return neg(diff(e.arg, i))
    if isinstance(e, Mul):
        return add(mul(diff(e.left, i), e.right), mul(e.left, diff(e.right, i)))
    if isinstance(e, Div):
        return div(
            sub(mul(diff(e.left, i), e.right), mul(e.left, diff(e.right, i))),
            power(e.right, 2),
        )
    if isinstance(e, Pow):
        return mul(
            mul(ConstR(float(e.exponent)), power(e.base, e.exponent - 1)),
            diff(e.base, i),
        )
    if isinstance(e, Apply):
        return mul(_CHAIN[e.fn.name](e.arg), diff(e.arg, i))
    raise TypeError(f"cannot differentiate {type(e).__name__}")


def substitute(e: Expr, replacements: Sequence[Expr]) -> Expr:
    """Replace x_(i+1) by replacements[i] everywhere, rebuilding folded."""
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
        return add(substitute(e.left, replacements), substitute(e.right, replacements))
    if isinstance(e, Sub):
        return sub(substitute(e.left, replacements), substitute(e.right, replacements))
    if isinstance(e, Mul):
        return mul(substitute(e.left, replacements), substitute(e.right, replacements))
    if isinstance(e, Div):
        return div(substitute(e.left, replacements), substitute(e.right, replacements))
    if isinstance(e, Neg):
        return neg(substitute(e.arg, replacements))
    if isinstance(e, Pow):
        return power(substitute(e.base, replacements), e.exponent)
    if isinstance(e, Apply):
        return Apply(e.fn, substitute(e.arg, replacements))
    raise TypeError(f"cannot substitute into {type(e).__name__}")


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
    value = _eval_weil(e, coords, algebra)
    # ring arithmetic overflows silently; one check here covers every path
    if not all(map(math.isfinite, value.coeffs.tolist())):
        raise DomainError(f"non-finite result {render_element(value)}")
    return value


def _eval_weil(e: Expr, coords, algebra: WeilAlgebra) -> WeilElement:
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
        return _eval_weil(e.left, coords, algebra) + _eval_weil(e.right, coords, algebra)
    if isinstance(e, Sub):
        return _eval_weil(e.left, coords, algebra) - _eval_weil(e.right, coords, algebra)
    if isinstance(e, Mul):
        return _eval_weil(e.left, coords, algebra) * _eval_weil(e.right, coords, algebra)
    if isinstance(e, Div):
        denom = _eval_weil(e.right, coords, algebra)
        return _eval_weil(e.left, coords, algebra) * taylor_lift(RECIPROCAL, denom)
    if isinstance(e, Neg):
        return -_eval_weil(e.arg, coords, algebra)
    if isinstance(e, Pow):
        return _eval_weil(e.base, coords, algebra) ** e.exponent
    if isinstance(e, Apply):
        return taylor_lift(e.fn, _eval_weil(e.arg, coords, algebra))
    raise TypeError(f"cannot evaluate {type(e).__name__}")


def eval_real(e: Expr, xs: Sequence[float]) -> float:
    """Plain real evaluation; the height-0 case of eval_weil."""
    value = _eval_real(e, xs)
    # float arithmetic overflows silently; one check here covers every path
    if not math.isfinite(value):
        raise DomainError(f"non-finite result {value}")
    return value


def _eval_real(e: Expr, xs: Sequence[float]) -> float:
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
        return _eval_real(e.left, xs) + _eval_real(e.right, xs)
    if isinstance(e, Sub):
        return _eval_real(e.left, xs) - _eval_real(e.right, xs)
    if isinstance(e, Mul):
        return _eval_real(e.left, xs) * _eval_real(e.right, xs)
    if isinstance(e, Div):
        denom = _eval_real(e.right, xs)
        if denom == 0.0:
            raise DomainError("division by zero")
        return _eval_real(e.left, xs) / denom
    if isinstance(e, Neg):
        return -_eval_real(e.arg, xs)
    if isinstance(e, Pow):
        base = _eval_real(e.base, xs)
        if base == 0.0 and e.exponent < 0:
            raise DomainError("zero raised to a negative power")
        try:
            return base**e.exponent
        except OverflowError as exc:
            raise DomainError(f"{base}^{e.exponent} overflows") from exc
    if isinstance(e, Apply):
        r = _eval_real(e.arg, xs)
        try:
            return e.fn.derivatives(r, 0)[0]
        except OverflowError as exc:
            raise DomainError(f"{e.fn.name} overflows at {r}") from exc
        except (ValueError, ZeroDivisionError) as exc:
            raise DomainError(f"{e.fn.name} undefined at {r}") from exc
    raise TypeError(f"cannot evaluate {type(e).__name__}")


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
                    self.tokens.append((kind, val, m.start(kind)))
            pos = m.end()
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


def _wrap(e: Expr, minimum: int) -> str:
    s = to_string(e)
    return f"({s})" if _precedence(e) < minimum else s


def to_string(e: Expr) -> str:
    """Render in the published grammar; parse(to_string(e)) == e for every
    tree the parser or diff can produce (signs live on literals, never as a
    Neg of a literal)."""
    if isinstance(e, Var):
        return f"x{e.index + 1}"
    if isinstance(e, ConstR):
        v = e.value
        return str(int(v)) if v.is_integer() and abs(v) < 1e16 else repr(v)
    if isinstance(e, ConstA):
        return f"[{e.value!r}]"
    if isinstance(e, Add):
        return f"{_wrap(e.left, _PREC_ADD)} + {_wrap(e.right, _PREC_ADD + 1)}"
    if isinstance(e, Sub):
        return f"{_wrap(e.left, _PREC_ADD)} - {_wrap(e.right, _PREC_ADD + 1)}"
    if isinstance(e, Mul):
        return f"{_wrap(e.left, _PREC_MUL)}*{_wrap(e.right, _PREC_MUL + 1)}"
    if isinstance(e, Div):
        return f"{_wrap(e.left, _PREC_MUL)}/{_wrap(e.right, _PREC_MUL + 1)}"
    if isinstance(e, Neg):
        return f"-{_wrap(e.arg, _PREC_NEG)}"
    if isinstance(e, Pow):
        return f"{_wrap(e.base, _PREC_ATOM)}^{e.exponent}"
    if isinstance(e, Apply):
        return f"{e.fn.name}({to_string(e.arg)})"
    raise TypeError(f"cannot print {type(e).__name__}")


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
