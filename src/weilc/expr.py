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

Each operand rule of the package is stated here once, and reads the facts
each node holds (see ``Expr``) instead of walking a tree: ``on_chart``, the
coefficients of a function, field, form or bivector; ``chart_point``, its
points; ``same_chart``; ``require_base``; and ``scalar_expr``, its scalars.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, fields
from typing import Iterable, Sequence

from .algebra import (
    PRIMITIVES,
    RECIPROCAL,
    PrimitiveFn,
    WeilAlgebra,
    WeilElement,
    _lift,
    _power,
    render_element,
)
from .errors import (
    AlgebraMismatch,
    DimensionMismatch,
    DomainError,
    ParseError,
    UnknownSymbol,
    WeilcError,
)


class Expr:
    """Base node.  Arithmetic operators build folded trees.

    Each node keeps ``facts``, the ``(depth, top, algebra)`` of its tree, set
    once when it is built: the number of levels, the largest variable index
    (-1 for none) and the algebra of the ConstA leaves (None for none).
    Constants over two algebras raise AlgebraMismatch."""

    __slots__ = ("facts",)
    depth = property(lambda self: self.facts[0])
    top = property(lambda self: self.facts[1])
    algebra = property(lambda self: self.facts[2])

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

    def __reduce__(self):
        # rebuilt through the constructor: frozen slots refuse a restored state
        return type(self), tuple(getattr(self, f.name) for f in fields(self))


@dataclass(frozen=True, init=False, repr=False)
class Var(Expr):
    __slots__ = ("index",)
    index: int

    def __init__(self, index: int):
        _set_index(self, index)
        _set_facts(self, (1, index, None))


@dataclass(frozen=True, repr=False)
class ConstR(Expr):
    __slots__ = ("value",)
    facts = (1, -1, None)
    value: float


@dataclass(frozen=True, repr=False)
class ConstA(Expr):
    __slots__ = ("value",)
    value: WeilElement

    def __post_init__(self):
        _set_facts(self, (1, -1, self.value.algebra))


@dataclass(frozen=True, init=False, repr=False)
class _Binary(Expr):
    __slots__ = ("left", "right")
    left: Expr
    right: Expr

    def __init__(self, left: Expr, right: Expr):
        # the facts inline, with no call: every arithmetic step builds one
        depth, top, algebra = left.facts
        right_depth, right_top, right_algebra = right.facts
        if right_depth > depth:
            depth = right_depth
        if depth >= MAX_NODE_DEPTH:
            raise WeilcError(_TOO_DEEP)
        if right_algebra is not algebra and right_algebra is not None:
            if algebra is not None:
                raise AlgebraMismatch("expression mixes constants of two algebras")
            algebra = right_algebra
        _set_left(self, left)
        _set_right(self, right)
        _set_facts(self, (depth + 1, top if top > right_top else right_top, algebra))


@dataclass(frozen=True, init=False, repr=False)
class Add(_Binary):
    __slots__ = ()


@dataclass(frozen=True, init=False, repr=False)
class Sub(_Binary):
    __slots__ = ()


@dataclass(frozen=True, init=False, repr=False)
class Mul(_Binary):
    __slots__ = ()


@dataclass(frozen=True, init=False, repr=False)
class Div(_Binary):
    __slots__ = ()


# the one-operand nodes also set their facts inline
@dataclass(frozen=True, init=False, repr=False)
class Neg(Expr):
    __slots__ = ("arg",)
    arg: Expr

    def __init__(self, arg: Expr):
        depth, top, algebra = arg.facts
        if depth >= MAX_NODE_DEPTH:
            raise WeilcError(_TOO_DEEP)
        _set_arg(self, arg)
        _set_facts(self, (depth + 1, top, algebra))


@dataclass(frozen=True, init=False, repr=False)
class Pow(Expr):
    __slots__ = ("base", "exponent")
    base: Expr
    exponent: int

    def __init__(self, base: Expr, exponent: int):
        if type(exponent) is not int:
            raise WeilcError(f"exponent {exponent!r} is not an integer")
        depth, top, algebra = base.facts
        if depth >= MAX_NODE_DEPTH:
            raise WeilcError(_TOO_DEEP)
        _set_base(self, base)
        _set_exponent(self, exponent)
        _set_facts(self, (depth + 1, top, algebra))


@dataclass(frozen=True, init=False, repr=False)
class Apply(Expr):
    __slots__ = ("fn", "arg")
    fn: PrimitiveFn
    arg: Expr

    def __init__(self, fn: PrimitiveFn, arg: Expr):
        depth, top, algebra = arg.facts
        if depth >= MAX_NODE_DEPTH:
            raise WeilcError(_TOO_DEEP)
        _set_fn(self, fn)
        _set_apply_arg(self, arg)
        _set_facts(self, (depth + 1, top, algebra))


# frozen nodes refuse assignment, so constructors write through the slots
_set_facts, _set_index, _set_left, _set_right = (
    Expr.facts.__set__, Var.index.__set__, _Binary.left.__set__, _Binary.right.__set__)
_set_arg, _set_base, _set_exponent, _set_fn, _set_apply_arg = (
    Neg.arg.__set__, Pow.base.__set__, Pow.exponent.__set__, Apply.fn.__set__,
    Apply.arg.__set__)

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


# -- operand rules -----------------------------------------------------------


def require_base(exprs: Iterable[Expr], what: str):
    """The base rule: ``what`` (a function, form or map to be prolonged, or
    a function in the base bracket) holds no algebra constants."""
    for e in exprs:
        if e.algebra is not None:
            raise AlgebraMismatch(f"{what} must be ConstA-free")


def on_chart(exprs: Iterable[Expr], owner):
    """The coefficient rule: each of ``exprs`` has its constants over
    ``owner.algebra`` (none on a base object) and no variable beyond
    ``owner.dim``, on the chart of a function, field, form or bivector."""
    for e in exprs:
        if e.algebra is not None and e.algebra is not owner.algebra:
            raise AlgebraMismatch("expression constants disagree with the algebra")
        if e.top >= owner.dim:
            raise DimensionMismatch(
                f"expression uses x{e.top + 1} on a chart of dimension {owner.dim}"
            )


def chart_point(point, owner) -> tuple[WeilElement, ...]:
    """The point rule: the coordinates of ``point``, which has one for each
    chart coordinate of ``owner`` (a function, field, form or bivector)."""
    coords = _point_coords(point)
    if len(coords) != owner.dim:
        raise DimensionMismatch(
            f"point has {len(coords)} coordinates, chart has {owner.dim}"
        )
    return coords


def same_chart(*objs) -> WeilAlgebra | None:
    """The pair rule of every operation on functions, fields and forms: the
    operands share one algebra (None for base objects) and one chart
    dimension.  Returns the shared algebra."""
    first = objs[0]
    for other in objs[1:]:
        if other.algebra is not first.algebra:
            raise AlgebraMismatch("operands over different algebras")
        if other.dim != first.dim:
            raise DimensionMismatch(
                f"operands on charts of dimension {first.dim} and {other.dim}"
            )
    return first.algebra


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
    eval(f+g) = eval(f)+eval(g) and eval(f*g) = eval(f)*eval(g).  It runs on
    coefficient lists, with the same float operations in the same order as
    the WeilElement operators, and builds one element for the result.
    """
    coords = _point_coords(point)
    if algebra is None:
        algebra = coords[0].algebra if coords else e.algebra
        if algebra is None:
            raise AlgebraMismatch("no algebra can be inferred for evaluation")
    for c in coords:
        if c.algebra is not algebra:
            raise AlgebraMismatch("point coordinates live over different algebras")
    if e.algebra is not None and e.algebra is not algebra:
        raise AlgebraMismatch("algebra constant does not match the point")
    value = WeilElement(algebra, _eval_weil(e, [c.coeffs for c in coords], algebra, {}))
    # ring arithmetic overflows silently; one check here covers every path
    if not all(map(math.isfinite, value.coeffs)):
        raise DomainError(f"non-finite result {render_element(value)}")
    return value


def _eval_weil(e: Expr, coords, algebra: WeilAlgebra, memo: dict) -> list[float]:
    kind = type(e)
    if kind is Var:
        if e.index >= len(coords):
            raise DimensionMismatch(
                f"x{e.index + 1} evaluated at a {len(coords)}-coordinate point"
            )
        return coords[e.index]
    if kind is ConstA:
        return e.value.coeffs
    key = id(e)
    value = memo.get(key)
    if value is not None:
        return value
    if kind is ConstR:
        value = [float(e.value)] + [0.0] * (algebra.dim - 1)
    elif kind is Add:
        value = [x + y for x, y in zip(_eval_weil(e.left, coords, algebra, memo),
                                       _eval_weil(e.right, coords, algebra, memo))]
    elif kind is Sub:
        value = [x - y for x, y in zip(_eval_weil(e.left, coords, algebra, memo),
                                       _eval_weil(e.right, coords, algebra, memo))]
    elif kind is Mul:
        value = algebra._mul(_eval_weil(e.left, coords, algebra, memo),
                             _eval_weil(e.right, coords, algebra, memo))
    elif kind is Div:
        denom = _eval_weil(e.right, coords, algebra, memo)
        value = algebra._mul(_eval_weil(e.left, coords, algebra, memo),
                             _lift(RECIPROCAL, algebra, denom))
    elif kind is Neg:
        value = [-x for x in _eval_weil(e.arg, coords, algebra, memo)]
    elif kind is Pow:
        value = _power(algebra, _eval_weil(e.base, coords, algebra, memo), e.exponent)
    elif kind is Apply:
        value = _lift(e.fn, algebra, _eval_weil(e.arg, coords, algebra, memo))
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

# one match per token: a number, an identifier, an operator or parenthesis,
# or any other character, which no rule takes.  Digits are ASCII, as the
# grammar's are: \d would also take other scripts' digits.
_TOKEN = re.compile(
    r"\s*((?:[0-9]+\.?[0-9]*|\.[0-9]+)(?:[eE][+-]?[0-9]+)?"
    r"|[A-Za-z_][A-Za-z_0-9]*"
    r"|[-+*/^()]"
    r"|\S)"
)

# a token of one character that no rule takes
_STRAY = re.compile(r"[^0-9A-Za-z_+\-*/^()]|\.")

_VAR = re.compile(r"x([1-9]\d*)$")

# the binary operators: precedence and node
_BINARY = {"+": (1, Add), "-": (1, Sub), "*": (2, Mul), "/": (2, Div)}

# deepest nesting (signs and parentheses), and deepest tree, that parse
# accepts; the printer, the evaluators and diff recurse once per tree level
MAX_DEPTH = 100

# largest exponent, either sign, that parse accepts: x^k costs k products
MAX_EXPONENT = 10_000

# deepest tree any constructor builds (else WeilcError): == and deepcopy
# recurse thrice per level, within Python's 1000 frames to about 330 levels.
MAX_NODE_DEPTH = 300
_TOO_DEEP = f"expression tree deeper than {MAX_NODE_DEPTH} levels"
_DEEPER = f"expression tree is deeper than {MAX_DEPTH}"

# longest token that an error message quotes whole
MAX_QUOTED = 40


def _quoted(token: str) -> str:
    """A refused token as its error message shows it: whole, or its first
    MAX_QUOTED characters and its length."""
    if len(token) <= MAX_QUOTED:
        return repr(token)
    return f"{token[:MAX_QUOTED]!r}... ({len(token)} characters)"


def _error(text: str, k: int, message: str, kind=ParseError) -> ParseError:
    """The error at token k of text (past the last token: at the end of the
    text).  A stray character anywhere in the text is reported instead, as
    it would be by a scan of all the tokens before the parse."""
    position = len(text)
    for j, m in enumerate(_TOKEN.finditer(text)):
        token = m.group(1)
        if _STRAY.fullmatch(token):
            return ParseError(f"unexpected character {token!r}", m.start())
        if j == k:
            position = m.start(1)
    return kind(message, position)


def parse(text: str, n: int) -> Expr:
    """Parse an expression over x1..xn.  Raises ParseError / UnknownSymbol,
    and ParseError for a tree deeper than MAX_DEPTH (a long sum included) and
    for a literal that is not finite (1e999) and for an exponent above
    MAX_EXPONENT.

    All the tokens are taken at once; one precedence loop builds the tree,
    and an error's position is found only when it is raised."""
    tokens = _TOKEN.findall(text)
    tokens.append("")  # the end of the text
    at = 0  # index of the next token
    nest = 0  # signs and parentheses open
    leaves: dict[str, Expr] = {}  # each literal and variable, built once

    def binary(min_prec: int = 1) -> Expr:
        # a left-associated chain of the operators that bind at least min_prec
        nonlocal at
        e = prefix()
        while True:
            op = _BINARY.get(tokens[at])
            if op is None or op[0] < min_prec:
                return e
            k = at
            at += 1
            # * and / bind tightest: their right operand is a prefix
            e = op[1](e, binary(2) if op[0] == 1 else prefix())
            # checked at each operator of a chain, so no chain reaches
            # MAX_NODE_DEPTH; the nesting bound covers signs and calls
            if e.facts[0] > MAX_DEPTH:
                raise _error(text, k, _DEEPER)

    def prefix() -> Expr:
        # an operand: a literal, a variable, a parenthesis or a call, each with
        # its ^ suffixes, or a sign and its operand
        nonlocal at, nest
        token = tokens[at]
        at += 1
        e = leaves.get(token)
        if e is None:
            if token == "-" or token == "(" or token in FUNCTIONS and tokens[at] == "(":
                # the parser recurses only here: into a sign's operand, a
                # parenthesis or a call's argument
                if token in FUNCTIONS:
                    at += 1
                nest += 1
                if nest > MAX_DEPTH:
                    raise _error(text, at, f"expression nests deeper than {MAX_DEPTH}")
                if token == "-":
                    e = prefix()
                    nest -= 1
                    # fold a sign applied directly to a literal, so that
                    # printed negative constants reparse to themselves
                    return ConstR(-e.value) if isinstance(e, ConstR) else Neg(e)
                e = binary()
                nest -= 1
                if tokens[at] != ")":
                    raise _error(text, at, "expected ')'")
                at += 1
                if token != "(":
                    e = Apply(FUNCTIONS[token], e)
            else:
                e = leaves[token] = leaf(token)
        while tokens[at] == "^":
            k = at
            at += 1
            sign = 1
            if tokens[at] == "-":
                at += 1
                sign = -1
            digits = tokens[at]
            if not (digits.isdigit() and digits.isascii()):
                raise _error(text, at, "expected an integer exponent")
            # counted before int(), which refuses more than 4300 digits
            digits = digits.lstrip("0") or "0"
            if len(digits) > len(str(MAX_EXPONENT)) or int(digits) > MAX_EXPONENT:
                raise _error(text, at, f"exponent exceeds {MAX_EXPONENT}")
            at += 1
            e = Pow(e, sign * int(digits))
            if e.facts[0] > MAX_DEPTH:
                raise _error(text, k, _DEEPER)
        return e

    def leaf(token: str) -> Expr:
        # a literal or a variable; anything else here is an error
        k = at - 1
        if not token:
            raise _error(text, k, "unexpected end of input")
        if token[0] in "0123456789." and token != ".":
            value = float(token)
            if not math.isfinite(value):
                raise _error(text, k, f"number {_quoted(token)} is not finite")
            return ConstR(value)
        m = _VAR.match(token)
        if m is not None:
            digits = m.group(1)
            # counted before int(), which refuses more than 4300 digits
            if len(digits) > len(str(n)) or int(digits) > n:
                raise _error(text, k,
                             f"variable {_quoted(token)} exceeds chart dimension {n}",
                             UnknownSymbol)
            return Var(int(digits) - 1)
        if token in "+*/^)":
            raise _error(text, k, f"unexpected {token!r}")
        if tokens[at] == "(":
            raise _error(text, k, f"unknown function {_quoted(token)}", UnknownSymbol)
        raise _error(text, k, f"unknown identifier {_quoted(token)}", UnknownSymbol)

    e = binary()
    if tokens[at]:
        raise _error(text, at, f"unexpected {_quoted(tokens[at])}")
    if e.facts[0] > MAX_DEPTH:
        raise ParseError(_DEEPER, 0)
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
    """An expression with its chart dimension and value algebra; a base
    function's algebra is None and it evaluates over its point's algebra."""

    expr: Expr
    dim: int
    algebra: WeilAlgebra | None

    def __post_init__(self):
        # the expression obeys the rule that its operands obey
        scalar_expr(self.expr, self)

    def __call__(self, point) -> WeilElement:
        return eval_weil(self.expr, chart_point(point, self), self.algebra)

    def partial(self, i: int) -> "AFunction":
        return AFunction(diff(self.expr, i), self.dim, self.algebra)

    def _combine(self, other, op) -> "AFunction":
        try:
            expr = scalar_expr(other, self)
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
        over = "" if self.algebra is None else f" over {self.algebra.describe()}"
        return f"AFunction({to_string(self.expr)}{over})"


def scalar_expr(value, owner) -> Expr:
    """The scalar rule: the expression of ``value`` as a function on the
    chart of ``owner`` (a function, field or form), for arithmetic,
    ``scale`` and a field's ``apply`` and ``apply_at``.  An AFunction goes
    through ``same_chart``; a Weil element or an Expr through ``on_chart``;
    a real number becomes a constant.  Any other type raises TypeError."""
    if isinstance(value, AFunction):
        same_chart(owner, value)
        return value.expr
    if isinstance(value, WeilElement):
        value = ConstA(value)
    elif isinstance(value, (int, float)):
        return ConstR(float(value))
    elif not isinstance(value, Expr):
        raise TypeError(f"{type(value).__name__} is not a scalar")
    on_chart((value,), owner)
    return value


def prolong_function(f: Expr, dim: int, algebra: WeilAlgebra) -> AFunction:
    """Reinterpret a base-chart function for Weil evaluation (f to f^A)."""
    require_base((f,), "a prolonged function")
    return AFunction(f, dim, algebra)
