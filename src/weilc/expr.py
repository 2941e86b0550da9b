"""Expression trees for smooth functions on a chart, and their evaluation.

An expression over variables x1..xn denotes an element of C^inf(M) when it
contains no algebra-valued constants; evaluating it at an ``APoint``, a
point with Weil-element coordinates, computes the prolonged function.
Allowing ConstA leaves extends the same trees to the algebra-valued
function class the rest of the package works with.

Trees share subtrees: ``diff`` reuses operands, quotients and chain
factors, so its results are DAGs.  ``diff`` keeps each node's partials on
the node, for the node's lifetime, so no subtree is differentiated twice,
in one call or across calls.  ``eval_weil`` keeps each node's value on the
node with the point it was computed at, for as long as that point is the
node's last one, so no subtree is evaluated twice at one point, in one
call or across calls.  That point is an ``APoint``, the one point type of
evaluation: ``chart_point`` and ``eval_weil`` refuse anything else with
TypeError.  The other walks (``substitute``, ``eval_real``, ``to_string``)
visit a shared subexpression once per call: a memo keyed by node identity,
and dropped when the call returns, holds each node's first result.  The
visiting order is that of the tree walk, so results and the first error
raised are the same.  ``==`` and ``hash`` keep one too, keyed by the pair
of nodes compared or the node hashed.  ``parse``
keeps one per-call memo of the parenthesized groups and call arguments it
has read, keyed by the head of their text: a repeat of a text already read
is the same node, skipped without being tokenized, so a printed DAG parses
back as a DAG at a cost that grows with its distinct text.

Each operand rule of the package is stated here once, and reads the facts
each node holds (see ``Expr``) instead of walking a tree: ``on_chart``, the
coefficients of a function, field, form or bivector; ``chart_point``, its
points; ``same_chart``; ``require_base``; and ``scalar_expr``, its scalars.
"""

from __future__ import annotations

import math
import re
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
    Record,
    UnknownSymbol,
    WeilcError,
    cut_repr,
    refuse_assignment,
    write_field,
)


class Expr:
    """Base node.  Arithmetic operators build folded trees.

    Each node keeps ``facts``, the ``(depth, top, algebra)`` of its tree, set
    once when it is built: the number of levels, the largest variable index
    (-1 for none) and the algebra of the ConstA leaves (None for none).
    Constants over two algebras raise AlgebraMismatch.

    Nodes are immutable: assignment and deletion raise AttributeError, so
    each constructor writes its fields and facts through the slots'
    descriptors, as ``_diff`` and ``_eval_weil`` write the partials and the
    value a node keeps.  Each class lists its fields in ``__match_args__``,
    the arguments ``__reduce__`` rebuilds it from."""

    __slots__ = ("facts", "_partials", "_value")
    __setattr__ = __delattr__ = refuse_assignment
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
        # rebuilt through the constructor: the slots refuse a restored state
        return type(self), tuple(getattr(self, name) for name in self.__match_args__)

    # structural, each a walk that meets a shared pair of nodes, or a shared
    # node, once per call
    def __eq__(self, other):
        if not isinstance(other, Expr):
            return NotImplemented
        if self is other:
            return True
        return _equal(self, other, set())

    def __hash__(self):
        return _hash(self, {})


class Var(Expr):
    __slots__ = ("index",)
    __match_args__ = ("index",)

    def __init__(self, index: int):
        _set_index(self, index)
        _set_facts(self, (1, index, None))


class ConstR(Expr):
    __slots__ = ("value",)
    __match_args__ = ("value",)
    facts = (1, -1, None)

    def __init__(self, value: float):
        _set_real(self, value)


class ConstA(Expr):
    __slots__ = ("value",)
    __match_args__ = ("value",)

    def __init__(self, value: WeilElement):
        _set_element(self, value)
        _set_facts(self, (1, -1, value.algebra))


class _Binary(Expr):
    __slots__ = ("left", "right")
    __match_args__ = ("left", "right")

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


class Add(_Binary):
    __slots__ = ()


class Sub(_Binary):
    __slots__ = ()


class Mul(_Binary):
    __slots__ = ()


class Div(_Binary):
    __slots__ = ()


# the one-operand nodes also set their facts inline
class Neg(Expr):
    __slots__ = ("arg",)
    __match_args__ = ("arg",)

    def __init__(self, arg: Expr):
        depth, top, algebra = arg.facts
        if depth >= MAX_NODE_DEPTH:
            raise WeilcError(_TOO_DEEP)
        _set_arg(self, arg)
        _set_facts(self, (depth + 1, top, algebra))


class Pow(Expr):
    __slots__ = ("base", "exponent")
    __match_args__ = ("base", "exponent")

    def __init__(self, base: Expr, exponent: int):
        if type(exponent) is not int:
            raise WeilcError(f"exponent {exponent!r} is not an integer")
        depth, top, algebra = base.facts
        if depth >= MAX_NODE_DEPTH:
            raise WeilcError(_TOO_DEEP)
        _set_base(self, base)
        _set_exponent(self, exponent)
        _set_facts(self, (depth + 1, top, algebra))


class Apply(Expr):
    __slots__ = ("fn", "arg")
    __match_args__ = ("fn", "arg")

    def __init__(self, fn: PrimitiveFn, arg: Expr):
        # by name, not identity: a pickled or copied tree rebuilds its own fn
        if fn.name not in PRIMITIVES:
            raise WeilcError(f"function {cut_repr(fn.name)} is not in the grammar")
        depth, top, algebra = arg.facts
        if depth >= MAX_NODE_DEPTH:
            raise WeilcError(_TOO_DEEP)
        _set_fn(self, fn)
        _set_apply_arg(self, arg)
        _set_facts(self, (depth + 1, top, algebra))


# nodes refuse assignment, so constructors write through the slots
_set_facts, _set_partials, _set_value, _set_index, _set_left, _set_right = (
    Expr.facts.__set__, Expr._partials.__set__, Expr._value.__set__, Var.index.__set__,
    _Binary.left.__set__, _Binary.right.__set__)
_set_real, _set_element = ConstR.value.__set__, ConstA.value.__set__
_set_arg, _set_base, _set_exponent, _set_fn, _set_apply_arg = (
    Neg.arg.__set__, Pow.base.__set__, Pow.exponent.__set__, Apply.fn.__set__,
    Apply.arg.__set__)


def _equal(a: Expr, b: Expr, seen: set) -> bool:
    """Whether two distinct nodes are equal: the same node classes,
    exponents and primitives, and leaves of equal value, throughout.  A
    value equals itself, as in a tuple compare, so a NaN constant equals
    itself.  ``seen`` holds the id pairs of the binary nodes met in the
    call: each is an equal pair, or the call's answer is False.  The walk
    recurses into left operands and loops down the rest."""
    while True:
        kind = type(a)
        if kind is not type(b):
            return False
        if kind is Mul or kind is Add or kind is Sub or kind is Div:
            key = (id(a), id(b))
            if key in seen:
                return True
            seen.add(key)
            left = a.left
            other = b.left
            if left is not other and not _equal(left, other, seen):
                return False
            a = a.right
            b = b.right
        elif kind is Var:
            return a.index == b.index
        elif kind is ConstR or kind is ConstA:
            return a.value is b.value or a.value == b.value
        elif kind is Pow:
            if a.exponent != b.exponent:
                return False
            a = a.base
            b = b.base
        elif kind is Apply:
            if a.fn is not b.fn and a.fn != b.fn:
                return False
            a = a.arg
            b = b.arg
        elif kind is Neg:
            a = a.arg
            b = b.arg
        else:
            raise TypeError(f"cannot compare {kind.__name__}")
        if a is b:
            return True


def _hash(e: Expr, memo: dict) -> int:
    """The hash of e, from its class and the fields ``_equal`` compares;
    ``memo`` holds the hash of each node already met in the call."""
    kind = type(e)
    if kind is Var:
        return hash((kind, e.index))
    if kind is ConstR or kind is ConstA:
        return hash((kind, e.value))
    key = id(e)
    h = memo.get(key)
    if h is None:
        if kind is Mul or kind is Add or kind is Sub or kind is Div:
            h = hash((kind, _hash(e.left, memo), _hash(e.right, memo)))
        elif kind is Pow:
            h = hash((kind, _hash(e.base, memo), e.exponent))
        elif kind is Apply:
            h = hash((kind, e.fn, _hash(e.arg, memo)))
        elif kind is Neg:
            h = hash((kind, _hash(e.arg, memo)))
        else:
            raise TypeError(f"cannot hash {kind.__name__}")
        memo[key] = h
    return h


# what _eval_weil reads from a node that keeps no value: no key matches it
_NO_VALUE = (None, None)

ZERO = ConstR(0.0)
ONE = ConstR(1.0)


def is_zero(e: Expr) -> bool:
    """Whether ``e == ZERO``, by class and value: a real constant equal to
    0.0 (so -0.0 too, and never NaN or an algebra constant)."""
    return type(e) is ConstR and e.value == 0.0


# -- folding constructors (constant folding and 0/1 identities only) ------------
# Each tests an operand's class once; ``ConstR`` has no subclasses.  Two
# constants fold only to a finite one: an inf or NaN is not in the grammar,
# so ``to_string`` could not print it back, and the node it would replace
# evaluates to the same value.


def add(a: Expr, b: Expr) -> Expr:
    if type(a) is ConstR:
        if type(b) is ConstR:
            v = a.value + b.value
            return ConstR(v) if math.isfinite(v) else Add(a, b)
        if a.value == 0.0:
            return b
    elif type(b) is ConstR and b.value == 0.0:
        return a
    return Add(a, b)


def sub(a: Expr, b: Expr) -> Expr:
    if type(b) is ConstR:
        if type(a) is ConstR:
            v = a.value - b.value
            return ConstR(v) if math.isfinite(v) else Sub(a, b)
        if b.value == 0.0:
            return a
    elif type(a) is ConstR and a.value == 0.0:
        return Neg(b)
    return Sub(a, b)


def mul(a: Expr, b: Expr) -> Expr:
    if type(a) is ConstR:
        if type(b) is ConstR:
            v = a.value * b.value
            return ConstR(v) if math.isfinite(v) else Mul(a, b)
        v = a.value
        if v == 0.0:
            return ZERO
        if v == 1.0:
            return b
    elif type(b) is ConstR:
        v = b.value
        if v == 0.0:
            return ZERO
        if v == 1.0:
            return a
    return Mul(a, b)


def div(a: Expr, b: Expr) -> Expr:
    if type(b) is ConstR:
        v = b.value
        if v != 0.0 and type(a) is ConstR:
            q = a.value / v
            return ConstR(q) if math.isfinite(q) else Div(a, b)
        if v == 1.0:
            return a
    return Div(a, b)


# each binary node's operator as printed, precedence (the printer's and the
# parser's) and folding constructor
_INFIX = {Add: (" + ", 1, add), Sub: (" - ", 1, sub), Mul: ("*", 2, mul), Div: ("/", 2, div)}


def neg(a: Expr) -> Expr:
    if type(a) is ConstR:
        return ConstR(-a.value)
    return Neg(a)


def power(base: Expr, k: int) -> Expr:
    if k == 0:
        return ONE
    if k == 1:
        return base
    if type(base) is ConstR and (base.value != 0.0 or k > 0):
        try:
            return ConstR(base.value**k)
        except OverflowError:
            return Pow(base, k)
    return Pow(base, k)


def add_all(terms: Iterable[Expr]) -> Expr:
    """The sum of terms, the one sum builder of the library: zero terms
    dropped (ZERO for none), the rest added in pairs, level by level.  So n
    terms add about log2 n levels, and up to three are ``add(add(a, b), c)``."""
    terms = [t for t in terms if type(t) is not ConstR or t.value != 0.0]
    while len(terms) > 1:
        pairs = list(map(add, terms[::2], terms[1::2]))
        if len(terms) & 1:
            pairs.append(terms[-1])
        terms = pairs
    return terms[0] if terms else ZERO


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


class APoint(Record):
    """A chart point with Weil-element coordinates: the one point type of
    evaluation.  Its coordinates are copied into a tuple and lie over its
    algebra, so it is immutable and keys the values its nodes keep."""

    __setattr__ = __delattr__ = refuse_assignment
    __match_args__ = ("algebra", "coords")

    def __init__(self, algebra: WeilAlgebra, coords: Iterable[WeilElement]):
        coords = tuple(coords)
        write_field(self, "algebra", algebra)
        write_field(self, "coords", coords)
        for c in coords:
            if not isinstance(c, WeilElement):
                raise AlgebraMismatch(f"point coordinate {c!r} is not a Weil element")
        if algebra is None:
            raise AlgebraMismatch("a point needs an algebra")
        for c in coords:
            if c.algebra is not algebra:
                raise AlgebraMismatch("point coordinates live over different algebras")

    @property
    def dim(self) -> int:
        return len(self.coords)

    def base_point(self) -> tuple[float, ...]:
        """Augmentation of every coordinate: the underlying chart point."""
        return tuple(c.real for c in self.coords)


def chart_point(point: APoint, owner) -> APoint:
    """The point rule: ``point`` is an APoint with one coordinate for each
    chart coordinate of ``owner`` (a function, field, form or bivector),
    over the owner's algebra unless the owner is a base object.  Returns
    the point; any other type raises TypeError."""
    if not isinstance(point, APoint):
        raise TypeError(f"{type(point).__name__} is not an APoint")
    if point.dim != owner.dim:
        raise DimensionMismatch(
            f"point has {point.dim} coordinates, chart has {owner.dim}"
        )
    if owner.algebra is not None and point.algebra is not owner.algebra:
        raise AlgebraMismatch("point coordinates live over different algebras")
    return point


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

# f'(u) for the node e = f(u), reusing e where f' contains f
_CHAIN = {
    "exp": lambda e: e,
    "log": lambda e: div(ONE, e.arg),
    "sin": lambda e: Apply(PRIMITIVES["cos"], e.arg),
    "cos": lambda e: neg(Apply(PRIMITIVES["sin"], e.arg)),
    "tan": lambda e: add(ONE, power(e, 2)),
    "sqrt": lambda e: div(ConstR(0.5), e),
}


def diff(e: Expr, i: int) -> Expr:
    """Partial derivative with respect to x_(i+1); ConstA leaves are constants.
    A negative i raises DimensionMismatch."""
    if i < 0:
        raise DimensionMismatch(f"derivative index {i} is negative")
    return _diff(e, i)


def _diff(e: Expr, i: int) -> Expr:
    """The partial of e by x_(i+1), kept in e's ``_partials`` for e's
    lifetime.  A repeat call, from any caller or from a recursion into a
    shared subtree, returns the same object.  The factor of the chain rule
    of a Pow or Apply node, the same for every index, is kept there too,
    under the key None, so the partials by all indices share one factor
    node.  The cache relies on _diff being pure: a test that patches
    ``_CHAIN`` must build fresh trees."""
    kind = type(e)
    if kind is Var:
        return ONE if e.index == i else ZERO
    if kind is ConstR or kind is ConstA:
        return ZERO
    # an unset slot raises AttributeError; getattr's default costs less than
    # a try on the first visit and little more on the later ones
    partials = getattr(e, "_partials", None)
    if partials is None:
        # written here, never in a constructor: most nodes are never differentiated
        partials = {}
        _set_partials(e, partials)
    else:
        d = partials.get(i)
        if d is not None:
            return d
    if kind is Add:
        d = add(_diff(e.left, i), _diff(e.right, i))
    elif kind is Sub:
        d = sub(_diff(e.left, i), _diff(e.right, i))
    elif kind is Neg:
        d = neg(_diff(e.arg, i))
    elif kind is Mul:
        d = add(mul(_diff(e.left, i), e.right), mul(e.left, _diff(e.right, i)))
    elif kind is Div:
        # (u/v)' = (u' - e*v')/v: folds to u'/v where v' is 0, and to ZERO
        # where the numerator folds to 0, as div does not fold 0/v
        dright = _diff(e.right, i)
        d = sub(_diff(e.left, i), mul(e, dright))
        d = ZERO if is_zero(d) else div(d, e.right)
    elif kind is Pow or kind is Apply:
        factor = partials.get(None)
        if factor is None:
            factor = partials[None] = (
                mul(ConstR(float(e.exponent)), power(e.base, e.exponent - 1))
                if kind is Pow else _CHAIN[e.fn.name](e))
        d = mul(factor, _diff(e.base if kind is Pow else e.arg, i))
    else:
        raise TypeError(f"cannot differentiate {kind.__name__}")
    partials[i] = d
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
    op = _INFIX.get(kind)
    if op is not None:
        out = op[2](_substitute(e.left, replacements, memo),
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


def eval_weil(e: Expr, point: APoint) -> WeilElement:
    """Evaluate at an APoint, over its algebra; any other type raises
    TypeError.

    For a ConstA-free expression f this computes the prolongation of f at
    the given point; the recursion realizes the homomorphism laws
    eval(f+g) = eval(f)+eval(g) and eval(f*g) = eval(f)*eval(g).  It runs on
    coefficient lists, with the same float operations in the same order as
    the WeilElement operators, and builds one element for the result.

    Each node keeps its value with the APoint it was computed at, so no
    subtree is evaluated twice at one APoint.  A value may share its
    coefficient list with the node that keeps it, as a variable's shares
    the point's: elements are not changed in place.
    """
    if not isinstance(point, APoint):
        raise TypeError(f"{type(point).__name__} is not an APoint")
    algebra = point.algebra
    if e.algebra is not None and e.algebra is not algebra:
        raise AlgebraMismatch("algebra constant does not match the point")
    lists = [c.coeffs for c in point.coords]
    value = WeilElement(algebra, _eval_weil(e, lists, algebra, point))
    # ring arithmetic overflows silently; one check here covers every path
    if not all(map(math.isfinite, value.coeffs)):
        raise DomainError(f"non-finite result {render_element(value)}")
    return value


def _eval_weil(e: Expr, coords, algebra: WeilAlgebra, key) -> list[float]:
    """The coefficients of e at the APoint ``key``, whose coefficient lists
    are ``coords``, kept with the key in e's ``_value`` until e is evaluated
    at another point.  The node holds its key, so no other point can take
    the key's identity.  The cache relies on _eval_weil being pure; a raised
    error is not kept."""
    kind = type(e)
    if kind is Var:
        if e.index >= len(coords):
            raise DimensionMismatch(
                f"x{e.index + 1} evaluated at a {len(coords)}-coordinate point"
            )
        return coords[e.index]
    if kind is ConstA:
        return e.value.coeffs
    kept = getattr(e, "_value", _NO_VALUE)
    if kept[0] is key:
        return kept[1]
    if kind is ConstR:
        value = [float(e.value)] + [0.0] * (algebra.dim - 1)
    elif kind is Add:
        value = [x + y for x, y in zip(_eval_weil(e.left, coords, algebra, key),
                                       _eval_weil(e.right, coords, algebra, key))]
    elif kind is Sub:
        value = [x - y for x, y in zip(_eval_weil(e.left, coords, algebra, key),
                                       _eval_weil(e.right, coords, algebra, key))]
    elif kind is Mul:
        value = algebra._mul(_eval_weil(e.left, coords, algebra, key),
                             _eval_weil(e.right, coords, algebra, key))
    elif kind is Div:
        denom = _eval_weil(e.right, coords, algebra, key)
        value = algebra._mul(_eval_weil(e.left, coords, algebra, key),
                             _lift(RECIPROCAL, algebra, denom))
    elif kind is Neg:
        value = [-x for x in _eval_weil(e.arg, coords, algebra, key)]
    elif kind is Pow:
        value = _power(algebra, _eval_weil(e.base, coords, algebra, key), e.exponent)
    elif kind is Apply:
        value = _lift(e.fn, algebra, _eval_weil(e.arg, coords, algebra, key))
    else:
        raise TypeError(f"cannot evaluate {kind.__name__}")
    # written here, never in a constructor, as ``_partials`` is
    _set_value(e, (key, value))
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

# one token: an operator or parenthesis, an identifier, a number, or any
# other character, which no rule takes.  The first characters tell them
# apart, operators first as the most frequent.  Digits are ASCII, as the
# grammar's are: \d would also take other scripts' digits.
_ONE_TOKEN = (r"[-+*/^()]"
              r"|[A-Za-z_][A-Za-z_0-9]*"
              r"|(?:[0-9]+\.?[0-9]*|\.[0-9]+)(?:[eE][+-]?[0-9]+)?"
              r"|\S")

# a token and the space before it, where positions are wanted
_TOKEN = re.compile(rf"\s*({_ONE_TOKEN})")

# the tokens of a span of text: the search steps over the spaces
_tokenize = re.compile(_ONE_TOKEN).findall

# a token of one character that no rule takes
_STRAY = re.compile(r"[^0-9A-Za-z_+\-*/^()]|\.")

_VAR = re.compile(r"x([1-9]\d*)$")

# the most characters of a group's text that key the texts parse has read
_HEAD = 32

# the binary operators, by token: precedence and node
_BINARY = {symbol.strip(): (prec, kind) for kind, (symbol, prec, _) in _INFIX.items()}

# deepest nesting (signs and parentheses), and deepest tree, that parse
# accepts; the printer, the evaluators and diff recurse once per tree level
MAX_DEPTH = 100

# largest exponent, either sign, that parse accepts: x^k costs k products
MAX_EXPONENT = 10_000

# deepest tree any constructor builds (else WeilcError): deepcopy recurses
# thrice per level, pickle and the printer twice, == and hash at most once,
# within Python's 1000 frames to about 330 levels.
MAX_NODE_DEPTH = 300
_TOO_DEEP = f"expression tree deeper than {MAX_NODE_DEPTH} levels"

_DEEPER = f"expression tree is deeper than {MAX_DEPTH}"


def _error(text: str, position: int, message: str, kind=ParseError) -> ParseError:
    """The error at a text position.  A stray character anywhere in the text
    is reported instead, as it would be by a scan of all the tokens before
    the parse."""
    for m in _TOKEN.finditer(text):
        token = m.group(1)
        if _STRAY.fullmatch(token):
            return ParseError(f"unexpected character {token!r}", m.start())
    return kind(message, position)


def _fail(text: str, tokens: list, k: int, message: str, kind=ParseError) -> ParseError:
    """The error at token k of parse's token list (past the text: at its
    end), in which a number stands for a group skipped unread, ``(`` to
    ``)``: the text position past its ``)``.  Its position is found by
    reading the text again from its start."""
    pos = 0
    for token in tokens[:k]:
        pos = token if type(token) is int else _TOKEN.match(text, pos).end()
    m = _TOKEN.match(text, pos)
    return _error(text, len(text) if m is None else m.start(1), message, kind)


def parse(text: str, n: int) -> Expr:
    """Parse an expression over x1..xn.  Raises ParseError / UnknownSymbol,
    and ParseError for a tree deeper than MAX_DEPTH (a long sum included) and
    for a literal that is not finite (1e999) and for an exponent above
    MAX_EXPONENT.

    One precedence loop builds the tree.  The text is tokenized one scan at
    a time, each up to the next "(", and an error's position is found only
    when it is raised.  A group, the text inside a parenthesis or a call,
    is parsed once per text: a later group with the same text is the same
    node and is skipped unread, and one that differs only in its spaces is
    an equal node.  So a printed DAG parses back as a DAG, at the cost of
    its distinct groups.  One memo finds a group's text, whether or not it
    holds an inner group, by its first _HEAD characters up to its first
    ")"."""
    size = len(text)
    # the tokens scanned, "" at the end of the text; a group skipped is one
    # entry from "(" to ")", the text position past its ")"
    pos = text.find("(") + 1  # text position past the "(" that ends the scan
    tokens: list = _tokenize(text, 0, pos or size)
    if not pos:
        tokens.append("")
    # the next ")" to read (size if none), found at each "("; past a ")"
    # read, its position, until the next "("
    closing = -1
    at = 0  # index of the next token
    nest = 0  # signs and parentheses open
    peak = 0  # the deepest nest reached in the group being parsed
    leaves: dict[str, Expr] = {}  # each literal and variable, built once
    # each group's first _HEAD characters, cut at its first ")": the texts
    # of the groups read that begin so, each through its ")", and entries:
    # a group's node and the nesting within it
    texts: dict[str, list[tuple[str, tuple[Expr, int]]]] = {}

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
                raise _fail(text, tokens, k, _DEEPER)

    def prefix() -> Expr:
        # an operand: a literal, a variable, a parenthesis or a call, each with
        # its ^ suffixes, or a sign and its operand
        nonlocal at, nest, peak, pos, closing, tokens
        token = tokens[at]
        at += 1
        e = leaves.get(token)
        if e is None:
            if token == "-" or token == "(" or token in PRIMITIVES and tokens[at] == "(":
                # the parser recurses only here: into a sign's operand, a
                # parenthesis or a call's argument
                if token in PRIMITIVES:
                    at += 1
                nest += 1
                if nest > MAX_DEPTH:
                    raise _fail(text, tokens, at, f"expression nests deeper than {MAX_DEPTH}")
                if token == "-":
                    if nest > peak:
                        peak = nest
                    e = prefix()
                    nest -= 1
                    # fold a sign applied directly to a literal, so that
                    # printed negative constants reparse to themselves
                    return ConstR(-e.value) if isinstance(e, ConstR) else Neg(e)
                # the "(" ends the scan: the group's text starts at pos, and
                # ends at the next ")" unless a "(" comes first
                start = pos
                pos = text.find("(", start) + 1
                if closing < start:
                    closing = text.find(")", start) % (size + 1)
                nested = 0 < pos <= closing  # an inner group comes first
                end = start + _HEAD
                head = text[start:end if end < closing else closing]
                bucket = texts.get(head)
                if bucket is None:
                    bucket = texts[head] = []
                outer = peak
                for stored, entry in bucket:
                    # a stored text is balanced, so its ")" closes this group
                    # (one never closed matches none).  A seen group is reused
                    # where it nests within the bound; past it, it is read
                    # again, to raise where it would
                    if text.startswith(stored, start) and nest + entry[1] <= MAX_DEPTH:
                        # skipped unread: its "(" becomes the position past its ")"
                        e, inner = entry
                        peak = nest + inner
                        start += len(stored)
                        if nested:  # the next "(" was skipped with it
                            pos = text.find("(", start) + 1
                        closing = start - 1
                        tokens[-1] = start
                        break
                else:
                    entry = None
                tokens += _tokenize(text, start, pos or size)
                if not pos:
                    tokens.append("")
                if entry is None:
                    peak = nest
                    e = binary()
                    if tokens[at] != ")":
                        raise _fail(text, tokens, at, "expected ')'")
                    at += 1
                    if nested:
                        # its last inner group's ")" was read: its own is next
                        closing = text.find(")", closing + 1)
                    entry = e, peak - nest
                    bucket.append((text[start:closing + 1], entry))
                if outer > peak:
                    peak = outer
                nest -= 1
                if token != "(":
                    e = Apply(PRIMITIVES[token], e)
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
                raise _fail(text, tokens, at, "expected an integer exponent")
            # counted before int(), which refuses more than 4300 digits
            digits = digits.lstrip("0") or "0"
            if len(digits) > len(str(MAX_EXPONENT)) or int(digits) > MAX_EXPONENT:
                raise _fail(text, tokens, at, f"exponent exceeds {MAX_EXPONENT}")
            at += 1
            e = Pow(e, sign * int(digits))
            if e.facts[0] > MAX_DEPTH:
                raise _fail(text, tokens, k, _DEEPER)
        return e

    def leaf(token: str) -> Expr:
        # a literal or a variable; anything else here is an error
        k = at - 1
        if not token:
            raise _fail(text, tokens, k, "unexpected end of input")
        if token[0] in "0123456789." and token != ".":
            value = float(token)
            if not math.isfinite(value):
                raise _fail(text, tokens, k, f"number {cut_repr(token)} is not finite")
            return ConstR(value)
        m = _VAR.match(token)
        if m is not None:
            digits = m.group(1)
            # counted before int(), which refuses more than 4300 digits
            if len(digits) > len(str(n)) or int(digits) > n:
                raise _fail(text, tokens, k,
                            f"variable {cut_repr(token)} exceeds chart dimension {n}",
                            UnknownSymbol)
            return Var(int(digits) - 1)
        if token in "+*/^)":
            raise _fail(text, tokens, k, f"unexpected {token!r}")
        if tokens[at] == "(":
            raise _fail(text, tokens, k, f"unknown function {cut_repr(token)}", UnknownSymbol)
        raise _fail(text, tokens, k, f"unknown identifier {cut_repr(token)}", UnknownSymbol)

    try:
        e = binary()
    finally:
        # the closures refer to themselves and to each other; unlinked, they
        # and the memos go when the call returns, not at a cycle collection
        binary = prefix = None
    if tokens[at]:
        raise _fail(text, tokens, at, f"unexpected {cut_repr(tokens[at])}")
    if e.facts[0] > MAX_DEPTH:
        raise ParseError(_DEEPER, 0)
    return e


# -- printing ----------------------------------------------------------------------

_PREC_NEG, _PREC_POW, _PREC_ATOM = 3, 4, 5  # above the binary operators' 1 and 2


def _precedence(e: Expr) -> int:
    kind = type(e)
    if kind in _INFIX:
        return _INFIX[kind][1]
    if kind is Neg or kind is ConstR and e.value < 0:  # a negative literal prints a sign
        return _PREC_NEG
    return _PREC_POW if kind is Pow else _PREC_ATOM


def _wrap(e: Expr, minimum: int, memo: dict) -> str:
    s = _to_string(e, memo)
    return f"({s})" if _precedence(e) < minimum else s


def to_string(e: Expr) -> str:
    """Render in the published grammar; parse(to_string(e)) == e for every
    tree parse returns, and for a derivative of one that stays within
    MAX_DEPTH levels (signs live on literals, never as a Neg of a literal).
    A deeper derivative prints, but parse refuses its text."""
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
    op = _INFIX.get(kind)
    if op is not None:
        s = f"{_wrap(e.left, op[1], memo)}{op[0]}{_wrap(e.right, op[1] + 1, memo)}"
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


class AFunction(Record):
    """An expression with its chart dimension and value algebra; a base
    function's algebra is None and it evaluates over its point's algebra."""

    __setattr__ = __delattr__ = refuse_assignment
    __match_args__ = ("expr", "dim", "algebra")

    def __init__(self, expr: Expr, dim: int, algebra: WeilAlgebra | None):
        write_field(self, "expr", expr)
        write_field(self, "dim", dim)
        write_field(self, "algebra", algebra)
        # the expression obeys the rule that its operands obey
        scalar_expr(expr, self)

    def __call__(self, point) -> WeilElement:
        return eval_weil(self.expr, chart_point(point, self))

    def partial(self, i: int) -> "AFunction":
        if not 0 <= i < self.dim:
            raise DimensionMismatch(
                f"derivative index {i} off a chart of dimension {self.dim}"
            )
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

