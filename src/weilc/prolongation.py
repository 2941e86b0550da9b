"""Vector fields and their prolongations, and maps of points.

A point assigns each chart coordinate a Weil element; its class,
``APoint``, lives in ``expr`` beside the point rule and is imported here
(``prolong_map`` and ``pushforward_point`` build points).  One class,
``VectorField``, holds base and prolonged fields: a field acts on functions
through symbolic partials, and its ``algebra`` (None on the base chart)
says over which algebra its components are evaluated.  Prolonging a field
keeps its component expressions and sets that algebra, which makes it the
unique algebra-linear derivation extending the base action.  A field's
constructor takes its components through ``on_chart``.  Functions, forms
and bivectors keep the same convention: a base one has algebra None and
evaluates over the algebra of its point.
"""

from __future__ import annotations

from typing import Sequence

from .algebra import AlgebraMorphism, WeilAlgebra, WeilElement
from .errors import AlgebraMismatch, DimensionMismatch, Record, refuse_assignment, write_field
from .expr import (
    AFunction,
    APoint,
    Expr,
    add,
    add_all,
    chart_point,
    diff,
    eval_weil,
    mul,
    on_chart,
    require_base,
    same_chart,
    scalar_expr,
    sub,
)


class VectorField(Record):
    """A field D = sum_i D_i d/dx_i on a chart.  A base field's algebra is
    None and its components hold no algebra constants; a prolonged field's
    components are read with Weil evaluation over its algebra."""

    __setattr__ = __delattr__ = refuse_assignment
    __match_args__ = ("components", "algebra")

    def __init__(self, components: tuple[Expr, ...], algebra: WeilAlgebra | None = None):
        write_field(self, "components", components)
        write_field(self, "algebra", algebra)
        on_chart(components, self)

    @property
    def dim(self) -> int:
        return len(self.components)

    def apply(self, fn: AFunction | Expr) -> AFunction:
        """D(fn) as a function over the field's algebra (a base function for
        a base field); ConstA leaves are annihilated by the partials."""
        expr = scalar_expr(fn, self)
        return AFunction(apply_field(self, expr), self.dim, self.algebra)

    def apply_at(self, fn: AFunction | Expr, point) -> WeilElement:
        """Evaluate D(fn) at a point by combining evaluated pieces."""
        if not self.components:
            raise DimensionMismatch("vector field has no components")
        expr = scalar_expr(fn, self)
        point = chart_point(point, self)
        out = None
        for i, comp in enumerate(self.components):
            term = eval_weil(comp, point) * eval_weil(diff(expr, i), point)
            out = term if out is None else out + term
        return out

    def __add__(self, other: "VectorField") -> "VectorField":
        algebra = same_chart(self, other)
        return VectorField(
            tuple(add(a, b) for a, b in zip(self.components, other.components)),
            algebra,
        )

    def scale(self, f: AFunction | Expr | WeilElement | float) -> "VectorField":
        expr = scalar_expr(f, self)
        return VectorField(tuple(mul(expr, c) for c in self.components), self.algebra)


# another name for the one field class, for code that imports it
AVectorField = VectorField


def apply_field(theta: VectorField, f: Expr) -> Expr:
    """theta(f) = sum_i theta_i * df/dx_i, symbolically; the one action,
    for base and prolonged fields alike."""
    if not theta.components:
        raise DimensionMismatch("vector field has no components")
    return add_all(mul(comp, diff(f, i)) for i, comp in enumerate(theta.components))


def lie_bracket(t1: VectorField, t2: VectorField) -> VectorField:
    """[t1, t2], componentwise t1(t2_i) - t2(t1_i), over the fields' one
    algebra (None for two base fields)."""
    algebra = same_chart(t1, t2)
    return VectorField(
        tuple(
            sub(apply_field(t1, c2), apply_field(t2, c1))
            for c1, c2 in zip(t1.components, t2.components)
        ),
        algebra,
    )


def prolong_field(theta: VectorField, algebra: WeilAlgebra) -> VectorField:
    """The prolonged field: same components, Weil evaluation semantics."""
    return VectorField(theta.components, algebra)


def pushforward_point(morphism: AlgebraMorphism, point: APoint) -> APoint:
    """Apply an algebra map to every coordinate; with the augmentation map
    this lands on the base point."""
    if point.algebra is not morphism.source:
        raise AlgebraMismatch("point does not live over the morphism source")
    return APoint(morphism.target, map(morphism.apply, point.coords))


def prolong_map(h: Sequence[Expr], point: APoint) -> APoint:
    """Evaluate a smooth map componentwise: coordinate i of the image is
    h_i at the point, so composing with any g matches evaluating g on the
    image."""
    if not isinstance(point, APoint):
        raise TypeError(f"{type(point).__name__} is not an APoint")
    comps = tuple(h)
    require_base(comps, "a map's components")
    return APoint(point.algebra, [eval_weil(c, point) for c in comps])
