"""Points with algebra coordinates, vector fields, and their prolongations.

A point assigns each chart coordinate a Weil element; a base vector field
acts on functions through symbolic partials.  Prolonging a field keeps its
component expressions and reinterprets them for Weil evaluation, which is
the unique algebra-linear derivation extending the base action.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .algebra import AlgebraMorphism, WeilAlgebra, WeilElement
from .errors import AlgebraMismatch, DimensionMismatch
from .expr import (
    AFunction,
    ConstR,
    Expr,
    add,
    contains_consta,
    diff,
    eval_weil,
    mul,
    scalar_expr,
    sub,
)


@dataclass(frozen=True)
class APoint:
    """A chart point with Weil-element coordinates."""

    algebra: WeilAlgebra
    coords: tuple[WeilElement, ...]

    def __post_init__(self):
        for c in self.coords:
            if c.algebra is not self.algebra:
                raise AlgebraMismatch("coordinates live over different algebras")

    @classmethod
    def from_reals(cls, algebra: WeilAlgebra, xs: Sequence[float]) -> "APoint":
        return cls(algebra, tuple(algebra.from_real(x) for x in xs))

    @property
    def dim(self) -> int:
        return len(self.coords)

    def base_point(self) -> tuple[float, ...]:
        """Augmentation of every coordinate: the underlying chart point."""
        return tuple(c.real for c in self.coords)

    def __iter__(self):
        return iter(self.coords)

    def __len__(self):
        return len(self.coords)

    def __getitem__(self, i):
        return self.coords[i]


@dataclass(frozen=True)
class VectorField:
    """A base-chart field theta = (theta_1, ..., theta_n), ConstA-free."""

    components: tuple[Expr, ...]

    def __post_init__(self):
        for c in self.components:
            if contains_consta(c):
                raise AlgebraMismatch("base vector fields must be ConstA-free")

    @property
    def dim(self) -> int:
        return len(self.components)

    def __add__(self, other: "VectorField") -> "VectorField":
        self._check(other)
        return VectorField(
            tuple(add(a, b) for a, b in zip(self.components, other.components))
        )

    def scale(self, f: Expr | float) -> "VectorField":
        if isinstance(f, (int, float)):
            f = ConstR(float(f))
        elif not isinstance(f, Expr):
            raise TypeError(f"{type(f).__name__} is not a base scalar")
        return VectorField(tuple(mul(f, c) for c in self.components))

    def _check(self, other: "VectorField"):
        if other.dim != self.dim:
            raise DimensionMismatch(
                f"fields of dimension {self.dim} and {other.dim} do not combine"
            )


def apply_field(theta: VectorField | AVectorField, f: Expr) -> Expr:
    """theta(f) = sum_i theta_i * df/dx_i, symbolically; the one action
    loop, for base and prolonged fields alike."""
    out = None
    for i, comp in enumerate(theta.components):
        term = mul(comp, diff(f, i))
        out = term if out is None else add(out, term)
    if out is None:
        raise DimensionMismatch("vector field has no components")
    return out


def lie_bracket(t1: VectorField, t2: VectorField) -> VectorField:
    """[t1, t2], componentwise t1(t2_i) - t2(t1_i)."""
    t1._check(t2)
    return VectorField(
        tuple(
            sub(apply_field(t1, c2), apply_field(t2, c1))
            for c1, c2 in zip(t1.components, t2.components)
        )
    )


@dataclass(frozen=True)
class AVectorField:
    """An algebra-linear derivation D = sum_i D_i d/dx_i on the Weil chart."""

    components: tuple[Expr, ...]
    algebra: WeilAlgebra

    @property
    def dim(self) -> int:
        return len(self.components)

    def apply(self, fn: AFunction | Expr) -> AFunction:
        """D(fn) as a function; ConstA leaves are annihilated by the partials."""
        expr = fn.expr if isinstance(fn, AFunction) else fn
        if isinstance(fn, AFunction) and fn.algebra is not self.algebra:
            raise AlgebraMismatch("field and function live over different algebras")
        return AFunction(apply_field(self, expr), self.dim, self.algebra)

    def apply_at(self, fn: AFunction | Expr, point) -> WeilElement:
        """Evaluate D(fn) at a point by combining evaluated pieces."""
        expr = fn.expr if isinstance(fn, AFunction) else fn
        out = None
        for i, comp in enumerate(self.components):
            term = eval_weil(comp, point, self.algebra) * eval_weil(
                diff(expr, i), point, self.algebra
            )
            out = term if out is None else out + term
        return out

    def __add__(self, other: "AVectorField") -> "AVectorField":
        if other.algebra is not self.algebra:
            raise AlgebraMismatch("fields over different algebras")
        if other.dim != self.dim:
            raise DimensionMismatch("fields of different dimension")
        return AVectorField(
            tuple(add(a, b) for a, b in zip(self.components, other.components)),
            self.algebra,
        )

    def scale(self, f: AFunction | Expr | WeilElement | float) -> "AVectorField":
        expr = scalar_expr(f, self.algebra)
        return AVectorField(tuple(mul(expr, c) for c in self.components), self.algebra)


def prolong_field(theta: VectorField, algebra: WeilAlgebra) -> AVectorField:
    """The prolonged field: same components, Weil evaluation semantics."""
    return AVectorField(theta.components, algebra)


def pushforward_point(morphism: AlgebraMorphism, point: APoint) -> APoint:
    """Apply an algebra map to every coordinate; with the augmentation map
    this lands on the base point."""
    if point.algebra is not morphism.source:
        raise AlgebraMismatch("point does not live over the morphism source")
    return APoint(morphism.target, tuple(morphism.apply(c) for c in point.coords))


def prolong_map(h: Sequence[Expr], point: APoint) -> APoint:
    """Evaluate a smooth map componentwise: coordinate i of the image is
    h_i at the point, so composing with any g matches evaluating g on the
    image."""
    comps = tuple(h)
    for c in comps:
        if contains_consta(c):
            raise AlgebraMismatch("map components must be ConstA-free")
    return APoint(
        point.algebra,
        tuple(eval_weil(c, point, point.algebra) for c in comps),
    )
