"""Differential forms in coordinate normal form, with Cartan calculus.

A degree-p form is stored as a map from strictly increasing index tuples
(i1 < ... < ip, 0-based) to coefficient expressions; the degree-0 case has
the single key ().  The coordinate normal form is faithful here because
the differential is fixed by the Leibniz rule together with its values on
the coordinate functions.  The constructor takes the coefficients through
``on_chart``.  A base form's algebra is None, as a base field's is: it
holds no algebra constants and evaluates over its point's algebra.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping

from .algebra import WeilAlgebra, WeilElement
from .errors import DegreeError, DimensionMismatch
from .expr import (
    AFunction,
    Expr,
    ZERO,
    add,
    chart_point,
    diff,
    eval_weil,
    mul,
    neg,
    on_chart,
    require_base,
    same_chart,
    scalar_expr,
)
from .prolongation import VectorField

Index = tuple[int, ...]


@dataclass(frozen=True)
class CoordForm:
    """Sum of phi_I dx_I over strictly increasing index tuples I."""

    degree: int
    dim: int
    algebra: WeilAlgebra | None
    coeffs: Mapping[Index, Expr] = field(default_factory=dict)

    def __post_init__(self):
        on_chart(self.coeffs.values(), self)
        for idx in self.coeffs:
            if len(idx) != self.degree:
                raise DegreeError(f"index tuple {idx} in a degree-{self.degree} form")
            if any(not 0 <= i < self.dim for i in idx):
                raise DimensionMismatch(f"index tuple {idx} off the chart")
            if any(a >= b for a, b in zip(idx, idx[1:])):
                raise DegreeError(f"index tuple {idx} is not strictly increasing")

    def coefficient(self, idx: Index) -> Expr:
        return self.coeffs.get(tuple(idx), ZERO)

    def evaluate(self, point) -> dict[Index, WeilElement]:
        """All coefficients at a point, absent tuples evaluating to zero."""
        coords = chart_point(point, self)
        return {
            idx: eval_weil(c, coords, self.algebra) for idx, c in self.coeffs.items()
        }

    def __add__(self, other: "CoordForm") -> "CoordForm":
        same_chart(self, other)
        if other.degree != self.degree:
            raise DegreeError("cannot add forms of different degree")
        acc = _Accumulator()
        for idx, c in self.coeffs.items():
            acc.put(idx, c)
        for idx, c in other.coeffs.items():
            acc.put(idx, c)
        return CoordForm(self.degree, self.dim, self.algebra, acc.build())

    def __neg__(self) -> "CoordForm":
        return CoordForm(
            self.degree,
            self.dim,
            self.algebra,
            {idx: neg(c) for idx, c in self.coeffs.items()},
        )

    def __sub__(self, other: "CoordForm") -> "CoordForm":
        return self + (-other)

    def scale(self, phi: AFunction | Expr | WeilElement | float) -> "CoordForm":
        """Module action phi * omega."""
        expr = scalar_expr(phi, self)
        return CoordForm(
            self.degree,
            self.dim,
            self.algebra,
            {idx: mul(expr, c) for idx, c in self.coeffs.items()},
        )

    def __repr__(self):
        if not self.coeffs:
            return f"CoordForm(0, degree={self.degree})"
        parts = []
        for idx, c in sorted(self.coeffs.items()):
            basis = "^".join(f"dx{i + 1}" for i in idx)
            parts.append(f"({c!r}) {basis}".strip())
        return " + ".join(parts)


class _Accumulator:
    """Coefficient accumulation: signed terms summed per index in the order
    they come, zero terms and zero totals dropped."""

    def __init__(self):
        self.totals: dict[Index, Expr] = {}

    def put(self, idx: Index, expr: Expr, sign: int = 1):
        if expr == ZERO:
            return
        signed = expr if sign > 0 else neg(expr)
        total = self.totals.get(idx)
        self.totals[idx] = signed if total is None else add(total, signed)

    def build(self) -> dict[Index, Expr]:
        return {idx: total for idx, total in self.totals.items() if total != ZERO}


def zero_form(degree: int, dim: int, algebra: WeilAlgebra | None) -> CoordForm:
    return CoordForm(degree, dim, algebra, {})


def function_form(fn: AFunction) -> CoordForm:
    """Wrap a function as a degree-0 form."""
    coeffs = {} if fn.expr == ZERO else {(): fn.expr}
    return CoordForm(0, fn.dim, fn.algebra, coeffs)


def delta(fn: AFunction) -> CoordForm:
    """The canonical differential: sum_i (dfn/dx_i) dx_i.

    Algebra-linear because constants die under the partials, and Leibniz
    by the product rule.
    """
    acc = _Accumulator()
    for i in range(fn.dim):
        acc.put((i,), diff(fn.expr, i))
    return CoordForm(1, fn.dim, fn.algebra, acc.build())


def _merge_indices(left: Index, right: Index) -> tuple[int, Index] | None:
    """Sort the concatenation, returning (sign, tuple); None on a repeat."""
    merged = list(left)
    sign = 1
    for i in right:
        pos = len(merged)
        while pos > 0 and merged[pos - 1] > i:
            pos -= 1
        if pos > 0 and merged[pos - 1] == i:
            return None
        sign *= (-1) ** (len(merged) - pos)
        merged.insert(pos, i)
    return sign, tuple(merged)


def wedge(a: CoordForm, b: CoordForm) -> CoordForm:
    """Exterior product; graded commutative and associative."""
    same_chart(a, b)
    acc = _Accumulator()
    for ia, ca in a.coeffs.items():
        for ib, cb in b.coeffs.items():
            merged = _merge_indices(ia, ib)
            if merged is None:
                continue
            sign, idx = merged
            acc.put(idx, mul(ca, cb), sign)
    return CoordForm(a.degree + b.degree, a.dim, a.algebra, acc.build())


def dform(w: CoordForm) -> CoordForm:
    """Degree +1 derivation: d(phi dx_I) = sum_i (dphi/dx_i) dx_i ^ dx_I."""
    acc = _Accumulator()
    for idx, c in w.coeffs.items():
        for i in range(w.dim):
            if i in idx:
                continue
            dc = diff(c, i)
            if dc == ZERO:
                continue
            pos = sum(1 for j in idx if j < i)
            inserted = idx[:pos] + (i,) + idx[pos:]
            acc.put(inserted, dc, (-1) ** pos)
    return CoordForm(w.degree + 1, w.dim, w.algebra, acc.build())


def interior(field_: VectorField, w: CoordForm) -> CoordForm:
    """First-slot contraction; a derivation of degree -1 against wedge."""
    if w.degree == 0:
        raise DegreeError("interior product needs degree >= 1")
    same_chart(field_, w)
    comps = field_.components
    acc = _Accumulator()
    for idx, c in w.coeffs.items():
        for k, i in enumerate(idx):
            rest = idx[:k] + idx[k + 1 :]
            acc.put(rest, mul(comps[i], c), (-1) ** k)
    return CoordForm(w.degree - 1, w.dim, w.algebra, acc.build())


def contract(field_: VectorField, w: CoordForm) -> AFunction:
    """Pair a degree-1 form with a field: sum_i D_i * phi_i."""
    if w.degree != 1:
        raise DegreeError("contraction needs a degree-1 form")
    return AFunction(interior(field_, w).coefficient(()), w.dim, w.algebra)


def lie_derivative(field_: VectorField, w: CoordForm) -> CoordForm:
    """Cartan's formula i_D d + d i_D; on degree 0 only the first term
    applies and reduces to D acting on the coefficient."""
    first = interior(field_, dform(w))
    if w.degree == 0:
        return first
    return first + dform(interior(field_, w))


def prolong_form(w: CoordForm, algebra: WeilAlgebra) -> CoordForm:
    """Reinterpret a ConstA-free form over another algebra."""
    require_base(w.coeffs.values(), "a prolonged form")
    return CoordForm(w.degree, w.dim, algebra, dict(w.coeffs))
