"""Weil algebras presented as quotients of R[x1..xk] by monomial ideals.

A presentation lists generators and a set of monomial relations.  The
quotient is finite dimensional exactly when every generator has a pure
power among the relations; the standard monomials (those divisible by no
relation) then form a canonical basis, ordered graded-lexicographically
with the generator order as declared.

Products, integer powers and Taylor lifts share one kernel, ``_mul_lists``.
It walks the algebra's product plan: the (i, j, k) triples with i <= j and
e_i e_j = e_k, listed once when the algebra is built, in basis order.  Each
output slot is summed from +0.0 in that fixed order, and an off-diagonal
triple adds a_i b_j + a_j b_i in one step, so a*b and b*a agree bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from itertools import product
from typing import Callable, Sequence

import numpy as np

from .errors import (
    AlgebraMismatch,
    DomainError,
    EmptyRelation,
    NotFiniteDimensional,
    NotMorphism,
)

Monomial = tuple[int, ...]


@dataclass(frozen=True)
class AlgebraPresentation:
    """Generators plus monomial relations, each relation an exponent vector."""

    generators: tuple[str, ...]
    relations: tuple[Monomial, ...]

    def __post_init__(self):
        k = len(self.generators)
        if len(set(self.generators)) != k:
            raise ValueError(f"duplicate generator names in {self.generators}")
        for rel in self.relations:
            if len(rel) != k:
                raise ValueError(f"relation {rel} has arity {len(rel)}, expected {k}")
            if any(e < 0 for e in rel):
                raise ValueError(f"relation {rel} has a negative exponent")
            if sum(rel) == 0:
                raise EmptyRelation("a degree-0 relation would kill the unit")
        for i, name in enumerate(self.generators):
            if not any(
                rel[i] > 0 and all(e == 0 for j, e in enumerate(rel) if j != i)
                for rel in self.relations
            ):
                raise NotFiniteDimensional(
                    f"generator {name!r} has no pure-power relation"
                )

    def describe(self) -> str:
        if not self.generators:
            return "R"
        rels = ", ".join(monomial_name(r, self.generators) for r in self.relations)
        return f"R[{', '.join(self.generators)}]/({rels})"


def monomial_name(exps: Monomial, names: Sequence[str]) -> str:
    parts = []
    for name, e in zip(names, exps):
        if e == 1:
            parts.append(name)
        elif e > 1:
            parts.append(f"{name}^{e}")
    return "*".join(parts) if parts else "1"


def _divides(d: Monomial, m: Monomial) -> bool:
    return all(a <= b for a, b in zip(d, m))


class WeilAlgebra:
    """A built algebra: basis, multiplication table, height, augmentation.

    Instances are immutable after construction and act as identity handles:
    elements of two separately built algebras never mix, even if the
    presentations coincide.
    """

    def __init__(self, presentation: AlgebraPresentation):
        self.presentation = presentation
        k = len(presentation.generators)

        # Pure-power relations bound the exponent box to search.
        bounds = []
        for i in range(k):
            pure = [
                rel[i]
                for rel in presentation.relations
                if rel[i] > 0 and all(e == 0 for j, e in enumerate(rel) if j != i)
            ]
            bounds.append(min(pure))
        candidates = [
            m
            for m in product(*(range(b) for b in bounds))
            if not any(_divides(rel, m) for rel in presentation.relations)
        ]
        candidates.sort(key=lambda m: (sum(m), tuple(-e for e in m)))
        self.basis: tuple[Monomial, ...] = tuple(candidates)
        self.dim = len(self.basis)
        self.height = max(sum(m) for m in self.basis)
        self.maximal_ideal_basis = tuple(
            i for i, m in enumerate(self.basis) if sum(m) > 0
        )
        index = {m: i for i, m in enumerate(self.basis)}

        # table[i, j] = basis index of e_i * e_j, or -1 when the product
        # falls into the ideal.  The product plan lists the non-zero
        # products with i <= j, in the order _mul_lists accumulates them.
        table = np.full((self.dim, self.dim), -1, dtype=np.int16)
        plan = []
        for i, mi in enumerate(self.basis):
            for j, mj in enumerate(self.basis):
                prod_m = tuple(a + b for a, b in zip(mi, mj))
                if not any(_divides(rel, prod_m) for rel in presentation.relations):
                    table[i, j] = index[prod_m]
                    if i <= j:
                        plan.append((i, j, index[prod_m]))
        table.setflags(write=False)
        self.mult_table = table
        self.product_plan: tuple[tuple[int, int, int], ...] = tuple(plan)
        self._index = index

    # -- element constructors -------------------------------------------------

    def element(self, coeffs: Sequence[float]) -> "WeilElement":
        arr = np.asarray(coeffs, dtype=float)
        if arr.shape != (self.dim,):
            raise AlgebraMismatch(
                f"coefficient vector of length {arr.size}, expected {self.dim}"
            )
        return WeilElement(self, arr.copy())

    def zero(self) -> "WeilElement":
        return WeilElement(self, np.zeros(self.dim))

    def unit(self) -> "WeilElement":
        coeffs = np.zeros(self.dim)
        coeffs[0] = 1.0
        return WeilElement(self, coeffs)

    def from_real(self, x: float) -> "WeilElement":
        coeffs = np.zeros(self.dim)
        coeffs[0] = float(x)
        return WeilElement(self, coeffs)

    def generator(self, name: str) -> "WeilElement":
        k = len(self.presentation.generators)
        try:
            g = self.presentation.generators.index(name)
        except ValueError:
            raise AlgebraMismatch(f"no generator named {name!r}") from None
        mono = tuple(1 if i == g else 0 for i in range(k))
        idx = self._index.get(mono)
        if idx is None:
            # the generator itself lies in the ideal
            return self.zero()
        coeffs = np.zeros(self.dim)
        coeffs[idx] = 1.0
        return WeilElement(self, coeffs)

    # -- misc -----------------------------------------------------------------

    def basis_names(self) -> list[str]:
        return [monomial_name(m, self.presentation.generators) for m in self.basis]

    def describe(self) -> str:
        return self.presentation.describe()

    def __repr__(self):
        return f"WeilAlgebra({self.describe()}, dim={self.dim}, height={self.height})"


def build_algebra(presentation: AlgebraPresentation) -> WeilAlgebra:
    return WeilAlgebra(presentation)


def trivial_algebra() -> WeilAlgebra:
    """The base field R as a height-0 algebra (the augmentation target)."""
    return build_algebra(AlgebraPresentation((), ()))


def dual_numbers(name: str = "eps") -> WeilAlgebra:
    return build_algebra(AlgebraPresentation((name,), ((2,),)))


def jets(order: int, name: str = "t") -> WeilAlgebra:
    """R[t]/(t^(order+1)): truncated Taylor expansions to the given order."""
    return build_algebra(AlgebraPresentation((name,), ((order + 1,),)))


def _mul_lists(
    plan: tuple[tuple[int, int, int], ...], dim: int, a: list[float], b: list[float]
) -> list[float]:
    """The one product kernel: coefficient lists of a*b over a product plan.

    Each slot accumulates from +0.0 in plan order, and an off-diagonal
    triple adds a_i b_j + a_j b_i in one step, so a*b and b*a agree bit
    for bit.
    """
    out = [0.0] * dim
    for i, j, k in plan:
        if i == j:
            out[k] += a[i] * b[i]
        else:
            out[k] += a[i] * b[j] + a[j] * b[i]
    return out


class WeilElement:
    """A coefficient vector over an algebra's standard-monomial basis."""

    __slots__ = ("algebra", "coeffs")

    def __init__(self, algebra: WeilAlgebra, coeffs: np.ndarray):
        self.algebra = algebra
        self.coeffs = coeffs

    @property
    def real(self) -> float:
        return float(self.coeffs[0])

    def nilpotent_part(self) -> "WeilElement":
        coeffs = self.coeffs.copy()
        coeffs[0] = 0.0
        return WeilElement(self.algebra, coeffs)

    def _coerce(self, other) -> "WeilElement | None":
        if isinstance(other, WeilElement):
            if other.algebra is not self.algebra:
                raise AlgebraMismatch(
                    f"elements of {self.algebra.describe()} and "
                    f"{other.algebra.describe()} do not mix"
                )
            return other
        if isinstance(other, (int, float)):
            return self.algebra.from_real(other)
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return WeilElement(self.algebra, self.coeffs + o.coeffs)

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return WeilElement(self.algebra, self.coeffs - o.coeffs)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return WeilElement(self.algebra, o.coeffs - self.coeffs)

    def __neg__(self):
        return WeilElement(self.algebra, -self.coeffs)

    def __mul__(self, other):
        if isinstance(other, (int, float)):
            return WeilElement(self.algebra, self.coeffs * float(other))
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        alg = self.algebra
        a, b = self.coeffs.tolist(), o.coeffs.tolist()
        return WeilElement(alg, np.array(_mul_lists(alg.product_plan, alg.dim, a, b)))

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, (int, float)):
            return WeilElement(self.algebra, self.coeffs / float(other))
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self * taylor_lift(RECIPROCAL, o)

    def __pow__(self, k: int):
        if not isinstance(k, int):
            return NotImplemented
        if k < 0:
            return taylor_lift(RECIPROCAL, self) ** (-k)
        alg = self.algebra
        a = self.coeffs.tolist()
        out = [1.0] + [0.0] * (alg.dim - 1)
        for _ in range(k):
            out = _mul_lists(alg.product_plan, alg.dim, out, a)
        return WeilElement(alg, np.array(out))

    def __eq__(self, other):
        if not isinstance(other, WeilElement):
            return NotImplemented
        return self.algebra is other.algebra and np.array_equal(
            self.coeffs, other.coeffs
        )

    __hash__ = None

    def allclose(self, other: "WeilElement", tol: float = 1e-9) -> bool:
        o = self._coerce(other)
        return bool(np.all(np.abs(self.coeffs - o.coeffs) <= tol))

    def __repr__(self):
        return render_element(self)


def augmentation(a: WeilElement) -> float:
    """Project onto the R-part; a ring homomorphism onto the base field."""
    return a.real


def render_element(a: WeilElement, sig: int = 12) -> str:
    names = a.algebra.basis_names()
    terms = []
    for c, name in zip(a.coeffs, names):
        if c == 0.0:
            continue
        mag = f"%.{sig}g" % abs(c)
        if name == "1":
            body = mag
        elif mag == "1":
            body = name
        else:
            body = f"{mag}*{name}"
        terms.append((c < 0, body))
    if not terms:
        return "0"
    out = ("-" if terms[0][0] else "") + terms[0][1]
    for negative, body in terms[1:]:
        out += (" - " if negative else " + ") + body
    return out


# -- elementary functions lifted through nilpotents -----------------------------


@dataclass(frozen=True, eq=False)
class PrimitiveFn:
    """An elementary function with a derivative-sequence rule.

    ``derivatives(r, order)`` returns [f(r), f'(r), ..., f^(order)(r)] and
    raises DomainError when r (or the derivatives up to that order) leave
    the real domain.  Names are unique, so identity of the rule is identity
    of the name.
    """

    name: str
    derivatives: Callable[[float, int], list[float]]

    def __eq__(self, other):
        return isinstance(other, PrimitiveFn) and other.name == self.name

    def __hash__(self):
        return hash(self.name)

    def __repr__(self):
        return f"PrimitiveFn({self.name})"


def _exp_derivs(r: float, order: int) -> list[float]:
    v = math.exp(r)
    return [v] * (order + 1)


def _log_derivs(r: float, order: int) -> list[float]:
    if r <= 0.0:
        raise DomainError(f"log undefined at {r}")
    out = [math.log(r)]
    for j in range(1, order + 1):
        out.append((-1.0) ** (j - 1) * math.factorial(j - 1) / r**j)
    return out


def _sin_derivs(r: float, order: int) -> list[float]:
    s, c = math.sin(r), math.cos(r)
    cycle = [s, c, -s, -c]
    return [cycle[j % 4] for j in range(order + 1)]


def _cos_derivs(r: float, order: int) -> list[float]:
    s, c = math.sin(r), math.cos(r)
    cycle = [c, -s, -c, s]
    return [cycle[j % 4] for j in range(order + 1)]


def _tan_derivs(r: float, order: int) -> list[float]:
    # d/dx tan = 1 + tan^2, so f^(j) is a polynomial in t = tan(r); the
    # recurrence P_{j+1} = P_j'(t) * (1 + t^2) stays in coefficient space.
    t = math.tan(r)
    poly = [0.0, 1.0]  # coefficients of P_0(t) = t
    out = []
    for _ in range(order + 1):
        out.append(sum(c * t**i for i, c in enumerate(poly)))
        dpoly = [i * c for i, c in enumerate(poly)][1:] or [0.0]
        nxt = [0.0] * (len(dpoly) + 2)
        for i, c in enumerate(dpoly):
            nxt[i] += c
            nxt[i + 2] += c
        poly = nxt
    return out


def _pow_derivs(p: float, r: float, order: int) -> list[float]:
    p_is_int = float(p).is_integer()
    if not p_is_int and r <= 0.0:
        raise DomainError(f"x^{p} needs a positive base, got {r}")
    if p_is_int and p < 0 and r == 0.0:
        raise DomainError(f"x^{p} undefined at 0")
    out = []
    factor = 1.0
    for j in range(order + 1):
        e = p - j
        if factor == 0.0:
            out.append(0.0)
        elif r == 0.0:
            if e < 0:
                raise DomainError(f"derivative {j} of x^{p} unbounded at 0")
            out.append(factor if e == 0 else 0.0)
        else:
            out.append(factor * r**e)
        factor *= p - j
    return out


def _recip_derivs(r: float, order: int) -> list[float]:
    if r == 0.0:
        raise DomainError("reciprocal undefined at 0")
    return [(-1.0) ** j * math.factorial(j) / r ** (j + 1) for j in range(order + 1)]


def _sqrt_derivs(r: float, order: int) -> list[float]:
    if not r >= 0.0 or (r == 0.0 and order >= 1):  # NaN included
        raise DomainError(f"sqrt derivatives undefined at {r}")
    return _pow_derivs(0.5, r, order) if r > 0.0 else [0.0]


EXP = PrimitiveFn("exp", _exp_derivs)
LOG = PrimitiveFn("log", _log_derivs)
SIN = PrimitiveFn("sin", _sin_derivs)
COS = PrimitiveFn("cos", _cos_derivs)
TAN = PrimitiveFn("tan", _tan_derivs)
SQRT = PrimitiveFn("sqrt", _sqrt_derivs)
RECIPROCAL = PrimitiveFn("recip", _recip_derivs)


@lru_cache(maxsize=None)
def pow_primitive(p: float) -> PrimitiveFn:
    """x ↦ x^p for a real exponent p (positive base unless p is an integer)."""
    return PrimitiveFn(f"pow[{p!r}]", lambda r, order: _pow_derivs(p, r, order))


PRIMITIVES = {fn.name: fn for fn in (EXP, LOG, SIN, COS, TAN, SQRT, RECIPROCAL)}


def taylor_lift(prim: PrimitiveFn, a: WeilElement) -> WeilElement:
    """Evaluate g(a) = sum_j g^(j)(r) n^j / j! with r the real part, n nilpotent.

    The sum is finite because n^(height+1) = 0; the real part of the result
    is g(r) by construction.
    """
    r = a.real
    h = a.algebra.height
    try:
        derivs = prim.derivatives(r, h)
    except OverflowError as exc:
        raise DomainError(f"{prim.name} overflows at {r}") from exc
    except (ValueError, ZeroDivisionError) as exc:
        # sin(inf), or 1/r^(j+1) when r^(j+1) underflows to zero
        raise DomainError(f"{prim.name} derivatives undefined at {r}") from exc
    plan, dim = a.algebra.product_plan, a.algebra.dim
    n = a.coeffs.tolist()
    n[0] = 0.0
    out = [float(derivs[0])] + [0.0] * (dim - 1)
    power = [1.0] + [0.0] * (dim - 1)
    factorial = 1.0
    for j in range(1, h + 1):
        power = _mul_lists(plan, dim, power, n)
        if not any(power):
            break
        factorial *= j
        scale = derivs[j] / factorial
        out = [o + p * scale for o, p in zip(out, power)]
    return WeilElement(a.algebra, np.array(out))


def apply_linear(matrix: np.ndarray, a: WeilElement) -> WeilElement:
    """Apply an R-linear endomorphism of the algebra, coefficientwise."""
    matrix = np.asarray(matrix, dtype=float)
    if matrix.shape != (a.algebra.dim, a.algebra.dim):
        raise AlgebraMismatch(
            f"endomorphism matrix {matrix.shape} does not fit dim {a.algebra.dim}"
        )
    return WeilElement(a.algebra, matrix @ a.coeffs)


# -- algebra morphisms ----------------------------------------------------------


@dataclass(frozen=True)
class AlgebraMorphism:
    """A validated algebra map, stored as a dim(B) x dim(A) matrix."""

    source: WeilAlgebra
    target: WeilAlgebra
    matrix: np.ndarray

    def apply(self, a: WeilElement) -> WeilElement:
        if a.algebra is not self.source:
            raise AlgebraMismatch("element does not live over the morphism source")
        return WeilElement(self.target, self.matrix @ a.coeffs)

    def __call__(self, a: WeilElement) -> WeilElement:
        return self.apply(a)


def validate_morphism(
    source: WeilAlgebra,
    target: WeilAlgebra,
    matrix,
    tol: float = 1e-12,
) -> AlgebraMorphism:
    """Check unit, multiplicativity on all basis pairs, and augmentation."""
    matrix = np.asarray(matrix, dtype=float)
    if matrix.shape != (target.dim, source.dim):
        raise NotMorphism(
            f"matrix shape {matrix.shape}, expected {(target.dim, source.dim)}"
        )
    unit_image = matrix[:, 0]
    if np.max(np.abs(unit_image - target.unit().coeffs)) > tol:
        raise NotMorphism("unit is not mapped to the unit")
    aug_row = matrix[0]
    expected = np.zeros(source.dim)
    expected[0] = 1.0
    if np.max(np.abs(aug_row - expected)) > tol:
        raise NotMorphism("map does not commute with the augmentations")
    images = [WeilElement(target, matrix[:, i].copy()) for i in range(source.dim)]
    for i in range(source.dim):
        for j in range(source.dim):
            k = source.mult_table[i, j]
            lhs = images[i] * images[j]
            rhs = images[k].coeffs if k >= 0 else np.zeros(target.dim)
            if np.max(np.abs(lhs.coeffs - rhs)) > tol:
                raise NotMorphism(
                    f"not multiplicative on basis pair "
                    f"({source.basis_names()[i]}, {source.basis_names()[j]})"
                )
    matrix = matrix.copy()
    matrix.setflags(write=False)
    return AlgebraMorphism(source, target, matrix)


def augmentation_morphism(source: WeilAlgebra) -> AlgebraMorphism:
    """The projection onto R, as a morphism into the trivial algebra."""
    target = trivial_algebra()
    matrix = np.zeros((1, source.dim))
    matrix[0, 0] = 1.0
    return validate_morphism(source, target, matrix)
