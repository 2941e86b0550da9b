"""Seeded random inputs for the check suites.

All randomness flows through ``Draws``, a ``random.Random`` seeded by
``rng_for``, so that every report is a pure function of (suite, seed,
trials).  Each draw is built on ``random()`` alone, the one method whose
sequence Python keeps for a given seed across versions.  Sampling ranges
follow one convention: chart coordinates uniform in [-1, 1], nilpotent
coefficients uniform in [-0.5, 0.5].
"""

from __future__ import annotations

import math
import random
from functools import cache

from .algebra import (
    AlgebraPresentation,
    PRIMITIVES,
    WeilAlgebra,
    WeilElement,
    build_algebra,
)
from .errors import AlgebraMismatch, DegreeError, WeilcError
from .expr import Apply, ConstA, ConstR, Expr, Var, add, mul, power, same_chart, sub
from .forms import CoordForm
from .prolongation import APoint, VectorField

CATALOG: tuple[tuple[str, AlgebraPresentation], ...] = (
    ("dual", AlgebraPresentation(("eps",), ((2,),))),
    ("jet2", AlgebraPresentation(("t",), ((3,),))),
    ("jet3", AlgebraPresentation(("t",), ((4,),))),
    ("jet4", AlgebraPresentation(("t",), ((5,),))),
    ("plane", AlgebraPresentation(("a", "b"), ((2, 0), (1, 1), (0, 2)))),
    ("mixed", AlgebraPresentation(("a", "b"), ((3, 0), (1, 1), (0, 2)))),
    ("square", AlgebraPresentation(("a", "b"), ((2, 0), (0, 2)))),
    (
        "corner3",
        AlgebraPresentation(
            ("a", "b", "c"),
            ((2, 0, 0), (0, 2, 0), (0, 0, 2), (1, 1, 0), (1, 0, 1), (0, 1, 1)),
        ),
    ),
)


@cache
def catalog_algebra(name: str) -> WeilAlgebra:
    return build_algebra(dict(CATALOG)[name])


class Draws(random.Random):
    """Seeded ``uniform`` and ``integers`` draws, each from ``random()``."""

    def uniform(self, low=0.0, high=1.0, size=None):
        """A float in [low, high); with a size n, a list of n; with a size
        (rows, cols), rows lists of cols."""
        span, draw = high - low, self.random
        if size is None:
            return low + span * draw()
        if isinstance(size, int):
            return [low + span * draw() for _ in range(size)]
        rows, cols = size
        return [[low + span * draw() for _ in range(cols)] for _ in range(rows)]

    def integers(self, low: int, high: int | None = None) -> int:
        """An int in [low, high), or in [0, low) without high; the bias of
        truncating ``random() * span`` is at most span * 2**-53."""
        if high is None:
            low, high = 0, low
        if high <= low:
            raise ValueError(f"integers range [{low}, {high}) is empty")
        return low + int(self.random() * (high - low))


def rng_for(seed: int) -> Draws:
    if seed < 0:
        raise WeilcError(f"seed {seed} is negative; seeds are integers >= 0")
    return Draws(seed)


MAX_HEIGHT = 3  # of the algebras the suites draw
MAX_EXTRA_TERMS = 3  # a random polynomial adds 1 to this many monomials to its first


def random_algebra(rng: Draws) -> WeilAlgebra:
    names = [name for name, _ in CATALOG if catalog_algebra(name).height <= MAX_HEIGHT]
    return catalog_algebra(names[rng.integers(len(names))])


def random_element(rng: Draws, algebra: WeilAlgebra) -> WeilElement:
    coeffs = rng.uniform(-0.5, 0.5, algebra.dim)
    coeffs[0] = rng.uniform(-1.0, 1.0)
    return algebra.element(coeffs)


def random_point(rng: Draws, algebra: WeilAlgebra, n: int) -> APoint:
    return APoint(algebra, (random_element(rng, algebra) for _ in range(n)))


def random_monomial(rng: Draws, n: int, max_degree: int = 3) -> Expr:
    degree = rng.integers(0, max_degree + 1)
    out: Expr = ConstR(round(rng.uniform(-1.0, 1.0), 3))
    for _ in range(degree):
        out = mul(out, Var(rng.integers(n)))
    return out


def random_polynomial(rng: Draws, n: int, max_degree: int = 3) -> Expr:
    out = random_monomial(rng, n, max_degree)
    for _ in range(rng.integers(1, MAX_EXTRA_TERMS + 1)):
        out = add(out, random_monomial(rng, n, max_degree))
    return out


def random_field(rng: Draws, n: int) -> VectorField:
    """A base field with quadratic polynomial components."""
    return VectorField(tuple(random_polynomial(rng, n, max_degree=2) for _ in range(n)))


_SAFE_FUNCTIONS = ("exp", "sin", "cos")


def random_expr(rng: Draws, n: int, depth: int = 4) -> Expr:
    """A depth-bounded polynomial/elementary expression over exp, sin and cos;
    exp of nested powers can overflow on [-1,1]^n (DomainError)."""
    if depth <= 0:
        if rng.random() < 0.6:
            return Var(rng.integers(n))
        return ConstR(round(rng.uniform(-1.0, 1.0), 3))
    roll = rng.random()
    if roll < 0.25:
        return add(random_expr(rng, n, depth - 1), random_expr(rng, n, depth - 1))
    if roll < 0.45:
        return sub(random_expr(rng, n, depth - 1), random_expr(rng, n, depth - 1))
    if roll < 0.70:
        return mul(random_expr(rng, n, depth - 1), random_expr(rng, n, depth - 1))
    if roll < 0.85:
        name = _SAFE_FUNCTIONS[rng.integers(len(_SAFE_FUNCTIONS))]
        return Apply(PRIMITIVES[name], random_expr(rng, n, depth - 1))
    return power(random_expr(rng, n, depth - 1), rng.integers(2, 4))


def random_expr_with_consta(
    rng: Draws, n: int, algebra: WeilAlgebra, depth: int = 3
) -> Expr:
    """Like random_expr but mixing in algebra constants (A-linear combos)."""
    base = random_expr(rng, n, depth)
    scaled = mul(ConstA(random_element(rng, algebra)), random_expr(rng, n, depth - 1))
    return add(scaled, base)


def random_one_form(
    rng: Draws,
    n: int,
    algebra: WeilAlgebra | None,
    with_consta: bool = False,
) -> CoordForm:
    coeffs = {}
    for i in range(n):
        if rng.random() < 0.25 and n > 1:
            continue
        if with_consta and rng.random() < 0.5:
            coeffs[(i,)] = random_expr_with_consta(rng, n, algebra, depth=2)
        else:
            coeffs[(i,)] = random_expr(rng, n, depth=2)
    if not coeffs:
        coeffs[(0,)] = random_expr(rng, n, depth=2)
    return CoordForm(1, n, algebra, coeffs)


# -- residual metric -------------------------------------------------------------


def residual(lhs: WeilElement, rhs: WeilElement) -> float:
    """Sup-norm difference, normalized to the larger operand scale; inf when
    either operand has a non-finite coefficient (tested on its own, since
    Python's max skips NaN).  Elements of two algebras raise
    AlgebraMismatch."""
    if lhs.algebra is not rhs.algebra:
        raise AlgebraMismatch("residual of elements over different algebras")
    both = lhs.coeffs + rhs.coeffs
    if not all(map(math.isfinite, both)):
        return math.inf
    size = max(map(abs, both))
    return max(abs(x - y) for x, y in zip(lhs.coeffs, rhs.coeffs)) / (1.0 + size)


def residual_zero(value: WeilElement) -> float:
    return residual(value, value.algebra.zero())


def residual_forms(a: CoordForm, b: CoordForm, point) -> float:
    """Largest coefficientwise residual of two forms at a point.  Forms of
    two degrees raise DegreeError, and forms on two charts (``same_chart``)
    AlgebraMismatch or DimensionMismatch."""
    same_chart(a, b)
    if a.degree != b.degree:
        raise DegreeError(f"residual of a degree-{a.degree} and a degree-{b.degree} form")
    ea, eb = a.evaluate(point), b.evaluate(point)
    worst = 0.0
    for idx in set(ea) | set(eb):
        if idx in ea and idx in eb:
            worst = max(worst, residual(ea[idx], eb[idx]))
        else:  # a coefficient only one form has, against zero
            worst = max(worst, residual_zero(ea.get(idx) or eb[idx]))
    return worst
