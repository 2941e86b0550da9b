"""Seeded random inputs for the check suites.

All randomness flows through numpy's PCG64 so that every report is a pure
function of (suite, seed, trials).  Sampling ranges follow one convention:
chart coordinates uniform in [-1, 1], nilpotent coefficients uniform in
[-0.5, 0.5].
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING

from .algebra import (
    AlgebraPresentation,
    PRIMITIVES,
    WeilAlgebra,
    WeilElement,
    build_algebra,
)
from .errors import WeilcError
from .expr import Apply, ConstA, ConstR, Expr, Var, add, mul, power, sub
from .forms import CoordForm
from .prolongation import APoint, VectorField

if TYPE_CHECKING:
    import numpy as np

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

_BUILT: dict[str, WeilAlgebra] = {}


def catalog_algebra(name: str) -> WeilAlgebra:
    if name not in _BUILT:
        pres = dict(CATALOG)[name]
        _BUILT[name] = build_algebra(pres)
    return _BUILT[name]


def rng_for(seed: int) -> np.random.Generator:
    if seed < 0:
        raise WeilcError(f"seed {seed} is negative; seeds are integers >= 0")
    # imported here, not at module level: only the seeded draws need numpy,
    # and it would double the start-up of every weilc command
    import numpy as np

    return np.random.Generator(np.random.PCG64(seed))


MAX_HEIGHT = 3  # of the algebras the suites draw
MAX_EXTRA_TERMS = 3  # a random polynomial adds 1 to this many monomials to its first


def random_algebra(rng: np.random.Generator) -> WeilAlgebra:
    names = [name for name, _ in CATALOG if catalog_algebra(name).height <= MAX_HEIGHT]
    return catalog_algebra(names[rng.integers(len(names))])


def random_element(rng: np.random.Generator, algebra: WeilAlgebra) -> WeilElement:
    coeffs = rng.uniform(-0.5, 0.5, algebra.dim)
    coeffs[0] = rng.uniform(-1.0, 1.0)
    return algebra.element(coeffs)


def random_point(rng: np.random.Generator, algebra: WeilAlgebra, n: int) -> APoint:
    return APoint(algebra, tuple(random_element(rng, algebra) for _ in range(n)))


def random_monomial(rng: np.random.Generator, n: int, max_degree: int = 3) -> Expr:
    degree = int(rng.integers(0, max_degree + 1))
    out: Expr = ConstR(round(rng.uniform(-1.0, 1.0), 3))
    for _ in range(degree):
        out = mul(out, Var(int(rng.integers(n))))
    return out


def random_polynomial(rng: np.random.Generator, n: int, max_degree: int = 3) -> Expr:
    out = random_monomial(rng, n, max_degree)
    for _ in range(int(rng.integers(1, MAX_EXTRA_TERMS + 1))):
        out = add(out, random_monomial(rng, n, max_degree))
    return out


def random_field(rng: np.random.Generator, n: int) -> VectorField:
    """A base field with quadratic polynomial components."""
    return VectorField(tuple(random_polynomial(rng, n, max_degree=2) for _ in range(n)))


_SAFE_FUNCTIONS = ("exp", "sin", "cos")


def random_expr(rng: np.random.Generator, n: int, depth: int = 4) -> Expr:
    """A depth-bounded polynomial/elementary expression over exp, sin and cos;
    exp of nested powers can overflow on [-1,1]^n (DomainError)."""
    if depth <= 0:
        if rng.random() < 0.6:
            return Var(int(rng.integers(n)))
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
    return power(random_expr(rng, n, depth - 1), int(rng.integers(2, 4)))


def random_expr_with_consta(
    rng: np.random.Generator, n: int, algebra: WeilAlgebra, depth: int = 3
) -> Expr:
    """Like random_expr but mixing in algebra constants (A-linear combos)."""
    base = random_expr(rng, n, depth)
    scaled = mul(ConstA(random_element(rng, algebra)), random_expr(rng, n, depth - 1))
    return add(scaled, base)


def random_one_form(
    rng: np.random.Generator,
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
    Python's max skips NaN)."""
    both = lhs.coeffs + rhs.coeffs
    if not all(map(math.isfinite, both)):
        return math.inf
    size = max(map(abs, both))
    return max(abs(x - y) for x, y in zip(lhs.coeffs, rhs.coeffs)) / (1.0 + size)


def residual_zero(value: WeilElement) -> float:
    return residual(value, value.algebra.zero())


def residual_forms(a: CoordForm, b: CoordForm, point) -> float:
    """Largest coefficientwise residual of two forms at a point."""
    ea, eb = a.evaluate(point), b.evaluate(point)
    worst = 0.0
    for idx in set(ea) | set(eb):
        if idx in ea and idx in eb:
            worst = max(worst, residual(ea[idx], eb[idx]))
        else:  # a coefficient only one form has, against zero
            worst = max(worst, residual_zero(ea.get(idx) or eb[idx]))
    return worst
