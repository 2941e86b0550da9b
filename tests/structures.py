"""Bivectors and helpers the tests share."""

from weilc.expr import APoint, Var, neg
from weilc.poisson import PoissonStructure


def so3_structure() -> PoissonStructure:
    """The Lie-Poisson bivector with {x1,x2}=x3, {x2,x3}=x1, {x3,x1}=x2."""
    return PoissonStructure(
        3, {(0, 1): Var(2), (1, 2): Var(0), (0, 2): neg(Var(1))}
    )


def allclose(a, b, tol):
    """Same algebra, and every coefficient within tol; a NaN matches nothing."""
    return a.algebra is b.algebra and all(
        abs(x - y) <= tol for x, y in zip(a.coeffs, b.coeffs)
    )


def real_point(algebra, xs):
    return APoint(algebra, tuple(algebra.from_real(x) for x in xs))
