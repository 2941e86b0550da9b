"""Bivectors the tests share."""

from weilc.expr import Var, neg
from weilc.poisson import PoissonStructure


def so3_structure() -> PoissonStructure:
    """The Lie-Poisson bivector with {x1,x2}=x3, {x2,x3}=x1, {x3,x1}=x2."""
    return PoissonStructure(
        3, {(0, 1): Var(2), (1, 2): Var(0), (0, 2): neg(Var(1))}
    )
