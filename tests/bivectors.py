"""Generated bivectors for the tests: a hypothesis strategy of Nambu
bivectors, and a perturbation of one entry."""

from hypothesis import strategies as st

from weilc.expr import ConstR, ZERO, add, diff, mul, neg
from weilc.poisson import PoissonStructure
from weilc.sampling import random_polynomial, rng_for


def nambu(seed: int) -> PoissonStructure:
    """The Nambu bivector f * (dC x .) on R^3, Poisson for every f and C:
    {x1,x2} = f*d_3C, {x2,x3} = f*d_1C and {x1,x3} = -f*d_2C, with f of
    degree at most 2 and C of degree at most 3 drawn from ``seed``.  With
    f = 1 and C = (x1^2 + x2^2 + x3^2)/2 it is so(3)*."""
    rng = rng_for(seed)
    f = random_polynomial(rng, 3, max_degree=2)
    c = random_polynomial(rng, 3, max_degree=3)
    d1, d2, d3 = (diff(c, k) for k in range(3))
    return PoissonStructure(3, {(0, 1): mul(f, d3), (1, 2): mul(f, d1), (0, 2): neg(mul(f, d2))})


def nambu_bivectors() -> st.SearchStrategy[PoissonStructure]:
    return st.integers(0, 2**32 - 1).map(nambu)


def perturbed(pi: PoissonStructure, pair, seed: int, scale: float) -> PoissonStructure:
    """pi with scale times a polynomial drawn from ``seed`` added to its
    entry at pair."""
    p = mul(ConstR(scale), random_polynomial(rng_for(seed), pi.dim))
    return PoissonStructure(pi.dim, {**pi.entries, pair: add(pi.entries.get(pair, ZERO), p)})
