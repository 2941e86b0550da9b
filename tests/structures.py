"""Bivectors and helpers the tests share."""

from itertools import combinations

from weilc.expr import APoint, Var, neg, parse
from weilc.poisson import PoissonStructure


def so3_structure() -> PoissonStructure:
    """The Lie-Poisson bivector with {x1,x2}=x3, {x2,x3}=x1, {x3,x1}=x2."""
    return PoissonStructure(
        3, {(0, 1): Var(2), (1, 2): Var(0), (0, 2): neg(Var(1))}
    )


def so_n(n: int) -> PoissonStructure:
    """The Lie-Poisson bivector of so(n)* on the generators L_ab, a < b, in
    lexicographic order (x1 = L_12, x2 = L_13, ...):
    {L_ab, L_cd} = d_bc L_ad - d_ac L_bd - d_bd L_ac + d_ad L_bc, with
    L_ba = -L_ab.  Two distinct generators share at most one index, so at
    most one Kronecker delta is 1, and each entry is one signed generator."""
    pairs = list(combinations(range(n), 2))
    index = {pair: k for k, pair in enumerate(pairs)}

    def generator(a, b):
        return Var(index[a, b]) if a < b else neg(Var(index[b, a]))

    entries = {}
    for p, q in combinations(range(len(pairs)), 2):
        (a, b), (c, d) = pairs[p], pairs[q]
        if b == c:
            entries[p, q] = generator(a, d)
        elif a == c:
            entries[p, q] = neg(generator(b, d))
        elif b == d:
            entries[p, q] = neg(generator(a, c))
        elif a == d:
            entries[p, q] = generator(b, c)
    return PoissonStructure(len(pairs), entries)


def perturbed_so10() -> PoissonStructure:
    """so(10)* with {x1, x2} = -x10 + 0.001*x6*x8 in place of -x10: not
    Poisson, its Jacobiator on x1, x2, x3 has the coefficient 0.001."""
    pi = so_n(10)
    entries = dict(pi.entries)
    entries[0, 1] = parse("-x10 + 0.001*x6*x8", pi.dim)
    return PoissonStructure(pi.dim, entries)


def allclose(a, b, tol):
    """Same algebra, and every coefficient within tol; a NaN matches nothing."""
    return a.algebra is b.algebra and all(
        abs(x - y) <= tol for x, y in zip(a.coeffs, b.coeffs)
    )


def real_point(algebra, xs):
    return APoint(algebra, tuple(algebra.from_real(x) for x in xs))
