"""Weil algebras presented as quotients of R[x1..xk] by monomial ideals.

A presentation lists generators and a set of monomial relations.  The
quotient is finite dimensional exactly when every generator has a pure
power among the relations; the standard monomials (those divisible by no
relation) then form a canonical basis, ordered graded-lexicographically
with the generator order as declared.

An element holds its coefficients as a list of Python floats, the format
the kernels read and write.  Products and integer powers run one kernel per
algebra, compiled from its product plan: the (i, j, k) triples with i <= j
and e_i e_j = e_k, listed once when the algebra is built, in basis order.
The plan is the algebra's only record of its products.  ``_compile`` turns
a plan into straight-line code that unpacks both arguments into locals and
sums each output slot from +0.0 in that fixed order; an off-diagonal
triple adds a_i b_j + a_j b_i in one step, so a*b and b*a agree bit for
bit.  A Taylor lift runs the algebra's second kernel, ``_compile_lift``'s,
which holds the whole power loop: it takes each power of the nilpotent
part from the triples with i > 0, so the powers stay in the maximal
ideal, and adds each to the sum with its Taylor coefficient.  The loop is
not unrolled, so the kernel does not grow with the height.  The terms it
leaves out are exact zeros, so the lift equals the full-plan Taylor sum
bit for bit whenever it is finite, and a lift with a non-finite
coefficient raises DomainError.  The derivative polynomials of tan are
built once per order.

Evaluation runs on coefficient lists: the lift (``_lift``) and the power
loop (``_power``) take and return lists, and ``expr.eval_weil`` calls them
and the kernel directly.  A WeilElement is built only at the boundaries:
the results of ``eval_weil``, ``taylor_lift`` and ``**``.
"""

from __future__ import annotations

import math
from functools import cache, lru_cache
from numbers import Real
from typing import Callable, Sequence

from .errors import (
    AlgebraMismatch,
    DomainError,
    EmptyRelation,
    NotFiniteDimensional,
    NotMorphism,
    Record,
    WeilcError,
    cut_repr,
    refuse_assignment,
    write_field,
)

Monomial = tuple[int, ...]

MORPHISM_TOL = 1e-12  # entrywise, in every check of validate_morphism


def _pure_powers(relations: Sequence[Monomial], i: int) -> list[int]:
    """Exponents of the relations that are pure powers of generator i."""
    return [
        rel[i]
        for rel in relations
        if rel[i] > 0 and all(e == 0 for j, e in enumerate(rel) if j != i)
    ]


class AlgebraPresentation(Record):
    """Generators plus monomial relations, each relation an exponent vector."""

    __setattr__ = __delattr__ = refuse_assignment
    __match_args__ = ("generators", "relations")

    def __init__(self, generators: tuple[str, ...], relations: tuple[Monomial, ...]):
        write_field(self, "generators", generators)
        write_field(self, "relations", relations)
        k = len(generators)
        for name in generators:
            # elements and relations print the names, where "1" or "" would misread
            if not (name.isascii() and name.isidentifier()):
                raise ValueError(f"generator name {cut_repr(name)} is not an ASCII identifier")
        if len(set(generators)) != k:
            raise ValueError(f"duplicate generator names in {cut_repr(generators)}")
        for rel in relations:
            if len(rel) != k:
                raise ValueError(f"relation {rel} has arity {len(rel)}, expected {k}")
            if any(e < 0 for e in rel):
                raise ValueError(f"relation {rel} has a negative exponent")
            if sum(rel) == 0:
                raise EmptyRelation("a degree-0 relation would kill the unit")
        for i, name in enumerate(generators):
            if not _pure_powers(relations, i):
                raise NotFiniteDimensional(
                    f"generator {cut_repr(name)} has no pure-power relation"
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


# the largest basis a built algebra may have.  Its product plan and kernels
# grow with dim^2: jets(499), of this dimension and the largest plan, builds
# in about 1.4 s with a peak of about 210 MB, and dimension 1,000 took 7.5 s
# and 800 MB.
MAX_ALGEBRA_DIM = 500


def _standard_monomials(presentation: AlgebraPresentation) -> list[Monomial]:
    """The monomials no relation divides, by a walk up the staircase from 1.

    Each is reached once, by one more of its last generator from a standard
    monomial, and a step onto a relation's multiple is pruned.  More than
    ``MAX_ALGEBRA_DIM`` of them raise WeilcError."""
    k = len(presentation.generators)
    found = [(0,) * k]
    for m in found:  # the list grows as the walk goes
        last = max((i for i, e in enumerate(m) if e), default=0)
        for i in range(last, k):
            step = m[:i] + (m[i] + 1,) + m[i + 1:]
            if not any(_divides(rel, step) for rel in presentation.relations):
                if len(found) == MAX_ALGEBRA_DIM:
                    raise WeilcError(
                        f"the algebra {presentation.describe()} has more than "
                        f"{MAX_ALGEBRA_DIM} basis monomials (MAX_ALGEBRA_DIM)"
                    )
                found.append(step)
    return found


class WeilAlgebra:
    """A built algebra: basis, product plan, height, augmentation.

    Instances are immutable after construction and act as identity handles:
    elements of two separately built algebras never mix, even if the
    presentations coincide.
    """

    def __init__(self, presentation: AlgebraPresentation):
        self.presentation = presentation
        candidates = _standard_monomials(presentation)
        candidates.sort(key=lambda m: (sum(m), tuple(-e for e in m)))
        self.basis: tuple[Monomial, ...] = tuple(candidates)
        self.dim = len(self.basis)
        self.height = max(sum(m) for m in self.basis)
        index = {m: i for i, m in enumerate(self.basis)}

        # The product plan lists the non-zero products e_i e_j = e_k with
        # i <= j, in the order the kernels accumulate them.  A monomial
        # outside the ideal is a standard one, so the basis index decides.
        plan = []
        for i, mi in enumerate(self.basis):
            for j in range(i, self.dim):
                k = index.get(tuple(a + b for a, b in zip(mi, self.basis[j])))
                if k is not None:
                    plan.append((i, j, k))
        self.product_plan: tuple[tuple[int, int, int], ...] = tuple(plan)
        self._index = index
        self._mul = _compile(self.product_plan, self.dim)
        # the powers of a Taylor lift stay in the maximal ideal
        self._lift_sum = _compile_lift(
            tuple(t for t in self.product_plan if t[0] > 0), self.dim
        )

    # -- element constructors -------------------------------------------------

    def element(self, coeffs: Sequence[float]) -> "WeilElement":
        """An element from one real number per basis monomial."""
        try:
            values = list(coeffs)
        except TypeError:  # a scalar
            values = []
        if len(values) != self.dim or not all(isinstance(c, Real) for c in values):
            raise AlgebraMismatch(
                f"expected {self.dim} real coefficients, got {coeffs!r}"
            )
        return WeilElement(self, [float(c) for c in values])

    def zero(self) -> "WeilElement":
        return WeilElement(self, [0.0] * self.dim)

    def unit(self) -> "WeilElement":
        return self.from_real(1.0)

    def from_real(self, x: float) -> "WeilElement":
        return WeilElement(self, [float(x)] + [0.0] * (self.dim - 1))

    def generator(self, name: str) -> "WeilElement":
        k = len(self.presentation.generators)
        try:
            g = self.presentation.generators.index(name)
        except ValueError:
            raise AlgebraMismatch(f"no generator named {name!r}") from None
        mono = tuple(1 if i == g else 0 for i in range(k))
        idx = self._index.get(mono)  # None when the generator lies in the ideal
        return WeilElement(self, [float(i == idx) for i in range(self.dim)])

    # -- misc -----------------------------------------------------------------

    def basis_names(self) -> list[str]:
        return [monomial_name(m, self.presentation.generators) for m in self.basis]

    def describe(self) -> str:
        return self.presentation.describe()

    def __repr__(self):
        return f"WeilAlgebra({self.describe()}, dim={self.dim}, height={self.height})"

    # An algebra is an identity handle: a shallow or deep copy keeps it, and
    # pickling keeps its presentation, so one load rebuilds one new algebra
    # (its kernels from the _compile cache) for every element that refers to it.
    def __copy__(self):
        return self

    def __deepcopy__(self, memo):
        return self

    def __reduce__(self):
        return WeilAlgebra, (self.presentation,)


def build_algebra(presentation: AlgebraPresentation) -> WeilAlgebra:
    return WeilAlgebra(presentation)


@cache
def trivial_algebra() -> WeilAlgebra:
    """The base field R as one shared height-0 algebra (the augmentation target)."""
    return build_algebra(AlgebraPresentation((), ()))


def dual_numbers(name: str = "eps") -> WeilAlgebra:
    return build_algebra(AlgebraPresentation((name,), ((2,),)))


def jets(order: int, name: str = "t") -> WeilAlgebra:
    """R[t]/(t^(order+1)): truncated Taylor expansions to the given order."""
    return build_algebra(AlgebraPresentation((name,), ((order + 1,),)))


# Terms per statement in a compiled kernel: CPython's compiler recurses once
# per `+`, and a chain of a few thousand overflows its stack.
_CHUNK = 256


def _slot_sums(
    plan: tuple[tuple[int, int, int], ...], dim: int, a: str, b: str, out: str, indent: str
) -> list[str]:
    """Statements that set out0 .. out<dim-1> to the slots of a*b over a plan.

    Slot k is ``0.0 + t1 + t2 + ...`` with its terms in plan order: a_i b_i
    for a diagonal triple, (a_i b_j + a_j b_i) for an off-diagonal one, read
    from the locals a0, b0, ...; a slot longer than _CHUNK terms continues in
    further statements.
    """
    terms: list[list[str]] = [[] for _ in range(dim)]
    for i, j, k in plan:
        terms[k].append(f"{a}{i}*{b}{i}" if i == j else f"({a}{i}*{b}{j} + {a}{j}*{b}{i})")
    lines = []
    for k, slot in enumerate(terms):
        lines.append(f"{indent}{out}{k} = " + " + ".join(["0.0", *slot[:_CHUNK]]))
        for start in range(_CHUNK, len(slot), _CHUNK):
            chunk = slot[start : start + _CHUNK]
            lines.append(f"{indent}{out}{k} = " + " + ".join([f"{out}{k}", *chunk]))
    return lines


def _build(name: str, lines: list[str]) -> Callable:
    """The function ``name`` that the generated source lines define."""
    namespace: dict = {}
    exec("\n".join(lines), namespace)
    return namespace[name]


def _names(prefix: str, dim: int) -> str:
    """The tuple text 'prefix0, prefix1, ..., ' of dim locals."""
    return "".join(f"{prefix}{k}, " for k in range(dim))


@lru_cache(maxsize=None)
def _compile(
    plan: tuple[tuple[int, int, int], ...], dim: int
) -> Callable[[list[float], list[float]], list[float]]:
    """Straight-line code for the coefficient list of a*b over a plan.

    The kernel unpacks a and b into locals and sums each slot as
    ``_slot_sums`` writes it.  The cache keeps one kernel per plan across
    rebuilds of the same algebra.
    """
    lines = ["def kernel(a, b):"]
    lines += [f"    {_names(name, dim)}= {name}" for name in "ab"]
    lines += _slot_sums(plan, dim, "a", "b", "s", "    ")
    lines.append("    return [" + _names("s", dim) + "]")
    return _build("kernel", lines)


@lru_cache(maxsize=None)
def _compile_lift(
    ideal_plan: tuple[tuple[int, int, int], ...], dim: int
) -> Callable[[list[float], list, int], list[float]]:
    """Straight-line code for the Taylor sum of a lift, its power loop inside.

    ``lift(a, derivs, h)`` returns sum_j derivs[j] n^j / j! for j <= h, with
    n the element a with slot 0 set to +0.0.  Each pass of the loop takes
    the next power p = p*n over ``ideal_plan`` (the products of two
    elements of the maximal ideal) as ``_slot_sums`` writes it, stops when
    every slot of p is zero, and adds p * derivs[j]/j! to every slot of the
    sum.  The loop is not unrolled, so the code does not grow with the
    height.  The cache keeps one kernel per plan.
    """
    lines = [
        "def lift(a, derivs, h):",
        f"    {_names('n', dim)}= a",
        "    n0 = 0.0",
        f"    {_names('p', dim)}= {_names('n', dim)}",
        f"    {_names('o', dim)}= float(derivs[0]), " + "0.0, " * (dim - 1),
        "    f = 1.0",
        "    for j in range(1, h + 1):",
        "        if j > 1:",
        *_slot_sums(ideal_plan, dim, "p", "n", "q", "            "),
        f"            {_names('p', dim)}= {_names('q', dim)}",
        "        if not (" + " or ".join(f"p{k}" for k in range(dim)) + "):",
        "            break",
        "        f *= j",
        "        s = derivs[j] / f",
        *(f"        o{k} = o{k} + p{k}*s" for k in range(dim)),
        "    return [" + _names("o", dim) + "]",
    ]
    return _build("lift", lines)


class WeilElement:
    """A coefficient list over an algebra's standard-monomial basis."""

    __slots__ = ("algebra", "coeffs")

    def __init__(self, algebra: WeilAlgebra, coeffs: list[float]):
        self.algebra = algebra
        self.coeffs = coeffs

    @property
    def real(self) -> float:
        return self.coeffs[0]

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
        return WeilElement(self.algebra, [x + y for x, y in zip(self.coeffs, o.coeffs)])

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return WeilElement(self.algebra, [x - y for x, y in zip(self.coeffs, o.coeffs)])

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return WeilElement(self.algebra, [y - x for x, y in zip(self.coeffs, o.coeffs)])

    def __neg__(self):
        return WeilElement(self.algebra, [-x for x in self.coeffs])

    def __mul__(self, other):
        if isinstance(other, (int, float)):
            s = float(other)  # a numpy float would spread into the list
            return WeilElement(self.algebra, [x * s for x in self.coeffs])
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return WeilElement(self.algebra, self.algebra._mul(self.coeffs, o.coeffs))

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, (int, float)):
            s = float(other)
            if s == 0.0:
                raise DomainError("division by zero")
            return WeilElement(self.algebra, [x / s for x in self.coeffs])
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self * taylor_lift(RECIPROCAL, o)

    def __pow__(self, k: int):
        if not isinstance(k, int):
            return NotImplemented
        return WeilElement(self.algebra, _power(self.algebra, self.coeffs, k))

    def __eq__(self, other):
        if not isinstance(other, WeilElement):
            return NotImplemented
        # float ==, not list ==: NaN never equals itself, and -0.0 == 0.0
        return self.algebra is other.algebra and all(
            x == y for x, y in zip(self.coeffs, other.coeffs)
        )

    def __hash__(self):
        # equal elements share the algebra, and float == agrees with hash
        return hash((id(self.algebra), tuple(self.coeffs)))

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


class PrimitiveFn:
    """An elementary function with a derivative-sequence rule.

    ``derivatives(r, order)`` returns [f(r), f'(r), ..., f^(order)(r)] and
    raises DomainError when r (or the derivatives up to that order) leave
    the real domain.  Names are unique, so identity of the rule is identity
    of the name.
    """

    __setattr__ = __delattr__ = refuse_assignment

    def __init__(self, name: str, derivatives: Callable[[float, int], list[float]]):
        write_field(self, "name", name)
        write_field(self, "derivatives", derivatives)

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


@lru_cache(maxsize=None)
def _tan_polys(order: int) -> tuple[tuple[float, ...], ...]:
    # d/dx tan = 1 + tan^2, so f^(j) is a polynomial P_j in t = tan(x); the
    # recurrence P_{j+1} = P_j'(t) * (1 + t^2) stays in coefficient space.
    polys = [(0.0, 1.0)]  # coefficients of P_0(t) = t
    for _ in range(order):
        dpoly = [i * c for i, c in enumerate(polys[-1])][1:] or [0.0]
        nxt = [0.0] * (len(dpoly) + 2)
        for i, c in enumerate(dpoly):
            nxt[i] += c
            nxt[i + 2] += c
        polys.append(tuple(nxt))
    return tuple(polys)


def _tan_derivs(r: float, order: int) -> list[float]:
    t = math.tan(r)
    return [sum(c * t**i for i, c in enumerate(poly)) for poly in _tan_polys(order)]


def _recip_derivs(r: float, order: int) -> list[float]:
    if r == 0.0:
        raise DomainError("reciprocal undefined at 0")
    return [(-1.0) ** j * math.factorial(j) / r ** (j + 1) for j in range(order + 1)]


def _sqrt_derivs(r: float, order: int) -> list[float]:
    """f^(j)(r) = (1/2)(1/2 - 1)...(1/2 - j + 1) r^(1/2 - j)."""
    if not r >= 0.0 or (r == 0.0 and order >= 1):  # NaN included
        raise DomainError(f"sqrt derivatives undefined at {r}")
    if r == 0.0:
        return [0.0]
    out = []
    factor = 1.0
    for j in range(order + 1):
        out.append(factor * r ** (0.5 - j))
        factor *= 0.5 - j
    return out


EXP = PrimitiveFn("exp", _exp_derivs)
LOG = PrimitiveFn("log", _log_derivs)
SIN = PrimitiveFn("sin", _sin_derivs)
COS = PrimitiveFn("cos", _cos_derivs)
TAN = PrimitiveFn("tan", _tan_derivs)
SQRT = PrimitiveFn("sqrt", _sqrt_derivs)
RECIPROCAL = PrimitiveFn("recip", _recip_derivs)


# the functions of the expression grammar, by name; RECIPROCAL is none of
# them, and lifts only division and negative powers
PRIMITIVES = {fn.name: fn for fn in (EXP, LOG, SIN, COS, TAN, SQRT)}


def taylor_lift(prim: PrimitiveFn, a: WeilElement) -> WeilElement:
    """Evaluate g(a) = sum_j g^(j)(r) n^j / j! with r the real part, n nilpotent.

    The sum is finite because n^(height+1) = 0; the real part of the result
    is g(r) by construction.  The powers n^j stay in the maximal ideal, and
    a result with a non-finite coefficient raises DomainError.
    """
    return WeilElement(a.algebra, _lift(prim, a.algebra, a.coeffs))


def _lift(prim: PrimitiveFn, algebra: WeilAlgebra, a: list[float]) -> list[float]:
    """taylor_lift over the coefficient list a of an element of algebra."""
    r = a[0]
    h = algebra.height
    try:
        derivs = prim.derivatives(r, h)
    except OverflowError as exc:
        raise DomainError(f"{prim.name} overflows at {r}") from exc
    except (ValueError, ZeroDivisionError) as exc:
        # sin(inf), or 1/r^(j+1) when r^(j+1) underflows to zero; a real
        # element multiplies no derivative, so f(r) alone is its lift
        try:
            if any(a[1:]):
                raise
            derivs = prim.derivatives(r, 0) + [0.0] * h
        except (ValueError, ZeroDivisionError):
            raise DomainError(f"{prim.name} derivatives undefined at {r}") from exc
    out = algebra._lift_sum(a, derivs, h)
    if not all(map(math.isfinite, out)):
        raise DomainError(f"{prim.name} lift at {r} is not finite")
    return out


def _power(algebra: WeilAlgebra, a: list[float], k: int) -> list[float]:
    """a^k over coefficient lists: |k| products from the unit, of the lift of 1/a if k < 0."""
    if k < 0:
        a, k = _lift(RECIPROCAL, algebra, a), -k
    out = [1.0] + [0.0] * (algebra.dim - 1)
    for _ in range(k):
        out = algebra._mul(out, a)
    return out


Matrix = tuple[tuple[float, ...], ...]


def _rows(matrix) -> tuple[Matrix, str]:
    """A matrix as a tuple of float rows, with its shape as text: "(rows,
    columns)", the columns read 'ragged' when the rows differ in length, and
    "()" when the matrix is not a sequence of sequences of real numbers (a
    string row is not one)."""
    try:
        rows = tuple(tuple(row) for row in matrix)
    except TypeError:
        return (), "()"
    if not all(isinstance(x, Real) for row in rows for x in row):
        return (), "()"
    widths = {len(row) for row in rows} or {0}
    shape = f"({len(rows)}, {widths.pop() if len(widths) == 1 else 'ragged'})"
    return tuple(tuple(map(float, row)) for row in rows), shape


def _matvec(matrix: Matrix, v: Sequence[float]) -> list[float]:
    """matrix @ v, each entry summed left to right from 0.0."""
    out = []
    for row in matrix:
        total = 0.0
        for m, x in zip(row, v):
            total += m * x
        out.append(total)
    return out


def apply_linear(matrix, a: WeilElement) -> WeilElement:
    """Apply an R-linear endomorphism of the algebra, coefficientwise."""
    rows, shape = _rows(matrix)
    if shape != str((a.algebra.dim, a.algebra.dim)):
        raise AlgebraMismatch(
            f"endomorphism matrix {shape} does not fit dim {a.algebra.dim}"
        )
    return WeilElement(a.algebra, _matvec(rows, a.coeffs))


# -- algebra morphisms ----------------------------------------------------------


class AlgebraMorphism(Record):
    """A validated algebra map, stored as a dim(B) x dim(A) matrix of float rows."""

    __setattr__ = __delattr__ = refuse_assignment
    __match_args__ = ("source", "target", "matrix")

    def __init__(self, source: WeilAlgebra, target: WeilAlgebra, matrix: Matrix):
        write_field(self, "source", source)
        write_field(self, "target", target)
        write_field(self, "matrix", matrix)

    def apply(self, a: WeilElement) -> WeilElement:
        if a.algebra is not self.source:
            raise AlgebraMismatch("element does not live over the morphism source")
        return WeilElement(self.target, _matvec(self.matrix, a.coeffs))

    def __call__(self, a: WeilElement) -> WeilElement:
        return self.apply(a)


def _close(xs: Sequence[float], ys: Sequence[float]) -> bool:
    """Entrywise within MORPHISM_TOL; a NaN on either side is no match."""
    return all(abs(x - y) <= MORPHISM_TOL for x, y in zip(xs, ys))


def validate_morphism(
    source: WeilAlgebra, target: WeilAlgebra, matrix
) -> AlgebraMorphism:
    """Check unit, multiplicativity on all basis pairs, and augmentation."""
    rows, shape = _rows(matrix)
    if shape != str((target.dim, source.dim)):
        raise NotMorphism(f"matrix shape {shape}, expected {(target.dim, source.dim)}")
    if not all(math.isfinite(x) for row in rows for x in row):
        raise NotMorphism("matrix has a non-finite entry")
    if not _close([row[0] for row in rows], target.unit().coeffs):
        raise NotMorphism("unit is not mapped to the unit")
    if not _close(rows[0], source.unit().coeffs):
        raise NotMorphism("map does not commute with the augmentations")
    images = [WeilElement(target, [row[i] for row in rows]) for i in range(source.dim)]
    products = {(i, j): k for i, j, k in source.product_plan}
    # the kernel is symmetric, so the pairs with i <= j cover every pair
    for i in range(source.dim):
        for j in range(i, source.dim):
            k = products.get((i, j))
            lhs = images[i] * images[j]
            rhs = images[k].coeffs if k is not None else target.zero().coeffs
            if not _close(lhs.coeffs, rhs):
                raise NotMorphism(
                    f"not multiplicative on basis pair "
                    f"({source.basis_names()[i]}, {source.basis_names()[j]})"
                )
    return AlgebraMorphism(source, target, rows)


def augmentation_morphism(source: WeilAlgebra) -> AlgebraMorphism:
    """The projection onto R, as a morphism into the trivial algebra."""
    return validate_morphism(source, trivial_algebra(), [source.unit().coeffs])
