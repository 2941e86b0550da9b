"""The base convention: a base function, field, form or bivector has algebra
None and evaluates over the algebra of the point it is given.  An operation
on base objects, evaluated at a point over any catalog algebra, equals the
same operation on their prolongations bit for bit: both build the same
trees, and evaluation infers the algebra the prolongation names."""

from itertools import combinations

from hypothesis import given, settings, strategies as st

from weilc import (
    AFunction,
    PoissonStructure,
    contract,
    dform,
    interior,
    lie_derivative,
    prolong_field,
    prolong_form,
    prolong_function,
    wedge,
)
from weilc.poisson import ad_tilde, hamiltonian_field, omega_at, omega_prolonged
from weilc.sampling import (
    CATALOG,
    catalog_algebra,
    random_field,
    random_one_form,
    random_point,
    random_polynomial,
    residual,
    rng_for,
)

NAMES = [name for name, _ in CATALOG]


def bits(element):
    # float.hex tells -0.0 from 0.0, which == does not
    return [c.hex() for c in element.coeffs]


def draw(name, seed):
    """An algebra, a chart dimension, a point, a base field, two base
    1-forms and a base polynomial, all from one seed."""
    algebra = catalog_algebra(name)
    rng = rng_for(seed)
    n = int(rng.integers(2, 4))
    theta = random_field(rng, n)
    x, y = random_one_form(rng, n, None), random_one_form(rng, n, None)
    f = random_polynomial(rng, n)
    return algebra, n, random_point(rng, algebra, n), theta, x, y, f, rng


@settings(max_examples=80, deadline=None)
@given(st.sampled_from(NAMES), st.integers(0, 2**32 - 1))
def test_base_operations_evaluate_as_their_prolongations(name, seed):
    A, n, point, theta, x, y, f, _ = draw(name, seed)
    d, px, py = prolong_field(theta, A), prolong_form(x, A), prolong_form(y, A)
    fn, pf = AFunction(f, n, None), prolong_function(f, n, A)
    pairing = contract(theta, x)
    assert pairing.algebra is None
    assert bits(pairing(point)) == bits(contract(d, px)(point))
    applied = theta.apply(fn)
    assert applied.algebra is None
    assert bits(applied(point)) == bits(d.apply(pf)(point))
    assert bits(theta.apply_at(fn, point)) == bits(d.apply_at(pf, point))
    for base, prolonged in [
        (wedge(x, y), wedge(px, py)),
        (dform(x), dform(px)),
        (interior(theta, x), interior(d, px)),
        (interior(theta, wedge(x, y)), interior(d, wedge(px, py))),
        (lie_derivative(theta, x), lie_derivative(d, px)),
        (lie_derivative(theta, dform(x)), lie_derivative(d, dform(px))),
    ]:
        assert base.algebra is None and prolonged.algebra is A
        lhs, rhs = base.evaluate(point), prolonged.evaluate(point)
        assert lhs.keys() == rhs.keys()
        for idx, value in lhs.items():
            assert value.algebra is A and bits(value) == bits(rhs[idx])


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(NAMES), st.integers(0, 2**32 - 1))
def test_the_base_two_form_at_a_point_is_the_prolonged_one(name, seed):
    A, n, point, _, x, y, f, rng = draw(name, seed)
    pi = PoissonStructure(
        n, {pair: random_polynomial(rng, n, 2) for pair in combinations(range(n), 2)}
    )
    value = omega_at(pi, x, y, point)
    assert value.algebra is A
    # pieces combined in the ring against the symbolic pairing: two routes
    symbolic = omega_prolonged(pi, x, y)
    assert symbolic.algebra is None
    assert residual(value, symbolic(point)) <= 1e-12
    px, py = prolong_form(x, A), prolong_form(y, A)
    assert bits(value) == bits(omega_at(pi, px, py, point))
    # the field of a base form is a base field, as a Hamiltonian field is
    field = ad_tilde(pi, x)
    assert field.algebra is None and hamiltonian_field(pi, f).algebra is None
    assert ad_tilde(pi, px) == prolong_field(field, A)
