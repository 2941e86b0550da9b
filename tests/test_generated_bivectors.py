"""The paper's condition over a generated family: Nambu bivectors on R^3
(``bivectors.nambu``), each Poisson by construction, and the same with a
small polynomial added to one entry.

The near-Poisson draws, 1e-12 times a polynomial added, are a known false
pass of ``poisson_full``; they are in ``test_known_false_passes.py``.
"""

from itertools import combinations

import pytest
from hypothesis import Phase, given, settings, strategies as st

from weilc.poisson import jacobi_check, verify_a_poisson
from weilc.sampling import CATALOG, catalog_algebra

from bivectors import nambu_bivectors, perturbed

TOL = 1e-9
ALGEBRAS = [name for name, _ in CATALOG]
PAIRS = list(combinations(range(3), 2))
DRAWS = settings(max_examples=25, deadline=None, derandomize=True, database=None)


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="ROADMAP item 16: the exact verdict reads trees whose constant "
                          "products mul folds in floats, so some Nambu draws leave "
                          "coefficients near 1e-17")
@settings(DRAWS, phases=[Phase.generate])  # the xfail needs only the failure
@given(nambu_bivectors())
def test_every_draw_passes_jacobi_check(pi):
    report = jacobi_check(pi, trials=1, tol=0.0, seed=0)
    assert report.passed, (pi, report.max_residual)


@DRAWS
@given(nambu_bivectors(), st.sampled_from(ALGEBRAS), st.integers(0, 2**32 - 1))
def test_every_draw_passes_poisson_full(pi, name, seed):
    report = verify_a_poisson(pi, catalog_algebra(name), 3, TOL, seed=seed)
    assert report.passed, report.max_residual


@DRAWS
@given(nambu_bivectors(), st.sampled_from(PAIRS), st.integers(0, 2**32 - 1),
       st.sampled_from(ALGEBRAS))
def test_a_perturbed_draw_that_jacobi_check_fails_fails_poisson_full(pi, pair, seed, name):
    # labelled by the exact verdict, not by construction: some perturbations
    # leave the bivector Poisson.  A coefficient within TOL is left out: on a
    # Poisson draw, folded constants can leave ones near 1e-17 (item 16)
    pi = perturbed(pi, pair, seed, 1e-3)
    if jacobi_check(pi, trials=1, tol=0.0, seed=0).max_residual > TOL:
        report = verify_a_poisson(pi, catalog_algebra(name), 3, TOL, seed=seed)
        assert not report.passed, report.max_residual
