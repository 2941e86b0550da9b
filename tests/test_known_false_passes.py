"""The known false passes of the check suites, each a strict xfail.

Each test asserts the verdict a sound check would give.  While the defect
stands the assertion fails and pytest reports the test as xfailed; once it
is mended the test passes, and ``xfail_strict`` fails the run with XPASS
until the change that mends it removes the marker.  ``pytest --runxfail``
runs the file with the markers ignored, which shows every marked test
failing.

- ``tiny`` is not Poisson, yet ``poisson_full`` passes it on every
  ``CATALOG`` algebra but jet4 (ROADMAP item 1).
- shifted3 is not Poisson, yet ``poisson_full`` passes it at 3 trials on
  three seeds, where its three random functions miss a coordinate (item 1).
- so(10)* with 0.001*x6*x8 added to {x1, x2} is not Poisson, yet
  ``poisson_full`` passes it over dual at seed 42 and 3 trials: on a wide
  chart the random functions' Jacobiator rarely meets the defect (item 1).
- Nambu bivectors on R^3 (``bivectors.nambu``) with 1e-12 times a
  polynomial added to one entry are not Poisson, as ``jacobi_check``
  decides exactly, yet ``poisson_full`` passes them at 3 trials: the
  Jacobiator, near 1e-12, is below its tolerance (item 1).
- so(3)* scaled by 1/4 with 1e-12*x1^2 added to {x1, x3} is not Poisson,
  as ``jacobi_check`` decides exactly when the scale is written ``0.25*``,
  yet ``jacobi_check`` passes it when the scale is written ``/4``: the
  exact path refuses a quotient, and the sampled Jacobiator is below its
  tolerance (item 16).
- A wrong derivative rule changes no suite's verdict: every sub-check
  builds both of its sides with the same rules (items 4 and 23).  The
  ``_CHAIN`` rows are patched in the table, and the power and quotient
  rules through ``expr._diff``, before any tree is built: ``diff`` keeps
  each node's partials on the node.
"""

import pytest
from hypothesis import Phase, given, settings, strategies as st

import weilc.expr
from weilc.algebra import PRIMITIVES
from weilc.expr import (
    ONE,
    Apply,
    ConstR,
    Div,
    Pow,
    add,
    diff,
    div,
    eval_real,
    mul,
    parse,
    power,
    sub,
)
from weilc.oracle import run_suite
from weilc.poisson import PoissonStructure, jacobi_check, verify_a_poisson
from weilc.sampling import CATALOG, catalog_algebra

from bivectors import nambu_bivectors, perturbed
from structures import perturbed_so10, so3_structure, so_n

TOL = 1e-9


def _tiny():
    # {x1,x2} = 1 and {x2,x3} = 1e-12*x2: the coordinate Jacobiator is 1e-12
    return PoissonStructure(3, {(0, 1): parse("1", 3), (1, 2): parse("1e-12*x2", 3)})


def _shifted3():
    return PoissonStructure(3, {(0, 1): parse("1", 3), (1, 2): parse("x2", 3)})


_ITEM_1 = "ROADMAP item 1: poisson_full samples the Jacobi identity on random functions"


@pytest.mark.parametrize(
    "name",
    [pytest.param(name, marks=pytest.mark.xfail(strict=True, raises=AssertionError,
                                                 reason=_ITEM_1))
     if name != "jet4" else name
     for name, _ in CATALOG],
)
def test_poisson_full_fails_tiny(name):
    report = verify_a_poisson(_tiny(), catalog_algebra(name), 100, TOL, seed=42)
    assert not report.passed, report.max_residual


@pytest.mark.xfail(strict=True, raises=AssertionError, reason=_ITEM_1)
@pytest.mark.parametrize("seed, name", [(1537, "corner3"), (2862, "corner3"), (3413, "dual")])
def test_poisson_full_fails_shifted3_at_3_trials(seed, name):
    report = verify_a_poisson(_shifted3(), catalog_algebra(name), 3, TOL, seed=seed)
    assert not report.passed, report.max_residual


def test_the_perturbed_so10_is_not_poisson():
    # exactly, over all 14,190 coordinate triples
    report = jacobi_check(perturbed_so10(), trials=1, tol=1e-9, seed=42)
    assert not report.passed and report.max_residual == 0.001
    assert report.witnesses[0].inputs == {
        "check": "jacobi", "f": "x1", "g": "x2", "h": "x3", "monomial": "x8*x27"}


def test_so10_is_poisson():
    report = jacobi_check(so_n(10), trials=1, tol=0.0, seed=42)
    assert report.passed and report.max_residual == 0.0


def _quartered_so3(scale):
    # {x1,x2} = x3/4, {x2,x3} = x1/4, {x1,x3} = -x2/4 + 1e-12*x1^2, with each
    # quarter written as ``scale`` gives it
    return PoissonStructure(3, {(0, 1): parse(scale("x3"), 3), (1, 2): parse(scale("x1"), 3),
                                (0, 2): parse(f"-{scale('x2')} + 1e-12*x1^2", 3)})


def test_the_perturbed_quartered_so3_is_not_poisson():
    report = jacobi_check(_quartered_so3(lambda x: f"0.25*{x}"), trials=100, tol=TOL, seed=42)
    assert not report.passed and report.max_residual == 5e-13


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="ROADMAP item 16: the exact Jacobi path refuses a quotient, and "
                          "the sampled one misses a 1e-12 Jacobiator")
def test_jacobi_check_fails_it_with_the_quarters_written_as_quotients():
    report = jacobi_check(_quartered_so3(lambda x: f"{x}/4"), trials=100, tol=TOL, seed=42)
    assert not report.passed, report.max_residual


@pytest.mark.xfail(strict=True, raises=AssertionError, reason=_ITEM_1)
def test_poisson_full_fails_a_perturbed_so10_over_dual():
    report = verify_a_poisson(perturbed_so10(), catalog_algebra("dual"), 3, TOL, seed=42)
    assert not report.passed, report.max_residual


@pytest.mark.xfail(strict=True, raises=AssertionError, reason=_ITEM_1)
# a failing draw is not shrunk: the xfail needs only the failure
@settings(max_examples=25, deadline=None, derandomize=True, database=None,
          phases=[Phase.generate])
@given(nambu_bivectors(), st.sampled_from([(0, 1), (0, 2), (1, 2)]),
       st.integers(0, 2**32 - 1), st.sampled_from([name for name, _ in CATALOG]))
def test_poisson_full_fails_a_near_poisson_nambu_draw(pi, pair, seed, name):
    # labelled by the exact verdict: 1e-12 times a polynomial added to one
    # entry leaves a Jacobiator of about 1e-12, below poisson_full's TOL
    pi = perturbed(pi, pair, seed, 1e-12)
    if not jacobi_check(pi, trials=1, tol=0.0, seed=0).passed:
        report = verify_a_poisson(pi, catalog_algebra(name), 3, TOL, seed=seed)
        assert not report.passed, report.max_residual


# -- wrong derivative rules ---------------------------------------------------------------

_CHAIN_MUTANTS = {
    "cos_plus_sin": ("cos", lambda e: Apply(PRIMITIVES["sin"], e.arg)),
    "tan_one_minus": ("tan", lambda e: sub(ONE, power(e, 2))),
}


def _power_rule(factor):
    # the power rule with its factor k*b^(k-1) replaced
    def rule(e, i):
        return mul(factor(e.base, e.exponent), weilc.expr._diff(e.base, i))
    return Pow, rule


def _quotient_rule(numerator):
    # the quotient rule (u' - e*v')/v, for e = u/v, with its numerator replaced
    def rule(e, i):
        dv = weilc.expr._diff(e.right, i)
        return div(numerator(weilc.expr._diff(e.left, i), e, dv), e.right)
    return Div, rule


_DIFF_MUTANTS = {
    "power_plus": _power_rule(lambda b, k: add(ConstR(float(k)), power(b, k - 1))),
    "power_up": _power_rule(lambda b, k: mul(ConstR(float(k)), power(b, k + 1))),
    "quotient_plus": _quotient_rule(lambda du, e, dv: add(du, mul(e, dv))),
    "quotient_sum": _quotient_rule(lambda du, e, dv: sub(du, add(e, dv))),
}


def _patch(monkeypatch, mutant):
    if mutant in _CHAIN_MUTANTS:
        name, row = _CHAIN_MUTANTS[mutant]
        monkeypatch.setitem(weilc.expr._CHAIN, name, row)
        return
    kind, rule = _DIFF_MUTANTS[mutant]
    plain = weilc.expr._diff

    # the recursions of both rules go through the patched name
    def mutated(e, i):
        return rule(e, i) if type(e) is kind else plain(e, i)

    monkeypatch.setattr(weilc.expr, "_diff", mutated)


# a tree that each mutant differentiates, built fresh, and its true partial
# by x1
_PROBES = {
    "cos_plus_sin": (lambda: parse("cos(x1*x2)", 2), "-sin(x1*x2)*x2"),
    "tan_one_minus": (lambda: parse("tan(x1*x2)", 2), "(1 + tan(x1*x2)^2)*x2"),
    "power_plus": (lambda: parse("(x1*x2)^3", 2), "3*(x1*x2)^2*x2"),
    "power_up": (lambda: parse("(x1*x2)^3", 2), "3*(x1*x2)^2*x2"),
    "quotient_plus": (lambda: parse("x1/(x1 + x2)", 2), "x2/(x1 + x2)^2"),
    "quotient_sum": (lambda: parse("x1/(x1 + x2)", 2), "x2/(x1 + x2)^2"),
}
_MUTANTS = sorted(_PROBES)


def _suite_verdicts():
    # the four suites that take no bivector, and so3 over two algebras
    verdicts = {suite: run_suite(suite, 42, 10, TOL).passed
                for suite in ("hom_laws", "field_prolong", "bracket_prolong", "cartan")}
    for name in ("jet2", "corner3"):
        verdicts[f"poisson_full so3 {name}"] = run_suite(
            "poisson_full", 42, 10, TOL, pi=so3_structure(), algebra=catalog_algebra(name)
        ).passed
    return verdicts


@pytest.mark.parametrize("mutant", _MUTANTS)
def test_each_mutant_changes_a_derivative(monkeypatch, mutant):
    # the patch is in place: the mutant's partial is not the true one
    build, text = _PROBES[mutant]
    at = (0.6, 0.8)
    truth = eval_real(parse(text, 2), at)
    assert abs(eval_real(diff(build(), 0), at) - truth) < 1e-12
    _patch(monkeypatch, mutant)
    assert abs(eval_real(diff(build(), 0), at) - truth) > 0.1


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="ROADMAP items 4 and 23: no suite's verdict depends on the "
                          "derivative rules")
@pytest.mark.parametrize("mutant", _MUTANTS)
def test_a_suite_fails_under_a_wrong_rule(monkeypatch, mutant):
    _patch(monkeypatch, mutant)
    verdicts = _suite_verdicts()
    assert not all(verdicts.values()), verdicts
