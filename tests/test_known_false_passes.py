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
- A wrong derivative rule changes no suite's verdict: every sub-check
  builds both of its sides with the same rules (items 4 and 23).  The
  ``_CHAIN`` rows are patched in the table, and the power and quotient
  rules through ``expr._diff``, before any tree is built: ``diff`` keeps
  each node's partials on the node.
"""

import pytest

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
from weilc.oracle import poly_coeffs_exact, run_suite
from weilc.poisson import PoissonStructure, bracket, verify_a_poisson
from weilc.sampling import CATALOG, catalog_algebra

from structures import perturbed_so10, so3_structure

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
    # its Jacobiator on x1, x2, x3, exactly, as jacobi_check expands it;
    # jacobi_check over all 14,190 triples FAILs it at 0.001 too, in about
    # a minute
    pi = perturbed_so10()
    x1, x2, x3 = (parse(f"x{k}", pi.dim) for k in (1, 2, 3))
    first = add(bracket(pi, x1, bracket(pi, x2, x3)), bracket(pi, x2, bracket(pi, x3, x1)))
    jacobiator = add(first, bracket(pi, x3, bracket(pi, x1, x2)))
    coefficients = poly_coeffs_exact(jacobiator, pi.dim)
    assert max(abs(c) for c in coefficients.values()) == 0.001


@pytest.mark.xfail(strict=True, raises=AssertionError, reason=_ITEM_1)
def test_poisson_full_fails_a_perturbed_so10_over_dual():
    report = verify_a_poisson(perturbed_so10(), catalog_algebra("dual"), 3, TOL, seed=42)
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
