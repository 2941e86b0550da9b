"""Finite-difference oracle, exact polynomial expansion, suite registry."""

import json
import math
import re
import sys
import time
from fractions import Fraction
from pathlib import Path

import mpmath
import numpy as np
import pytest

import weilc.expr
import weilc.sampling
from weilc import canonical_structure, dual_numbers, jacobi_check, run_suite, taylor_coeffs
from weilc.algebra import WeilAlgebra
from weilc.config import load_config
from weilc.errors import DimensionMismatch, DomainError, UnknownSuite, WeilcError
from weilc.expr import Add, Mul, Var, parse
from weilc.oracle import DEFAULTS, SUITES, central_diff_weights, poly_coeffs_exact
from weilc.poisson import CheckReport, PoissonStructure


class TestWeights:
    def test_first_derivative_three_points(self):
        assert central_diff_weights(1, 1) == (
            Fraction(-1, 2),
            Fraction(0),
            Fraction(1, 2),
        )

    def test_second_derivative_three_points(self):
        assert central_diff_weights(2, 1) == (Fraction(1), Fraction(-2), Fraction(1))

    def test_moment_conditions(self):
        for deriv, m in ((3, 4), (4, 5)):
            w = central_diff_weights(deriv, m)
            for t in range(2 * m + 1):
                total = sum(c * Fraction(k) ** t for c, k in zip(w, range(-m, m + 1)))
                expected = Fraction(
                    [1, 1, 2, 6, 24, 120, 720, 5040, 40320, 362880][t]
                ) if t == deriv else Fraction(0)
                assert total == expected


class TestTaylorCoeffs:
    def test_exp_at_zero(self):
        coeffs = np.array(taylor_coeffs(mpmath.exp, 0.0, 2))
        assert np.all(np.abs(coeffs - [1.0, 1.0, 0.5]) <= 1e-6)

    def test_cubic_polynomial(self):
        coeffs = np.array(taylor_coeffs(lambda x: x**3, 1.0, 3))
        assert np.all(np.abs(coeffs - [1.0, 3.0, 3.0, 1.0]) <= 1e-6)

    def test_polynomial_self_consistency(self):
        # a degree-h polynomial is reproduced to 1e-8
        rng = np.random.Generator(np.random.PCG64(1))
        for _ in range(10):
            c = rng.uniform(-2, 2, 5)
            f = lambda x: c[0] + c[1] * x + c[2] * x**2 + c[3] * x**3 + c[4] * x**4
            r = float(rng.uniform(-1, 1))
            coeffs = np.array(taylor_coeffs(f, r, 4))
            expected = [
                f(r),
                c[1] + 2 * c[2] * r + 3 * c[3] * r**2 + 4 * c[4] * r**3,
                c[2] + 3 * c[3] * r + 6 * c[4] * r**2,
                c[3] + 4 * c[4] * r,
                c[4],
            ]
            assert np.all(np.abs(coeffs - np.array(expected)) <= 1e-8)

    def test_log_domain_errors(self):
        with pytest.raises(DomainError):
            taylor_coeffs(mpmath.log, 0.0, 2)
        with pytest.raises(DomainError):
            taylor_coeffs(mpmath.log, -1.0, 1)

    def test_reciprocal_near_zero(self):
        with pytest.raises(DomainError):
            taylor_coeffs(lambda x: 1 / x, 0.0, 1)

    def test_without_mpmath_names_the_test_extra(self, monkeypatch):
        monkeypatch.setitem(sys.modules, "mpmath", None)
        with pytest.raises(WeilcError, match=r"weilc\[test\]"):
            taylor_coeffs(math.exp, 0.0, 2)

    def test_order_limit(self):
        for h in (7, -1):
            with pytest.raises(DomainError, match=f"oracle order {h} outside 0..6"):
                taylor_coeffs(mpmath.exp, 0.0, h)


class TestPolyOracle:
    def test_binomial_square(self):
        e = parse("(x1 + x2)^2", 2)
        assert poly_coeffs_exact(e, 2) == {
            (2, 0): Fraction(1),
            (1, 1): Fraction(2),
            (0, 2): Fraction(1),
        }

    def test_cancellation(self):
        e = parse("x1*x2 - x2*x1", 2)
        assert poly_coeffs_exact(e, 2) == {}

    def test_non_polynomial_rejected(self):
        with pytest.raises(ValueError):
            poly_coeffs_exact(parse("sin(x1)", 1), 1)
        with pytest.raises(ValueError):
            poly_coeffs_exact(parse("1/x1", 1), 1)

    @pytest.mark.parametrize(
        "e, n, name",
        [(parse("x1*x3", 3), 2, "x3"), (Var(2), 1, "x3")],
        ids=["x1*x3-n2", "x3-n1"],
    )
    def test_a_variable_beyond_n_is_refused(self, e, n, name):
        # it must not be read as the constant 1
        with pytest.raises(DimensionMismatch, match=f"uses {name} on a chart of dimension {n}"):
            poly_coeffs_exact(e, n)

    def test_a_shared_dag_is_expanded_once_per_node(self):
        # 41 distinct nodes, 2^40 paths from the root to the leaf
        e = Var(0)
        for _ in range(40):
            e = Add(e, e)
        start = time.perf_counter()
        assert poly_coeffs_exact(e, 1) == {(1,): Fraction(2**40)}
        assert time.perf_counter() - start < 1.0

    def test_a_shared_node_keeps_its_expansion(self):
        # a sum over a shared node leaves that node's expansion as it was,
        # and a caller may add into the result
        e = Mul(Var(0), Var(0))
        total = poly_coeffs_exact(Add(Add(e, e), e), 1)
        assert total == {(2,): Fraction(3)}
        total[(2,)] += 1
        assert poly_coeffs_exact(e, 1) == {(2,): Fraction(1)}


class TestRunSuite:
    def test_all_registered_suites_pass(self):
        for suite in ("hom_laws", "field_prolong", "bracket_prolong", "cartan"):
            report = run_suite(suite, seed=42, trials=25, tol=1e-9)
            assert report.passed, report.summary()

    def test_unknown_suite(self):
        with pytest.raises(UnknownSuite):
            run_suite("nosuch", seed=0, trials=1, tol=1e-9)

    @pytest.mark.parametrize(
        "suite", [suite for suite, (_, takes) in SUITES.items() if set(DEFAULTS) - set(takes)])
    def test_pi_and_algebra_only_for_poisson_full(self, suite):
        # each input that a suite does not take in SUITES is refused, by one
        # rule that names the inputs it does take
        takes = SUITES[suite][1]
        given = {"pi": canonical_structure(1), "algebra": dual_numbers()}
        for name in DEFAULTS:
            if name not in takes:
                message = f"suite '{suite}' takes no {name}; it takes {', '.join(takes) or 'none'}"
                with pytest.raises(WeilcError, match=f"^{re.escape(message)}$"):
                    run_suite(suite, seed=0, trials=1, tol=1e-9, **{name: given[name]})

    def test_zero_trials_vacuous(self):
        report = run_suite("hom_laws", seed=0, trials=0, tol=1e-9)
        assert report.passed
        assert report.max_residual == 0.0
        assert report.warning is not None
        assert "warning" in report.to_dict()

    def test_negative_trials_raise(self):
        with pytest.raises(WeilcError, match="trial count -1 is negative"):
            run_suite("hom_laws", seed=0, trials=-1, tol=1e-9)

    def test_negative_seed_raises(self):
        with pytest.raises(WeilcError, match="seed -1 is negative"):
            run_suite("hom_laws", seed=-1, trials=1, tol=1e-9)

    def test_determinism_bit_for_bit(self):
        first = run_suite("hom_laws", seed=42, trials=30, tol=1e-9)
        second = run_suite("hom_laws", seed=42, trials=30, tol=1e-9)
        assert (json.dumps(first.to_dict(), sort_keys=True, indent=2)
                == json.dumps(second.to_dict(), sort_keys=True, indent=2))
        third = run_suite("cartan", seed=11, trials=10, tol=1e-9)
        fourth = run_suite("cartan", seed=11, trials=10, tol=1e-9)
        assert (json.dumps(third.to_dict(), sort_keys=True, indent=2)
                == json.dumps(fourth.to_dict(), sort_keys=True, indent=2))

    def test_different_seeds_differ(self):
        # cartan's residual moves with every draw; hom_laws' is almost always 0.0
        a = run_suite("cartan", seed=1, trials=30, tol=1e-9)
        b = run_suite("cartan", seed=2, trials=30, tol=1e-9)
        assert a.max_residual != b.max_residual

    def test_bracket_with_terms_past_the_tolerance_in_one_ulp_passes(self, monkeypatch):
        # at this seed f = cos(exp(x1 + x1)^3) and the two second-order
        # terms reach about 3.9e8, so one rounding of either exceeds tol;
        # their difference once read as residual 5.96e-08 and failed
        sizes = []
        residual = weilc.sampling.residual

        def spy(lhs, rhs):
            sizes.append(max(map(abs, rhs.coeffs)))
            return residual(lhs, rhs)

        monkeypatch.setattr(weilc.sampling, "residual", spy)
        report = run_suite("bracket_prolong", seed=1206193907, trials=3, tol=1e-9)
        assert max(sizes) * 2.0**-52 > report.tol
        assert report.passed, report.summary()

    def test_report_shape(self):
        report = run_suite("bracket_prolong", seed=5, trials=10, tol=1e-9)
        assert isinstance(report, CheckReport)
        assert report.passed == (report.max_residual <= report.tol)


class TestPoissonSuiteDefaults:
    def test_defaults_to_canonical_over_dual(self):
        report = run_suite("poisson_full", seed=6, trials=15, tol=1e-9)
        assert report.passed
        assert report.suite == "poisson_full"

    def test_jacobi_defaults_to_canonical(self):
        # the canonical bivector lives on R^2, which has no triple to check
        report = run_suite("jacobi", seed=6, trials=15, tol=1e-9)
        assert report == jacobi_check(canonical_structure(1), trials=15, tol=1e-9, seed=6)
        assert report.passed
        assert report.warning.startswith("no coordinate triple on a chart of dimension 2;")


ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture
def renders(monkeypatch):
    """Counts of ``to_string`` calls, through every weilc module that holds
    it, and of algebra ``describe`` calls: the text a witness carries."""
    counts = {"to_string": 0, "describe": 0}
    to_string, describe = weilc.expr.to_string, WeilAlgebra.describe

    def counted_to_string(e):
        counts["to_string"] += 1
        return to_string(e)

    def counted_describe(self):
        counts["describe"] += 1
        return describe(self)

    for name, module in list(sys.modules.items()):
        if name.startswith("weilc") and getattr(module, "to_string", None) is to_string:
            monkeypatch.setattr(module, "to_string", counted_to_string)
    monkeypatch.setattr(WeilAlgebra, "describe", counted_describe)
    return counts


class TestWitnessText:
    """A trial's inputs are rendered only for a witness: a passing run
    prints no expression, and a failing trial renders its inputs once."""

    @pytest.mark.parametrize(
        "suite", ["hom_laws", "field_prolong", "bracket_prolong", "cartan", "poisson_full"]
    )
    def test_a_passing_suite_renders_nothing(self, renders, suite):
        report = run_suite(suite, seed=42, trials=5, tol=1e-9)
        assert report.passed
        assert renders == {"to_string": 0, "describe": 0}

    def test_a_passing_sampled_jacobi_check_renders_nothing(self, renders):
        # exp(x1) times so3 is Poisson, as f*so3 is for every f on R^3; its
        # Jacobiators are not polynomials, so the check samples them
        f = parse("exp(x1)", 3)
        so3 = {(0, 1): Var(2), (1, 2): Var(0), (0, 2): -Var(1)}
        pi = PoissonStructure(3, {k: f * e for k, e in so3.items()})
        with pytest.raises(ValueError):
            poly_coeffs_exact(pi.entries[(0, 1)], 3)
        report = jacobi_check(pi, trials=5, tol=1e-9, seed=42)
        assert report.passed and report.trials == 5
        assert renders == {"to_string": 0, "describe": 0}

    def test_a_failing_trial_renders_its_inputs_once(self, renders):
        cfg = load_config(str(ROOT / "perfbench" / "configs" / "chart3.yaml"))
        report = run_suite("poisson_full", seed=42, trials=10, tol=cfg.suites.tol,
                           pi=cfg.bivectors["shifted3"], algebra=cfg.algebras["dual"])
        trials = {tuple(sorted((k, v) for k, v in w.inputs.items() if k != "check"))
                  for w in report.witnesses}
        assert not report.passed and len(trials) > 1
        assert renders["describe"] == len(trials)
        # phi, psi and the two entries of shifted3
        assert renders["to_string"] == 4 * len(trials)
        golden = json.loads((ROOT / "tests" / "data" / "poisson_full_shifted3_dual.json")
                            .read_text(encoding="utf-8"))
        assert report.to_dict()["witnesses"] == golden["witnesses"]
