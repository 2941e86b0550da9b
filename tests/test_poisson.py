"""Base Poisson structure, prolonged bracket, 2-form, and the verifier."""

import json
import math
import time
import warnings
from fractions import Fraction
from types import SimpleNamespace

import pytest

from weilc import (
    AFunction,
    APoint,
    CoordForm,
    ad_prolong,
    ad_tilde,
    bracket,
    canonical_structure,
    delta,
    dual_numbers,
    hamiltonian_field,
    jacobi_check,
    jets,
    omega_prolonged,
    parse,
    prolong_bracket,
    prolong_field,
    verify_a_poisson,
)
from weilc.errors import (
    AlgebraMismatch,
    DegreeError,
    DimensionMismatch,
    DomainError,
    WeilcError,
)
from weilc.expr import (
    ConstA,
    ConstR,
    Var,
    add,
    diff,
    eval_real,
    eval_weil,
    mul,
    neg,
    sub,
)
from weilc import oracle, poisson, sampling
from weilc.forms import dform, wedge
from weilc.oracle import poly_coeffs_exact
from weilc.poisson import (
    MAX_CHART_DIM, MAX_WITNESSES, PoissonStructure, _Recorder, _run_trials, omega_at)
from weilc.sampling import (
    catalog_algebra,
    random_expr,
    random_element,
    random_expr_with_consta,
    random_one_form,
    random_polynomial,
    random_point,
    residual,
    residual_forms,
    residual_zero,
    rng_for,
)

from structures import allclose, real_point, so3_structure


def perturbed_so3():
    return PoissonStructure(
        3,
        {
            (0, 1): parse("x3 + 0.1*x1^2", 3),
            (1, 2): parse("x1", 3),
            (0, 2): parse("-x2", 3),
        },
    )


@pytest.fixture
def canonical():
    return canonical_structure(1)


@pytest.fixture
def dual():
    return dual_numbers()


def test_a_chart_past_the_size_bound_is_refused():
    one = parse("1", 2)
    assert PoissonStructure(MAX_CHART_DIM, {(0, 1): one}).dim == MAX_CHART_DIM
    with pytest.raises(WeilcError, match=f"at most {MAX_CHART_DIM} \\(MAX_CHART_DIM\\)"):
        PoissonStructure(MAX_CHART_DIM + 1, {(0, 1): one})


class TestBracket:
    def test_canonical_coordinates(self, canonical):
        assert bracket(canonical, Var(0), Var(1)) == ConstR(1.0)
        assert bracket(canonical, Var(1), Var(0)) == ConstR(-1.0)

    def test_leibniz_at_a_point(self, canonical):
        f = Var(0)
        g = parse("x2*x2", 2)
        expanded = bracket(canonical, f, g)
        point = [1.0, 3.0]
        assert eval_real(expanded, point) == 6.0
        pairwise = bracket(canonical, f, Var(1))
        rhs = eval_real(pairwise, point) * 3.0 + 3.0 * eval_real(pairwise, point)
        assert eval_real(expanded, point) == rhs

    def test_biderivation_exact(self, canonical):
        # {f, g*h} - {f,g}*h - g*{f,h} expands to the zero polynomial
        f, g, h = parse("x1^2*x2", 2), parse("x1 + x2", 2), parse("x2^3", 2)
        from weilc.expr import Mul, add, mul, sub

        residue = sub(
            bracket(canonical, f, Mul(g, h)),
            add(
                mul(bracket(canonical, f, g), h),
                mul(g, bracket(canonical, f, h)),
            ),
        )
        assert not poly_coeffs_exact(residue, 2)

    def test_consta_rejected(self, canonical, dual):
        with pytest.raises(AlgebraMismatch):
            bracket(canonical, ConstA(dual.unit()), Var(0))


class TestJacobiCheck:
    def test_canonical_passes(self):
        pi = canonical_structure(1)
        report = jacobi_check(pi, trials=40, tol=1e-9, seed=2)
        assert report.passed
        assert report.max_residual <= 1e-12

    def test_so3_passes(self):
        pi = so3_structure()
        report = jacobi_check(pi, trials=60, tol=1e-9, seed=2)
        assert report.passed

    def test_so3_coordinate_jacobiator_vanishes_symbolically(self):
        pi = so3_structure()
        triple = (Var(0), Var(1), Var(2))
        from weilc.expr import add

        jac = add(
            add(
                bracket(pi, triple[0], bracket(pi, triple[1], triple[2])),
                bracket(pi, triple[1], bracket(pi, triple[2], triple[0])),
            ),
            bracket(pi, triple[2], bracket(pi, triple[0], triple[1])),
        )
        assert not poly_coeffs_exact(jac, 3)

    def test_perturbed_fails_with_witness(self):
        pi = perturbed_so3()
        report = jacobi_check(pi, trials=40, tol=1e-9, seed=2)
        assert not report.passed
        assert report.max_residual > 1e-3
        assert report.witnesses

    def test_perturbed_jacobiator_closed_form(self):
        # on the coordinate triple the defect is exactly 0.2 * x1 * x2
        pi = perturbed_so3()
        from weilc.expr import add

        jac = add(
            add(
                bracket(pi, Var(0), bracket(pi, Var(1), Var(2))),
                bracket(pi, Var(1), bracket(pi, Var(2), Var(0))),
            ),
            bracket(pi, Var(2), bracket(pi, Var(0), Var(1))),
        )
        coeffs = poly_coeffs_exact(jac, 3)
        assert coeffs == {(1, 1, 0): Fraction(0.2)}

    def test_witnesses_are_coordinate_triples(self):
        # exact for a polynomial bivector: one witness per failing triple;
        # sampled otherwise: one per trial
        for perturbation, count in [("x1^2", 1), ("exp(x1)", 5)]:
            pi = PoissonStructure(
                3,
                {
                    (0, 1): parse(f"x3 + 0.1*{perturbation}", 3),
                    (1, 2): parse("x1", 3),
                    (0, 2): parse("-x2", 3),
                },
            )
            report = jacobi_check(pi, trials=5, tol=1e-9, seed=2)
            assert len(report.witnesses) == count
            assert {
                (w.inputs["f"], w.inputs["g"], w.inputs["h"]) for w in report.witnesses
            } == {("x1", "x2", "x3")}

    def test_two_dimensional_chart_has_no_triples(self):
        pi = PoissonStructure(2, {(0, 1): parse("1 + x1^2*x2", 2)})
        report = jacobi_check(pi, trials=5, tol=1e-9, seed=2)
        assert report.passed and report.max_residual == 0.0

    def test_zero_trials_is_vacuous_with_warning(self):
        pi = canonical_structure(1)
        report = jacobi_check(pi, trials=0, tol=1e-9, seed=0)
        assert report.passed and report.trials == 0
        assert report.warning is not None

    @pytest.mark.parametrize("entry", ["1", "exp(x2)"])
    def test_a_negative_trial_count_is_refused(self, entry):
        # on either route: the exact expansion, or sampling
        pi = PoissonStructure(3, {(0, 1): parse("1", 3), (1, 2): parse(entry, 3)})
        with pytest.raises(WeilcError, match="trial count -2 is negative"):
            jacobi_check(pi, trials=-2, tol=1e-9, seed=0)

    @pytest.mark.parametrize("entry", ["1", "exp(x2)"])
    def test_a_negative_seed_is_refused(self, entry):
        # on either route: the exact expansion, which draws nothing, or sampling
        pi = PoissonStructure(3, {(0, 1): parse("1", 3), (1, 2): parse(entry, 3)})
        with pytest.raises(WeilcError) as exc:
            jacobi_check(pi, trials=10, tol=1e-9, seed=-5)
        assert str(exc.value) == "seed -5 is negative; seeds are integers >= 0"

    @pytest.mark.parametrize("entry", ["1", "exp(x2)"])
    @pytest.mark.parametrize("settings", [
        {"tol": -1.0}, {"tol": math.nan}, {"tol": math.inf}, {"trials": -1}, {"seed": -1}])
    def test_refused_settings_build_no_jacobiator(self, monkeypatch, entry, settings):
        calls = []
        for module, name in ((poisson, "bracket"), (oracle, "poly_coeffs_exact")):
            monkeypatch.setattr(module, name, lambda *args, name=name: calls.append(name))
        pi = PoissonStructure(3, {(0, 1): parse("1", 3), (1, 2): parse(entry, 3)})
        with pytest.raises(WeilcError):
            jacobi_check(pi, **{"trials": 10, "tol": 1e-9, "seed": 0, **settings})
        assert calls == []

    def test_witness_point_prints_plain_floats(self):
        # {x1,x2} = 1, {x2,x3} = exp(x2): the coordinate Jacobiator exp(x2) is
        # not a polynomial, so the check samples it
        pi = PoissonStructure(3, {(0, 1): parse("1", 3), (1, 2): parse("exp(x2)", 3)})
        report = jacobi_check(pi, trials=2, tol=1e-9, seed=42)
        assert [w.inputs["point"] for w in report.witnesses] == [
            "[0.278854, -0.949978, -0.449941]",
            "[-0.553579, 0.472942, 0.353399]",
        ]

    @pytest.mark.parametrize(
        "name, residual",
        [("tiny", 1e-12), ("shifted3", 1.0), ("so3", 0.0), ("canonical", 0.0),
         ("quadratic", 0.0)],
    )
    @pytest.mark.parametrize("tol", [0.0, 1e-9, 1.0])
    def test_polynomial_bivectors_are_decided_exactly(self, name, residual, tol):
        # tiny's coordinate Jacobiator is the constant 1e-12: no tolerance
        # passes it, where sampling passed it at 1e-9
        pi = {
            "tiny": lambda: PoissonStructure(
                3, {(0, 1): parse("1", 3), (1, 2): parse("1e-12*x2", 3)}
            ),
            "shifted3": STRUCTURES["shifted3"],
            "so3": so3_structure,
            "canonical": lambda: canonical_structure(2),
            "quadratic": lambda: PoissonStructure(3, {(0, 1): parse("1 + x3^2", 3)}),
        }[name]()
        report = jacobi_check(pi, trials=100, tol=tol, seed=42)
        assert report.passed == (residual == 0.0)
        assert report.max_residual == residual
        assert set(report.to_dict()) == {
            "suite", "seed", "trials", "max_residual", "pass", "witnesses"
        }
        if residual:
            (witness,) = report.witnesses
            assert witness.inputs == {
                "check": "jacobi", "f": "x1", "g": "x2", "h": "x3", "monomial": "1"
            }
            assert witness.residual == residual

    @pytest.mark.parametrize("scale, residual", [("1e200", math.inf), ("1e-200", 0.0)])
    def test_exact_coefficients_beyond_the_float_range_fail(self, scale, residual):
        # the Jacobiator is 0.2 * scale^2 * x1*x2 exactly, above or below
        # every float
        pi = PoissonStructure(
            3,
            {
                (0, 1): parse(f"{scale}*x3 + {scale}*x1^2", 3),
                (1, 2): parse(f"{scale}*x1", 3),
                (0, 2): parse(f"-{scale}*x2", 3),
            },
        )
        report = jacobi_check(pi, trials=5, tol=1e-9, seed=2)
        assert not report.passed
        assert report.max_residual == residual
        assert report.witnesses[0].inputs["monomial"] == "x1*x2"

    @pytest.mark.parametrize("scale, perturbation, passed", [
        ("1", "", True), ("1e6", "", True), ("1", " + x1^2", False),
        ("1e6", " + x1^2", False)])
    def test_sampled_jacobiators_are_scaled_by_their_terms(self, scale, perturbation, passed):
        # f*so3 is Poisson for every f; at 1e6 its terms near 1e12 cancel to
        # rounding, which read 6.1e-5 as a raw |J|.  The x1^2 perturbation
        # is not Poisson at either scale.
        pi = PoissonStructure(3, {
            (0, 1): parse(f"{scale}*sin(x1)*x3", 3),
            (1, 2): parse(f"{scale}*sin(x1)*x1", 3),
            (0, 2): parse(f"-{scale}*sin(x1)*x2{perturbation}", 3),
        })
        report = jacobi_check(pi, trials=100, tol=1e-9, seed=42)
        assert report.passed == passed
        assert (report.max_residual <= 1e-15) == passed
        assert bool(report.witnesses) != passed

    def test_the_sampled_path_hands_the_recorder_two_sides(self, monkeypatch):
        # every sampled residual is computed from two sides: no lone float
        sides = []
        real = _Recorder.check

        def spy(self, name, lhs, rhs=None, point=None):
            sides.append((lhs, rhs))
            return real(self, name, lhs, rhs, point)

        monkeypatch.setattr(_Recorder, "check", spy)
        for entry in ("sin(x1)*x3", "exp(x2) + x3"):
            pi = PoissonStructure(
                3, {(0, 1): parse(entry, 3), (1, 2): parse("x1", 3), (0, 2): parse("-x2", 3)})
            jacobi_check(pi, trials=5, tol=1e-9, seed=42)
        assert len(sides) == 10
        assert all(isinstance(s, float) for pair in sides for s in pair)

    def test_a_constant_bivector_on_a_large_chart_is_quick(self):
        # every triple's entries are constant, so no Jacobiator is built;
        # building all C(40, 3) of them took 1.3 s
        pi = PoissonStructure(40, {(0, 1): parse("1", 40)})
        start = time.perf_counter()
        report = jacobi_check(pi, trials=1, tol=1e-9, seed=1)
        assert time.perf_counter() - start < 0.1
        assert report.passed and report.max_residual == 0.0 and not report.witnesses

    @staticmethod
    def _brackets(monkeypatch, pi):
        """The (f, g) of every bracket that jacobi_check makes on pi."""
        calls = []
        real = poisson.bracket

        def spy(pi, f, g):
            calls.append((f, g))
            return real(pi, f, g)

        monkeypatch.setattr(poisson, "bracket", spy)
        jacobi_check(pi, trials=2, tol=1e-9, seed=3)
        return calls

    def test_so3_builds_its_one_triple(self, monkeypatch):
        # each triple makes six brackets
        assert len(self._brackets(monkeypatch, so3_structure())) == 6

    def test_one_varying_entry_builds_the_triples_through_it(self, monkeypatch):
        # the constant entries and the absent ones are skipped
        pi = PoissonStructure(6, {(0, 1): parse("x1*x3", 6), (2, 3): parse("2", 6),
                                  (4, 5): parse("1", 6)})
        calls = self._brackets(monkeypatch, pi)
        assert len(calls) == 6 * 4
        # a triple's three inner brackets, each between two coordinates, come
        # in the order {g,h}, {h,f}, {f,g}; no outer one has a coordinate as g
        inner = [{f.index, g.index} for f, g in calls if type(g) is Var]
        built = [tuple(sorted(inner[k] | inner[k + 1])) for k in range(0, len(inner), 3)]
        assert built == [(0, 1, 2), (0, 1, 3), (0, 1, 4), (0, 1, 5)]

    @pytest.mark.parametrize("varying", ["x1*x3", "exp(x2)*x3"], ids=["exact", "sampled"])
    def test_skipping_the_constant_triples_leaves_the_report(self, varying):
        # x1 - x1 + c is the constant c written as an entry that is not a
        # constant, so every triple through it is built and records 0
        def structure(one, two):
            return PoissonStructure(5, {
                (0, 1): parse(varying + " + 0.1*x1^2", 5), (1, 2): parse("x1", 5),
                (2, 3): parse(one, 5), (3, 4): parse(two, 5)})

        skipped = jacobi_check(structure("2", "1"), trials=20, tol=1e-9, seed=5)
        built = jacobi_check(structure("x1 - x1 + 2", "x1 - x1 + 1"), trials=20, tol=1e-9,
                             seed=5)
        assert not skipped.passed
        assert (json.dumps(skipped.to_dict(), sort_keys=True, indent=2)
                == json.dumps(built.to_dict(), sort_keys=True, indent=2))


class TestHamiltonianField:
    def test_coordinate_function(self, canonical):
        assert hamiltonian_field(canonical, Var(0)).components == (
            ConstR(0.0),
            ConstR(1.0),
        )

    def test_kinetic_energy(self, canonical):
        field = hamiltonian_field(canonical, parse("x2^2/2", 2))
        rng = rng_for(3)
        for _ in range(10):
            xs = rng.uniform(-1, 1, 2)
            assert abs(eval_real(field.components[0], xs) + xs[1]) <= 1e-15
            assert eval_real(field.components[1], xs) == 0.0

    def test_derivation_into_fields(self, canonical):
        # ad(f*g) = f*ad(g) + g*ad(f), componentwise as polynomials
        f, g = Var(0), Var(1)
        from weilc.expr import Mul, sub

        lhs = hamiltonian_field(canonical, Mul(f, g))
        rhs = hamiltonian_field(canonical, g).scale(f) + hamiltonian_field(
            canonical, f
        ).scale(g)
        for a, b in zip(lhs.components, rhs.components):
            assert not poly_coeffs_exact(sub(a, b), 2)

    def test_generates_bracket(self, canonical):
        f, g = parse("x1^2 + x2", 2), parse("x1*x2", 2)
        from weilc.prolongation import apply_field
        from weilc.expr import sub

        residue = sub(
            apply_field(hamiltonian_field(canonical, f), g), bracket(canonical, f, g)
        )
        assert not poly_coeffs_exact(residue, 2)


class TestProlongedOperations:
    def test_ad_prolong_canonical(self, canonical, dual):
        q = AFunction(Var(0), 2, dual)
        p = AFunction(Var(1), 2, dual)
        field = ad_prolong(canonical, q)
        rng = rng_for(5)
        for _ in range(5):
            xi = random_point(rng, dual, 2)
            assert field.apply_at(p, xi) == dual.unit()

    def test_ad_prolong_matches_prolonged_hamiltonian_field(self, canonical, dual):
        f = parse("x2^2/2", 2)
        xi = APoint(dual, (dual.element([1, 1]), dual.element([2, 1])))
        via_ad = ad_prolong(canonical, AFunction(f, 2, dual))
        via_base = prolong_field(hamiltonian_field(canonical, f), dual)
        probe = AFunction(Var(0), 2, dual)
        assert allclose(via_ad.apply_at(probe, xi), via_base.apply_at(probe, xi), 1e-12)
        # frozen: {p^2/2, q} = -p evaluated at p = 2 + eps
        assert allclose(via_ad.apply_at(probe, xi), dual.element([-2, -1]), 1e-12)

    def test_ad_is_derivation(self, canonical, dual):
        rng = rng_for(6)
        phi = AFunction(parse("x1^2*x2", 2), 2, dual)
        psi1 = AFunction(parse("sin(x1)", 2), 2, dual)
        psi2 = AFunction(parse("x2^3", 2), 2, dual)
        field = ad_prolong(canonical, phi)
        for _ in range(5):
            xi = random_point(rng, dual, 2)
            lhs = field.apply_at(psi1 * psi2, xi)
            rhs = field.apply_at(psi1, xi) * psi2(xi) + psi1(xi) * field.apply_at(
                psi2, xi
            )
            assert allclose(lhs, rhs, 1e-9)


class TestProlongBracket:
    def test_canonical_coordinates(self, canonical, dual):
        q = AFunction(Var(0), 2, dual)
        p = AFunction(Var(1), 2, dual)
        assert prolong_bracket(canonical, q, p).expr == ConstR(1.0)

    def test_algebra_bilinearity(self, canonical, dual):
        eps = dual.generator("eps")
        q = AFunction(Var(0), 2, dual)
        p = AFunction(Var(1), 2, dual)
        value = prolong_bracket(canonical, eps * q, p)
        xi = random_point(rng_for(7), dual, 2)
        assert value(xi) == eps

    def test_so3_third_coordinate(self, dual):
        pi = so3_structure()
        x1 = AFunction(Var(0), 3, dual)
        x2 = AFunction(Var(1), 3, dual)
        xi = APoint(
            dual,
            (dual.element([0.3, 0.1]), dual.element([-0.4, 0.7]), dual.element([2, 1])),
        )
        assert prolong_bracket(pi, x1, x2)(xi) == dual.element([2, 1])

    def test_reduces_to_prolonged_base_bracket(self, canonical, dual):
        f, g = parse("x1^2 + x2", 2), parse("exp(x1)*x2", 2)
        rng = rng_for(8)
        for _ in range(10):
            xi = random_point(rng, dual, 2)
            lifted = prolong_bracket(
                canonical, AFunction(f, 2, dual), AFunction(g, 2, dual)
            )(xi)
            base = eval_weil(bracket(canonical, f, g), xi)
            assert allclose(lifted, base, 1e-9)

    def test_mismatched_algebras(self, canonical, dual):
        other = jets(2)
        with pytest.raises(AlgebraMismatch):
            prolong_bracket(
                canonical, AFunction(Var(0), 2, dual), AFunction(Var(1), 2, other)
            )


class TestOmega:
    def test_canonical_pairing(self, canonical, dual):
        dq = CoordForm(1, 2, dual, {(0,): ConstR(1.0)})
        dp = CoordForm(1, 2, dual, {(1,): ConstR(1.0)})
        value = omega_prolonged(canonical, dq, dp)
        xi = random_point(rng_for(9), dual, 2)
        assert value(xi) == -dual.unit()

    def test_skewness_exact(self, canonical, dual):
        eps = dual.generator("eps")
        x = CoordForm(1, 2, dual, {(0,): Var(1), (1,): ConstA(eps)})
        xi = APoint(dual, (dual.element([1, 1]), dual.element([3, 1])))
        assert all(c == 0.0 for c in omega_prolonged(canonical, x, x)(xi).coeffs)

    def test_prolongation_equality_example(self, canonical, dual):
        x = CoordForm(1, 2, dual, {(0,): Var(1)})  # x2 * dx1
        y = CoordForm(1, 2, dual, {(1,): ConstR(1.0)})  # dx2
        xi = APoint(dual, (dual.element([1, 1]), dual.element([3, 1])))
        value = omega_prolonged(canonical, x, y)(xi)
        assert value == dual.element([-3, -1])
        assert omega_at(canonical, x, y, xi) == dual.element([-3, -1])

    def test_bracket_recovery(self, canonical, dual):
        phi = AFunction(parse("x1^2*x2", 2), 2, dual)
        psi = AFunction(parse("sin(x2)", 2), 2, dual)
        rng = rng_for(10)
        for _ in range(5):
            xi = random_point(rng, dual, 2)
            via_form = -omega_prolonged(canonical, delta(phi), delta(psi))(xi)
            via_bracket = prolong_bracket(canonical, phi, psi)(xi)
            assert allclose(via_form, via_bracket, 1e-12)

    def test_ad_tilde_consistency(self, canonical, dual):
        phi = AFunction(parse("x1*x2", 2), 2, dual)
        field_a = ad_tilde(canonical, delta(phi))
        field_b = ad_prolong(canonical, phi)
        rng = rng_for(11)
        probe = AFunction(parse("x1^2 + x2", 2), 2, dual)
        for _ in range(5):
            xi = random_point(rng, dual, 2)
            assert allclose(
                field_a.apply_at(probe, xi), field_b.apply_at(probe, xi), 1e-12
            )


class TestOperandRule:
    """omega_at takes its operands through the same rule as omega_prolonged."""

    @pytest.mark.parametrize("evaluate", [False, True], ids=["omega_prolonged", "omega_at"])
    def test_two_form_rejected(self, canonical, dual, evaluate):
        x = CoordForm(1, 2, dual, {(0,): ConstR(1.0)})
        w = CoordForm(2, 2, dual, {(0, 1): ConstR(1.0)})
        with pytest.raises(DegreeError, match="degree-2 form"):
            self._pair(canonical, x, w, dual, evaluate)

    @pytest.mark.parametrize("evaluate", [False, True], ids=["omega_prolonged", "omega_at"])
    def test_form_off_the_chart_rejected(self, dual, evaluate):
        # a form on R^2 against a bivector on R^3
        pi = so3_structure()
        x = CoordForm(1, 2, dual, {(0,): ConstR(1.0)})
        y = CoordForm(1, 3, dual, {(1,): ConstR(1.0)})
        with pytest.raises(DimensionMismatch, match="2-dimensional chart, bivector on 3"):
            self._pair(pi, x, y, dual, evaluate)

    @pytest.mark.parametrize("evaluate", [False, True], ids=["omega_prolonged", "omega_at"])
    def test_forms_over_different_algebras_rejected(self, canonical, dual, evaluate):
        x = CoordForm(1, 2, dual, {(0,): ConstR(1.0)})
        y = CoordForm(1, 2, jets(2), {(1,): ConstR(1.0)})
        with pytest.raises(AlgebraMismatch, match="different algebras"):
            self._pair(canonical, x, y, dual, evaluate)

    @staticmethod
    def _pair(pi, x, y, algebra, evaluate):
        if evaluate:
            point = real_point(algebra, [0.5] * pi.dim)
            return omega_at(pi, x, y, point)
        return omega_prolonged(pi, x, y)


class TestVerifyAPoisson:
    def test_canonical_dual_passes(self):
        pi = canonical_structure(1)
        report = verify_a_poisson(pi, dual_numbers(), trials=40, tol=1e-9, seed=3)
        assert report.passed
        assert report.max_residual <= 1e-9

    def test_so3_jets_passes(self):
        pi = so3_structure()
        report = verify_a_poisson(pi, jets(2), trials=40, tol=1e-9, seed=3)
        assert report.passed

    def test_perturbed_fails_on_jacobi(self):
        pi = perturbed_so3()
        report = verify_a_poisson(pi, dual_numbers(), trials=40, tol=1e-9, seed=3)
        assert not report.passed
        assert report.max_residual > 1e-3
        assert any(w.inputs.get("check") == "jacobi" for w in report.witnesses)

    def test_report_invariant(self):
        pi = canonical_structure(1)
        report = verify_a_poisson(pi, dual_numbers(), trials=20, tol=1e-9, seed=4)
        assert report.passed == (report.max_residual <= report.tol)
        payload = report.to_dict()
        assert set(payload) == {
            "suite",
            "seed",
            "trials",
            "max_residual",
            "pass",
            "witnesses",
        }


class TestRunTrials:
    """The one trial driver: seeding, the loop, redraws and the zero-trial case."""

    def test_domain_error_is_drawn_again_from_the_same_generator(self):
        draws = []

        def trial(rng, rec):
            draws.append(rng.random())
            if len(draws) == 2:
                raise DomainError("left the domain")
            rec.check("x", 0.0)

        report = _run_trials("x", 1, 3, 1e-9, trial)
        assert report.passed and report.trials == 3 and report.redrawn == 1
        rng = rng_for(1)
        assert draws == [rng.random() for _ in range(4)]
        assert report.summary().endswith(" redrawn=1")
        assert "redrawn" not in report.to_dict()

    def test_a_trial_that_always_raises_ends_in_domain_error(self):
        calls = []

        def trial(rng, rec):
            calls.append(1)
            raise DomainError("always")

        with pytest.raises(DomainError):
            _run_trials("x", 1, 3, 1e-9, trial)
        assert len(calls) == 4  # the first draw and three redraws

    def test_no_redraw_leaves_the_summary_as_it_was(self):
        report = _run_trials("x", 1, 2, 1e-9, lambda rng, rec: rec.check("x", 0.0))
        assert report.redrawn == 0
        assert report.summary() == (
            "[PASS] x: trials=2 seed=1 max_residual=0.000e+00 tol=1.0e-09"
        )

    def test_zero_trials_are_vacuous(self):
        report = _run_trials("x", 1, 0, 1e-9, None)
        assert report.passed and report.trials == 0 and report.warning

    @pytest.mark.parametrize("trials", [-1, -3])
    def test_a_negative_trial_count_is_refused(self, trials):
        # refused, where it once ran as zero trials and passed
        with pytest.raises(WeilcError, match=f"trial count {trials} is negative"):
            _run_trials("x", 1, trials, 1e-9, None)


def recorded(lhs, rhs=None, point=None):
    """The report of one recorder that checked one pair of sides."""
    rec = _Recorder(1e-9)
    rec.check("c", lhs, rhs, point)
    return rec.report("x", 1, 1)


def old_gap(up, down):
    """The augmentation sub-check's gap as it was written out by hand."""
    return abs(up - down) / (1.0 + max(abs(up), abs(down)))


class TestRecorder:
    """A non-finite residual is a failure with a witness, never a pass, and
    ``check`` computes each kind of side's residual bit for bit as the call
    sites did before they handed it their sides."""

    def test_nan_residual_fails(self):
        rec = _Recorder(1e-9)
        rec.check("nan", math.nan)
        report = rec.report("x", 1, 1)
        assert not report.passed
        assert report.max_residual == math.inf
        assert len(report.witnesses) == 1

    @pytest.mark.parametrize("tol", [1e-9, math.inf, math.nan])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_residual_fails_at_any_tol(self, tol, value):
        rec = _Recorder(tol)
        rec.check("zero", 0.0)
        rec.check("bad", value)
        report = rec.report("x", 1, 2)
        assert not report.passed
        assert report.max_residual == math.inf
        assert [w.inputs["check"] for w in report.witnesses][-1] == "bad"

    def test_finite_residual_passes_an_inf_tol(self):
        rec = _Recorder(math.inf)
        rec.check("big", 1e300)
        report = rec.report("x", 1, 1)
        assert report.passed and not report.witnesses

    def test_inputs_are_rendered_once_per_trial_and_only_for_a_witness(self):
        rendered = []

        def inputs(trial):
            def render():
                rendered.append(trial)
                return {"trial": str(trial)}
            return render

        rec = _Recorder(1e-9)
        rec.inputs = inputs(0)
        rec.check("a", 0.0)  # a pass renders nothing
        assert rendered == []
        rec.inputs = inputs(1)
        rec.check("a", 1.0)
        rec.check("b", 0.0)
        rec.check("c", 2.0)
        assert rendered == [1]
        rec.inputs = inputs(2)
        for k in range(MAX_WITNESSES):
            rec.check(f"d{k}", 1.0)
        rec.inputs = inputs(3)
        rec.check("e", 1.0)  # no witness is kept, so nothing is rendered
        assert rendered == [1, 2]
        report = rec.report("x", 1, 4)
        assert [w.inputs for w in report.witnesses[:3]] == [
            {"check": "a", "trial": "1"}, {"check": "c", "trial": "1"},
            {"check": "d0", "trial": "2"}]

    def test_residual_of_inf_elements_fails(self):
        A = dual_numbers()
        big = A.element([math.inf, 1.0])
        value = residual(big, big)
        rec = _Recorder(1e-9)
        rec.check("inf", value)
        report = rec.report("x", 1, 1)
        assert not report.passed
        assert report.max_residual == math.inf
        assert len(report.witnesses) == 1

    def test_residuals_of_non_finite_elements_are_inf(self):
        A = dual_numbers()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for bad in (math.inf, -math.inf, math.nan):
                x = A.element([1.0, bad])
                assert residual(x, x) == math.inf
                assert residual(A.unit(), x) == math.inf
                assert residual(x, A.unit()) == math.inf
                assert residual_zero(x) == math.inf

    def test_residual_forms_keeps_an_inf_residual(self):
        # max() over residuals drops a NaN; the inf of two equal inf
        # elements must survive next to a zero residual
        A = dual_numbers()
        big = A.element([math.inf, 1.0])
        form = SimpleNamespace(
            algebra=A, dim=2, degree=1,
            evaluate=lambda point: {(0,): A.unit(), (1,): big},
        )
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert residual_forms(form, form, None) == math.inf

    def test_residual_refuses_elements_of_two_algebras(self):
        # zip would read the dual number against the first two coefficients
        # of the jet, and miss the 99: a silent pass; the recorder refuses
        # the same sides
        dual, jet2 = catalog_algebra("dual"), catalog_algebra("jet2")
        for compare in (residual, recorded):
            with pytest.raises(AlgebraMismatch, match="different algebras"):
                compare(dual.element([1.0, 0.0]), jet2.element([1.0, 0.0, 99.0]))

    def test_residual_forms_refuses_two_degrees(self):
        # two zero forms of different degree compared as equal before
        point = real_point(catalog_algebra("dual"), [0.5, 0.5])
        for compare in (residual_forms, recorded):
            for one, two in ((CoordForm(1, 2, None), CoordForm(2, 2, None)),
                             (CoordForm(1, 2, None, {(0,): Var(0)}),
                              CoordForm(2, 2, None, {(0, 1): Var(0)}))):
                with pytest.raises(DegreeError, match="degree-1 and a degree-2"):
                    compare(one, two, point)

    def test_residual_forms_refuses_two_charts(self):
        dual, jet2 = catalog_algebra("dual"), catalog_algebra("jet2")
        point = real_point(dual, [0.5])
        w = CoordForm(1, 1, dual, {(0,): ConstR(1.0)})
        for compare in (residual_forms, recorded):
            for other in (CoordForm(1, 1, None, {(0,): ConstR(1.0)}),
                          CoordForm(1, 1, jet2, {(0,): ConstR(1.0)})):
                with pytest.raises(AlgebraMismatch):
                    compare(w, other, point)
            with pytest.raises(DimensionMismatch):
                compare(w, CoordForm(1, 2, dual, {(0,): ConstR(1.0)}), point)

    def test_residual_forms_measures_a_lone_coefficient_against_zero(self):
        # base forms, evaluated over the point's algebra
        point = real_point(dual_numbers(), [0.5])
        w = CoordForm(1, 1, None, {(0,): ConstR(1.0)})
        empty = CoordForm(1, 1, None)
        assert residual_forms(w, empty, point) == residual_forms(empty, w, point) == 0.5
        assert residual_forms(empty, empty, point) == 0.0

    def test_element_pairs(self):
        rng = rng_for(7)
        for name in ("dual", "jet3", "plane", "corner3"):
            algebra = catalog_algebra(name)
            for _ in range(10):
                a, b = random_element(rng, algebra), random_element(rng, algebra)
                assert recorded(a, b).max_residual == residual(a, b)
                assert recorded(a).max_residual == residual_zero(a)
                assert recorded(a, a).max_residual == 0.0

    def test_form_pairs_at_a_point(self):
        rng = rng_for(8)
        for name in ("dual", "jet2", "corner3"):
            algebra = catalog_algebra(name)
            point = random_point(rng, algebra, 3)
            for _ in range(5):
                x = random_one_form(rng, 3, algebra, with_consta=True)
                y = random_one_form(rng, 3, algebra, with_consta=True)
                assert recorded(x, y, point).max_residual == residual_forms(x, y, point)
                two = dform(x)
                assert recorded(two, wedge(x, y), point).max_residual == residual_forms(
                    two, wedge(x, y), point)

    def test_a_form_against_zero_is_the_old_dd_zero_max(self):
        rng = rng_for(9)
        for name in ("dual", "jet2", "corner3"):
            algebra = catalog_algebra(name)
            point = random_point(rng, algebra, 3)
            for _ in range(5):
                w0 = CoordForm(0, 3, algebra, {(): random_expr(rng, 3, depth=3)})
                x = random_one_form(rng, 3, algebra, with_consta=True)
                for form in (dform(dform(w0)), x, dform(x), CoordForm(2, 3, algebra)):
                    old = max([residual_zero(v) for v in form.evaluate(point).values()],
                              default=0.0)
                    assert recorded(form, None, point).max_residual == old

    def test_float_pairs_are_the_old_augmentation_gap(self):
        rng = rng_for(10)
        pairs = [(rng.uniform(-5.0, 5.0), rng.uniform(-5.0, 5.0)) for _ in range(50)]
        pairs += [(0.0, 0.0), (1.0, 1.0), (1e308, -1e308), (-3, 2.5), (1e-300, 0.0)]
        for up, down in pairs:
            report = recorded(up, down)
            assert report.max_residual == old_gap(up, down)

    @pytest.mark.parametrize("up, down", [
        (math.inf, 1.0), (1.0, -math.inf), (math.inf, math.inf),
        (-math.inf, math.inf), (math.nan, 0.0), (0.0, math.nan)])
    def test_non_finite_float_sides_fail_with_a_witness(self, up, down):
        # the old gap read NaN or inf here, which the recorder made inf
        assert not math.isfinite(old_gap(up, down))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            report = recorded(up, down)
        assert not report.passed
        assert report.max_residual == math.inf
        assert [w.residual for w in report.witnesses] == [math.inf]

    def test_a_lone_float_is_compared_with_zero(self):
        # a missing rhs is zero, as for elements and forms
        assert recorded(0.5).max_residual == 0.5 / 1.5
        assert recorded(-0.5).max_residual == 0.5 / 1.5
        report = recorded(0.0)
        assert report.passed and report.max_residual == 0.0 and not report.witnesses

    def test_each_side_kind_goes_through_the_sampling_module(self, monkeypatch):
        # perfbench's tracer and the tests patch these names on the module
        calls = []
        for name in ("residual", "residual_zero", "residual_forms"):
            real = getattr(sampling, name)
            monkeypatch.setattr(sampling, name, lambda *args, name=name, real=real: (
                calls.append(name), real(*args))[1])
        dual = catalog_algebra("dual")
        point = real_point(dual, [0.5])
        one = CoordForm(1, 1, dual, {(0,): ConstR(1.0)})
        for sides, first in (((dual.unit(), dual.zero()), "residual"),
                             ((dual.unit(),), "residual_zero"),
                             ((one, one, point), "residual_forms"),
                             ((one, None, point), "residual_forms"),
                             ((1.0, 2.0), "residual"),
                             ((0.5,), "residual")):
            calls.clear()
            recorded(*sides)
            assert calls[0] == first

    def test_an_exact_zero_passes(self):
        report = recorded(Fraction(0))
        assert report.passed and report.max_residual == 0.0 and not report.witnesses

    @pytest.mark.parametrize("tol", [1e-9, 1.0])
    def test_an_exact_residual_fails_within_any_tol(self, tol):
        rec = _Recorder(tol)
        rec.check("exact", Fraction(1, 10**12))
        report = rec.report("x", 1, 1)
        assert not report.passed
        assert report.max_residual == 1e-12
        assert [w.residual for w in report.witnesses] == [1e-12]

    def test_an_exact_residual_below_every_float_fails_with_a_witness(self):
        report = recorded(Fraction(1, 10**400))
        assert not report.passed
        assert report.max_residual == 0.0
        assert [(w.inputs["check"], w.residual) for w in report.witnesses] == [("c", 0.0)]

    def test_an_exact_residual_past_the_float_range_reads_inf(self):
        report = recorded(Fraction(-(10**400)))
        assert not report.passed
        assert report.max_residual == math.inf
        assert [w.residual for w in report.witnesses] == [math.inf]


class TestHamiltonianFieldSo3:
    def test_rotation_generator(self):
        pi = so3_structure()
        field = hamiltonian_field(pi, Var(0))
        xs = [0.3, -0.7, 1.1]
        values = [eval_real(c, xs) for c in field.components]
        # ad(x1) rotates the (x2, x3) plane: (0, x3, -x2)
        assert values[0] == 0.0
        assert abs(values[1] - 1.1) <= 1e-15
        assert abs(values[2] + (-0.7)) <= 1e-15


# the per-operation loops that _pair and _sharp replaced, kept as references
def _loop_bracket(pi, f, g):
    out = ConstR(0.0)
    for (i, j), p in sorted(pi.entries.items()):
        term = sub(mul(diff(f, i), diff(g, j)), mul(diff(f, j), diff(g, i)))
        out = add(out, mul(p, term))
    return out


def _loop_omega(pi, x, y):
    out = ConstR(0.0)
    for (i, j), p in sorted(pi.entries.items()):
        term = sub(
            mul(x.coefficient((i,)), y.coefficient((j,))),
            mul(x.coefficient((j,)), y.coefficient((i,))),
        )
        out = add(out, mul(p, term))
    return neg(out)


def _loop_sharp(pi, coefficient):
    comps = [ConstR(0.0)] * pi.dim
    for (i, j), p in sorted(pi.entries.items()):
        comps[j] = add(comps[j], mul(p, coefficient(i)))
        comps[i] = sub(comps[i], mul(p, coefficient(j)))
    return tuple(comps)


STRUCTURES = {
    "canonical2": lambda: PoissonStructure(2, {(0, 1): parse("1", 2)}),
    "quadratic2": lambda: PoissonStructure(2, {(0, 1): parse("1 + x1^2*x2", 2)}),
    "so3": so3_structure,
    "shifted3": lambda: PoissonStructure(
        3, {(0, 1): parse("1", 3), (1, 2): parse("x2", 3)}
    ),
}


class TestContractionTrees:
    """Every operation builds the same tree as its former hand-written loop."""

    @pytest.mark.parametrize("name", sorted(STRUCTURES))
    def test_trees_match_the_loops(self, name):
        pi = STRUCTURES[name]()
        n = pi.dim
        rng = rng_for(31)
        for algebra in (dual_numbers(), jets(2)):
            for _ in range(4):
                f, g = random_expr(rng, n), random_expr(rng, n)
                assert bracket(pi, f, g) == _loop_bracket(pi, f, g)
                phi = AFunction(random_expr_with_consta(rng, n, algebra), n, algebra)
                psi = AFunction(random_expr_with_consta(rng, n, algebra), n, algebra)
                assert prolong_bracket(pi, phi, psi).expr == _loop_bracket(
                    pi, phi.expr, psi.expr
                )
                x = random_one_form(rng, n, algebra, with_consta=True)
                y = random_one_form(rng, n, algebra, with_consta=True)
                assert omega_prolonged(pi, x, y).expr == _loop_omega(pi, x, y)
                assert ad_prolong(pi, phi).components == _loop_sharp(
                    pi, lambda k: diff(phi.expr, k)
                )
                assert ad_tilde(pi, x).components == _loop_sharp(
                    pi, lambda k: x.coefficient((k,))
                )


class TestHamiltonianFieldOnSharp:
    """ad(f) takes one gradient of f through _sharp; its components have
    the values of the per-coordinate brackets {f, x_i} it used to build."""

    @pytest.mark.parametrize("name", sorted(STRUCTURES))
    def test_components_equal_the_coordinate_brackets(self, name):
        pi = STRUCTURES[name]()
        rng = rng_for(47)
        for _ in range(8):
            f = random_polynomial(rng, pi.dim)
            field = hamiltonian_field(pi, f)
            for _ in range(4):
                xs = rng.uniform(-2.0, 2.0, pi.dim)
                assert [eval_real(c, xs) for c in field.components] == [
                    eval_real(bracket(pi, f, Var(i)), xs) for i in range(pi.dim)
                ]

    def test_one_partial_per_coordinate(self, monkeypatch):
        import weilc.poisson

        calls = []

        def counting_diff(e, i):
            calls.append(i)
            return diff(e, i)

        monkeypatch.setattr(weilc.poisson, "diff", counting_diff)
        hamiltonian_field(so3_structure(), parse("x1^3 + x1*x2*x3 - x3^2", 3))
        assert sorted(calls) == [0, 1, 2]

    def test_rejects_algebra_constants(self, dual):
        f = add(Var(0), ConstA(dual.generator("eps")))
        with pytest.raises(AlgebraMismatch):
            hamiltonian_field(so3_structure(), f)


class TestPaperCondition:
    """M^A is A-Poisson exactly when M is Poisson: the A-side verifier passes
    on exactly the bivectors the base Jacobi check passes, and fails only
    through Jacobi witnesses."""

    @pytest.mark.parametrize("algebra", ["dual", "jet2", "plane", "corner3"])
    @pytest.mark.parametrize("name", sorted(STRUCTURES))
    def test_a_poisson_exactly_when_poisson(self, name, algebra):
        pi = STRUCTURES[name]()
        base = jacobi_check(pi, trials=3, tol=1e-9, seed=42)
        full = verify_a_poisson(pi, catalog_algebra(algebra), trials=3, tol=1e-9, seed=42)
        assert base.passed == (name != "shifted3")
        assert full.passed == base.passed
        assert all(w.inputs["check"] == "jacobi" for w in full.witnesses)


@pytest.mark.parametrize("name", ["so3", "shifted3"])
def test_prolonged_operations_need_no_prior_check(name):
    # the suites prolong the non-Poisson shifted3 to test that the paper's
    # condition is necessary, so no operation waits for a Jacobi check, and
    # the check only reports
    import weilc

    algebra = dual_numbers()
    pi = STRUCTURES[name]()
    phi = AFunction(Var(0), 3, algebra)
    psi = AFunction(parse("x2*x3", 3), 3, algebra)
    x = CoordForm(1, 3, algebra, {(0,): ConstR(1.0), (2,): Var(1)})
    point = real_point(algebra, [0.3, -0.4, 0.5])
    assert len(ad_prolong(pi, phi).components) == 3
    assert len(ad_tilde(pi, x).components) == 3
    assert prolong_bracket(pi, phi, psi)(point).algebra is algebra
    assert omega_prolonged(pi, x, delta(psi))(point).algebra is algebra
    assert omega_at(pi, x, delta(psi), point).algebra is algebra
    before = dict(vars(pi))
    report = jacobi_check(pi, trials=3, tol=1e-9, seed=42)
    assert report.passed == (name == "so3")
    assert vars(pi) == before
    assert not hasattr(weilc, "UntrustedStructure")
