"""Acceptance gate: every criterion at its stated tolerance.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one pass/fail
line per criterion.
"""

import json
import math

import mpmath
import numpy as np

from weilc import (
    AFunction,
    APoint,
    CoordForm,
    VectorField,
    bracket,
    canonical_structure,
    delta,
    dform,
    jacobi_check,
    jets,
    lie_derivative,
    parse,
    prolong_bracket,
    prolong_field,
    run_suite,
    so3_structure,
    taylor_coeffs,
    verify_a_poisson,
)
from weilc.cli import main
from weilc.expr import Apply, Mul, PRIMITIVES, Var, eval_weil
from weilc.forms import contract
from weilc.oracle import form_is_zero_exact
from weilc.poisson import PoissonStructure, ad_prolong, ad_tilde, omega_at, omega_prolonged
from weilc.sampling import (
    catalog_algebra,
    random_algebra,
    random_expr,
    random_expr_with_consta,
    random_one_form,
    random_point,
    random_polynomial,
    residual,
    residual_forms,
    rng_for,
)

SEED = 42
TOL = 1e-9


def _worst(worst: float, value: float) -> float:
    """max() that counts a non-finite value as inf; max() alone skips NaN."""
    return max(worst, value if math.isfinite(value) else math.inf)


def _report(num: int, name: str, passed: bool, detail: str = ""):
    status = "PASS" if passed else "FAIL"
    print(f"[{status}] acceptance {num}: {name} {detail}".rstrip())
    assert passed, f"acceptance {num} failed: {name} {detail}"


def test_criterion_1_homomorphism_suite():
    report = run_suite("hom_laws", seed=SEED, trials=100, tol=TOL)
    _report(
        1,
        "evaluation homomorphism laws",
        report.passed,
        f"max_residual={report.max_residual:.3e}",
    )


def test_criterion_2_taylor_lift_oracle_agreement():
    handles = {"exp": (mpmath.exp, -2.0), "sin": (mpmath.sin, -2.0), "log": (mpmath.log, 0.5)}
    rng = rng_for(SEED)
    worst = 0.0
    for name, (handle, low) in handles.items():
        for _ in range(50):
            h = int(rng.integers(1, 5))
            r = float(rng.uniform(low, 2.0))
            algebra = jets(h)
            point = APoint(algebra, (algebra.from_real(r) + algebra.generator("t"),))
            value = eval_weil(Apply(PRIMITIVES[name], Var(0)), point)
            oracle = taylor_coeffs(handle, r, h)
            gap = float(
                np.max(np.abs(value.coeffs - oracle) / (1.0 + np.abs(oracle)))
            )
            worst = _worst(worst, gap)
    _report(2, "Taylor lift against finite differences", worst <= 1e-6, f"worst={worst:.3e}")


def test_criterion_3_derivation_law():
    rng = rng_for(SEED)
    worst = 0.0
    for _ in range(100):
        algebra = random_algebra(rng)
        n = int(rng.integers(1, 4))
        theta = VectorField(
            tuple(random_polynomial(rng, n, max_degree=2) for _ in range(n))
        )
        f, g = random_expr(rng, n), random_expr(rng, n)
        point = random_point(rng, algebra, n)
        d = prolong_field(theta, algebra)
        lhs = d.apply_at(Mul(f, g), point)
        rhs = d.apply_at(f, point) * eval_weil(g, point) + eval_weil(
            f, point
        ) * d.apply_at(g, point)
        worst = _worst(worst, residual(lhs, rhs))
    _report(3, "prolonged fields are derivations", worst <= TOL, f"worst={worst:.3e}")


def test_criterion_4_bracket_prolongation():
    report = run_suite("bracket_prolong", seed=SEED, trials=100, tol=TOL)
    _report(
        4,
        "bracket commutes with prolongation",
        report.passed,
        f"max_residual={report.max_residual:.3e}",
    )


def test_criterion_5_cartan_suite():
    report = run_suite("cartan", seed=SEED, trials=50, tol=TOL)
    exact = True
    rng = rng_for(SEED + 1)
    algebra = catalog_algebra("dual")
    for _ in range(20):
        w0 = CoordForm(0, 3, algebra, {(): random_polynomial(rng, 3, max_degree=4)})
        exact = exact and form_is_zero_exact(dform(dform(w0)), 3)
        w1 = CoordForm(
            1,
            3,
            algebra,
            {(i,): random_polynomial(rng, 3, max_degree=3) for i in range(3)},
        )
        exact = exact and form_is_zero_exact(dform(dform(w1)), 3)
    _report(
        5,
        "Cartan calculus identities",
        report.passed and exact,
        f"max_residual={report.max_residual:.3e} dd_exact={exact}",
    )


def test_criterion_6_bracket_prolongation_equality():
    structures = {"canonical": canonical_structure(1), "so3": so3_structure()}
    algebras = {name: catalog_algebra(name) for name in ("dual", "jet2", "plane")}
    worst = 0.0
    for pi_name, pi in structures.items():
        n = pi.dim
        for alg_name, algebra in algebras.items():
            rng = rng_for(SEED)
            for _ in range(200):
                f, g = random_expr(rng, n), random_expr(rng, n)
                point = random_point(rng, algebra, n)
                f_a = AFunction(f, n, algebra)
                g_a = AFunction(g, n, algebra)
                lifted = prolong_bracket(pi, f_a, g_a)(point)
                base = eval_weil(bracket(pi, f, g), point)
                worst = _worst(worst, residual(lifted, base))
                # second route: the Hamiltonian derivation of f applied to g,
                # ring-combining separately evaluated pieces
                operator = ad_prolong(pi, f_a).apply_at(g_a, point)
                worst = _worst(worst, residual(operator, base))
    _report(
        6,
        "prolonged bracket covers the base bracket",
        worst <= TOL,
        f"worst={worst:.3e}",
    )


def test_criterion_7_two_form_identities():
    pi = canonical_structure(1)
    algebra = catalog_algebra("jet2")
    rng = rng_for(SEED)
    n = pi.dim
    skew_exact = True
    worst = 0.0
    for _ in range(50):
        point = random_point(rng, algebra, n)
        x = random_one_form(rng, n, algebra, with_consta=True)
        y = random_one_form(rng, n, algebra, with_consta=True)
        # skewness, bitwise
        skew_exact = skew_exact and all(
            c == 0.0 for c in omega_prolonged(pi, x, x)(point).coeffs
        )
        skew_exact = skew_exact and (
            omega_prolonged(pi, x, y)(point) == -omega_prolonged(pi, y, x)(point)
        )
        # prolongation equality on base one-forms, numeric against symbolic
        bx = random_one_form(rng, n, algebra)
        by = random_one_form(rng, n, algebra)
        worst = _worst(
            worst,
            residual(
                omega_at(pi, bx, by, point),
                eval_weil(omega_prolonged(pi, bx, by).expr, point, algebra),
            ),
        )
        # pairing identities
        phi = AFunction(random_expr_with_consta(rng, n, algebra), n, algebra)
        psi = AFunction(random_expr_with_consta(rng, n, algebra), n, algebra)
        worst = _worst(
            worst,
            residual(
                ad_tilde(pi, x).apply_at(phi, point),
                -omega_at(pi, x, delta(phi), point),
            ),
        )
        worst = _worst(
            worst,
            residual(
                contract(ad_tilde(pi, x), y)(point), -omega_at(pi, x, y, point)
            ),
        )
        worst = _worst(
            worst,
            residual_forms(
                lie_derivative(ad_prolong(pi, phi), delta(psi)),
                delta(prolong_bracket(pi, phi, psi)),
                point,
            ),
        )
    _report(
        7,
        "prolonged 2-form identities",
        skew_exact and worst <= TOL,
        f"skew_exact={skew_exact} worst={worst:.3e}",
    )


def test_criterion_8_negative_control():
    pi = PoissonStructure(
        3,
        {
            (0, 1): parse("x3 + 0.1*x1^2", 3),
            (1, 2): parse("x1", 3),
            (0, 2): parse("-x2", 3),
        },
    )
    jac = jacobi_check(pi, trials=60, tol=TOL, seed=SEED)
    full = verify_a_poisson(pi, catalog_algebra("dual"), trials=60, tol=TOL, seed=SEED)
    ok = (
        not jac.passed
        and jac.max_residual > 1e-3
        and not full.passed
        and full.max_residual > 1e-3
        and bool(jac.witnesses)
        and bool(full.witnesses)
    )
    _report(
        8,
        "perturbed bivector is rejected",
        ok,
        f"jacobi={jac.max_residual:.3e} full={full.max_residual:.3e}",
    )


def test_criterion_9_deterministic_reports(tmp_path):
    config = tmp_path / "project.yaml"
    config.write_text(
        "chart_dim: 2\n"
        "algebras:\n  dual:\n    generators: [eps]\n    relations: [eps^2]\n"
        "bivectors:\n  canonical2:\n    \"1,2\": \"1\"\n"
        "suites: {seed: 42, trials: 50, tol: 1.0e-9}\n",
        encoding="utf-8",
    )
    identical = True
    for suite, extra in (
        ("hom_laws", []),
        ("poisson_full", ["--pi", "canonical2", "--algebra", "dual"]),
    ):
        blobs = []
        for run in range(2):
            out = tmp_path / f"{suite}-{run}.json"
            code = main(
                ["--config", str(config), "check", suite, *extra, "--json", str(out)]
            )
            assert code == 0
            blobs.append(out.read_bytes())
        identical = identical and blobs[0] == blobs[1]
        payload = json.loads(blobs[0])
        assert set(payload) == {
            "suite",
            "seed",
            "trials",
            "max_residual",
            "pass",
            "witnesses",
        }
    _report(9, "byte-identical machine reports", identical)
