"""Command-line behavior: rendering, exit codes, reports, determinism."""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

from weilc import cli, errors, sampling
from weilc.cli import main

CONFIG_2D = """\
chart_dim: 2
algebras:
  dual:
    generators: [eps]
    relations: [eps^2]
  jets2:
    generators: [t]
    relations: [t^3]
  jets3:
    generators: [t]
    relations: [t^4]
expressions:
  f: x1^2
  sinx: sin(x1)
  inv: 1/x1
  q: x1
  p: x2
vector_fields:
  shear: ["x2", "0"]
bivectors:
  canonical2:
    "1,2": "1"
suites:
  seed: 42
  trials: 40
  tol: 1.0e-9
"""

CONFIG_3D = """\
chart_dim: 3
algebras:
  dual:
    generators: [eps]
    relations: [eps^2]
expressions:
  h: x1*x3
bivectors:
  so3:
    "1,2": "x3"
    "2,3": "x1"
    "1,3": "-x2"
  broken3:
    "1,2": "x3 + 0.1*x1^2"
    "2,3": "x1"
    "1,3": "-x2"
suites:
  seed: 42
  trials: 40
  tol: 1.0e-9
"""


@pytest.fixture
def config2(tmp_path):
    path = tmp_path / "project.yaml"
    path.write_text(CONFIG_2D, encoding="utf-8")
    return str(path)


@pytest.fixture
def config3(tmp_path):
    path = tmp_path / "so3.yaml"
    path.write_text(CONFIG_3D, encoding="utf-8")
    return str(path)


class TestAlgebraShow:
    def test_dual(self, config2, capsys):
        assert main(["--config", config2, "algebra-show", "dual"]) == 0
        out = capsys.readouterr().out
        assert "dim=2 height=1 basis=[1, eps]" in out

    def test_jets3(self, config2, capsys):
        assert main(["--config", config2, "algebra-show", "jets3"]) == 0
        assert "dim=4 height=3" in capsys.readouterr().out

    def test_unknown_name(self, config2, capsys):
        assert main(["--config", config2, "algebra-show", "nope"]) == 2


class TestEval:
    def test_square_at_dual_point(self, config2, capsys):
        code = main(
            ["--config", config2, "eval", "f", "dual", "--point", "[[3,1],[0,0]]"]
        )
        assert code == 0
        assert capsys.readouterr().out.strip() == "9 + 6*eps"

    def test_sin_mod_t3(self, config2, capsys, tmp_path):
        out_path = tmp_path / "eval.json"
        code = main(
            [
                "--config",
                config2,
                "eval",
                "sinx",
                "jets2",
                "--point",
                "[[0,1,0],[0,0,0]]",
                "--json",
                str(out_path),
            ]
        )
        assert code == 0
        payload = json.loads(out_path.read_text())
        assert payload["coefficients"] == [0.0, 1.0, 0.0]
        assert "rendering" in payload

    def test_wrong_point_length(self, config2, capsys):
        code = main(["--config", config2, "eval", "f", "dual", "--point", "[[3,1]]"])
        assert code == 2
        assert "coordinate" in capsys.readouterr().err

    def test_wrong_coefficient_count(self, config2, capsys):
        code = main(
            ["--config", config2, "eval", "f", "dual", "--point", "[[3],[0]]"]
        )
        assert code == 2

    def test_domain_error(self, config2, capsys):
        code = main(
            ["--config", config2, "eval", "inv", "dual", "--point", "[[0,1],[0,0]]"]
        )
        assert code == 3

    def test_overflow_is_a_domain_error(self, capsys):
        example = Path(__file__).resolve().parents[1] / "docs" / "example_config.yaml"
        point = "[[1e200,1],[0,0]]"
        code = main(["--config", str(example), "eval", "f", "dual", "--point", point])
        assert code == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("domain error: non-finite result")

    def test_unknown_expression(self, config2):
        assert main(
            ["--config", config2, "eval", "zzz", "dual", "--point", "[[0,0],[0,0]]"]
        ) == 2


class TestBracketAndProlong:
    def test_bracket_symbolic(self, config2, capsys):
        assert main(["--config", config2, "bracket", "canonical2", "q", "p"]) == 0
        assert capsys.readouterr().out.strip() == "1"

    def test_bracket_evaluated(self, config2, capsys):
        code = main(
            [
                "--config",
                config2,
                "bracket",
                "canonical2",
                "f",
                "p",
                "--algebra",
                "dual",
                "--point",
                "[[3,1],[0,0]]",
            ]
        )
        assert code == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[-1] == "6 + 2*eps"  # {x1^2, x2} = 2*x1 at 3 + eps

    def test_prolong(self, config2, capsys):
        code = main(
            [
                "--config",
                config2,
                "prolong",
                "shear",
                "f",
                "--algebra",
                "dual",
                "--point",
                "[[1,0],[2,1]]",
            ]
        )
        assert code == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[-1] == "4 + 2*eps"  # x2 * 2*x1 at x1=1, x2=2+eps


class TestCheck:
    def test_poisson_full_passes(self, config2, capsys):
        code = main(
            [
                "--config",
                config2,
                "check",
                "poisson_full",
                "--pi",
                "canonical2",
                "--algebra",
                "dual",
            ]
        )
        assert code == 0
        assert "[PASS] poisson_full" in capsys.readouterr().out

    def test_broken_bivector_fails(self, config3, capsys):
        code = main(
            [
                "--config",
                config3,
                "check",
                "poisson_full",
                "--pi",
                "broken3",
                "--algebra",
                "dual",
            ]
        )
        assert code == 4
        out = capsys.readouterr().out
        assert "[FAIL]" in out
        assert "check: jacobi" in out

    def test_unknown_suite(self, config2, capsys):
        assert main(["--config", config2, "check", "nosuch"]) == 2

    def test_report_is_byte_identical_across_runs(self, config2, tmp_path):
        paths = [tmp_path / "a.json", tmp_path / "b.json"]
        for path in paths:
            code = main(
                [
                    "--config",
                    config2,
                    "check",
                    "hom_laws",
                    "--seed",
                    "7",
                    "--json",
                    str(path),
                ]
            )
            assert code == 0
        assert paths[0].read_bytes() == paths[1].read_bytes()

    def test_seed_override_changes_report(self, config2, tmp_path):
        paths = [tmp_path / "a.json", tmp_path / "b.json"]
        for path, seed in zip(paths, ("7", "8")):
            main(
                [
                    "--config",
                    config2,
                    "check",
                    "hom_laws",
                    "--seed",
                    seed,
                    "--json",
                    str(path),
                ]
            )
        a = json.loads(paths[0].read_text())
        b = json.loads(paths[1].read_text())
        assert a["seed"] != b["seed"]


class TestConfigHandling:
    def test_missing_config(self, capsys, monkeypatch):
        monkeypatch.delenv("WEILC_CONFIG", raising=False)
        assert main(["algebra-show", "dual"]) == 1

    def test_unreadable_config(self, tmp_path):
        assert main(
            ["--config", str(tmp_path / "absent.yaml"), "algebra-show", "dual"]
        ) == 1

    def test_invalid_yaml(self, tmp_path):
        path = tmp_path / "bad.yaml"
        path.write_text("chart_dim: [not an int\n", encoding="utf-8")
        assert main(["--config", str(path), "algebra-show", "dual"]) == 1

    def test_bad_expression_in_config(self, tmp_path):
        path = tmp_path / "bad.yaml"
        path.write_text(
            "chart_dim: 1\nexpressions:\n  f: 'x1 +'\n", encoding="utf-8"
        )
        assert main(["--config", str(path), "algebra-show", "dual"]) == 1

    @pytest.mark.parametrize(
        "text",
        ["(" * 2000 + "x1" + ")" * 2000, " + ".join(["x1"] * 3000)],
        ids=["nested", "long_sum"],
    )
    def test_too_deep_expression_in_config(self, tmp_path, capsys, text):
        path = tmp_path / "deep.yaml"
        yaml_text = f"chart_dim: 1\nexpressions:\n  f: '{text}'\n"
        path.write_text(yaml_text, encoding="utf-8")
        assert main(["--config", str(path), "algebra-show", "dual"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error: expression 'f'")
        assert "Traceback" not in err

    def test_a_variable_of_many_digits_in_config(self, tmp_path, capsys):
        # more digits than int() converts: still a variable beyond the chart
        path = tmp_path / "wide.yaml"
        text = "x1 + x" + "1" * 5000
        path.write_text(f"chart_dim: 2\nexpressions:\n  f: '{text}'\n", encoding="utf-8")
        assert main(["--config", str(path), "algebra-show", "dual"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error: expression 'f'")
        assert "exceeds chart dimension 2" in err and "Traceback" not in err

    def test_a_long_unknown_identifier_in_config(self, tmp_path, capsys):
        # refused at exit 1 with a short error line, not the token echoed whole
        path = tmp_path / "long.yaml"
        text = "x1 + " + "a" * 5000
        path.write_text(f"chart_dim: 2\nexpressions:\n  f: '{text}'\n", encoding="utf-8")
        assert main(["--config", str(path), "algebra-show", "dual"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error: expression 'f'")
        assert "unknown identifier" in err and len(err) < 300

    @pytest.mark.parametrize(
        "text", ["x1^" + "9" * 5000, "x1^999999999999", "x1^-10001"],
        ids=["past_int_digits", "hours_of_products", "negative"],
    )
    def test_huge_exponent_in_config(self, tmp_path, capsys, text):
        # refused when the config loads, before any command multiplies
        path = tmp_path / "huge.yaml"
        path.write_text(f"chart_dim: 1\nexpressions:\n  f: '{text}'\n", encoding="utf-8")
        assert main(["--config", str(path), "eval", "f", "dual", "--point", "[[1, 1]]"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error: expression 'f'")
        assert "exponent exceeds 10000" in err and "Traceback" not in err

    @pytest.mark.parametrize(
        "text, message",
        [
            (
                "chart_dim: 2\nsuite: {seed: 7}\n",
                "config root: unknown key 'suite' (known keys: chart_dim, algebras, "
                "expressions, vector_fields, bivectors, suites)",
            ),
            (
                "chart_dim: 2\nalgebras:\n  dual: {generator: [eps], relation: [eps^2]}\n",
                "algebra 'dual': unknown key 'generator' (known keys: generators, relations)",
            ),
            (
                "chart_dim: 2\nsuites: {seeds: 7, trial: 3}\n",
                "suites settings: unknown key 'seeds' (known keys: seed, trials, tol)",
            ),
        ],
        ids=["root", "algebra", "suites"],
    )
    def test_unknown_key(self, tmp_path, capsys, text, message):
        # a misspelt key used to fall back to its default: the algebra above
        # built as R, the suites ran seed 42 with 100 trials
        path = tmp_path / "project.yaml"
        path.write_text(text, encoding="utf-8")
        assert main(["--config", str(path), "check", "hom_laws", "--trials", "1"]) == 1
        captured = capsys.readouterr()
        assert captured.err == f"config error: {message}\n"
        assert captured.out == ""

    @pytest.mark.parametrize(
        "chart_dim, algebra, message",
        [
            ("true", "{generators: [eps], relations: [eps^2]}",
             "chart_dim must be a positive integer, got True"),
            ("1.0", "{generators: [eps], relations: [eps^2]}",
             "chart_dim must be a positive integer, got 1.0"),
            ("1", "{generators: eps, relations: [eps^2]}",
             "algebra 'dual': generators must be a list, got 'eps'"),
            ("1", "{generators: [eps], relations: eps^2}",
             "algebra 'dual': relations must be a list, got 'eps^2'"),
            ("1", "{generators: , relations: [eps^2]}",
             "algebra 'dual': generators must be a list, got None"),
        ],
        ids=["bool_chart_dim", "float_chart_dim", "string_generators",
             "string_relations", "null_generators"],
    )
    def test_wrong_type_in_config(self, tmp_path, capsys, chart_dim, algebra, message):
        # true used to pass as a 1-dimensional chart, and a string was split
        # into one generator or relation per letter
        path = tmp_path / "project.yaml"
        path.write_text(f"chart_dim: {chart_dim}\nalgebras:\n  dual: {algebra}\n"
                        "expressions: {f: x1^2}\n", encoding="utf-8")
        assert main(["--config", str(path), "eval", "f", "dual", "--point", "[[3,1]]"]) == 1
        captured = capsys.readouterr()
        assert captured.err == f"config error: {message}\n"
        assert captured.out == ""

    def test_env_fallback(self, config2, capsys, monkeypatch):
        monkeypatch.setenv("WEILC_CONFIG", config2)
        assert main(["algebra-show", "dual"]) == 0
        assert "dim=2" in capsys.readouterr().out


class TestArgumentEdges:
    def test_bracket_algebra_without_point(self, config2, capsys):
        code = main(
            ["--config", config2, "bracket", "canonical2", "q", "p", "--algebra", "dual"]
        )
        assert code == 2
        assert "--point" in capsys.readouterr().err

    def test_bracket_point_without_algebra(self, config2, capsys):
        code = main(
            ["--config", config2, "bracket", "canonical2", "q", "p", "--point", "[[3,1],[0,0]]"]
        )
        assert code == 2
        captured = capsys.readouterr()
        assert captured.err == "error: --algebra and --point go together: give both or neither\n"
        assert captured.out == ""

    @pytest.mark.parametrize(
        "argv",
        [
            ["eval", "f", "dual", "--point", "[[3,1],[0,0]]", "--seed", "5"],
            ["algebra-show", "dual", "--tol", "5"],
            ["bracket", "canonical2", "q", "p", "--json", "{json}"],
            ["prolong", "shear", "f", "--algebra", "dual", "--point", "[[1,0],[2,1]]",
             "--json", "{json}"],
            ["--json", "{json}", "check", "hom_laws", "--trials", "1"],
            ["--seed", "5", "check", "hom_laws", "--trials", "1"],
        ],
        ids=["eval-seed", "algebra-show-tol", "bracket-json", "prolong-json",
             "top-level-json", "top-level-seed"],
    )
    def test_flag_the_command_does_not_take(self, config2, capsys, tmp_path, argv):
        path = tmp_path / "r.json"
        argv = [str(path) if a == "{json}" else a for a in argv]
        with pytest.raises(SystemExit) as exc:
            main(["--config", config2, *argv])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "usage: weilc" in captured.err
        assert not path.exists()

    @pytest.mark.parametrize(
        "extra", [["--pi", "canonical2"], ["--algebra", "dual"]], ids=["pi", "algebra"]
    )
    def test_pi_or_algebra_on_another_suite(self, config2, capsys, extra):
        code = main(["--config", config2, "check", "hom_laws", "--trials", "1", *extra])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.err == (
            "error: suite 'hom_laws' takes no pi or algebra; only poisson_full does\n"
        )
        assert captured.out == ""

    def test_malformed_point_json(self, config2, capsys):
        code = main(
            ["--config", config2, "eval", "f", "dual", "--point", "[[3,1],"]
        )
        assert code == 2
        assert "JSON" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "point, coordinate",
        [('[["a",1],[0,0]]', "x1"), ("[[null,1],[0,0]]", "x1"), ("[[3,1],[true,0]]", "x2")],
    )
    def test_non_number_coefficient(self, config2, capsys, point, coordinate):
        code = main(["--config", config2, "eval", "f", "dual", "--point", point])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: --point coordinate {coordinate} ")
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "argv",
        [["algebra-show", "dual"], ["check", "hom_laws", "--trials", "1"]],
        ids=["algebra-show", "check"],
    )
    def test_unwritable_json_path(self, config2, capsys, tmp_path, argv):
        path = str(tmp_path / "missing" / "r.json")
        assert main(["--config", config2, *argv, "--json", path]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: cannot write --json {path}")
        assert "Traceback" not in err


CHART2 = str(Path(__file__).resolve().parent.parent / "perfbench" / "configs" / "chart2.yaml")


class TestSeedsAndRedraws:
    def test_negative_seed_flag(self, config2, capsys):
        code = main(["--config", config2, "check", "hom_laws", "--seed", "-1", "--trials", "2"])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.err == "error: seed -1 is negative; seeds are integers >= 0\n"
        assert captured.out == ""

    def test_negative_seed_in_config(self, tmp_path, capsys):
        path = tmp_path / "project.yaml"
        path.write_text(CONFIG_2D.replace("seed: 42", "seed: -1"), encoding="utf-8")
        assert main(["--config", str(path), "check", "hom_laws", "--trials", "2"]) == 1
        captured = capsys.readouterr()
        assert captured.err == "config error: suites settings: seed -1 is negative\n"
        assert captured.out == ""

    def test_domain_error_trial_is_redrawn(self, tmp_path, capsys):
        # this seed draws an exp that overflows at the image point of the
        # composition sub-check; the trial is drawn again
        out = tmp_path / "r.json"
        argv = ["--config", CHART2, "check", "hom_laws", "--seed", "895108364",
                "--trials", "3", "--json", str(out)]
        assert main(argv) == 0
        summary = capsys.readouterr().out.splitlines()[0]
        assert summary.startswith("[PASS] hom_laws: trials=3 ")
        assert summary.endswith(" redrawn=1")
        report = json.loads(out.read_text())
        assert set(report) == {"suite", "seed", "trials", "max_residual", "pass", "witnesses"}
        assert report["pass"] and report["trials"] == 3

    def test_jacobi_residual_is_scaled_by_its_terms(self, capsys):
        # psi holds exp(exp(exp(x2))), about 8e5 at the point; unscaled, the
        # Jacobiator's float cancellation read 5.96e-08 and failed
        argv = ["--config", CHART2, "check", "poisson_full", "--pi", "canonical2",
                "--algebra", "dual", "--seed", "1027864161", "--trials", "3"]
        assert main(argv) == 0
        assert capsys.readouterr().out.startswith("[PASS] poisson_full: trials=3 ")


class TestSuiteSettings:
    @pytest.mark.parametrize("tol", ["-1", "nan", "-inf"])
    def test_bad_tol_flag(self, config2, capsys, tol):
        # --tol=-inf: argparse reads a bare "-inf" as an option name
        code = main(["--config", config2, "check", "hom_laws", "--trials", "2", f"--tol={tol}"])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.err == (
            f"error: tolerance {float(tol)} is negative or NaN; use 0 or more\n"
        )
        assert captured.out == ""

    @pytest.mark.parametrize("tol, shown", [("0", "0.0e+00"), ("inf", "inf")])
    def test_zero_and_inf_tol_flags_stay_valid(self, config2, capsys, tol, shown):
        code = main(["--config", config2, "check", "hom_laws", "--trials", "2", "--tol", tol])
        assert code == 0
        assert f" tol={shown}" in capsys.readouterr().out

    def test_bad_tol_in_library_call(self):
        from weilc.oracle import run_suite

        with pytest.raises(errors.WeilcError, match="negative or NaN"):
            run_suite("hom_laws", 42, 2, -1e-9)

    @pytest.mark.parametrize(
        "settings, message",
        [
            ("{seed: 1.5, trials: 2}", "seed must be an integer, got 1.5"),
            ("{seed: 1, trials: 2.9}", "trials must be an integer, got 2.9"),
            ("{trials: true}", "trials must be an integer, got True"),
            ("{seed: '7'}", "seed must be an integer, got '7'"),
            ("{tol: yes}", "tol must be a number, got True"),
            ("{tol: 1e-9}", "tol must be a number, got '1e-9'"),
            ("{tol: -1}", "tol -1 is negative or NaN"),
            ("{tol: .nan}", "tol nan is negative or NaN"),
        ],
    )
    def test_bad_settings_in_config(self, tmp_path, capsys, settings, message):
        path = tmp_path / "project.yaml"
        path.write_text(f"chart_dim: 2\nsuites: {settings}\n", encoding="utf-8")
        assert main(["--config", str(path), "check", "hom_laws"]) == 1
        captured = capsys.readouterr()
        assert captured.err == f"config error: suites settings: {message}\n"
        assert captured.out == ""

    def test_integer_and_inf_settings_in_config(self, tmp_path, capsys):
        path = tmp_path / "project.yaml"
        path.write_text("chart_dim: 2\nsuites: {seed: 3, trials: 2, tol: .inf}\n",
                        encoding="utf-8")
        assert main(["--config", str(path), "check", "hom_laws"]) == 0
        assert capsys.readouterr().out.startswith(
            "[PASS] hom_laws: trials=2 seed=3 max_residual="
        )


def _weilc_error_classes():
    """Every WeilcError subclass the errors module defines."""
    found, stack = [], [errors.WeilcError]
    while stack:
        for sub in stack.pop().__subclasses__():
            if sub.__module__ == errors.__name__:
                found.append(sub)
                stack.append(sub)
    return found


# the documented exit code of each error class (see weilc.cli)
EXIT_CODES = {
    errors.ConfigError: (1, "config error: "),
    errors.DomainError: (3, "domain error: "),
    **{
        cls: (2, "error: ")
        for cls in (
            errors.EmptyRelation,
            errors.NotFiniteDimensional,
            errors.AlgebraMismatch,
            errors.DimensionMismatch,
            errors.NotMorphism,
            errors.DegreeError,
            errors.ParseError,
            errors.UnknownSymbol,
            errors.UnknownSuite,
        )
    },
}


def test_exit_code_table_covers_every_error_class():
    assert len(EXIT_CODES) == 11
    assert set(_weilc_error_classes()) == set(EXIT_CODES)


@pytest.mark.parametrize(
    "cls", list(EXIT_CODES), ids=[cls.__name__ for cls in EXIT_CODES]
)
def test_each_error_class_exits_with_its_code(config2, capsys, monkeypatch, cls):
    exc = cls("stub", 0) if issubclass(cls, errors.ParseError) else cls("stub")

    def command(cfg, args):
        raise exc

    monkeypatch.setitem(cli._COMMANDS, "algebra-show", command)
    code, prefix = EXIT_CODES[cls]
    assert main(["--config", config2, "algebra-show", "dual"]) == code
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"{prefix}{exc}\n"


EXAMPLE = str(Path(__file__).resolve().parents[1] / "docs" / "example_config.yaml")


def _fresh_python(code: str) -> str:
    """Run ``code`` in a fresh interpreter that imports weilc from src/ and
    return its stdout."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [src, *filter(None, [os.environ.get("PYTHONPATH")])])}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, timeout=60, check=True)
    return out.stdout


@pytest.mark.parametrize("module", ["mpmath", "numpy", "yaml"])
def test_start_up_leaves_module_unloaded(module):
    # mpmath serves the finite-difference oracle, numpy the seeded draws, the
    # morphism matrices and the oracle, yaml the config load; importing the
    # package and its CLI loads none of them
    code = f"import sys, weilc, weilc.cli; print({module!r} in sys.modules)"
    assert _fresh_python(code).strip() == "False"


@pytest.mark.parametrize(
    "argv",
    [
        ["eval", "g", "dual", "--point", "[[1, 1], [0.5, 0]]"],
        ["algebra-show", "fat"],
        ["bracket", "canonical2", "q", "energy", "--algebra", "dual",
         "--point", "[[1, 1], [0.5, 0]]"],
        ["prolong", "rotation", "g", "--algebra", "jets2",
         "--point", "[[1, 1, 0], [0.5, 0, 1]]"],
    ],
    ids=lambda argv: argv[0],
)
def test_a_command_without_draws_leaves_numpy_unloaded(argv):
    # only check draws at random, so only check needs numpy
    code = (
        "import sys; from weilc import cli; "
        f"code = cli.main({['--config', EXAMPLE, *argv]!r}); "
        "print(code, 'numpy' in sys.modules)"
    )
    assert _fresh_python(code).splitlines()[-1] == "0 False"


def test_a_nan_residual_never_passes(config2, tmp_path, monkeypatch, capsys):
    # the antisymmetry sub-check of poisson_full reads residual_zero; a NaN
    # there must fail the run, with a witness, through the whole CLI path
    monkeypatch.setattr(sampling, "residual_zero", lambda value: math.nan)
    path = tmp_path / "report.json"
    argv = ["--config", config2, "check", "poisson_full", "--pi", "canonical2",
            "--algebra", "dual", "--trials", "3", "--json", str(path)]
    assert main(argv) == 4
    assert capsys.readouterr().out.startswith("[FAIL] poisson_full: trials=3 ")
    report = json.loads(path.read_text(encoding="utf-8"))
    assert report["pass"] is False
    assert report["max_residual"] == math.inf
    assert [w["inputs"]["check"] for w in report["witnesses"]] == ["antisymmetry"] * 3
