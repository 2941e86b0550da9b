"""Command-line behavior: rendering, exit codes, reports, determinism."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

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
                "--json",
                str(out_path),
                "eval",
                "sinx",
                "jets2",
                "--point",
                "[[0,1,0],[0,0,0]]",
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
                    "--json",
                    str(path),
                    "check",
                    "hom_laws",
                    "--seed",
                    "7",
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
                    "--json",
                    str(path),
                    "check",
                    "hom_laws",
                    "--seed",
                    seed,
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

    def test_malformed_point_json(self, config2, capsys):
        code = main(
            ["--config", config2, "eval", "f", "dual", "--point", "[[3,1],"]
        )
        assert code == 2
        assert "JSON" in capsys.readouterr().err


def test_start_up_leaves_mpmath_unloaded():
    # only the finite-difference oracle needs mpmath; a fresh interpreter
    # shows whether importing the package and its CLI loads it
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [src, *filter(None, [os.environ.get("PYTHONPATH")])])}
    code = "import sys, weilc, weilc.cli; print('mpmath' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, timeout=60, check=True)
    assert out.stdout.strip() == "False"
