"""Command-line behavior: rendering, exit codes, reports, determinism."""

import argparse
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest
import yaml

import weilc
from weilc import cli, config, errors, poisson, sampling
from weilc.algebra import MAX_ALGEBRA_DIM
from weilc.poisson import MAX_CHART_DIM
from weilc.cli import main
from weilc.config import parse_relation
from weilc.oracle import DEFAULTS, SUITES
from weilc.expr import to_string

from structures import perturbed_so10, so_n


def _inputs_not_taken():
    """(suite, input, name) for each input that a suite does not take in
    SUITES, given a name that CONFIG_2D defines and an empty name; the ids
    of hom_laws' rows name no suite."""
    known = {"pi": "canonical2", "algebra": "dual"}
    params = []
    for suite, (_, takes) in SUITES.items():
        for empty in (False, True):
            for name in DEFAULTS:
                if name not in takes:
                    words = [suite] * (suite != "hom_laws") + ["empty"] * empty + [name]
                    params.append(pytest.param(suite, name, "" if empty else known[name],
                                               id="-".join(words)))
    return params


# 10,000 zeros, the items of a long value in a config or a --point
ZEROS = ", ".join(["0"] * 10000)


def _one_algebra(generators, relations):
    """A config with the one algebra A."""
    return yaml.safe_dump({"chart_dim": 1, "algebras": {
        "A": {"generators": generators, "relations": relations}}})


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


@pytest.fixture
def libyaml(request, monkeypatch):
    """Each config load reads YAML through libyaml's parser, or, with
    ``yaml.cyaml`` made unimportable, as PyYAML built without libyaml does."""
    config._loader.cache_clear()
    if not request.param:
        monkeypatch.setitem(sys.modules, "yaml.cyaml", None)
    assert issubclass(config._loader(), yaml.SafeLoader) is not request.param
    yield
    config._loader.cache_clear()


# both loader classes that PyYAML can give, as the parameter of the fixture above
both_loaders = pytest.mark.parametrize("libyaml", [True, False], ids=["c_loader", "python_loader"],
                                       indirect=True)


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

    @pytest.fixture
    def so10_config(self, tmp_path):
        bivectors = {"so10": so_n(10), "so10_perturbed": perturbed_so10()}
        path = tmp_path / "so10.yaml"
        path.write_text(yaml.safe_dump({
            "chart_dim": 45,
            "algebras": {"jet2": {"generators": ["t"], "relations": ["t^3"]}},
            "bivectors": {key: {f"{i + 1},{j + 1}": to_string(e)
                                for (i, j), e in pi.entries.items()}
                          for key, pi in bivectors.items()},
        }), encoding="utf-8")
        return str(path)

    @pytest.mark.parametrize("name, code", [("so10", 0), ("so10_perturbed", 4)])
    def test_poisson_full_on_a_wide_chart(self, so10_config, capsys, name, code):
        # so(10)*: 45 coordinates and 360 entries, which each bracket used to
        # sum one tree level a term, past MAX_NODE_DEPTH: the run exited 2
        argv = ["--config", so10_config, "check", "poisson_full", "--pi", name,
                "--algebra", "jet2", "--trials", "3", "--seed", "42"]
        assert main(argv) == code
        assert ("[PASS]" if code == 0 else "[FAIL]") in capsys.readouterr().out

    def test_jacobi_on_a_wide_chart(self, so10_config, capsys):
        # all 14,190 coordinate triples, exactly
        argv = ["--config", so10_config, "check", "jacobi", "--pi", "so10_perturbed"]
        assert main(argv) == 4
        out = capsys.readouterr().out
        assert "[FAIL] jacobi" in out and "monomial: x8*x27" in out

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

    @pytest.mark.parametrize(
        "text, argv, message",
        [
            (None, ["eval", "f", "dual", "--point", f"[{ZEROS}]"],
             "error: --point needs 1 coordinate vectors, got "
             "[0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0,... (50000 characters)"),
            (None, ["eval", "f", "dual", "--point", f"[[{ZEROS}]]"],
             "error: each coordinate needs 2 coefficients (basis ['1', 'eps']), got "
             "[0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0,... (50000 characters)"),
            (None, ["eval", "f", "dual", "--point", f"[[[{ZEROS}], 1]]"],
             "error: --point coordinate x1 has a non-number in "
             "[[0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0... (50007 characters)"),
            # a vector of floats is no longer than the algebra's dimension
            (None, ["eval", "f", "wide", "--point", f"[[{', '.join(['NaN'] * 100)}]]"],
             "error: --point coordinate x1 has a non-finite number in "
             "[nan, nan, nan, nan, nan, nan, nan, nan,... (500 characters)"),
            (f"chart_dim: [{ZEROS}]\n", ["algebra-show", "dual"],
             "config error: chart_dim must be a positive integer, got "
             "[0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, ... (30000 characters)"),
            ("chart_dim: 1\nalgebras:\n  dual: {generators: {"
             + ", ".join(f"g{i}: 0" for i in range(10000)) + "}}\n", ["algebra-show", "dual"],
             "config error: algebra 'dual': generators must be a list, got "
             "{'g0': 0, 'g1': 0, 'g2': 0, 'g3': 0, 'g4... (118890 characters)"),
            (f"chart_dim: 1\nalgebras:\n  dual: {{generators: [[{ZEROS}]]}}\n",
             ["algebra-show", "dual"],
             "config error: algebra 'dual': generator "
             "[0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, ... (30000 characters) "
             "must be a string (quote it)"),
            (f"chart_dim: 1\nsuites: {{seed: [{ZEROS}]}}\n", ["algebra-show", "dual"],
             "config error: suites settings: seed must be an integer, got "
             "[0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, ... (30000 characters)"),
            (_one_algebra(["1" + "a" * 9999], ["1" + "a" * 9999 + "^2"]), ["algebra-show", "A"],
             f"config error: algebra 'A': generator name '1{'a' * 38}... (10002 characters) "
             "is not an ASCII identifier"),
            (_one_algebra(["a" * 10000] * 2, ["a" * 10000 + "^2"]), ["algebra-show", "A"],
             "config error: algebra 'A': duplicate generator names in "
             f"('{'a' * 38}... (20008 characters)"),
            (_one_algebra(["a" * 10000, "t"], ["t^2"]), ["algebra-show", "A"],
             f"config error: algebra 'A': generator '{'a' * 39}... (10002 characters) "
             "has no pure-power relation"),
            (_one_algebra(["t"], ["z" * 10000 + "^2"]), ["algebra-show", "A"],
             f"config error: algebra 'A': relation '{'z' * 39}... (10004 characters) "
             f"uses unknown generator '{'z' * 39}... (10002 characters)"),
            (_one_algebra(["t"], ["t^" + "x" * 9998]), ["algebra-show", "A"],
             f"config error: algebra 'A': bad exponent in relation 't^{'x' * 37}... "
             "(10002 characters)"),
            # a plain key is refused past 1,024 characters, an explicit one (?) is not
            (f"chart_dim: 1\n? {'k' * 10000}\n: 1\n", ["algebra-show", "dual"],
             f"config error: config root: unknown key '{'k' * 39}... (10002 characters) "
             "(known keys: chart_dim, algebras, expressions, vector_fields, bivectors, suites)"),
            (f"? {'k' * 10000}\n: 1\n? {'k' * 10000}\n: 2\n", ["algebra-show", "dual"],
             "config error: config PATH is not valid YAML: while constructing a mapping\n"
             '  in "PATH", line 1, column 1\n'
             f"found key '{'k' * 39}... (10002 characters) written twice\n"
             '  in "PATH", line 3, column 3'),
            (f"chart_dim: 1\nbivectors:\n  b:\n    ? {'k' * 10000}\n    : x1\n",
             ["algebra-show", "dual"],
             f"config error: bivector 'b': key '{'k' * 39}... (10002 characters) is not 'i,j'"),
            (f"chart_dim: 1\nexpressions:\n  ? {'n' * 10000}\n  : 'x1 +'\n",
             ["algebra-show", "dual"],
             f"config error: expression '{'n' * 39}... (10002 characters): "
             "unexpected end of input (at position 4)"),
            (None, ["eval", "n" * 10000, "dual", "--point", "[[1, 0]]"],
             f"error: unknown expression '{'n' * 39}... (10002 characters) ('f')"),
            # the names known are listed with the unknown one, each cut
            (f"chart_dim: 1\nalgebras: {{dual: {{generators: [eps], relations: [eps^2]}}}}\n"
             f"expressions:\n  ? {'n' * 10000}\n  : x1\n  g: x1\n",
             ["eval", "f", "dual", "--point", "[[1, 0]]"],
             f"error: unknown expression 'f' ('g', '{'n' * 39}... (10002 characters))"),
            # the entry is named by its pair, not by its key
            (f"chart_dim: 2\nbivectors:\n  b:\n    ? {'0' * 4000}1,2\n    : 'x1 +'\n",
             ["algebra-show", "dual"],
             "config error: bivector 'b': entry (1,2): unexpected end of input (at position 4)"),
        ],
        ids=["point_length", "coefficients", "non_number", "non_finite", "chart_dim",
             "generators", "generator", "suites", "generator_name", "duplicate_names",
             "no_pure_power", "unknown_generator", "bad_exponent", "unknown_key",
             "repeated_key", "bivector_key", "entry_name", "unknown_name", "known_names",
             "bivector_entry_key"],
    )
    def test_a_long_refused_value_is_cut(self, tmp_path, capsys, text, argv, message):
        # each value was echoed whole: 10,000 items made a line of 30,000
        # to 119,000 characters, and a 10,000-character name, key or
        # relation one of 10,069 to 10,123
        path = tmp_path / "project.yaml"
        path.write_text(text or ("chart_dim: 1\nalgebras:\n"
                                 "  dual: {generators: [eps], relations: [eps^2]}\n"
                                 "  wide: {generators: [t], relations: [t^100]}\n"
                                 "expressions: {f: x1}\n"), encoding="utf-8")
        assert main(["--config", str(path), *argv]) == (1 if message.startswith("config") else 2)
        captured = capsys.readouterr()
        assert captured.err == message.replace("PATH", str(path)) + "\n"
        assert captured.out == ""

    @pytest.mark.parametrize(
        "text",
        ["chart_dim: " + "[" * 3000 + "1" + "]" * 3000,
         "chart_dim: 1\nalgebras:\n  dual: {generators: [eps], relations: ["
         + "[" * 3000 + "eps" + "]" * 3000 + "]}"],
        ids=["chart_dim", "relation"],
    )
    def test_deeply_nested_value_in_config(self, tmp_path, capsys, text):
        # repr and str of a value nested 3,000 deep exceed the recursion limit
        path = tmp_path / "deep.yaml"
        path.write_text(text + "\n", encoding="utf-8")
        assert main(["--config", str(path), "algebra-show", "dual"]) == 1
        captured = capsys.readouterr()
        assert captured.err == f"config error: config {path} nests a value too deeply\n"
        assert captured.out == ""

    @both_loaders
    @pytest.mark.parametrize("dashes", [0, 500])
    def test_a_value_too_deep_to_compose_is_refused_whatever_else_the_file_holds(
            self, tmp_path, capsys, dashes, libyaml):
        # 600 levels were echoed whole as a chart_dim of 1,200 characters,
        # unless 500 more '-' in the file sent it to the pure-Python loader
        path = tmp_path / "deep.yaml"
        path.write_text(f"# {'-' * dashes}\nchart_dim: {'[' * 600}1{']' * 600}\n",
                        encoding="utf-8")
        assert main(["--config", str(path), "algebra-show", "dual"]) == 1
        captured = capsys.readouterr()
        assert captured.err == f"config error: config {path} nests a value too deeply\n"
        assert captured.out == ""

    @pytest.mark.parametrize(
        "text",
        ["chart_dim: " + "[" * 30000 + "1" + "]" * 30000, "chart_dim:\n" + "- " * 30000 + "1"],
        ids=["flow", "block"],
    )
    def test_a_config_nested_past_libyaml_is_refused(self, tmp_path, text):
        # libyaml's C loader died with SIGSEGV here; in a fresh interpreter
        # such a crash fails the test instead of ending pytest
        path = tmp_path / "deep.yaml"
        path.write_text(text + "\n", encoding="utf-8")
        code = (
            "import contextlib, io; from weilc.cli import main; err = io.StringIO()\n"
            "with contextlib.redirect_stderr(err):\n"
            f"    code = main(['--config', {str(path)!r}, 'algebra-show', 'dual'])\n"
            "print(code, err.getvalue(), end='')"
        )
        assert _fresh_python(code) == f"1 config error: config {path} nests a value too deeply\n"

    @pytest.mark.parametrize("relation", ["eps^", "eps ^ ", "eps^1_0", "eps^+2", "eps^١٠"])
    def test_empty_exponent_in_config(self, tmp_path, capsys, relation):
        # once read as eps^1, eps^10, eps^2 and eps^10, the relations of other
        # algebras: an exponent is ASCII digits, as in the expression grammar
        path = tmp_path / "project.yaml"
        path.write_text(f"chart_dim: 1\nalgebras:\n  dual: {{generators: [eps], "
                        f"relations: ['{relation}']}}\n", encoding="utf-8")
        assert main(["--config", str(path), "algebra-show", "dual"]) == 1
        captured = capsys.readouterr()
        assert captured.err == (
            f"config error: algebra 'dual': bad exponent in relation {relation!r}\n"
        )
        assert captured.out == ""

    @both_loaders
    @pytest.mark.parametrize(
        "text, key, line",
        [
            ("chart_dim: 1\nchart_dim: 2\n", "chart_dim", 2),
            ("chart_dim: 2\nsuites: {seed: 1, seed: 2}\n", "seed", 2),
            ("chart_dim: 2\nexpressions:\n  f: x1\n  f: x2\n", "f", 4),
            ("chart_dim: 2\nbivectors:\n  b:\n    '1,2': x1\n    '1,2': x2\n", "1,2", 5),
            ("chart_dim: 2\nsuites: {<<: {seed: 1, seed: 2}}\n", "seed", 2),
            ("chart_dim: 2\nsuites: {<<: [{trials: 3, trials: 4}]}\n", "trials", 2),
            ("chart_dim: 2\nexpressions: {=: x1, \"=\": x2}\n", "=", 2),
        ],
        ids=["root", "suites", "expressions", "bivector", "merged", "merged_list", "equals"],
    )
    def test_a_key_written_twice_is_refused(self, tmp_path, capsys, text, key, line, libyaml):
        # YAML kept the later value: the suites ran seed 2, and f was x2
        path = tmp_path / "project.yaml"
        path.write_text(text, encoding="utf-8")
        assert main(["--config", str(path), "algebra-show", "dual"]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith(f"config error: config {path} is not valid YAML: ")
        assert f"found key {key!r} written twice\n  in \"{path}\", line {line}," in captured.err
        assert captured.out == ""

    @both_loaders
    def test_of_two_repeats_the_one_in_the_mapping_closed_first_is_named(self, tmp_path, capsys,
                                                                          libyaml):
        # each mapping's keys are checked as it is composed, and the root
        # closes after the suites mapping in it
        path = tmp_path / "project.yaml"
        path.write_text("chart_dim: 2\nsuites: {seed: 1, seed: 2}\nchart_dim: 3\n",
                        encoding="utf-8")
        assert main(["--config", str(path), "algebra-show", "dual"]) == 1
        captured = capsys.readouterr()
        assert captured.err == (
            f"config error: config {path} is not valid YAML: while constructing a mapping\n"
            f"  in \"{path}\", line 2, column 9\n"
            f"found key 'seed' written twice\n"
            f"  in \"{path}\", line 2, column 19\n"
        )
        assert captured.out == ""

    @both_loaders
    def test_a_merge_key_is_no_repeat(self, tmp_path, capsys, libyaml):
        path = tmp_path / "project.yaml"
        path.write_text("chart_dim: 1\nalgebras:\n"
                        "  dual: &d {generators: [eps], relations: [eps^2]}\n"
                        "  jet: {<<: *d, relations: [eps^3]}\n", encoding="utf-8")
        assert main(["--config", str(path), "algebra-show", "jet"]) == 0
        assert capsys.readouterr().out.startswith("jet: R[eps]/(eps^3)\n")

    @both_loaders
    def test_a_reused_merge_anchor_is_no_repeat(self, tmp_path, libyaml):
        # a merge rewrites m's pairs in place, so its alias showed seed twice
        path = tmp_path / "project.yaml"
        path.write_text("chart_dim: 1\nsuites: {<<: &m {<<: {seed: 1}, seed: 2}}\n"
                        "expressions: *m\n", encoding="utf-8")
        cfg = config.load_config(str(path))
        assert cfg.suites.seed == 2
        assert list(cfg.expressions) == ["seed"]

    @both_loaders
    def test_an_equals_key_is_the_string_of_its_text(self, tmp_path, capsys, libyaml):
        # refused as YAML: the duplicate-key check found no constructor for =
        path = tmp_path / "project.yaml"
        path.write_text("chart_dim: 1\nalgebras:\n  dual: {generators: [eps], relations: [eps^2]}\n"
                        "expressions: {=: x1}\n", encoding="utf-8")
        assert main(["--config", str(path), "eval", "=", "dual", "--point", "[[3, 1]]"]) == 0
        captured = capsys.readouterr()
        assert captured.out == "3 + eps\n"
        assert captured.err == ""

    @pytest.mark.parametrize(
        "section, message",
        [
            ("expressions: {1: x1}", "expression 1"),
            ("algebras: {true: {generators: [t], relations: [t^2]}}", "algebra True"),
            ("vector_fields: {~: [x1, x2]}", "vector field None"),
            ("bivectors: {1.5: {'1,2': '1'}}", "bivector 1.5"),
        ],
        ids=["int", "bool", "null", "float"],
    )
    def test_a_name_that_is_no_string_is_refused(self, tmp_path, capsys, section, message):
        # loaded as an int, bool, None or float that no command line names:
        # a lookup that missed ended in a TypeError traceback
        path = tmp_path / "project.yaml"
        path.write_text(f"chart_dim: 2\n{section}\n", encoding="utf-8")
        assert main(["--config", str(path), "algebra-show", "dual"]) == 1
        captured = capsys.readouterr()
        assert captured.err == f"config error: {message}: a name must be a string (quote it)\n"
        assert captured.out == ""

    @pytest.mark.parametrize(
        "algebra, message",
        [
            ("{generators: [~], relations: []}", "generator None"),
            ("{generators: [true], relations: [true^2]}", "generator True"),
            ("{generators: [eps], relations: [1]}", "relation 1"),
        ],
        ids=["null_generator", "bool_generator", "int_relation"],
    )
    def test_a_generator_or_relation_that_is_no_string_is_refused(self, tmp_path, capsys,
                                                                  algebra, message):
        # str() made R[None]/(None^2) and R[True]/(True^2), shown at exit 0
        path = tmp_path / "project.yaml"
        path.write_text(f"chart_dim: 1\nalgebras:\n  a: {algebra}\n", encoding="utf-8")
        assert main(["--config", str(path), "algebra-show", "a"]) == 1
        captured = capsys.readouterr()
        assert captured.err == (
            f"config error: algebra 'a': {message} must be a string (quote it)\n"
        )
        assert captured.out == ""

    @pytest.mark.parametrize(
        "section, message",
        [
            ("algebras: {a: [t]}", "algebra 'a': must be a mapping, got list"),
            ("algebras: {a: {generators: [t], relations: [s^2]}}",
             "algebra 'a': relation 's^2' uses unknown generator 's'"),
            ("vector_fields: {v: [x1]}", "vector field 'v': needs 2 component expressions"),
            ("vector_fields: {v: [x1, 'sin(']}",
             "vector field 'v': unexpected end of input (at position 4)"),
            ("bivectors: {b: [x1]}", "bivector 'b': must be a mapping, got list"),
            ("bivectors: {b: {'1-2': x1}}", "bivector 'b': key '1-2' is not 'i,j'"),
            ("bivectors: {b: {'2,1': x1}}",
             "bivector 'b': entry (2,1) is not upper-triangle in 1..2"),
            ("bivectors: {b: {'1,2': 'x1 +'}}",
             "bivector 'b': entry (1,2): unexpected end of input (at position 4)"),
            ("expressions: {f: 'x1 +'}", "expression 'f': unexpected end of input (at position 4)"),
        ],
        ids=["algebra_no_mapping", "algebra_unknown_generator", "field_components",
             "field_parse", "bivector_no_mapping", "bivector_key", "bivector_lower_triangle",
             "bivector_parse", "expression_parse"],
    )
    def test_an_entry_error_reads_noun_name_reason(self, tmp_path, capsys, section, message):
        path = tmp_path / "project.yaml"
        path.write_text(f"chart_dim: 2\n{section}\n", encoding="utf-8")
        assert main(["--config", str(path), "algebra-show", "dual"]) == 1
        captured = capsys.readouterr()
        assert captured.err == f"config error: {message}\n"
        assert captured.out == ""

    @pytest.mark.parametrize("key", ["01,2", "1, 2"])
    def test_a_bivector_entry_given_twice_is_refused(self, tmp_path, capsys, key):
        # two YAML keys for one entry: the later replaced the earlier, pi[1,2] = x1
        path = tmp_path / "project.yaml"
        path.write_text(f"chart_dim: 3\nbivectors:\n  b:\n    '1,2': x3\n    '{key}': x1\n",
                        encoding="utf-8")
        assert main(["--config", str(path), "algebra-show", "dual"]) == 1
        captured = capsys.readouterr()
        assert captured.err == "config error: bivector 'b': entry (1,2) is given twice\n"
        assert captured.out == ""

    @pytest.mark.parametrize("name, relation", [("1", "1^2"), ("", "^2"), ("é", "é^2")])
    def test_a_generator_name_that_is_no_identifier_in_config(self, tmp_path, capsys, name,
                                                             relation):
        # R[1]/(1^2) was built, and eval printed the element 3 + 2*g as 3 + 2
        path = tmp_path / "project.yaml"
        path.write_text(f"chart_dim: 1\nalgebras:\n  A: {{generators: ['{name}'], "
                        f"relations: ['{relation}']}}\n", encoding="utf-8")
        assert main(["--config", str(path), "algebra-show", "A"]) == 1
        captured = capsys.readouterr()
        assert captured.err == (
            f"config error: algebra 'A': generator name {name!r} is not an ASCII identifier\n"
        )
        assert captured.out == ""

    def test_an_algebra_past_the_size_bound_in_config(self, tmp_path, capsys):
        # jets(1000) takes about 7 s and 800 MB to build; the walk stops at the bound
        path = tmp_path / "project.yaml"
        path.write_text("chart_dim: 1\nalgebras:\n  big: {generators: [t], "
                        "relations: ['t^1001']}\n", encoding="utf-8")
        assert main(["--config", str(path), "algebra-show", "big"]) == 1
        captured = capsys.readouterr()
        assert captured.err == (
            "config error: algebra 'big': the algebra R[t]/(t^1001) has more than "
            f"{MAX_ALGEBRA_DIM} basis monomials (MAX_ALGEBRA_DIM)\n"
        )
        assert captured.out == ""

    @pytest.mark.parametrize("command", [["algebra-show", "dual"],
                                         ["check", "poisson_full", "--pi", "b", "--trials=1"]])
    def test_a_chart_past_the_size_bound_in_config(self, tmp_path, capsys, command):
        # poisson_full draws over every chart variable: at 100,000 one trial
        # ran past 120 s
        path = tmp_path / "project.yaml"
        path.write_text(f"chart_dim: {MAX_CHART_DIM + 1}\nalgebras:\n  dual: "
                        "{generators: [eps], relations: ['eps^2']}\n"
                        "bivectors:\n  b: {'1,2': '1'}\n", encoding="utf-8")
        assert main(["--config", str(path)] + command) == 1
        captured = capsys.readouterr()
        assert captured.err == (
            f"config error: chart_dim {MAX_CHART_DIM + 1} is more than {MAX_CHART_DIM} "
            "(MAX_CHART_DIM)\n"
        )
        assert captured.out == ""

    def test_an_exponent_needs_digits_after_the_caret(self):
        assert parse_relation("x", ("x",)) == (1,)
        assert parse_relation("x^2*y", ("x", "y")) == (2, 1)
        with pytest.raises(errors.ConfigError, match="bad exponent in relation 'x\\^'"):
            parse_relation("x^", ("x",))

    def test_env_fallback(self, config2, capsys, monkeypatch):
        monkeypatch.setenv("WEILC_CONFIG", config2)
        assert main(["algebra-show", "dual"]) == 0
        assert "dim=2" in capsys.readouterr().out

    def test_empty_config_flag_is_not_the_env_fallback(self, config2, capsys, monkeypatch):
        monkeypatch.setenv("WEILC_CONFIG", config2)
        assert main(["--config", "", "algebra-show", "dual"]) == 1
        captured = capsys.readouterr()
        assert captured.err == "config error: no config given (use --config or WEILC_CONFIG)\n"
        assert captured.out == ""


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

    @pytest.mark.parametrize("flag", ["config", "pi", "algebra", "seed", "trials", "tol",
                                      "json"])
    def test_a_flag_set_to_the_option_end_marker(self, config2, capsys, flag):
        # argparse reads "--flag=--" as an empty list, which ended in a TypeError
        argv = ["--config", config2, "check", "poisson_full", "--trials", "1"]
        argv = ["--config=--", *argv[2:]] if flag == "config" else [*argv, f"--{flag}=--"]
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.endswith(f"error: argument --{flag}: expected one argument\n")

    @pytest.mark.parametrize("suite, name, value", _inputs_not_taken())
    def test_pi_or_algebra_on_another_suite(self, config2, capsys, suite, name, value):
        # a name is refused, not looked up, for an input the suite does not take
        code = main(["--config", config2, "check", suite, "--trials", "1", f"--{name}", value])
        assert code == 2
        captured = capsys.readouterr()
        takes = ", ".join(SUITES[suite][1]) or "none"
        assert captured.err == f"error: suite '{suite}' takes no {name}; it takes {takes}\n"
        assert captured.out == ""

    @pytest.mark.parametrize(
        "extra, name", [(["--pi", ""], "bivector ''"), (["--algebra", ""], "algebra ''")],
        ids=["pi", "algebra"],
    )
    def test_empty_name_on_poisson_full(self, config2, capsys, extra, name):
        # an empty name is looked up and refused, not taken for the default
        code = main(["--config", config2, "check", "poisson_full", "--trials", "1", *extra])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.err.startswith(f"error: unknown {name} (")
        assert captured.out == ""

    def test_deeply_nested_point(self, config2, capsys):
        # json.loads raises RecursionError past about 1,000 levels
        point = "[" * 5000 + "]" * 5000
        code = main(["--config", config2, "eval", "f", "dual", "--point", point])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.err == "error: --point nests its lists too deeply\n"
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
        "number, shown",
        [("NaN", "nan"), ("Infinity", "inf"), ("-Infinity", "-inf"), ("1e400", "inf")],
    )
    def test_non_finite_coefficient(self, config2, capsys, number, shown):
        # p = x2 reads no x1: the point went through, and eval printed 0
        point = f"[[{number},0],[0,0]]"
        assert main(["--config", config2, "eval", "p", "dual", "--point", point]) == 2
        captured = capsys.readouterr()
        assert captured.err == (
            f"error: --point coordinate x1 has a non-finite number in [{shown}, 0.0]\n"
        )
        assert captured.out == ""

    @pytest.mark.parametrize(
        "argv",
        [["bracket", "canonical2", "q", "p", "--algebra", "dual"],
         ["prolong", "shear", "p", "--algebra", "dual"]],
        ids=["bracket", "prolong"],
    )
    def test_non_finite_coefficient_on_every_command(self, config2, capsys, argv):
        code = main(["--config", config2, *argv, "--point", "[[0,0],[0,NaN]]"])
        assert code == 2
        err = capsys.readouterr().err
        assert err == "error: --point coordinate x2 has a non-finite number in [0.0, nan]\n"

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

    @pytest.mark.parametrize(
        "argv",
        [["algebra-show", "dual"], ["eval", "f", "dual", "--point", "[[3,1],[0,0]]"],
         ["check", "hom_laws", "--trials", "1"]],
        ids=["algebra-show", "eval", "check"],
    )
    def test_empty_json_path(self, config2, capsys, argv):
        # refused as a path that cannot be written, not dropped
        assert main(["--config", config2, *argv, "--json", ""]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: cannot write --json ")
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
        assert captured.err == (
            "config error: suites settings: seed -1 is negative; seeds are integers >= 0\n"
        )
        assert captured.out == ""

    def test_negative_trials_flag(self, config2, capsys):
        # refused like a negative seed, where it once passed as zero trials
        code = main(["--config", config2, "check", "hom_laws", "--trials", "-1"])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.err == "error: trial count -1 is negative; use 0 or more\n"
        assert captured.out == ""

    def test_zero_trials_flag_is_a_vacuous_pass(self, config2, capsys):
        assert main(["--config", config2, "check", "hom_laws", "--trials", "0"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("[PASS] hom_laws: trials=0 ")
        assert "warning: no trials were run; the pass is vacuous" in out

    def test_negative_trials_in_config(self, tmp_path, capsys):
        path = tmp_path / "project.yaml"
        path.write_text("chart_dim: 2\nsuites: {trials: -1}\n", encoding="utf-8")
        assert main(["--config", str(path), "check", "hom_laws"]) == 1
        captured = capsys.readouterr()
        assert captured.err == (
            "config error: suites settings: trial count -1 is negative; use 0 or more\n"
        )
        assert captured.out == ""

    def test_domain_error_trial_is_redrawn(self, tmp_path, capsys):
        # this seed draws an exp that overflows (at 886.7) in the composition
        # sub-check; the trial is drawn again
        out = tmp_path / "r.json"
        argv = ["--config", CHART2, "check", "hom_laws", "--seed", "4942",
                "--trials", "3", "--json", str(out)]
        assert main(argv) == 0
        summary = capsys.readouterr().out.splitlines()[0]
        assert summary.startswith("[PASS] hom_laws: trials=3 ")
        assert summary.endswith(" redrawn=1")
        report = json.loads(out.read_text())
        assert set(report) == {"suite", "seed", "trials", "max_residual", "pass", "witnesses"}
        assert report["pass"] and report["trials"] == 3

    def test_jacobi_residual_is_scaled_by_its_terms(self, capsys, monkeypatch):
        # phi holds exp(exp(x1)^3), about 5e4 at the point, and the Jacobi
        # terms reach 1.4e8; unscaled, their float cancellation reads 2.98e-08
        # and would fail at tol 1e-9
        gaps = []
        check = poisson._Recorder.check

        def spy_check(rec, name, lhs, rhs=None, point=None):
            if name == "jacobi":
                gaps.append(max(abs(x - y) for x, y in zip(lhs.coeffs, rhs.coeffs)))
            check(rec, name, lhs, rhs, point)

        monkeypatch.setattr(poisson._Recorder, "check", spy_check)
        argv = ["--config", CHART2, "check", "poisson_full", "--pi", "canonical2",
                "--algebra", "dual", "--seed", "9707", "--trials", "3"]
        assert main(argv) == 0
        assert capsys.readouterr().out.startswith("[PASS] poisson_full: trials=3 ")
        assert len(gaps) == 3 and max(gaps) > 1e-9


EVERY_PASS = "it would pass every finite residual"


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

    def test_zero_tol_flag_stays_valid(self, config2, capsys):
        code = main(["--config", config2, "check", "hom_laws", "--trials", "2", "--tol", "0"])
        assert code == 0
        assert " tol=0.0e+00" in capsys.readouterr().out

    @pytest.mark.parametrize("tol", ["inf", "1e400"])
    def test_non_finite_tol_flag_is_refused(self, config2, capsys, tol):
        # an infinite tolerance passes every finite residual, so such a check
        # could only pass; 1e400 reads as inf
        code = main(["--config", config2, "check", "hom_laws", "--trials", "2", "--tol", tol])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.err == (
            "error: tolerance inf is not finite; it would pass every finite residual\n"
        )
        assert captured.out == ""

    def test_bad_tol_in_library_call(self):
        from weilc.oracle import run_suite

        with pytest.raises(errors.WeilcError, match="negative or NaN"):
            run_suite("hom_laws", 42, 2, -1e-9)
        for tol in (math.inf, 10**400):
            with pytest.raises(errors.WeilcError, match="is not finite"):
                run_suite("hom_laws", 42, 2, tol)

    @pytest.mark.parametrize(
        "settings, message",
        [
            ("{seed: 1.5, trials: 2}", "seed must be an integer, got 1.5"),
            ("{seed: 1, trials: 2.9}", "trials must be an integer, got 2.9"),
            ("{trials: true}", "trials must be an integer, got True"),
            ("{seed: '7'}", "seed must be an integer, got '7'"),
            ("{tol: yes}", "tol must be a number, got True"),
            ("{tol: 1e-9}", "tol must be a number, got '1e-9'"),
            # the range rows keep the ids that name each case
            pytest.param("{tol: -1}", "tolerance -1 is negative or NaN; use 0 or more",
                         id="{tol: -1}-tol -1 is negative or NaN"),
            pytest.param("{tol: .nan}", "tolerance nan is negative or NaN; use 0 or more",
                         id="{tol: .nan}-tol nan is negative or NaN"),
            pytest.param("{tol: .inf}", "tolerance inf is not finite; " + EVERY_PASS,
                         id="{tol: .inf}-tol inf is not finite"),
            pytest.param("{tol: 1.0e+400}", "tolerance inf is not finite; " + EVERY_PASS,
                         id="{tol: 1.0e+400}-tol inf is not finite"),
        ],
    )
    def test_bad_settings_in_config(self, tmp_path, capsys, settings, message):
        path = tmp_path / "project.yaml"
        path.write_text(f"chart_dim: 2\nsuites: {settings}\n", encoding="utf-8")
        assert main(["--config", str(path), "check", "hom_laws"]) == 1
        captured = capsys.readouterr()
        assert captured.err == f"config error: suites settings: {message}\n"
        assert captured.out == ""

    def test_integer_settings_in_config(self, tmp_path, capsys):
        path = tmp_path / "project.yaml"
        path.write_text("chart_dim: 2\nsuites: {seed: 3, trials: 2, tol: 1}\n",
                        encoding="utf-8")
        assert main(["--config", str(path), "check", "hom_laws"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("[PASS] hom_laws: trials=2 seed=3 max_residual=")
        assert " tol=1.0e+00" in out

    def test_a_tol_too_large_for_a_float_in_config(self, tmp_path, capsys):
        # a YAML int that float() cannot convert, once an OverflowError
        path = tmp_path / "project.yaml"
        path.write_text("chart_dim: 2\nsuites: {tol: 1" + "0" * 400 + "}\n", encoding="utf-8")
        assert main(["--config", str(path), "check", "hom_laws"]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("config error: suites settings: tolerance 1000")
        assert captured.err.endswith(f"0 is not finite; {EVERY_PASS}\n")
        assert captured.out == ""

    # each bad setting as a --flag and as YAML; both read the same value
    BAD = [("seed", "-1", "-1"), ("trials", "-1", "-1"), ("trials", "-1000", "-1000"),
           ("tol", "-1", "-1"), ("tol", "-inf", "-.inf"), ("tol", "nan", ".nan"),
           ("tol", "inf", ".inf"), ("tol", "1e400", "1.0e+400")]

    @staticmethod
    def library_message(key, value):
        settings = {"seed": 42, "trials": 2, "tol": 1e-9, key: value}
        with pytest.raises(errors.WeilcError) as exc:
            poisson.check_settings(**settings)
        return str(exc.value)

    @pytest.mark.parametrize("key, flag, yaml_text", BAD)
    def test_one_settings_rule_for_flags_and_config(
        self, config2, tmp_path, capsys, key, flag, yaml_text
    ):
        # a flag is a usage error (exit 2) with the library's message; the
        # same value in a config is a config error (exit 1) with that message
        # under "suites settings: "
        value = (int if key != "tol" else float)(flag)
        assert main(["--config", config2, "check", "hom_laws", "--trials", "2",
                     f"--{key}={flag}"]) == 2
        captured = capsys.readouterr()
        assert captured.err == f"error: {self.library_message(key, value)}\n"
        assert captured.out == ""
        path = tmp_path / "project.yaml"
        path.write_text(f"chart_dim: 2\nsuites: {{{key}: {yaml_text}}}\n", encoding="utf-8")
        assert main(["--config", str(path), "check", "hom_laws"]) == 1
        captured = capsys.readouterr()
        message = self.library_message(key, yaml.safe_load(yaml_text))
        assert captured.err == f"config error: suites settings: {message}\n"
        assert captured.out == ""

    def test_a_setting_past_the_int_digit_limit_in_config(self, tmp_path, capsys):
        # YAML's int() refuses more than 4,300 digits with a ValueError
        path = tmp_path / "project.yaml"
        path.write_text("chart_dim: 2\nsuites: {seed: 1" + "0" * 5000 + "}\n",
                        encoding="utf-8")
        assert main(["--config", str(path), "check", "hom_laws"]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith(f"config error: config {path} is not valid YAML: ")
        assert "Traceback" not in captured.err and captured.out == ""

    def test_a_config_that_is_not_utf8(self, tmp_path, capsys):
        # reading it raises UnicodeDecodeError, a ValueError
        path = tmp_path / "project.yaml"
        path.write_bytes(b"chart_dim: 2\n# caf\xe9\n")
        assert main(["--config", str(path), "check", "hom_laws"]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith(f"config error: config {path} is not valid YAML: ")
        assert "can't decode byte 0xe9" in captured.err and captured.out == ""


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


@pytest.mark.parametrize("module", ["mpmath", "numpy", "yaml", "dataclasses", "inspect",
                                    "weilc.oracle", "weilc.sampling", "fractions", "decimal"])
def test_start_up_leaves_module_unloaded(module):
    # mpmath serves the finite-difference oracle, numpy only the tests, yaml
    # the config load; the records and nodes are plain classes, so neither
    # dataclasses nor the inspect it imports is loaded; the suites, their
    # draws and the exact arithmetic (fractions, which imports decimal) load
    # on the first check; importing the package and its CLI loads none of them
    code = f"import sys, weilc, weilc.cli; print({module!r} in sys.modules)"
    assert _fresh_python(code).strip() == "False"


def test_every_module_imports_with_numpy_and_mpmath_blocked():
    # numpy and mpmath are test dependencies; a None entry in sys.modules
    # makes any import of them fail
    code = (
        "import sys, importlib, pkgutil; sys.modules['numpy'] = sys.modules['mpmath'] = None; "
        "import weilc; "
        "print(sorted(m.name for m in pkgutil.iter_modules(weilc.__path__) "
        "if importlib.import_module('weilc.' + m.name)))"
    )
    names = _fresh_python(code).strip()
    assert "'sampling'" in names and "'oracle'" in names


@pytest.mark.parametrize("argv, loaded", [
    (["eval", "g", "dual", "--point", "[[1, 1], [0.5, 0]]"], "False False"),
    (["algebra-show", "fat"], "False False"),
    (["check", "hom_laws", "--trials", "1"], "True True"),
], ids=["eval", "algebra-show", "check"])
def test_the_suites_load_on_the_first_check(argv, loaded):
    code = (
        "import sys; from weilc import cli; "
        f"code = cli.main({['--config', EXAMPLE, *argv]!r}); "
        "print(code, 'weilc.oracle' in sys.modules, 'weilc.sampling' in sys.modules)"
    )
    assert _fresh_python(code).splitlines()[-1] == f"0 {loaded}"


def test_the_names_loaded_on_first_use_resolve():
    code = (
        "import weilc; names = {'run_suite', 'taylor_coeffs', 'oracle', 'sampling'}; "
        "print(names <= set(dir(weilc))); "
        "print(weilc.run_suite is weilc.oracle.run_suite, "
        "weilc.taylor_coeffs is weilc.oracle.taylor_coeffs, "
        "sorted(weilc.oracle.SUITES), callable(weilc.sampling.rng_for))"
    )
    assert _fresh_python(code).splitlines() == [
        "True",
        "True True ['bracket_prolong', 'cartan', 'field_prolong', 'hom_laws', 'jacobi', "
        "'poisson_full'] True",
    ]
    with pytest.raises(AttributeError, match="module 'weilc' has no attribute 'suites'"):
        weilc.suites


@pytest.mark.parametrize(
    "argv",
    [
        ["eval", "g", "dual", "--point", "[[1, 1], [0.5, 0]]"],
        ["algebra-show", "fat"],
        ["bracket", "canonical2", "q", "energy", "--algebra", "dual",
         "--point", "[[1, 1], [0.5, 0]]"],
        ["prolong", "rotation", "g", "--algebra", "jets2",
         "--point", "[[1, 1, 0], [0.5, 0, 1]]"],
        ["check", "field_prolong", "--trials", "2"],
    ],
    ids=lambda argv: argv[0],
)
def test_a_command_without_draws_leaves_numpy_unloaded(argv):
    # no command loads numpy or mpmath: check draws from the stdlib generator
    code = (
        "import sys; from weilc import cli; "
        f"code = cli.main({['--config', EXAMPLE, *argv]!r}); "
        "print(code, 'numpy' in sys.modules, 'mpmath' in sys.modules)"
    )
    assert _fresh_python(code).splitlines()[-1] == "0 False False"


GOLDEN = Path(__file__).resolve().parent / "data"
CHART3 = str(Path(__file__).resolve().parents[1] / "perfbench" / "configs" / "chart3.yaml")
BLOCKED_RUNS = [(suite, EXAMPLE, [suite], 0) for suite in
                ("hom_laws", "field_prolong", "bracket_prolong", "cartan", "poisson_full")] + [
    (f"poisson_full_{pi}_jet2", CHART3, ["poisson_full", "--pi", pi, "--algebra", "jet2"], code)
    for pi, code in (("so3", 0), ("shifted3", 4))
]


@pytest.mark.parametrize("name, config, args, exit_code", BLOCKED_RUNS,
                         ids=[run[0] for run in BLOCKED_RUNS])
def test_check_runs_with_numpy_and_mpmath_blocked(tmp_path, name, config, args, exit_code):
    # a None entry in sys.modules makes any import of the module fail, so the
    # report, byte for byte the golden one, comes from weilc alone; shifted3
    # is not Poisson and fails
    out = tmp_path / f"{name}.json"
    argv = ["--config", config, "check", *args, "--seed", "42", "--trials", "10",
            "--json", str(out)]
    code = (
        "import sys; sys.modules['numpy'] = sys.modules['mpmath'] = None; "
        f"from weilc import cli; print(cli.main({argv!r}))"
    )
    assert _fresh_python(code).splitlines()[-1] == str(exit_code)
    assert out.read_bytes() == (GOLDEN / f"{name}.json").read_bytes()


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


@pytest.mark.parametrize("argv, code, err", [
    # shifted3 is not Poisson: its Jacobiator on x1, x2, x3 is the constant 1
    (["jacobi", "--pi", "shifted3"], 4, ""),
    (["jacobi", "--algebra", "dual"], 2, "error: suite 'jacobi' takes no algebra; it takes pi\n"),
    (["hom_laws", "--pi", "so3"], 2, "error: suite 'hom_laws' takes no pi; it takes none\n"),
], ids=["jacobi-shifted3", "jacobi-algebra", "hom_laws-pi"])
def test_the_suite_table_refuses_and_fails(capsys, argv, code, err):
    assert main(["--config", CHART3, "check", *argv, "--trials", "2"]) == code
    assert capsys.readouterr().err == err


def _check_parser() -> argparse.ArgumentParser:
    sub = next(a for a in cli._build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    return sub.choices["check"]


def test_every_suite_input_is_a_check_flag_with_a_default():
    # an input that a suite takes must be one that the command line can
    # give, and one that run_suite can fill in when it is left out
    flags = {opt for action in _check_parser()._actions for opt in action.option_strings}
    for suite, (_, takes) in SUITES.items():
        for name in takes:
            assert f"--{name}" in flags, (suite, name)
            assert name in DEFAULTS, (suite, name)


def test_the_check_help_names_the_suites_that_take_each_input():
    text = _check_parser().format_help()
    for name in DEFAULTS:
        takers = ", ".join(suite for suite, (_, takes) in SUITES.items() if name in takes)
        assert f"(taken by {takers})" in " ".join(text.split()), name
