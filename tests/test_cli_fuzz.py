"""Generated command lines and configs end in a documented exit code, never
a traceback.

Each argv example draws an argv over the five commands, the names defined in
docs/example_config.yaml (and some that are not), flag values such as empty
texts, NaN and infinite tolerances, negative seeds and trial counts, and
``--point`` texts nested up to 10,000 lists deep.  Each config example draws
a YAML config with nested mappings and lists where values belong, unknown
keys, large relation exponents and ``chart_dim`` values, bad ``suites``
settings, relation exponents that are not ASCII digits and entry names that
YAML reads as no string, and runs one command on it.  ``main`` must return one of the exit codes 0-4, or argparse
must exit with 2 on a usage error.  ``check`` always gets ``--trials`` of at
most 2, so no example runs a config's trials.
"""

import contextlib
import io
import math
from datetime import timedelta
from pathlib import Path

import pytest
import yaml
from hypothesis import given, settings, strategies as st

from weilc.cli import main

EXAMPLE = str(Path(__file__).resolve().parents[1] / "docs" / "example_config.yaml")

UNKNOWN = ["", "nope", "x1"]
ALGEBRAS = ["dual", "jets2", "jets3", "fat"]
EXPRESSIONS = ["f", "g", "q", "p", "energy"]
FIELDS = ["shear", "rotation"]
BIVECTORS = ["canonical2"]
SUITES = ["hom_laws", "field_prolong", "bracket_prolong", "cartan", "poisson_full", "jacobi"]


def names(known, *extra):
    # known names three times as often, so that most commands get past them
    return st.sampled_from(known * 3 + UNKNOWN + list(extra))


MAX_DEPTH = 10_000
NESTED = st.one_of(
    st.sampled_from([2, 999, 1000, 5000, MAX_DEPTH]), st.integers(1, MAX_DEPTH)
).flatmap(lambda d: st.sampled_from(
    ["[" * d + "]" * d, "[" * d, "[" * d + "0.5" + "]" * d, "[" + "[0.5, 0.1], " * d + "]"]))
# nested texts twice, so that half the points are nested
POINTS = st.one_of(
    st.sampled_from([
        "[[0.5, 0.1], [0.2, 0.3]]", "[[0.5, 0.1, 0.0], [0.2, 0.3, 0.1]]",
        "[[0.5, 0.1, 0.0, 0.2], [0.2, 0.3, 0.1, 0.0]]", "[[0.5], [0.2]]", "[]", "",
        "nan", "[[NaN, 0], [Infinity, 1]]", "[[1e308, 1e308], [1e308, 1e308]]",
        "[[true, 0], [0, 0]]", '"x"', "{}", "[[1, 2], [3]]", "[[1e400, 0], [0, 0]]", "--",
    ]),
    NESTED,
    NESTED,
    st.text(max_size=12),
)
SEEDS = st.sampled_from(["0", "42", "-1", "-99", "1" + "0" * 40, "", "x", "1.5", "--"])
TRIALS = st.sampled_from(["0", "1", "2", "-1", "-1000", "", "two"])
TOLS = st.sampled_from(["1e-9", "0", "nan", "inf", "-inf", "1e400", "-1", "", "1e308",
                        "5e-324", "--"])


OWN_FLAGS = {
    "algebra-show": ["--json"],
    "eval": ["--json"],
    "bracket": [],
    "prolong": [],
    "check": ["--json", "--seed", "--tol", "--pi", "--algebra"],
}


@pytest.fixture(scope="module")
def json_paths(tmp_path_factory):
    # a writable file, a directory, a path under a missing directory, an
    # empty path, and the option end marker
    out = tmp_path_factory.mktemp("fuzz")
    return [str(out / "report.json"), str(out), str(out / "missing" / "x.json"), "", "--"]


@st.composite
def argvs(draw, json_paths):
    config = draw(st.sampled_from([EXAMPLE] * 6 + ["", "no-such-config.yaml"]))
    argv = ["--config", config]
    command = draw(st.sampled_from(["algebra-show", "eval", "bracket", "prolong", "check"]))
    argv.append(command)
    point = ["--point", draw(POINTS)]
    if command == "algebra-show":
        argv += [draw(names(ALGEBRAS))]
    elif command == "eval":
        argv += [draw(names(EXPRESSIONS)), draw(names(ALGEBRAS))] + point
    elif command == "bracket":
        argv += [draw(names(BIVECTORS)), draw(names(EXPRESSIONS)), draw(names(EXPRESSIONS))]
        if draw(st.booleans()):
            argv += ["--algebra", draw(names(ALGEBRAS))] + point
    elif command == "prolong":
        argv += [draw(names(FIELDS)), draw(names(EXPRESSIONS)),
                 "--algebra", draw(names(ALGEBRAS))] + point
    else:
        argv += [draw(names(SUITES)), f"--trials={draw(TRIALS)}"]
    flags = {
        "--json": st.sampled_from(json_paths),
        "--seed": SEEDS,
        "--tol": TOLS,
        "--pi": names(BIVECTORS, "--"),
        "--algebra": names(ALGEBRAS, "--"),
        "--point": POINTS,
    }
    # mostly the command's own flags, and some where they do not belong
    pool = OWN_FLAGS[command] * 4 + sorted(flags)
    for flag in draw(st.lists(st.sampled_from(pool), max_size=2)):
        value = draw(flags[flag])
        # "--tol -inf" reads -inf as an option; "--tol=-inf" does not
        argv += draw(st.sampled_from([[flag, value], [f"{flag}={value}"]]))
    return argv


def exit_code(argv) -> int:
    """The exit code of one command line, its output dropped."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            return main(argv)
        except SystemExit as exc:
            assert exc.code == 2, argv  # argparse's usage error
            return exc.code


@settings(max_examples=400, deadline=timedelta(seconds=5))
@given(data=st.data())
def test_every_argv_ends_in_a_documented_exit_code(json_paths, data):
    argv = data.draw(argvs(json_paths), label="argv")
    assert exit_code(argv) in range(5), argv


# -- generated configs ------------------------------------------------------------


# any YAML value, nested a few levels: it goes where a well-formed one belongs
VALUES = st.recursive(
    st.one_of(st.none(), st.booleans(), st.integers(-3, 3), st.floats(),
              st.sampled_from([10**30, -(10**400), "x1", "eps^2", ""]), st.text(max_size=4)),
    lambda inner: st.one_of(st.lists(inner, max_size=3),
                            st.dictionaries(st.text(max_size=3), inner, max_size=3)),
    max_leaves=8,
)
UNKNOWN_KEYS = st.sampled_from(["suite", "seeds", "generator", "relation", "", "Chart_dim"])
# every large exponent is past MAX_ALGEBRA_DIM, or past the digits int()
# converts; the others are not ASCII digits
BAD_EXPONENTS = st.sampled_from([
    "1001", "1000000", "1" + "0" * 12, "9" * 5000,
    "", " ", "0", "-1", "1_0", "+2", "\u0661\u0660", "\u00b2", " 2", "2.0", "x"])
BAD_SETTINGS = {
    "seed": st.sampled_from([-1, 1.5, "7", True, 10**40, None]),
    "trials": st.sampled_from([0, -1, 2.9, True, 10**9, None]),
    "tol": st.sampled_from([0, 1, -1, -1e-9, math.nan, math.inf, -math.inf, 10**400, "1e-9",
                            True, None]),
}
CONFIG_ALGEBRAS = ["dual", "fat"]
FAULTS = ["nested", "unknown_key", "chart_dim", "exponent", "settings", "expression", "name"]


@st.composite
def configs(draw):
    """A well-formed config with up to three faults: a nested or other YAML
    value in place of one, an unknown key, a bad or large ``chart_dim``, a
    bad or large relation exponent, a bad ``suites`` setting, an
    expression the grammar refuses, or an entry whose name YAML reads as no
    string."""
    algebras = {}
    for name in draw(st.lists(st.sampled_from(CONFIG_ALGEBRAS), min_size=1, unique=True)):
        generators = draw(st.lists(st.sampled_from(["t", "a", "b"]), min_size=1,
                                   max_size=3, unique=True))
        # at most 4^3 = 64 basis monomials
        relations = [f"{g}^{draw(st.integers(1, 4))}" for g in generators]
        mixed = st.lists(st.sampled_from(generators), min_size=2, max_size=3).map("*".join)
        relations += draw(st.lists(mixed, max_size=2))
        algebras[name] = {"generators": generators, "relations": relations}
    config = {
        "chart_dim": draw(st.integers(2, 3)),
        "algebras": algebras,
        "expressions": {"f": "x1^2"},
        "vector_fields": {},
        "bivectors": {"b": {"1,2": "1"}},
        "suites": {"seed": 42, "trials": 2, "tol": 1e-9},
    }
    # the faults change these in place, also once a fault has put another
    # value where one of them was
    algebra = algebras[draw(st.sampled_from(sorted(algebras)))]
    relations, suites = algebra["relations"], config["suites"]
    expressions, entry = config["expressions"], config["bivectors"]["b"]
    sections = [algebras, expressions, config["vector_fields"], config["bivectors"]]
    for fault in draw(st.lists(st.sampled_from(FAULTS), max_size=3)):
        if fault == "nested":
            target = draw(st.sampled_from([config, algebra, suites, entry]))
            target[draw(st.sampled_from(sorted(target)))] = draw(VALUES)
        elif fault == "unknown_key":
            target = draw(st.sampled_from([config, algebra, suites]))
            target[draw(UNKNOWN_KEYS)] = draw(VALUES)
        elif fault == "chart_dim":
            config["chart_dim"] = draw(st.sampled_from([0, -1, 10**6, 10**30, 2.0, True,
                                                        "2", None]))
        elif fault == "exponent":
            # in place of the first generator's pure power
            generator = relations[0].partition("^")[0]
            relations[0] = f"{generator}^{draw(BAD_EXPONENTS)}"
        elif fault == "settings":
            key = draw(st.sampled_from(sorted(BAD_SETTINGS)))
            suites[key] = draw(BAD_SETTINGS[key])
        elif fault == "expression":
            expressions["f"] = draw(st.sampled_from(
                ["x9", "x1^" + "9" * 5000, "x1^1_0", "sin(", "1/x1"]))
        else:
            # YAML reads these keys back as an int, a bool, None and a float
            names = draw(st.sampled_from(sections))
            names[draw(st.sampled_from([1, True, None, 1.5]))] = draw(VALUES)
    # safe_dump cannot sort the mixed keys of the name fault
    return yaml.safe_dump(config, allow_unicode=True, sort_keys=False)


@pytest.fixture(scope="module")
def config_path(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz_config") / "project.yaml"


@settings(max_examples=200, deadline=timedelta(seconds=2))
@given(data=st.data())
def test_every_config_ends_in_a_documented_exit_code(config_path, data):
    config_path.write_text(data.draw(configs(), label="config"), encoding="utf-8")
    name = data.draw(st.sampled_from(CONFIG_ALGEBRAS), label="algebra")
    argv = ["--config", str(config_path)] + data.draw(st.sampled_from([
        ["algebra-show", name],
        ["eval", "f", name, "--point", "[[0.5, 0.1]]"],
        ["check", "hom_laws", "--trials=1"],
        ["check", "poisson_full", "--pi", "b", "--trials=1"],
    ]), label="command")
    assert exit_code(argv) in range(5), argv
