"""Generated command lines end in a documented exit code, never a traceback.

Each example draws an argv over the five commands, the names defined in
docs/example_config.yaml (and some that are not), flag values such as empty
texts, NaN and infinite tolerances, negative seeds and trial counts, and
``--point`` texts nested up to 10,000 lists deep.  ``main`` must return one
of the exit codes 0-4, or argparse must exit with 2 on a usage error.
``check`` always gets ``--trials`` of at most 2, so no example runs the
config's 100 trials.
"""

import contextlib
import io
from datetime import timedelta
from pathlib import Path

import pytest
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


@settings(max_examples=400, deadline=timedelta(seconds=5))
@given(data=st.data())
def test_every_argv_ends_in_a_documented_exit_code(json_paths, data):
    argv = data.draw(argvs(json_paths), label="argv")
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            code = main(argv)
        except SystemExit as exc:
            assert exc.code == 2, argv
            return
    assert code in range(5), argv
