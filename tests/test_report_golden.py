"""Check reports stay byte-identical to the committed reports in tests/data.

Each data file is the output of ``weilc check ... --seed 42 --trials 10
--json`` for one case below, and each file in tests/data/t100 that of the
same command with ``--trials 100``.  A change that keeps results keeps
every byte; a change that means to alter numbers regenerates every file
with ``PYTHONPATH=src python tests/test_report_golden.py`` and says which
numbers moved and why.
"""

import sys

from pathlib import Path

import pytest

from weilc.cli import main

ROOT = Path(__file__).resolve().parent.parent
DATA = Path(__file__).resolve().parent / "data"
EXAMPLE = ROOT / "docs" / "example_config.yaml"
CHARTS = ROOT / "perfbench" / "configs"

SUITES = ("hom_laws", "field_prolong", "bracket_prolong", "cartan", "poisson_full")
# The paper's condition on every benchmark bivector and algebra; shifted3
# is not Poisson, so its reports fail with witnesses.
BIVECTORS = (("canonical2", "chart2", 0), ("quadratic2", "chart2", 0),
             ("so3", "chart3", 0), ("shifted3", "chart3", 4))
ALGEBRAS = ("dual", "jet2", "plane", "corner3")
CASES = [(suite, EXAMPLE, [suite], 0) for suite in SUITES] + [
    (f"poisson_full_{pi}_{alg}", CHARTS / f"{chart}.yaml",
     ["poisson_full", "--pi", pi, "--algebra", alg], code)
    for pi, chart, code in BIVECTORS
    for alg in ALGEBRAS
] + [
    # the base side of the condition, decided exactly: the two bivectors on
    # R^2 have no triple and pass with a warning
    (f"jacobi_{pi}", CHARTS / f"{chart}.yaml", ["jacobi", "--pi", pi], code)
    for pi, chart, code in BIVECTORS
]


# (trials, directory of the reports, test id suffix)
TRIALS = ((10, DATA, ""), (100, DATA / "t100", "-t100"))
RUNS = [(*case, trials, golden) for trials, golden, _ in TRIALS for case in CASES]
RUN_IDS = [case[0] + suffix for _, _, suffix in TRIALS for case in CASES]


def _argv(config, args, trials, out) -> list[str]:
    return ["--config", str(config), "check", *args,
            "--seed", "42", "--trials", str(trials), "--json", str(out)]


@pytest.mark.parametrize("name, config, args, code, trials, golden", RUNS, ids=RUN_IDS)
def test_report_matches_golden(tmp_path, capsys, name, config, args, code, trials, golden):
    out = tmp_path / f"{name}.json"
    assert main(_argv(config, args, trials, out)) == code
    capsys.readouterr()
    assert out.read_bytes() == (golden / f"{name}.json").read_bytes()


if __name__ == "__main__":
    # rewrite every report in RUNS; a run whose exit code is not its case's
    # is named and makes the exit code 1
    wrong = [name for name, config, args, code, trials, golden in RUNS
             if main(_argv(config, args, trials, golden / f"{name}.json")) != code]
    print(f"wrote {len(RUNS)} reports; wrong exit code: {', '.join(wrong) or 'none'}",
          file=sys.stderr)
    sys.exit(1 if wrong else 0)
