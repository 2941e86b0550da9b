"""Check reports stay byte-identical to the committed reports in tests/data.

Each data file is the output of ``weilc check ... --seed 42 --trials 10
--json`` for one case below.  A change that keeps results keeps every
byte; a change that means to alter numbers regenerates the files with the
same commands and says which numbers moved and why.
"""

from pathlib import Path

import pytest

from weilc.cli import main

ROOT = Path(__file__).resolve().parent.parent
DATA = Path(__file__).resolve().parent / "data"
EXAMPLE = ROOT / "docs" / "example_config.yaml"
CHART3 = ROOT / "perfbench" / "configs" / "chart3.yaml"

SUITES = ("hom_laws", "field_prolong", "bracket_prolong", "cartan", "poisson_full")
CASES = [(suite, EXAMPLE, [suite], 0) for suite in SUITES] + [
    # shifted3 is not Poisson, so its report fails with witnesses
    (f"poisson_full_{pi}_corner3", CHART3,
     ["poisson_full", "--pi", pi, "--algebra", "corner3"], code)
    for pi, code in (("so3", 0), ("shifted3", 4))
]


@pytest.mark.parametrize(
    "name, config, args, code", CASES, ids=[case[0] for case in CASES]
)
def test_report_matches_golden(tmp_path, capsys, name, config, args, code):
    out = tmp_path / f"{name}.json"
    argv = ["--config", str(config), "check", *args,
            "--seed", "42", "--trials", "10", "--json", str(out)]
    assert main(argv) == code
    capsys.readouterr()
    assert out.read_bytes() == (DATA / f"{name}.json").read_bytes()
