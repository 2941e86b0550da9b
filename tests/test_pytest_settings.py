"""The test settings in pyproject.toml: warnings fail the test that raises
them, a failing hypothesis test is reported without ending the run, and an
xfail that passes fails the run."""

import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"

SAMPLE = '''
from hypothesis import given, strategies as st


@given(st.integers())
def test_fails(x):
    assert x < 5


def test_passes():
    pass
'''


XPASS_SAMPLE = '''
import pytest


@pytest.mark.xfail(reason="mended")
def test_mended():
    pass


@pytest.mark.xfail(reason="still open")
def test_open():
    assert False
'''


def _run_sample(tmp_path, text):
    """The exit code and output of pytest, under the project's settings, on
    one test file holding ``text``."""
    (tmp_path / "test_sample.py").write_text(text, encoding="utf-8")
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(PYPROJECT), "--rootdir", str(tmp_path),
         "-p", "no:cacheprovider", "-q", "test_sample.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=300,
    )
    return run.returncode, run.stdout + run.stderr


def test_a_failing_hypothesis_test_does_not_end_the_run(tmp_path):
    # hypothesis reports a failing example through libcst, which warns when
    # it is imported; under "error" alone that ended the run in INTERNALERROR
    _, out = _run_sample(tmp_path, SAMPLE)
    assert "INTERNALERROR" not in out
    assert "1 failed, 1 passed" in out


def test_an_xpass_fails_the_run(tmp_path):
    # a marker left on a mended defect is reported as a failure, with no
    # strict=True of its own
    code, out = _run_sample(tmp_path, XPASS_SAMPLE)
    assert code == 1
    assert "[XPASS(strict)] mended" in out
    assert "1 failed, 1 xfailed" in out
