"""The suite's pytest configuration reports every test, even after a
failing hypothesis test.

With warnings as errors, a deprecation warning that hypothesis raises while
it reports a failure would become an INTERNALERROR that ends the session and
leaves every later test unreported.
"""

import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"

TWO_TESTS = """
from hypothesis import given, settings, strategies as st


@given(st.integers())
@settings(max_examples=5, database=None)
def test_fails(x):
    assert False


def test_passes():
    pass
"""


def test_failing_hypothesis_test_leaves_later_tests_reported(tmp_path):
    (tmp_path / "test_two.py").write_text(TWO_TESTS)
    done = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(PYPROJECT), "--rootdir", str(tmp_path),
         "-p", "no:cacheprovider", "-q", "test_two.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=300)
    assert "INTERNALERROR" not in done.stdout + done.stderr
    assert "1 failed, 1 passed" in done.stdout
