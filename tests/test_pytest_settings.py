"""The repository's pytest settings, run on a throwaway test file."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

# a failing property first, so a session it aborts never reaches the passing test
ONE_FAILING_PROPERTY = """
from hypothesis import given
from hypothesis import strategies as st


@given(st.integers())
def test_fails(x):
    assert x < 10


def test_passes():
    pass
"""


def test_a_failing_property_does_not_abort_the_session(tmp_path):
    # hypothesis reports a failing example through libcst, which imports
    # mypy_extensions and warns; filterwarnings = error must not turn that
    # into an INTERNALERROR (exit code 3) that stops the session
    (tmp_path / "test_scratch.py").write_text(ONE_FAILING_PROPERTY)
    argv = [sys.executable, "-m", "pytest", "-q", "-c", str(ROOT / "pyproject.toml"), "--rootdir", str(tmp_path)]
    proc = subprocess.run(
        [*argv, "-p", "no:cacheprovider", "test_scratch.py"], cwd=tmp_path, capture_output=True, text=True, timeout=300
    )
    assert proc.returncode == 1, proc.stdout + proc.stderr
    assert "1 failed, 1 passed" in proc.stdout
