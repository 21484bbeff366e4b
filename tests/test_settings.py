"""The test settings in ``pyproject.toml``: a failing property test is one
failure, and the rest of the run goes on."""
from __future__ import annotations

import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"

FAILING_PROPERTY = '''
from hypothesis import given, strategies as st


@given(st.integers())
def test_fails(n):
    assert n < 5


def test_passes():
    pass
'''


def test_a_failing_property_test_is_one_failure_and_the_run_goes_on(tmp_path):
    test_file = tmp_path / "test_property.py"
    test_file.write_text(FAILING_PROPERTY)
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(PYPROJECT), "--rootdir", str(tmp_path),
         "-q", "-p", "no:cacheprovider", str(test_file)],
        cwd=tmp_path, capture_output=True, text=True, timeout=120, check=False,
    )
    assert "INTERNALERROR" not in run.stdout + run.stderr
    assert "1 failed, 1 passed" in run.stdout
    assert run.returncode == 1
