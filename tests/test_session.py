"""The test session itself: a failing property test is reported as one
failure under `-W error`, not as an internal error that hides every
later result."""

import importlib.util
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

THROWAWAY = '''
import hypothesis
import hypothesis.strategies as st


@hypothesis.settings(database=None, derandomize=True)
@hypothesis.given(st.integers())
def test_fails(x):
    assert x < 5
'''


@pytest.mark.skipif(
    importlib.util.find_spec("libcst") is None or importlib.util.find_spec("hypothesis") is None,
    reason="the failure report imports libcst only when hypothesis and libcst are installed",
)
def test_a_failing_property_fails_without_an_internal_error(tmp_path):
    shutil.copy(Path(__file__).with_name("conftest.py"), tmp_path)
    (tmp_path / "test_throwaway.py").write_text(THROWAWAY)
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-W", "error", "-p", "no:cacheprovider",
         "test_throwaway.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=300,
    )
    assert "INTERNALERROR" not in proc.stdout + proc.stderr
    assert "1 failed" in proc.stdout
    assert proc.returncode == 1
