"""The repository's pytest settings report a failing hypothesis test as a
failure and run the tests after it."""

import os
import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parent.parent / "pyproject.toml"

TESTS = '''
from hypothesis import given, settings, strategies as st


@settings(max_examples=1, database=None)
@given(st.just(0))
def test_fails(n):
    assert n < 0


def test_passes():
    pass
'''


def test_failing_given_test_is_reported_as_a_failure(tmp_path):
    (tmp_path / "test_probe.py").write_text(TESTS)
    # Only the hypothesis plugin is loaded, which keeps the run under a second.
    env = dict(os.environ, PYTEST_DISABLE_PLUGIN_AUTOLOAD="1")
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(PYPROJECT), "-p", "no:cacheprovider",
         "-p", "_hypothesis_pytestplugin", "-q", "test_probe.py"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120,
    )
    out = proc.stdout + proc.stderr
    assert proc.returncode == 1, out
    assert "1 failed, 1 passed" in out
    assert "INTERNALERROR" not in out
