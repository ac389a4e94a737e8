"""The test session's own settings (``[tool.pytest.ini_options]`` in
pyproject.toml)."""

import subprocess
import sys
import textwrap
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parent.parent / "pyproject.toml"


def test_failing_hypothesis_test_is_reported_and_the_session_goes_on(tmp_path):
    # with every warning an error, a warning raised while Hypothesis reports
    # a failure must not end the session before the next test runs
    (tmp_path / "test_given.py").write_text(textwrap.dedent("""
        from hypothesis import given, settings, strategies as st


        @settings(database=None, derandomize=True, max_examples=5)
        @given(st.integers())
        def test_fails(n):
            assert n != n


        def test_passes():
            pass
    """))
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "-c", str(PYPROJECT),
         "--rootdir", str(tmp_path), "test_given.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    report = proc.stdout + proc.stderr
    assert "INTERNALERROR" not in report and "1 failed, 1 passed" in proc.stdout, report
