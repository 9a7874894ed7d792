"""The repository's pytest settings themselves: a failing property test reports."""

import subprocess
import sys
import textwrap
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"

_FAILING_PROPERTY = textwrap.dedent(
    """
    from hypothesis import given, settings, strategies as st

    @settings(database=None, derandomize=True)
    @given(st.integers())
    def test_fails(n):
        assert n < 10
    """
)


def test_a_failing_property_test_reports_its_example(tmp_path):
    # With every warning an error, hypothesis's failure report must still run
    # to the end: it shows the falsifying example and pytest goes on.
    (tmp_path / "test_prop.py").write_text(_FAILING_PROPERTY)
    (tmp_path / "test_after.py").write_text("def test_runs():\n    pass\n")
    out = subprocess.run(
        [
            sys.executable, "-m", "pytest", "-c", str(PYPROJECT), "--rootdir", str(tmp_path),
            "-p", "no:cacheprovider", "-q", "test_prop.py", "test_after.py",
        ],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    report = out.stdout + out.stderr
    assert "INTERNALERROR" not in report, report
    assert "Falsifying example" in report, report
    assert "1 failed, 1 passed" in report, report
