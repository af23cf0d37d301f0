import os
import subprocess
import sys

PYPROJECT = os.path.join(os.path.dirname(__file__), "..", "pyproject.toml")

FAILING = '''
from hypothesis import given, strategies as st


@given(st.integers())
def test_fails(n):
    assert n != n


def test_passes():
    pass
'''


def test_failing_hypothesis_test_is_reported_as_a_failure(tmp_path):
    # under the suite's warnings-as-errors config, hypothesis's report hook
    # raises a third-party DeprecationWarning on a failing @given test; the
    # config exempts that one warning, so the failure is reported as a
    # failure and the session goes on, not as an INTERNALERROR that ends it
    (tmp_path / "test_failing.py").write_text(FAILING)
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "-c", PYPROJECT,
         "--rootdir", str(tmp_path), "test_failing.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    out = proc.stdout + proc.stderr
    assert proc.returncode == 1, out
    assert "1 failed, 1 passed" in out and "INTERNALERROR" not in out, out
