"""The warning filters of pyproject.toml fail a test, not the session."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

# One @given test that always fails, whose report makes hypothesis import
# libcst, and one test that passes.
MODULE = '''
from hypothesis import given, strategies as st


@given(st.integers())
def test_fails(x):
    assert False


def test_passes():
    pass
'''


def test_a_failing_given_test_is_one_failure(tmp_path):
    (tmp_path / "test_given.py").write_text(MODULE, encoding="utf-8")
    # cwd tmp_path: hypothesis writes its .hypothesis directory there.
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "-c", str(ROOT / "pyproject.toml"), "--rootdir", str(ROOT), "test_given.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    output = run.stdout + run.stderr
    assert "INTERNALERROR" not in output, output
    assert "1 failed, 1 passed" in output, output
