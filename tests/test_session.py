"""The repo's pytest settings must let a session outlive a failing test.

Hypothesis reports a failure through modules that raise warnings on
import; with every warning an error, one such warning used to end the
whole session with an ``INTERNALERROR``, so later tests never ran.
"""

import subprocess
import sys
import textwrap
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parent.parent / "pyproject.toml"

PROBE = """
    from hypothesis import given, strategies as st


    @given(st.integers())
    def test_fails(x):
        assert x < 0


    def test_passes():
        pass
"""


def test_a_failing_hypothesis_test_leaves_the_next_test_running(tmp_path):
    probe = tmp_path / "test_probe.py"
    probe.write_text(textwrap.dedent(PROBE))
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "-c", str(PYPROJECT), "--rootdir", str(tmp_path), str(probe)],
        cwd=tmp_path, capture_output=True, text=True, timeout=300)
    out = proc.stdout + proc.stderr
    assert "INTERNALERROR" not in out
    assert "1 failed, 1 passed" in out
