"""The suite's pytest settings report a failing test and run the rest."""

import re
import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"

FAILING_PROPERTY_THEN_PASSING = '''
from hypothesis import given, strategies as st


@given(st.integers())
def test_fails(n):
    assert n < 0


def test_passes():
    pass
'''


def test_failing_hypothesis_test_does_not_abort_the_run(tmp_path):
    # Hypothesis's failure report imports a module that raises a
    # DeprecationWarning; under "error" alone it would end the session, exit 3
    (tmp_path / "test_two.py").write_text(FAILING_PROPERTY_THEN_PASSING)
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(PYPROJECT), "-p", "no:cacheprovider",
         "-rA", "test_two.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=300,
    )
    assert run.returncode == 1, run.stdout + run.stderr
    # node ids are relative to the config's directory, so match the test name alone
    assert re.search(r"^PASSED \S*::test_passes$", run.stdout, re.M)
    assert re.search(r"^FAILED \S*::test_fails ", run.stdout, re.M)
