"""Every demo script imports against the current API, and runs.

The demos run their work only under `__main__`, so importing one checks its
imports and module-level code without running anything. Running `main()`
checks the rest: the three workflow demos are the only callers of the
screening workflows outside the tests, and `forest_baseline` the only
caller of the forest outside the CLI and the tests. Together the six take
several seconds.
"""

import importlib.util
from pathlib import Path

import pytest

DEMO_DIR = Path(__file__).resolve().parents[1] / "demos"
DEMOS = sorted(DEMO_DIR.glob("*.py"))


def load(path):
    spec = importlib.util.spec_from_file_location(f"demo_{path.stem}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_demos_found():
    assert DEMOS


@pytest.mark.parametrize("path", DEMOS, ids=lambda p: p.stem)
def test_demo_imports(path):
    assert callable(load(path).main)


@pytest.mark.parametrize("path", DEMOS, ids=lambda p: p.stem)
def test_demo_runs(path, capsys):
    load(path).main()
    assert capsys.readouterr().out.strip()
