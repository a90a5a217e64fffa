"""Every demo script imports against the current API, and the three workflow
demos run.

The demos run their work only under `__main__`, so importing one checks its
imports and module-level code without training anything. The workflow demos
are the only callers of the three screening workflows outside the tests, so
their `main()` is run too (a few seconds each).
"""

import importlib.util
from pathlib import Path

import pytest

DEMO_DIR = Path(__file__).resolve().parents[1] / "demos"
DEMOS = sorted(DEMO_DIR.glob("*.py"))
WORKFLOW_DEMOS = ["candidate_screen", "temporal_eval", "family_discovery"]


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


@pytest.mark.parametrize("name", WORKFLOW_DEMOS)
def test_workflow_demo_runs(name, capsys):
    load(DEMO_DIR / f"{name}.py").main()
    assert capsys.readouterr().out.strip()
