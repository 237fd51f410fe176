"""Every demo script runs to completion in a fresh working directory."""

from pathlib import Path

import pytest

from conftest import run_python

DEMO_DIR = Path(__file__).resolve().parents[1] / "demos"
DEMOS = sorted(DEMO_DIR.glob("*.py"))


@pytest.mark.parametrize("script", DEMOS, ids=[p.name for p in DEMOS])
def test_demo_runs(script, tmp_path):
    before = sorted(DEMO_DIR.iterdir())
    res = run_python(script, cwd=tmp_path)
    assert res.returncode == 0, res.stderr
    assert res.stdout
    # outputs go to the working directory, never next to the scripts
    assert sorted(DEMO_DIR.iterdir()) == before
