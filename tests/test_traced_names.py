"""The benchmark's traced run wraps library globals by name; keep them resolvable."""

import ast
import importlib
from pathlib import Path

RUN_PY = Path(__file__).resolve().parents[1] / "perfbench" / "run.py"


def traced_names() -> dict:
    """``TRACED_NAMES`` from perfbench/run.py, read without importing it.

    Importing run.py would set the BLAS thread environment variables for
    the whole test session.
    """
    for node in ast.parse(RUN_PY.read_text()).body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "TRACED_NAMES" for t in node.targets
        ):
            return ast.literal_eval(node.value)
    raise AssertionError(f"no TRACED_NAMES assignment in {RUN_PY}")


def test_every_traced_name_resolves():
    names = traced_names()
    assert names
    missing = [
        f"{module}.{attr}"
        for module, attrs in names.items()
        for attr in attrs
        if not hasattr(importlib.import_module(f"satavit.{module}"), attr)
    ]
    assert missing == []
