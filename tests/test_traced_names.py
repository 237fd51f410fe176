"""Library names looked up from outside a module resolve: the globals the
benchmark's traced run wraps, and every ``__all__``; no module imports a
name it never uses; and every import is at module level."""

import ast
import importlib
from pathlib import Path

RUN_PY = Path(__file__).resolve().parents[1] / "perfbench" / "run.py"
SRC = RUN_PY.parents[1] / "src" / "satavit"


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


def test_every_exported_name_resolves():
    missing = []
    for path in sorted(SRC.glob("*.py")):
        name = "satavit" if path.stem == "__init__" else f"satavit.{path.stem}"
        module = importlib.import_module(name)
        missing += [f"{name}.{attr}" for attr in getattr(module, "__all__", ())
                    if not hasattr(module, attr)]
    assert missing == []


def bound_names(node) -> list[str]:
    """The names a module-level import statement binds."""
    if isinstance(node, ast.ImportFrom) and node.module == "__future__":
        return []
    return [alias.asname or alias.name.split(".")[0] for alias in node.names]


def test_no_module_imports_a_name_it_never_uses():
    traced = traced_names()
    unused = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text())
        used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
        exported = set()
        for node in tree.body:
            if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
            ):
                exported |= set(ast.literal_eval(node.value))
        wrapped = set(traced.get(path.stem, ()))
        unused += [
            f"{path.stem}.{name}"
            for node in tree.body
            if isinstance(node, (ast.Import, ast.ImportFrom))
            for name in bound_names(node)
            if name not in used | exported | wrapped
        ]
    assert unused == []


def test_no_import_inside_a_function():
    """Imports inside a function would hide a cycle between the modules;
    every import is made once, when its module loads."""
    nested = {
        f"{path.stem}.py:{node.lineno}"
        for path in SRC.glob("*.py")
        for func in ast.walk(ast.parse(path.read_text()))
        if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef))
        for node in ast.walk(func)
        if isinstance(node, (ast.Import, ast.ImportFrom))
    }
    assert sorted(nested) == []
