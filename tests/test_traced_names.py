"""Library names looked up from outside a module resolve: the globals the
benchmark's traced run wraps, and every ``__all__``; no module imports a
name it never uses; and every import is at module level."""

import ast
import importlib
from pathlib import Path

from satavit import ModelConfig, harness, random_image, random_init
from satavit.engine import forward

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


# traced names no forward or report calls: their per-layer metrics read 0
NEVER_CALLED = ["engine.ffn", "engine.spatial_scores", "harness.forward",
                "sata.bipartite_match", "sata.split_tokens"]


def test_no_other_traced_name_goes_uncalled(monkeypatch):
    """A traced name the library stops calling zeroes its per-layer metric
    without an error, so the names left uncalled are pinned here."""
    cfg = ModelConfig()  # the benchmark's 8x32 shape
    model = random_init(cfg, seed=3)
    images = [random_image(cfg, seed) for seed in (1, 2)]
    calls = {}
    for module, attrs in traced_names().items():
        mod = importlib.import_module(f"satavit.{module}")
        for attr in attrs:
            key = f"{module}.{attr}"
            calls[key] = 0

            def counted(*args, _real=getattr(mod, attr), _key=key, **kwargs):
                calls[_key] += 1
                return _real(*args, **kwargs)

            monkeypatch.setattr(mod, attr, counted)
    forward(images[0], model, cfg)
    forward(images[0], model, cfg.with_overrides(sata_enabled=False))
    harness.averaged_stability_report(model, images[0], 0)
    harness.sweep(model, images, "alpha", [0.5, 1.0])
    harness.stats_report(model, images)
    assert sorted(k for k, n in calls.items() if n == 0) == NEVER_CALLED
