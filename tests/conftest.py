import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import satavit
from satavit import ModelConfig, random_init

SRC = str(Path(satavit.__file__).resolve().parents[1])


@pytest.fixture
def small_config():
    return ModelConfig(depth=3, dim=8, heads=2, patch=2, image=8, num_classes=4,
                       gamma=0.5, alpha=1.0)


@pytest.fixture
def small_model(small_config):
    return random_init(small_config, seed=1234)


def random_attention_maps(rng: np.random.Generator, heads: int, n: int) -> np.ndarray:
    """Row-stochastic per-head maps for fixtures that need an attention input."""
    logits = rng.normal(size=(heads, n, n))
    e = np.exp(logits - logits.max(axis=2, keepdims=True))
    return e / e.sum(axis=2, keepdims=True)


def run_python(*args, cwd=None):
    """Run ``python *args`` in a child process on the sources under test."""
    path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, *map(str, args)],
        capture_output=True,
        text=True,
        cwd=cwd,
        env={**os.environ, "PYTHONPATH": path},
    )


def run_cli(*args):
    """Run ``python -m satavit`` in a child process on the sources under test."""
    return run_python("-m", "satavit", *args)
