"""Acceptance gate: every criterion at its stated tolerance.

Each test prints one ``ACCEPTANCE <name>: PASS/FAIL`` line directly to
the terminal (capture is disabled for this module) and asserts the
criterion.
"""

import json
import time

import numpy as np
import pytest

from satavit import (
    CORRUPTION_KINDS,
    CorruptionSpec,
    ModelConfig,
    forward,
    random_image,
    random_init,
    spatial_scores,
    split_tokens,
    stability_report,
)
from satavit.engine import embed
from satavit.harness import _naive_spatial_scores as naive_scores
from satavit.moran import SpatialScores
from satavit.sata import ffn_flops, sata_stage
from satavit.vit import mhsa

from conftest import run_cli


@pytest.fixture
def report(capfd):
    """Print one pass/fail line per criterion straight to the terminal."""

    def _report(name: str, ok: bool):
        with capfd.disabled():
            print(f"ACCEPTANCE {name}: {'PASS' if ok else 'FAIL'}")
        assert ok, f"acceptance criterion failed: {name}"

    return _report


@pytest.fixture(scope="module")
def base_model():
    cfg = ModelConfig(depth=8, dim=32, heads=4, patch=4, image=16, num_classes=10,
                      gamma=0.7, alpha=1.0)
    return random_init(cfg, seed=31337)


def test_moran_oracle_equivalence(report):
    rng = np.random.default_rng(100)
    start = time.perf_counter()
    worst = 0.0
    for _ in range(100):
        n = int(rng.integers(1, 17))
        d = int(rng.integers(1, 9))
        x = rng.normal(size=(n, d))
        w = rng.normal(size=(n, n))
        got = spatial_scores(x, w).s
        want, _ = naive_scores(x, w)
        worst = max(worst, float(np.max(np.abs(got - want))))
    elapsed = time.perf_counter() - start
    report("moran_oracle_equivalence",
           worst < 1e-9 and elapsed < 1.0)


def test_baseline_equivalence(base_model, report):
    cfg = base_model.config
    worst = 0.0
    for i in range(10):
        img = random_image(cfg, seed=1000 + i)
        off, _ = forward(img, base_model, cfg=cfg.with_overrides(sata_enabled=False))
        cover, _ = forward(img, base_model, cfg=cfg.with_overrides(alpha=1e9))
        worst = max(worst, float(np.max(np.abs(off - cover))))
    report("baseline_equivalence", worst < 1e-9)


def test_restoration_invariant(base_model, report):
    cfg = base_model.config  # gamma 0.7, alpha 1.0
    ok = True
    for i in range(50):
        x = embed(random_image(cfg, seed=2000 + i), base_model)
        for b, (attn_weights, ffn_weights) in enumerate(base_model.blocks):
            attn = mhsa(x, attn_weights, cfg.heads)
            x, tr = sata_stage(attn, cfg, ffn_weights, b)
            ok &= x.shape == attn.features.shape == (cfg.num_tokens, cfg.dim)
            for idx in tr.residual_indices:
                ok &= bool(np.array_equal(x[1 + idx], attn.features[1 + idx]))
    report("restoration_invariant", ok)


def test_ffn_load_reduction(base_model, report):
    cfg = base_model.config
    qualifying = 0
    ok = True
    for i in range(50):
        img = random_image(cfg, seed=2000 + i)
        _, traces = forward(img, base_model)
        for tr in traces:
            ok &= tr.ffn_flops == ffn_flops(tr.ffn_tokens, cfg.dim, cfg.hidden)
            if tr.n_a >= 2 and tr.n_groups >= 1:
                qualifying += 1
                ok &= tr.ffn_tokens < cfg.num_tokens
    report("ffn_load_reduction", ok and qualifying > 0)


def test_permutation_equivariance(report):
    rng = np.random.default_rng(300)
    worst = 0.0
    for _ in range(50):
        n = int(rng.integers(3, 17))
        d = int(rng.integers(2, 9))
        x = rng.normal(size=(n, d))
        w = rng.normal(size=(n, n))
        perm = rng.permutation(n)
        s = spatial_scores(x, w).s
        s_p = spatial_scores(x[perm], w[np.ix_(perm, perm)]).s
        worst = max(worst, float(np.max(np.abs(s_p - s[perm]))))
    report("permutation_equivariance", worst < 1e-12)


def test_split_correctness(report):
    rng = np.random.default_rng(400)
    violations = 0
    for _ in range(1000):
        n = int(rng.integers(1, 64))
        scale = float(rng.uniform(0.1, 10.0))
        s = SpatialScores.from_values(rng.normal(size=n) * scale)
        alpha = float(rng.uniform(0.05, 3.0))
        res = split_tokens(s, alpha)
        merged = np.sort(np.concatenate([res.set_a, res.set_b]))
        if not np.array_equal(merged, np.arange(n)):
            violations += 1
            continue
        inside = (s.s >= res.lower) & (s.s <= res.upper)
        if not (np.all(inside[res.set_b]) and not np.any(inside[res.set_a])):
            violations += 1
    report("split_correctness", violations == 0)


def test_determinism_byte_identical_csvs(tmp_path, report):
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(
        {"depth": 4, "dim": 16, "heads": 2, "patch": 2, "image": 8,
         "num_classes": 4, "gamma": 0.5}))
    stem = tmp_path / "model"
    assert run_cli("init", "--model", stem, "--config", cfg_path,
                   "--seed", 9).returncode == 0
    ok = True
    commands = {
        "selftest": ["selftest", "--seed", 2],
        "stats": ["stats", "--model", stem, "--seed", 2],
        "stability": ["stability", "--model", stem, "--seed", 2,
                      "--corruption", "gaussian_noise", "--severity", 3],
    }
    for name, cmd in commands.items():
        outs = []
        for run in ("x", "y"):
            out = tmp_path / f"{name}-{run}.csv"
            res = run_cli(*cmd, "--out", out)
            ok &= res.returncode == 0
            outs.append(out.read_bytes())
        ok &= outs[0] == outs[1]
    report("determinism_byte_identical_csvs", ok)


def test_stability_harness_completeness(base_model, report):
    cfg = base_model.config
    img = random_image(cfg, seed=7)
    ok = True
    for kind in CORRUPTION_KINDS:
        for severity in range(1, 6):
            spec = CorruptionSpec(kind, severity, seed=11)
            records = stability_report(base_model, img, spec)
            ok &= len(records) == cfg.depth
            ok &= all(-1.0 <= r.delta_attention <= 1.0 for r in records)
            ok &= all(-1.0 <= r.delta_sata <= 1.0 for r in records)
    clean = stability_report(base_model, img, spec=None)
    ok &= all(r.delta_attention == 1.0 and r.delta_sata == 1.0 for r in clean)
    report("stability_harness_completeness", ok)


def test_end_to_end_smoke(tmp_path, report):
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(
        {"depth": 12, "dim": 64, "heads": 8, "patch": 4, "image": 32,
         "num_classes": 10}))
    stem = tmp_path / "model"
    start = time.perf_counter()
    steps = [
        ["init", "--model", stem, "--config", cfg_path, "--seed", 5],
        ["forward", "--model", stem, "--seed", 6],
        ["stats", "--model", stem, "--seed", 6, "--out", tmp_path / "stats.csv"],
        ["sweep", "--model", stem, "--param", "alpha",
         "--values", "0.5,1.0,2.0", "--seed", 6,
         "--out", tmp_path / "sweep.csv"],
    ]
    ok = all(run_cli(*cmd).returncode == 0 for cmd in steps)
    elapsed = time.perf_counter() - start
    report("end_to_end_smoke", ok and elapsed < 60.0)
