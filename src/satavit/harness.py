"""Experiment harness: stability, score and sweep reports, and the selftest.

The harness measures what the token-analysis stage is supposed to buy:
per-block cosine similarity between clean and corrupted runs (for both
the class-token attention row and the spatial score vector), per-block
score statistics with band bounds and FFN load, and alpha/gamma sweeps
reporting FLOPs against logit drift.

Reports return rows (records are named tuples in CSV column order) and
write nothing; ``write_csv`` and ``render_csv`` take them as they are,
deterministic given seeds: UTF-8, LF line endings, floats formatted
with %.9g, integers bare.  A report's forwards are independent.
``parallel.stacks`` splits its images into stacks, one
``engine.forward_batch`` each (one image per stack on a model large
enough for the thread pool, many below that), and ``parallel.run`` runs
the stacks on the calling thread and the pool where that pays (see
``parallel.workers``) and returns them in order, so every reduction
sums in the serial order and the CSVs depend on neither.  Each stack's
blocks score and band all its images in one call (see
``sata.sata_stage``).  The stability report then compares every block
of every corrupted forward with the clean one in one
``cosine_similarity`` call over row stacks, and the stats report pools
all images' scores into one histogram per block.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from . import parallel
# forward is unused here; perfbench/run.py traces it as a harness global
from .engine import classify, embed, forward, forward_batch, run_blocks
from .images import CORRUPTION_KINDS, CorruptionSpec, corrupt, random_image
from .modelio import Model, random_init
from .moran import SpatialScores, spatial_scores
from .rng import SplitMix64
from .sata import bipartite_match, sata_stage, split_tokens
from .tensorops import cosine_similarity, row_softmax
from .vit import AttentionOutput, FfnWeights, ModelConfig, ffn, mhsa

__all__ = [
    "StabilityRecord",
    "SweepRecord",
    "stability_report",
    "averaged_stability_report",
    "stats_report",
    "sweep",
    "selftest",
    "write_csv",
    "render_csv",
    "STABILITY_HEADER",
    "STATS_HEADER",
    "SWEEP_HEADER",
    "SELFTEST_HEADER",
]

HIST_BINS = 32
HIST_RANGE = (-5.0, 5.0)

STABILITY_HEADER = ["block", "delta_attention", "delta_sata"]
# stats_report's scalar columns, in the order it sums them
_STATS_COLUMNS = [
    "mean_s", "abs_median_s", "lower", "upper", "n_a", "n_b", "ffn_tokens", "ffn_flops"
]
STATS_HEADER = ["block", *_STATS_COLUMNS] + [f"hist_{i}" for i in range(HIST_BINS)]
SWEEP_HEADER = ["param_value", "total_flops", "logit_drift"]
SELFTEST_HEADER = ["check", "cases", "max_abs_error", "status"]


# ---------------------------------------------------------------------------
# CSV


def _fmt(v) -> str:
    if isinstance(v, str):
        return v
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    return format(float(v), ".9g")


def render_csv(header, rows) -> str:
    lines = [",".join(header)]
    lines += [",".join(_fmt(v) for v in row) for row in rows]
    return "\n".join(lines) + "\n"


def write_csv(path, header, rows) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(render_csv(header, rows))


# ---------------------------------------------------------------------------
# stability


class StabilityRecord(NamedTuple):
    """One block's clean-vs-corrupted cosines, a row of ``STABILITY_HEADER``."""

    block_index: int
    delta_attention: float
    delta_sata: float


def _stacked(fn, groups, cfg: ModelConfig) -> list:
    """``fn`` over every item of ``groups``, one call per stack of items;
    one result per item, in order.

    ``fn`` maps a list of items to a list of one result each.  Each group
    is split by ``parallel.stacks``, so a stack never spans two groups,
    and all the stacks go to one ``parallel.run``.
    """
    stacks = [group[s] for group in groups for s in parallel.stacks(cfg, len(group))]
    return [r for out in parallel.run(fn, stacks, parallel.workers(cfg)) for r in out]


def _scored_traces(model: Model, images, cfg: ModelConfig) -> list:
    """Block traces with scores of one forward per image of a stack."""
    return [traces for _, traces in forward_batch(images, model, cfg, trace_scores=True)]


def _stability(model: Model, image, specs, cfg: ModelConfig) -> list[StabilityRecord]:
    """Per-block clean-vs-corrupted cosines, averaged over ``specs`` in their order.

    The clean forward runs once, plus one forward per spec.  The sum
    starts from the first spec's deltas, so a single spec's report is
    its cosines bit for bit (a -0.0 keeps its sign).  Without specs the
    clean traces are compared with themselves.
    """
    def corrupted_traces(stack):
        images = [image if sp is None else corrupt(image, sp) for sp in stack]
        return _scored_traces(model, images, cfg)

    clean, *corrupted = _stacked(corrupted_traces, [[None, *specs]], cfg)
    corrupted = corrupted or [clean]

    def rows(traces):  # the class-attention rows, then the score rows
        return [tr.cls_attention for tr in traces] + [tr.scores.s for tr in traces]

    # every block of every corrupted forward in one call: (specs, 2, blocks)
    cosines = cosine_similarity(np.array(rows(clean) * len(corrupted)),
                                np.array([row for traces in corrupted for row in rows(traces)]))
    deltas = cosines.reshape(len(corrupted), 2, len(clean)).transpose(0, 2, 1)
    mean = sum(deltas[1:], deltas[0]) / len(deltas)
    return [
        StabilityRecord(tr.block_index, float(att), float(sata))
        for tr, (att, sata) in zip(clean, mean)
    ]


def stability_report(
    model: Model,
    image,
    spec: CorruptionSpec | None,
    cfg: ModelConfig | None = None,
) -> list[StabilityRecord]:
    """Per-block clean-vs-corrupted cosine similarities.

    ``delta_attention`` compares the class-token attention row over the
    patch tokens, ``delta_sata`` the spatial score vector.  Without a
    ``spec`` the clean image is compared to itself (all deltas exactly
    1) from a single forward.
    """
    cfg = cfg if cfg is not None else model.config
    return _stability(model, image, [] if spec is None else [spec], cfg)


def averaged_stability_report(
    model: Model,
    image,
    seed: int,
    cfg: ModelConfig | None = None,
) -> list[StabilityRecord]:
    """Stability deltas averaged uniformly over every (kind, severity) pair.

    Each pair gets its own corruption seed derived from ``seed``, so
    the whole report is reproducible from one integer.  The clean
    forward runs once and is compared with one corrupted forward per
    pair (21 forwards for the 20 pairs).
    """
    cfg = cfg if cfg is not None else model.config
    pairs = [(kind, severity) for kind in CORRUPTION_KINDS for severity in range(1, 6)]
    pair_seeds = SplitMix64(seed).next_uint64(len(pairs))
    specs = [
        CorruptionSpec(kind=kind, severity=severity, seed=int(pair_seed))
        for (kind, severity), pair_seed in zip(pairs, pair_seeds)
    ]
    return _stability(model, image, specs, cfg)


# ---------------------------------------------------------------------------
# score statistics


def stats_report(model: Model, images, cfg: ModelConfig | None = None) -> list[list]:
    """Per-block score statistics over an image batch.

    Scalar columns are averaged across the batch; the 32-bin histogram
    of s over [-5, 5] pools counts (out-of-range scores clip into the
    edge bins, so every token is counted).
    """
    images = list(images)
    if not images:
        raise ValueError("stats_report needs at least one image")
    run_cfg = cfg if cfg is not None else model.config
    depth = run_cfg.depth
    sums = np.zeros((depth, len(_STATS_COLUMNS)))
    per_image = _stacked(lambda stack: _scored_traces(model, stack, run_cfg), [images], run_cfg)
    for traces in per_image:  # summed in image order
        sums += [
            [tr.scores.mean_s, tr.scores.abs_median_s, *tr.bounds, tr.n_a, tr.n_b,
             tr.ffn_tokens, tr.ffn_flops]
            for tr in traces
        ]
    # counts add exactly, so one histogram per block pools every image's scores
    hists = [
        np.histogram(np.clip(np.concatenate([tr.scores.s for tr in block]), *HIST_RANGE),
                     bins=HIST_BINS, range=HIST_RANGE)[0]
        for block in zip(*per_image)
    ]
    means = sums / len(images)
    return [[b, *means[b].tolist(), *hists[b].tolist()] for b in range(depth)]


# ---------------------------------------------------------------------------
# parameter sweeps


class SweepRecord(NamedTuple):
    """One swept value's per-image mean FFN FLOPs and logit drift, a ``SWEEP_HEADER`` row."""

    value: float
    total_flops: float
    logit_drift: float


def _stage_off_segments(model: Model, images, cfg: ModelConfig, starts) -> list:
    """Stage-off forwards of a stack of images, split at each block index in ``starts``.

    ``starts`` must be ascending.  Returns per image its logits, one
    trace per block and the stream entering each block in ``starts``.
    """
    x = np.stack([embed(image, model) for image in images])
    traces = [[] for _ in images]
    streams = {}
    done = 0
    for stop in (*starts, cfg.depth):
        x, segment = run_blocks(x, model, cfg, done, stop)
        for acc, part in zip(traces, segment):
            acc += part
        streams[stop] = x
        done = stop
    return [
        (logits, trace, {stop: stack[b] for stop, stack in streams.items()})
        for b, (logits, trace) in enumerate(zip(classify(x, model), traces))
    ]


def sweep(
    model: Model,
    images,
    param: str,
    values,
    cfg: ModelConfig | None = None,
) -> list[SweepRecord]:
    """Run the stage across a list of alpha or gamma values.

    The drift baseline is the same model with the stage disabled; FLOPs
    are the per-image mean of the summed per-block FFN FLOPs.  The
    stage is forced on for the swept runs regardless of the model's
    stored flag.

    Blocks before a value's ``sata_start_block`` take the stage-off
    path, so they are identical to the baseline's.  The baseline runs
    once per image, keeping its stream at every distinct start block;
    each value then runs only its blocks from ``start`` on and reuses
    the baseline's FFN FLOPs for the blocks before.  The baselines run
    in stacks of images first, then the values' tails, each stack
    holding images of one value.
    """
    if param not in ("alpha", "gamma"):
        raise ValueError(f"sweep param must be 'alpha' or 'gamma', got {param!r}")
    images = list(images)
    if not images:
        raise ValueError("sweep needs at least one image")
    base_cfg = cfg if cfg is not None else model.config
    baseline_cfg = base_cfg.with_overrides(sata_enabled=False)
    run_cfgs = [
        base_cfg.with_overrides(sata_enabled=True, **{param: float(value)})
        for value in values
    ]
    starts = sorted({c.sata_start_block for c in run_cfgs})
    baselines = _stacked(
        lambda stack: _stage_off_segments(model, stack, baseline_cfg, starts), [images], base_cfg
    )

    def run_tails(jobs):
        """FFN FLOPs and logit drift of each (value, image) of a stack of one value."""
        run_cfg = jobs[0][0]
        start = run_cfg.sata_start_block
        x = np.stack([streams[start] for _, (_, _, streams) in jobs])
        x, tails = run_blocks(x, model, run_cfg, start, run_cfg.depth)
        return [
            (sum(tr.ffn_flops for tr in base_traces[:start] + tail),
             float(np.linalg.norm(logits - base_logits)))
            for (_, (base_logits, base_traces, _)), tail, logits
            in zip(jobs, tails, classify(x, model))
        ]

    tails = _stacked(run_tails, [[(c, b) for b in baselines] for c in run_cfgs], base_cfg)
    n = len(images)
    records = []
    for k, run_cfg in enumerate(run_cfgs):
        flops_total = 0.0
        drift_total = 0.0
        for flops, drift in tails[k * n : (k + 1) * n]:  # in image order
            flops_total += flops
            drift_total += drift
        records.append(SweepRecord(getattr(run_cfg, param), flops_total / n, drift_total / n))
    return records


# ---------------------------------------------------------------------------
# selftest: built-in oracle suites


def _naive_spatial_scores(x: np.ndarray, w: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Straight-line reference for the score pipeline (plain Python loops).

    Returns the scores ``s`` and the raw local Moran values.
    """
    n, d = x.shape
    a = [sum(float(x[i, t]) for t in range(d)) / d for i in range(n)]

    def znorm(vals):
        if all(v == vals[0] for v in vals):
            return [0.0] * len(vals)
        mu = sum(vals) / len(vals)
        var = sum((v - mu) ** 2 for v in vals) / len(vals)
        if var == 0.0:
            return [0.0] * len(vals)
        sd = var ** 0.5
        return [(v - mu) / sd for v in vals]

    z = znorm(a)
    raw = []
    for i in range(n):
        acc = 0.0
        for j in range(n):
            acc += z[j] * float(w[j, i])
        raw.append(z[i] * acc)
    return np.array(znorm(raw)), np.array(raw)


def _random_attention(gen: SplitMix64, heads: int, features: np.ndarray) -> AttentionOutput:
    n = features.shape[0]
    maps = np.stack([row_softmax(gen.normal(n * n).reshape(n, n)) for _ in range(heads)])
    return AttentionOutput(features=features, mean_attention=maps.mean(axis=0))


def _random_ffn_weights(gen: SplitMix64, d: int, hidden: int) -> FfnWeights:
    scale = 1.0 / np.sqrt(d)
    return FfnWeights(
        ln_gain=np.ones(d),
        ln_bias=np.zeros(d),
        w1=gen.normal(d * hidden).reshape(d, hidden) * scale,
        b1=gen.normal(hidden) * scale,
        w2=gen.normal(hidden * d).reshape(hidden, d) * scale,
        b2=gen.normal(d) * scale,
    )


def _check_moran_oracle(gen: SplitMix64, cases: int) -> float:
    worst = 0.0
    for _ in range(cases):
        n = 2 + int(gen.integers(1, 15)[0])
        d = 1 + int(gen.integers(1, 8)[0])
        x = gen.normal(n * d).reshape(n, d)
        w = gen.normal(n * n).reshape(n, n)
        got = spatial_scores(x, w).s
        want, _ = _naive_spatial_scores(x, w)
        worst = max(worst, float(np.max(np.abs(got - want))))
    return worst


def _check_split_partition(gen: SplitMix64, cases: int) -> float:
    violations = 0
    for _ in range(cases):
        n = 1 + int(gen.integers(1, 32)[0])
        s = SpatialScores.from_values(gen.normal(n) * (1.0 + gen.uniform(1)[0] * 4.0))
        alpha = float(gen.uniform(1)[0] * 2.0 + 0.05)
        res = split_tokens(s, alpha)
        merged = np.sort(np.concatenate([res.set_a, res.set_b]))
        if not np.array_equal(merged, np.arange(n)):
            violations += 1
            continue
        inside = (s.s >= res.lower) & (s.s <= res.upper)
        if not (np.all(inside[res.set_b]) and not np.any(inside[res.set_a])):
            violations += 1
    return float(violations)


def _check_merge_plans(gen: SplitMix64, cases: int) -> float:
    worst = 0.0
    for _ in range(cases):
        n = 2 + int(gen.integers(1, 20)[0])
        d = 2 + int(gen.integers(1, 6)[0])
        feats = gen.normal(n * d).reshape(n, d)
        size = int(gen.integers(1, n + 1)[0])
        set_a = np.sort(gen.permutation(n)[:size])
        plan = bipartite_match(set_a, feats)
        again = bipartite_match(set_a, feats)
        if plan.edges != again.edges:
            return float("inf")
        groups = np.split(plan.members, np.cumsum(plan.group_sizes)[:-1])
        for rep, members in zip(plan.representatives, groups):
            worst = max(worst, float(np.max(np.abs(rep - feats[members].mean(axis=0)))))
        covered = np.concatenate([plan.residuals, plan.members])
        if sorted(covered.tolist()) != sorted(set_a.tolist()):
            return float("inf")
    return worst


def _check_noop_equivalence(gen: SplitMix64, cases: int) -> float:
    worst = 0.0
    # gamma 0 makes block 0 a stage block, so the merge path runs
    cfg = ModelConfig(depth=1, dim=8, heads=2, patch=2, image=8, gamma=0.0, alpha=1e9)
    for _ in range(cases):
        n = cfg.num_tokens
        x = gen.normal(n * cfg.dim).reshape(n, cfg.dim)
        attn = _random_attention(gen, cfg.heads, x)
        fw = _random_ffn_weights(gen, cfg.dim, cfg.hidden)
        merged, trace = sata_stage(attn, cfg, fw, 0)
        if trace.n_a != 0:
            continue  # band did not cover (|median| == 0); vacuous case
        vanilla = x + ffn(x, fw)
        worst = max(worst, float(np.max(np.abs(merged - vanilla))))
    return worst


def _check_restoration(gen: SplitMix64, cases: int) -> float:
    violations = 0
    cfg = ModelConfig(depth=3, dim=8, heads=2, patch=2, image=8, gamma=0.5, alpha=1.0)
    for _ in range(cases):
        model = random_init(cfg, seed=int(gen.next_uint64(1)[0]))
        image = random_image(cfg, seed=int(gen.next_uint64(1)[0]))
        x = embed(image, model)
        for i, (attn_weights, ffn_weights) in enumerate(model.blocks):
            attn = mhsa(x, attn_weights, cfg.heads)
            x, trace = sata_stage(attn, cfg, ffn_weights, i)
            if x.shape != attn.features.shape:
                violations += 1
            for idx in trace.residual_indices:
                if not np.array_equal(x[1 + idx], attn.features[1 + idx]):
                    violations += 1
    return float(violations)


def _check_permutation(gen: SplitMix64, cases: int) -> float:
    worst = 0.0
    for _ in range(cases):
        n = 3 + int(gen.integers(1, 12)[0])
        d = 2 + int(gen.integers(1, 6)[0])
        x = gen.normal(n * d).reshape(n, d)
        w = gen.normal(n * n).reshape(n, n)
        perm = gen.permutation(n)
        s = spatial_scores(x, w).s
        s_p = spatial_scores(x[perm], w[np.ix_(perm, perm)]).s
        worst = max(worst, float(np.max(np.abs(s_p - s[perm]))))
    return worst


_SELFTEST_CHECKS = [
    ("moran_oracle", _check_moran_oracle, 100, 1e-9),
    ("split_partition", _check_split_partition, 1000, 0.0),
    ("merge_plans", _check_merge_plans, 200, 1e-12),
    ("noop_equivalence", _check_noop_equivalence, 25, 1e-12),
    ("restoration", _check_restoration, 10, 0.0),
    ("permutation_equivariance", _check_permutation, 50, 1e-12),
]


def selftest(seed: int = 0) -> tuple[list[list], bool]:
    """Run the built-in oracle suites; returns (rows, all_passed)."""
    rows = []
    for i, (name, fn, cases, tol) in enumerate(_SELFTEST_CHECKS):
        err = fn(SplitMix64(seed).spawn(i), cases)
        rows.append([name, cases, err, "pass" if err <= tol else "fail"])
    return rows, all(row[-1] == "pass" for row in rows)
