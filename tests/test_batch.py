"""A stack of images against one image at a time, bit for bit.

The oracle for ``engine.forward_batch`` is ``forward`` per image: the
logits, every ``BlockTrace`` field (the stage's ``SpatialScores``
included) and, stepped one block per ``run_blocks`` call, every block's
output stream must have the same bytes.  The same holds one level down
for ``sata_stage`` on a stack of attention outputs, and one level up for
reports whose images ``parallel.stacks`` cuts into stacks of any size.
"""

import dataclasses
import math

import numpy as np
import pytest

from satavit import ModelConfig, harness, parallel, random_init
from satavit.engine import classify, embed, forward, forward_batch, run_blocks
from satavit.harness import (
    STABILITY_HEADER,
    STATS_HEADER,
    SWEEP_HEADER,
    averaged_stability_report,
    render_csv,
    stats_report,
    sweep,
)
from satavit.images import random_image
from satavit.modelio import Model
from satavit.sata import bipartite_match, ffn_flops, sata_stage
from satavit.vit import AttentionOutput, ffn

from test_sata import TestLoopReferenceBitwise, make_attention
from test_vit import make_ffn_weights

SHAPES = {
    "8x32": ModelConfig(depth=8, dim=32, heads=4, patch=4, image=16),
    "1-head": ModelConfig(depth=4, dim=24, heads=1, patch=4, image=32, channels=3),
    "n197": ModelConfig(depth=3, dim=32, heads=4, patch=4, image=56, num_classes=5),
}
VIT_TI = ModelConfig(depth=12, dim=192, heads=3, patch=16, image=224, channels=3,
                     gamma=0.7, alpha=1.0)
RUN_CONFIGS = {
    "stage-on": dict(gamma=0.5),
    "gamma-0": dict(gamma=0.0, alpha=0.7),
    "stage-off": dict(sata_enabled=False),
}


def bits(value):
    """A key equal for two values exactly when their bytes are: arrays by
    dtype, shape and bytes, dataclasses field by field."""
    if dataclasses.is_dataclass(value):
        return tuple((f.name, bits(getattr(value, f.name))) for f in dataclasses.fields(value))
    if isinstance(value, tuple):
        return tuple(bits(v) for v in value)
    if value is None:
        return None
    a = np.asarray(value)
    return a.dtype.str, a.shape, a.tobytes()


def assert_forwards_bitwise(got, want):
    assert len(got) == len(want)
    for b, ((logits, traces), (want_logits, want_traces)) in enumerate(zip(got, want)):
        assert bits(logits) == bits(want_logits), (b, "logits")
        assert len(traces) == len(want_traces)
        for tr, ref in zip(traces, want_traces):
            assert bits(tr) == bits(ref), (b, tr.block_index)


def models_and_images(shape, count):
    cfg = SHAPES[shape]
    return random_init(cfg, seed=31), [random_image(cfg, seed) for seed in range(count)]


@pytest.fixture(scope="module")
def vit_ti():
    return random_init(VIT_TI, seed=5)


class TestForwardBatch:
    @pytest.mark.parametrize("shape", list(SHAPES))
    @pytest.mark.parametrize("run", list(RUN_CONFIGS))
    @pytest.mark.parametrize("trace_scores", [False, True])
    def test_equals_one_forward_per_image(self, shape, run, trace_scores):
        model, images = models_and_images(shape, 5)
        cfg = model.config.with_overrides(**RUN_CONFIGS[run])
        want = [forward(img, model, cfg, trace_scores) for img in images]
        assert_forwards_bitwise(forward_batch(images, model, cfg, trace_scores), want)

    @pytest.mark.parametrize("sata_enabled", [True, False])
    @pytest.mark.parametrize("trace_scores", [False, True])
    def test_stack_of_two_on_vit_ti_with_lanes(self, vit_ti, monkeypatch, sata_enabled,
                                               trace_scores):
        monkeypatch.setattr(parallel, "workers", lambda *args: 2)
        assert parallel.lanes(VIT_TI).count == 2
        cfg = VIT_TI.with_overrides(sata_enabled=sata_enabled)
        images = [random_image(VIT_TI, seed) for seed in (1, 2)]
        want = [forward(img, vit_ti, cfg, trace_scores) for img in images]
        assert_forwards_bitwise(forward_batch(images, vit_ti, cfg, trace_scores), want)

    @pytest.mark.parametrize("shape", list(SHAPES))
    def test_stepped_stack_streams_equal_each_images(self, shape):
        model, images = models_and_images(shape, 3)
        cfg = model.config
        stack = np.stack([embed(img, model) for img in images])
        singles = [embed(img, model) for img in images]
        for i in range(cfg.depth):
            stack, traces = run_blocks(stack, model, cfg, i, i + 1, trace_scores=True)
            for b in range(len(images)):
                singles[b], (want,) = run_blocks(singles[b], model, cfg, i, i + 1,
                                                 trace_scores=True)
                assert stack[b].tobytes() == singles[b].tobytes(), (i, b)
                assert [bits(tr) for tr in traces[b]] == [bits(want)]
        logits = classify(stack, model)
        for b, x in enumerate(singles):
            assert logits[b].tobytes() == classify(x, model).tobytes()

    def test_empty_range_gives_one_empty_trace_list_per_image(self):
        model, images = models_and_images("8x32", 2)
        stack = np.stack([embed(img, model) for img in images])
        x, traces = run_blocks(stack, model, model.config, 3, 3)
        assert x is stack and traces == [[], []]

    def test_empty_stack_rejected(self):
        model, _ = models_and_images("8x32", 0)
        with pytest.raises(ValueError, match="at least one image"):
            forward_batch([], model)

    @pytest.mark.parametrize("name,part", [("block2.attn.wo", "block 2: attention"),
                                           ("block1.ffn.w2", "block 1: ffn"),
                                           ("block3.ln1.gain", "block 3: "),
                                           ("head.weight", "head: ")])
    def test_non_finite_weight_raises_the_one_image_message(self, name, part):
        model, images = models_and_images("8x32", 3)
        params = dict(model.params)
        params[name] = params[name].copy()
        params[name].flat[0] = math.nan
        broken = Model(config=model.config, params=params)
        with pytest.raises(FloatingPointError) as single:
            forward(images[0], broken)
        with pytest.raises(FloatingPointError) as stack:
            forward_batch(images, broken)
        assert str(single.value).startswith(part)
        assert str(stack.value) == str(single.value)


class TestStageOnAStack:
    """``sata_stage`` on a stack against one image at a time, on the
    features of the loop reference's tie and zero-row cases."""

    @staticmethod
    def _check(shape, kinds, block, trace_scores):
        """The stage on a stack of ``kinds`` images against each image alone;
        returns the stack's traces."""
        rng = np.random.default_rng(503)
        cfg = ModelConfig(**TestLoopReferenceBitwise.SHAPES[shape]).with_overrides(
            depth=12, gamma=0.5, alpha=0.8)
        n, d = cfg.num_tokens, cfg.dim
        fw = make_ffn_weights(rng, d, cfg.hidden)
        attns = []
        for kind in kinds:
            if kind == "constant":  # every patch alike: zero scores, all in band
                x = rng.normal(size=(n, d))
                x[2:] = x[1]
            else:
                x = TestLoopReferenceBitwise._features(rng, kind, n, d)
            attns.append(make_attention(rng, cfg.heads, x))
        stack = AttentionOutput(features=np.stack([a.features for a in attns]),
                                mean_attention=np.stack([a.mean_attention for a in attns]))
        out, traces = sata_stage(stack, cfg, fw, block, trace_scores=trace_scores)
        assert out.shape == stack.features.shape and len(traces) == len(attns)
        for b, attn in enumerate(attns):
            want, want_trace = sata_stage(attn, cfg, fw, block, trace_scores=trace_scores)
            assert out[b].tobytes() == want.tobytes(), b
            assert bits(traces[b]) == bits(want_trace), b
            if trace_scores:
                assert not np.shares_memory(traces[b].cls_attention, stack.mean_attention)
        merging = block >= cfg.sata_start_block
        assert any(tr.n_a > 0 for tr in traces) == merging
        return traces

    @pytest.mark.parametrize("shape", ["8x32", "vit-ti"])
    @pytest.mark.parametrize("block", [0, 11])  # pass-through and merging at gamma 0.5
    @pytest.mark.parametrize("trace_scores", [False, True])
    def test_equals_one_image_at_a_time(self, shape, block, trace_scores):
        self._check(shape, ["ties", "zero-rows", "normal", "ties"], block, trace_scores)

    @pytest.mark.parametrize("block", [0, 11])
    @pytest.mark.parametrize("trace_scores", [False, True])
    def test_a_stability_reports_stack_of_21(self, block, trace_scores):
        kinds = ["normal", "ties", "constant", "zero-rows", "normal"] * 4 + ["constant"]
        traces = self._check("8x32", kinds, block, trace_scores)
        if block == 11:  # merging and non-merging images in one merging block
            assert {tr.n_a == 0 for tr in traces} == {True, False}
            assert all(tr.n_a == 0 for kind, tr in zip(kinds, traces) if kind == "constant")

    def test_map_shape_must_match_the_stack(self):
        rng = np.random.default_rng(4)
        cfg = ModelConfig(depth=2, dim=8, heads=2, patch=2, image=8)
        x = rng.normal(size=(2, cfg.num_tokens, cfg.dim))
        attn = AttentionOutput(features=x, mean_attention=np.zeros((cfg.num_tokens,) * 2))
        with pytest.raises(ValueError, match="attention map shape"):
            sata_stage(attn, cfg, make_ffn_weights(rng, cfg.dim, cfg.hidden), 0)

    @pytest.mark.parametrize("block,trace_scores,reads", [
        (0, False, False), (0, True, True), (1, False, True)])
    def test_only_a_block_that_reads_the_map_needs_one(self, block, trace_scores, reads):
        rng = np.random.default_rng(4)
        cfg = ModelConfig(depth=2, dim=8, heads=2, patch=2, image=8, gamma=0.5)
        assert cfg.merges(1) and not cfg.merges(0)
        x = rng.normal(size=(2, cfg.num_tokens, cfg.dim))
        fw = make_ffn_weights(rng, cfg.dim, cfg.hidden)
        attn = AttentionOutput(features=x, mean_attention=None)
        if reads:
            with pytest.raises(ValueError, match=f"block {block} reads the attention map"):
                sata_stage(attn, cfg, fw, block, trace_scores=trace_scores)
        else:
            out, _ = sata_stage(attn, cfg, fw, block, trace_scores=trace_scores)
            assert np.array_equal(out, x + ffn(x, fw))


class TestStacks:
    def test_one_image_per_stack_from_the_pool_floor(self):
        cfg = VIT_TI
        assert ffn_flops(cfg.num_tokens, cfg.dim, cfg.hidden) >= parallel._POOL_MIN_FFN_FLOPS
        assert parallel.stacks(cfg, 3) == [slice(0, 1), slice(1, 2), slice(2, 3)]

    def test_below_the_floor_stacks_stay_under_the_budget(self):
        for cfg in SHAPES.values():
            assert ffn_flops(cfg.num_tokens, cfg.dim, cfg.hidden) < parallel._POOL_MIN_FFN_FLOPS
            per_image = cfg.heads * cfg.num_tokens**2
            for count in (1, 2, 21, 100):
                cut = parallel.stacks(cfg, count)
                sizes = [s.stop - s.start for s in cut]
                assert [s.start for s in cut] == [0, *np.cumsum(sizes)[:-1]]
                assert sum(sizes) == count and max(sizes) - min(sizes) <= 1
                assert max(sizes) == 1 or max(sizes) * per_image <= parallel._STACK_MAX_MAP_ENTRIES
                assert len(cut) == -(-count // max(1, parallel._STACK_MAX_MAP_ENTRIES // per_image))

    def test_the_8x32_stability_report_is_one_stack(self):
        assert parallel.stacks(SHAPES["8x32"], 21) == [slice(0, 21)]

    def test_no_images_no_stacks(self):
        assert parallel.stacks(SHAPES["8x32"], 0) == []


def report_csvs(model, images):
    return {
        "averaged": render_csv(STABILITY_HEADER, [
            [r.block_index, r.delta_attention, r.delta_sata]
            for r in averaged_stability_report(model, images[0], seed=4)]),
        "stats": render_csv(STATS_HEADER, stats_report(model, images)),
        "alpha": render_csv(SWEEP_HEADER, [
            [r.value, r.total_flops, r.logit_drift]
            for r in sweep(model, images, "alpha", [0.5, 1.0, 2.0])]),
        "gamma": render_csv(SWEEP_HEADER, [
            [r.value, r.total_flops, r.logit_drift]
            for r in sweep(model, images, "gamma", [0.0, 0.5, 1.0])]),
    }


class TestReportsInStacks:
    def test_any_stack_size_gives_the_same_csvs(self, monkeypatch):
        model, images = models_and_images("8x32", 5)
        sizes = {}
        original = harness.forward_batch

        def recorded(stack, *args, **kwargs):
            sizes.setdefault(budget, []).append(len(stack))
            return original(stack, *args, **kwargs)

        monkeypatch.setattr(harness, "forward_batch", recorded)
        per_image = model.config.heads * model.config.num_tokens**2
        csvs = {}
        for budget in (0, 2 * per_image, parallel._STACK_MAX_MAP_ENTRIES):
            monkeypatch.setattr(parallel, "_STACK_MAX_MAP_ENTRIES", budget)
            csvs[budget] = report_csvs(model, images)
        assert set(sizes[0]) == {1}
        assert set(sizes[2 * per_image]) == {1, 2}  # 21 images -> 11 stacks
        assert max(sizes[parallel._STACK_MAX_MAP_ENTRIES]) == 21
        assert csvs[0] == csvs[2 * per_image] == csvs[parallel._STACK_MAX_MAP_ENTRIES]


def plan_bits(plan):
    return (sorted(plan.edges.items()), plan.members.tobytes(), plan.group_sizes.tobytes(),
            plan.representatives.tobytes(), plan.residuals.tobytes())


class TestStackedMatch:
    """``bipartite_match`` on a stack against one call per image, byte for byte."""

    @pytest.mark.parametrize("d", [32, 192])
    def test_each_image_is_its_own_call(self, d):
        rng = np.random.default_rng(d)
        n = 24
        feats = rng.normal(size=(7, n, d))
        feats[1, 1:] = 2.0 * feats[1, 0]  # ties
        feats[2, [0, 3, 5, 8]] = 0.0  # zero rows
        feats[3, :, 4] = -0.0  # an all -0.0 column
        sets = [np.sort(rng.permutation(n)[:size]) for size in (0, 1, 8, 11, 2, 24, 5)]
        sets[2] = np.array([0, 1, 3, 5, 6, 8, 9, 12])
        got = bipartite_match(sets, feats)
        assert len(got) == len(sets)
        for b, (set_a, plan) in enumerate(zip(sets, got)):
            assert plan_bits(plan) == plan_bits(bipartite_match(set_a, feats[b])), b

    @pytest.mark.parametrize("index", [6, -1])
    def test_index_outside_the_image_rejected(self, index):
        # token 6 of image 0 would be row 0 of image 1 in the flat stack
        feats = np.random.default_rng(0).normal(size=(2, 6, 4))
        with pytest.raises(ValueError, match=r"outside \[0, 6\) in image 0"):
            bipartite_match([[0, 1, index], [0, 1, 2]], feats)
        with pytest.raises(ValueError, match=r"outside \[0, 6\)"):
            bipartite_match([0, 1, index], feats[0])


class TestStageStraddlingTheKernelSides:
    def test_padded_ffn_keeps_each_images_bits(self):
        # 26 tokens, d128: 16 FFN rows and up use OpenBLAS's blocked kernel
        cfg = ModelConfig(depth=2, dim=128, heads=4, patch=4, image=20, gamma=0.5, alpha=1.0)
        assert cfg.block_ffn_flops < parallel._POOL_MIN_FFN_FLOPS
        assert parallel.blocked_lines(cfg.dim * cfg.hidden) == 16
        rng = np.random.default_rng(7)
        fw = make_ffn_weights(rng, cfg.dim, cfg.hidden)
        attns = []
        for image in range(10):
            x = rng.normal(size=(cfg.num_tokens, cfg.dim))
            if image % 3 == 0:  # every patch alike: zero scores, all 26 rows in band
                x[2:] = x[1]
            attns.append(make_attention(rng, cfg.heads, x))
        stack = AttentionOutput(features=np.stack([a.features for a in attns]),
                                mean_attention=np.stack([a.mean_attention for a in attns]))
        out, traces = sata_stage(stack, cfg, fw, 1)
        rows = {tr.ffn_tokens for tr in traces}
        assert min(rows) < 16 <= max(rows)  # both kernel sides in one stack
        for b, attn in enumerate(attns):
            want, want_trace = sata_stage(attn, cfg, fw, 1)
            assert out[b].tobytes() == want.tobytes(), b
            assert bits(traces[b]) == bits(want_trace), b
