"""Layer and forward tests, including a straight-line reference forward."""

import dataclasses
import math
import tracemalloc

import numpy as np
import pytest

from satavit import ModelConfig, forward, random_image, random_init, sata, vit
from satavit.engine import classify, embed, run_blocks
from satavit.modelio import Model, attn_view, embed_view, ffn_view, head_view, tensor_schema
from satavit.moran import spatial_scores
from satavit.parallel import SERIAL
from satavit.sata import ffn_flops, sata_stage, split_tokens
from satavit.vit import (
    MAX_WEIGHTS,
    AttnWeights,
    EmbedWeights,
    FfnWeights,
    ffn,
    mhsa,
    patch_embed,
)

from test_tensorops import (
    assert_untouched,
    textbook_gelu,
    textbook_layer_norm,
    textbook_row_softmax,
)

EPS = 1e-6  # layer-norm epsilon pinned by the block contract
# per architecture field, a value the small test model does not have
ARCHITECTURE_MISMATCH = {"depth": 4, "dim": 16, "heads": 4, "ffn_ratio": 2.0, "patch": 4,
                         "image": 16, "num_classes": 5, "channels": 3}


# ---------------------------------------------------------------------------
# naive reference pieces (loops and math.erf only; no package kernels)


def ref_layer_norm(row, gain, bias):
    n = len(row)
    mu = sum(row) / n
    var = sum((v - mu) ** 2 for v in row) / n
    return [(row[i] - mu) / math.sqrt(var + EPS) * gain[i] + bias[i] for i in range(n)]


def ref_gelu(v):
    return 0.5 * v * (1.0 + math.erf(v / math.sqrt(2.0)))


def ref_matvec(row, mat, bias):
    cols = len(mat[0])
    return [sum(row[k] * mat[k][c] for k in range(len(row))) + bias[c] for c in range(cols)]


def ref_mhsa(x, w: AttnWeights, heads):
    n = len(x)
    d = len(x[0])
    hd = d // heads
    normed = [ref_layer_norm(r, w.ln_gain, w.ln_bias) for r in x]
    q = [ref_matvec(r, w.wq, w.bq) for r in normed]
    k = [ref_matvec(r, w.wk, w.bk) for r in normed]
    v = [ref_matvec(r, w.wv, w.bv) for r in normed]
    attended = [[0.0] * d for _ in range(n)]
    maps = []
    for h in range(heads):
        lo = h * hd
        amap = []
        for i in range(n):
            logits = [
                sum(q[i][lo + t] * k[j][lo + t] for t in range(hd)) / math.sqrt(hd)
                for j in range(n)
            ]
            mx = max(logits)
            exps = [math.exp(val - mx) for val in logits]
            tot = sum(exps)
            amap.append([e / tot for e in exps])
        maps.append(amap)
        for i in range(n):
            for t in range(hd):
                attended[i][lo + t] = sum(amap[i][j] * v[j][lo + t] for j in range(n))
    proj = [ref_matvec(r, w.wo, w.bo) for r in attended]
    feats = [[x[i][c] + proj[i][c] for c in range(d)] for i in range(n)]
    mean_map = [
        [sum(maps[h][i][j] for h in range(heads)) / heads for j in range(n)]
        for i in range(n)
    ]
    return feats, mean_map


def ref_ffn_delta(x, w: FfnWeights):
    out = []
    for row in x:
        normed = ref_layer_norm(row, w.ln_gain, w.ln_bias)
        hidden = [ref_gelu(v) for v in ref_matvec(normed, w.w1, w.b1)]
        out.append(ref_matvec(hidden, w.w2, w.b2))
    return out


def ref_forward(image, model):
    """Plain-loop forward of the vanilla (stage-off) engine."""
    cfg = model.config
    p, g, d = cfg.patch, cfg.grid, cfg.dim
    ew = embed_view(model)
    tokens = [list(ew.class_token)]
    for br in range(g):
        for bc in range(g):
            vec = []
            for rr in range(p):
                for cc in range(p):
                    for ch in range(cfg.channels):
                        vec.append(float(image[br * p + rr, bc * p + cc, ch]))
            tokens.append(ref_matvec(vec, ew.weight, ew.bias))
    x = [
        [tokens[i][c] + float(ew.pos_embed[i, c]) for c in range(d)]
        for i in range(cfg.num_tokens)
    ]
    for b in range(cfg.depth):
        x, _ = ref_mhsa(x, attn_view(model, b), cfg.heads)
        deltas = ref_ffn_delta(x, ffn_view(model, b))
        x = [[x[i][c] + deltas[i][c] for c in range(d)] for i in range(len(x))]
    hw = head_view(model)
    final = ref_layer_norm(x[0], hw.ln_gain, hw.ln_bias)
    return np.array(ref_matvec(final, hw.weight, hw.bias))


def loop_mhsa(x, w: AttnWeights, heads):
    """Per-head loop with out-of-place adds; the batched kernel must equal it bitwise."""
    n, d = x.shape
    hd = d // heads
    scale = 1.0 / np.sqrt(hd)
    normed = textbook_layer_norm(x, w.ln_gain, w.ln_bias, EPS)
    q = normed @ w.wq + w.bq
    k = normed @ w.wk + w.bk
    v = normed @ w.wv + w.bv
    maps = np.empty((heads, n, n))
    attended = np.empty((n, d))
    for h in range(heads):
        sl = slice(h * hd, (h + 1) * hd)
        maps[h] = textbook_row_softmax((q[:, sl] @ k[:, sl].T) * scale)
        attended[:, sl] = maps[h] @ v[:, sl]
    return x + (attended @ w.wo + w.bo), maps.mean(axis=0), maps


def captured_mhsa(monkeypatch, x, w: AttnWeights, heads, lanes=SERIAL):
    """``mhsa``'s output and the per-head maps it built: each head group's
    maps, kept by a wrapper around ``vit._attend`` and put in head order
    by the group's first column (lane groups finish in any order; one
    group of every head has no columns slice)."""
    groups = {}
    real = vit._attend

    def capture(normed, weights, cols, *rest):
        start = 0 if cols is None else cols.start
        groups[start] = real(normed, weights, cols, *rest)
        return groups[start]

    with monkeypatch.context() as m:
        m.setattr(vit, "_attend", capture)
        out = mhsa(x, w, heads, lanes)
    return out, np.concatenate([groups[start] for start in sorted(groups)], axis=-3)


def make_ffn_weights(rng, d, hidden):
    scale = 1.0 / np.sqrt(d)
    return FfnWeights(
        ln_gain=np.ones(d),
        ln_bias=np.zeros(d),
        w1=rng.normal(size=(d, hidden)) * scale,
        b1=rng.normal(size=hidden) * scale,
        w2=rng.normal(size=(hidden, d)) * scale,
        b2=rng.normal(size=d) * scale,
    )


# ---------------------------------------------------------------------------


class TestModelConfig:
    def test_dim_heads_divisibility(self):
        with pytest.raises(ValueError):
            ModelConfig(dim=10, heads=4)

    def test_image_patch_divisibility(self):
        with pytest.raises(ValueError):
            ModelConfig(image=9, patch=4)

    def test_gamma_range(self):
        with pytest.raises(ValueError):
            ModelConfig(gamma=1.5)

    def test_alpha_positive(self):
        with pytest.raises(ValueError):
            ModelConfig(alpha=0.0)

    def test_stage_start_rounding(self):
        assert ModelConfig(depth=8, gamma=0.7).sata_start_block == 6
        assert ModelConfig(depth=8, gamma=1.0).sata_start_block == 8
        assert ModelConfig(depth=8, gamma=0.0).sata_start_block == 0

    def test_merges_from_the_start_block_when_enabled(self):
        cfg = ModelConfig(depth=8, gamma=0.7)
        assert [cfg.merges(i) for i in range(8)] == [False] * 6 + [True] * 2
        off = cfg.with_overrides(sata_enabled=False)
        assert not any(off.merges(i) for i in range(8))

    def test_dict_roundtrip(self):
        cfg = ModelConfig(depth=2, dim=8, heads=2, image=8, patch=4)
        assert ModelConfig.from_dict(cfg.to_dict()) == cfg

    def test_numpy_scalars_accepted(self):
        cfg = ModelConfig(depth=np.int64(2), dim=8, heads=2, image=8, patch=4,
                          ffn_ratio=2, alpha=np.float64(0.5), sata_enabled=np.bool_(True))
        assert cfg.hidden == 16

    @pytest.mark.parametrize("field,value", [("depth", "8"), ("heads", 2.0), ("image", True),
                                             ("alpha", "1"), ("gamma", True),
                                             ("alpha", math.inf), ("ffn_ratio", math.nan),
                                             ("sata_enabled", 0)])
    def test_bad_types_rejected_naming_field(self, field, value):
        with pytest.raises(ValueError, match=repr(field)):
            ModelConfig(**{field: value})

    def test_unknown_field_rejected(self):
        for key in ("deptth", "ARCHITECTURE_FIELDS"):  # a class constant is no field
            with pytest.raises(ValueError, match="unknown"):
                ModelConfig.from_dict({key: 3})

    def test_every_field_is_architecture_or_run(self):
        names = [f.name for f in dataclasses.fields(ModelConfig)]
        groups = ModelConfig.ARCHITECTURE_FIELDS + ModelConfig.RUN_FIELDS
        assert sorted(groups) == sorted(names)  # each field in exactly one group
        assert sorted(vit._INT_FIELDS + vit._FLOAT_FIELDS + vit._BOOL_FIELDS) == sorted(names)

    @pytest.mark.parametrize("cfg", [
        ModelConfig(),
        ModelConfig(depth=3, dim=24, heads=2, ffn_ratio=2.7, patch=2, image=6, num_classes=3,
                    channels=2),
        ModelConfig(depth=12, dim=192, heads=3, patch=16, image=224, channels=3),
    ])
    def test_num_weights_counts_the_schema(self, cfg):
        assert cfg.num_weights == sum(math.prod(shape) for _, shape in tensor_schema(cfg))

    @pytest.mark.parametrize("cfg", [  # the benchmark's ViT-S, 8x32 and ViT-Ti shapes
        ModelConfig(depth=12, dim=384, heads=6, patch=16, image=224, channels=3),
        ModelConfig(depth=8, dim=32, heads=4, patch=4, image=16, channels=1),
        ModelConfig(depth=12, dim=192, heads=3, patch=16, image=224, channels=3),
    ])
    def test_block_ffn_flops_is_the_full_ffn(self, cfg):
        assert cfg.block_ffn_flops == ffn_flops(cfg.num_tokens, cfg.dim, cfg.hidden)
        assert cfg.block_ffn_flops == vit.ffn_flops(cfg.num_tokens, cfg.dim, cfg.hidden)
        with pytest.raises(AttributeError):
            cfg.block_ffn_flops = 0  # derived from the fields, not a setting

    def test_weight_cap_is_inclusive(self):
        base = ModelConfig(num_classes=1)
        most = 1 + (MAX_WEIGHTS - base.num_weights) // (base.dim + 1)
        assert ModelConfig(num_classes=most).num_weights <= MAX_WEIGHTS
        with pytest.raises(ValueError, match="'num_classes' give more than"):
            ModelConfig(num_classes=most + 1)


class TestPatchEmbed:
    def _weights(self, cfg, fill=0.0):
        return EmbedWeights(
            weight=np.full((cfg.patch * cfg.patch * cfg.channels, cfg.dim), fill),
            bias=np.zeros(cfg.dim),
            class_token=np.zeros(cfg.dim),
            pos_embed=np.zeros((cfg.num_tokens, cfg.dim)),
        )

    def test_token_count(self):
        cfg = ModelConfig(image=8, patch=4, dim=6, heads=2)
        x = patch_embed(np.zeros((8, 8)), self._weights(cfg), cfg)
        assert x.shape == (5, 6)

    def test_zero_everything_except_class(self):
        cfg = ModelConfig(image=8, patch=4, dim=6, heads=2)
        w = self._weights(cfg)
        w = EmbedWeights(w.weight, w.bias, np.full(cfg.dim, 2.0), w.pos_embed)
        x = patch_embed(np.zeros((8, 8)), w, cfg)
        assert np.array_equal(x[0], np.full(cfg.dim, 2.0))
        assert np.array_equal(x[1:], np.zeros((4, cfg.dim)))

    def test_wrong_image_shape(self):
        cfg = ModelConfig(image=8, patch=4, dim=6, heads=2)
        with pytest.raises(ValueError, match="does not match config"):
            patch_embed(np.zeros((9, 9)), self._weights(cfg), cfg)

    def test_position_embedding_shape_mismatch(self):
        cfg = ModelConfig(image=8, patch=4, dim=6, heads=2)
        w = self._weights(cfg)
        bad = EmbedWeights(w.weight, w.bias, w.class_token,
                           np.zeros((cfg.num_tokens + 1, cfg.dim)))
        with pytest.raises(ValueError, match="position embedding"):
            patch_embed(np.zeros((8, 8)), bad, cfg)

    def test_matches_reference_extraction(self, small_model):
        cfg = small_model.config
        rng = np.random.default_rng(9)
        img = rng.uniform(size=(cfg.image, cfg.image, cfg.channels))
        x = patch_embed(img, embed_view(small_model), cfg)
        ew = embed_view(small_model)
        # token for patch (1, 0): rows 2..3, cols 0..1
        vec = img[2:4, 0:2, :].reshape(-1)
        want = vec @ ew.weight + ew.bias + ew.pos_embed[1 + cfg.grid]
        assert np.allclose(x[1 + cfg.grid], want, atol=1e-12)


class TestMhsa:
    def _rand_weights(self, rng, d, scale=1.0):
        return AttnWeights(
            ln_gain=np.ones(d),
            ln_bias=np.zeros(d),
            wq=rng.normal(size=(d, d)) * scale,
            bq=rng.normal(size=d),
            wk=rng.normal(size=(d, d)) * scale,
            bk=rng.normal(size=d),
            wv=rng.normal(size=(d, d)) * scale,
            bv=rng.normal(size=d),
            wo=rng.normal(size=(d, d)) * scale,
            bo=rng.normal(size=d),
        )

    def test_single_token_attention(self):
        rng = np.random.default_rng(1)
        w = self._rand_weights(rng, 4)
        out = mhsa(rng.normal(size=(1, 4)), w, heads=2)
        assert np.array_equal(out.mean_attention, [[1.0]])

    def test_zero_qk_gives_uniform_rows(self):
        rng = np.random.default_rng(2)
        w = self._rand_weights(rng, 4)
        w = AttnWeights(w.ln_gain, w.ln_bias, np.zeros((4, 4)), np.zeros(4),
                        np.zeros((4, 4)), np.zeros(4), w.wv, w.bv, w.wo, w.bo)
        out = mhsa(rng.normal(size=(5, 4)), w, heads=2)
        assert np.allclose(out.mean_attention, 1.0 / 5.0, atol=1e-12)

    def test_three_token_fixture_matches_reference(self):
        rng = np.random.default_rng(3)
        d = 4
        w = self._rand_weights(rng, d)
        x = rng.normal(size=(3, d))
        out = mhsa(x, w, heads=2)
        feats, mean_map = ref_mhsa(x.tolist(), w, heads=2)
        assert np.max(np.abs(out.features - feats)) < 1e-9
        assert np.max(np.abs(out.mean_attention - mean_map)) < 1e-9

    def test_rows_stochastic(self, monkeypatch):
        rng = np.random.default_rng(4)
        out, maps = captured_mhsa(monkeypatch, rng.normal(size=(7, 8)) * 3,
                                  self._rand_weights(rng, 8), heads=4)
        assert maps.shape == (4, 7, 7)
        assert np.max(np.abs(out.mean_attention.sum(axis=1) - 1.0)) < 1e-6
        assert np.max(np.abs(maps.sum(axis=2) - 1.0)) < 1e-6

    @pytest.mark.parametrize(
        "n,d,heads",
        [(1, 4, 2), (3, 4, 1), (9, 6, 2), (17, 12, 3), (33, 40, 4), (65, 192, 3), (197, 384, 6)],
    )
    def test_batched_heads_equal_per_head_loop_bitwise(self, monkeypatch, n, d, heads):
        rng = np.random.default_rng(n * d + heads)
        w = self._rand_weights(rng, d, scale=1.0 / math.sqrt(d))
        x = rng.normal(size=(n, d))
        out, maps = captured_mhsa(monkeypatch, x, w, heads)
        features, mean_attention, loop_maps = loop_mhsa(x, w, heads)
        assert np.array_equal(out.features, features)
        assert np.array_equal(out.mean_attention, mean_attention)
        assert np.array_equal(out.mean_attention, maps.mean(axis=0))
        assert np.array_equal(maps, loop_maps)

    def test_leaves_arguments_untouched(self):
        rng = np.random.default_rng(8)
        assert_untouched(lambda x, w: mhsa(x, w, 3), rng.normal(size=(10, 12)),
                         self._rand_weights(rng, 12))

    def test_weight_shape_mismatch(self):
        rng = np.random.default_rng(5)
        w = self._rand_weights(rng, 4)
        with pytest.raises(ValueError, match="wq"):
            AttnWeights(w.ln_gain, w.ln_bias, np.zeros((3, 4)), w.bq, w.wk, w.bk,
                        w.wv, w.bv, w.wo, w.bo)

    @pytest.mark.parametrize("name,shape", [("wo", (4, 3)), ("bk", (3,)), ("ln_bias", (5,))])
    def test_every_weight_shape_checked_at_construction(self, name, shape):
        w = self._rand_weights(np.random.default_rng(5), 4)
        with pytest.raises(ValueError, match=f"weight {name} has shape"):
            dataclasses.replace(w, **{name: np.zeros(shape)})

    def test_stream_width_checked_per_call(self):
        w = self._rand_weights(np.random.default_rng(5), 4)
        with pytest.raises(ValueError, match="stream width 6"):
            mhsa(np.zeros((2, 6)), w, heads=2)


class TestFfn:
    def test_zero_weights_zero_delta(self):
        w = FfnWeights(np.zeros(3), np.zeros(3), np.zeros((3, 6)), np.zeros(6),
                       np.zeros((6, 3)), np.zeros(3))
        out = ffn(np.ones((4, 3)), w)
        assert np.array_equal(out, np.zeros((4, 3)))

    def test_identity_fixture_hand_trace(self):
        # x = [1,-1] is already standardized; identity weights leave the
        # layer-normed row to GELU alone (values frozen from erf)
        w = FfnWeights(np.ones(2), np.zeros(2), np.eye(2), np.zeros(2),
                       np.eye(2), np.zeros(2))
        out = ffn([[1.0, -1.0]], w)
        assert np.allclose(out, [[0.8413442044112441, -0.15865529558913088]], atol=1e-9)

    def test_empty_token_tensor(self):
        w = FfnWeights(np.ones(3), np.zeros(3), np.zeros((3, 6)), np.zeros(6),
                       np.zeros((6, 3)), np.zeros(3))
        out = ffn(np.zeros((0, 3)), w)
        assert out.shape == (0, 3)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError, match="do not chain"):
            FfnWeights(np.ones(3), np.zeros(3), np.zeros((4, 6)), np.zeros(6),
                       np.zeros((6, 3)), np.zeros(3))

    @pytest.mark.parametrize("name,shape,message", [
        ("w2", (6, 4), "do not chain"), ("b1", (5,), "weight b1 has shape"),
        ("ln_bias", (2,), "weight ln_bias has shape"), ("b2", (3, 1), "weight b2 has shape")])
    def test_every_weight_shape_checked_at_construction(self, name, shape, message):
        w = make_ffn_weights(np.random.default_rng(5), 3, 6)
        with pytest.raises(ValueError, match=message):
            dataclasses.replace(w, **{name: np.zeros(shape)})

    def test_stream_width_checked_per_call(self):
        w = make_ffn_weights(np.random.default_rng(5), 3, 6)
        with pytest.raises(ValueError, match="stream width 4"):
            ffn(np.zeros((2, 4)), w)

    def test_matches_reference(self):
        rng = np.random.default_rng(6)
        w = FfnWeights(
            ln_gain=rng.normal(size=4) * 0.2 + 1.0,
            ln_bias=rng.normal(size=4) * 0.1,
            w1=rng.normal(size=(4, 8)),
            b1=rng.normal(size=8),
            w2=rng.normal(size=(8, 4)),
            b2=rng.normal(size=4),
        )
        x = rng.normal(size=(5, 4))
        assert np.max(np.abs(ffn(x, w) - ref_ffn_delta(x.tolist(), w))) < 1e-9

    @pytest.mark.parametrize("n,d,hidden", [(1, 4, 8), (7, 8, 32), (197, 384, 1536)])
    def test_equals_textbook_expression_bitwise(self, n, d, hidden):
        rng = np.random.default_rng(n + d)
        w = make_ffn_weights(rng, d, hidden)
        x = rng.normal(size=(n, d))
        normed = textbook_layer_norm(x, w.ln_gain, w.ln_bias, EPS)
        assert np.array_equal(ffn(x, w), textbook_gelu(normed @ w.w1 + w.b1) @ w.w2 + w.b2)

    def test_leaves_arguments_untouched(self):
        rng = np.random.default_rng(9)
        assert_untouched(ffn, rng.normal(size=(6, 8)), make_ffn_weights(rng, 8, 32))

    def test_peak_allocation_at_vit_s_shape(self):
        # one ffn call may hold at most 2.6 float64 (n, hidden) buffers at once
        n, d, hidden = 197, 384, 1536
        rng = np.random.default_rng(10)
        w = make_ffn_weights(rng, d, hidden)
        x = rng.normal(size=(n, d))
        ffn(x, w)
        tracemalloc.start()
        try:
            base, _ = tracemalloc.get_traced_memory()
            tracemalloc.reset_peak()
            ffn(x, w)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert (peak - base) / (n * hidden * 8) <= 2.6


class TestForward:
    @pytest.mark.parametrize("name,value", [("head.weight", math.nan), ("head.bias", math.inf),
                                            ("final_norm.gain", math.nan)])
    def test_non_finite_head_raises(self, small_model, name, value):
        params = dict(small_model.params)
        params[name] = params[name].copy()
        params[name].flat[0] = value
        broken = Model(config=small_model.config, params=params)
        img = random_image(small_model.config, 0)
        with pytest.raises(FloatingPointError, match="^head: "):
            forward(img, broken)

    def test_gamma_one_is_bitwise_vanilla(self, small_model):
        cfg = small_model.config
        img = np.linspace(0, 1, cfg.image * cfg.image).reshape(cfg.image, cfg.image)
        on, _ = forward(img, small_model, cfg=cfg.with_overrides(gamma=1.0))
        off, _ = forward(img, small_model, cfg=cfg.with_overrides(sata_enabled=False))
        assert np.array_equal(on, off)

    def test_deterministic(self, small_model):
        cfg = small_model.config
        rng = np.random.default_rng(13)
        img = rng.uniform(size=(cfg.image, cfg.image, 1))
        a, _ = forward(img, small_model)
        b, _ = forward(img, small_model)
        assert np.array_equal(a, b)

    @pytest.mark.parametrize("gamma", [0.0, 0.5, 1.0])
    def test_split_at_any_block_is_bitwise_forward(self, small_model, gamma):
        cfg = small_model.config.with_overrides(gamma=gamma)
        img = np.linspace(0, 1, cfg.image * cfg.image).reshape(cfg.image, cfg.image)
        want_logits, want_traces = forward(img, small_model, cfg=cfg, trace_scores=True)
        for split in range(cfg.depth + 1):
            x, head_traces = run_blocks(embed(img, small_model), small_model, cfg, 0, split,
                                        trace_scores=True)
            x, tail_traces = run_blocks(x, small_model, cfg, split, cfg.depth,
                                        trace_scores=True)
            assert np.array_equal(classify(x, small_model), want_logits)
            traces = head_traces + tail_traces
            assert [t.block_index for t in traces] == list(range(cfg.depth))
            for got, want in zip(traces, want_traces):
                assert np.array_equal(got.scores.s, want.scores.s)
                assert got.ffn_flops == want.ffn_flops

    @pytest.mark.parametrize("field, value", [(f, ARCHITECTURE_MISMATCH[f])
                                              for f in ModelConfig.ARCHITECTURE_FIELDS])
    def test_architecture_mismatch_rejected(self, small_model, field, value):
        cfg = small_model.config
        img = np.linspace(0, 1, cfg.image * cfg.image).reshape(cfg.image, cfg.image)
        x = embed(img, small_model)
        wrong = cfg.with_overrides(**{field: value})
        for stop in (0, cfg.depth):
            with pytest.raises(ValueError, match=f"weights in {field}$"):
                run_blocks(x, small_model, wrong, 0, stop)
        with pytest.raises(ValueError, match=f"weights in {field}$"):
            forward(img, small_model, wrong)

    @pytest.mark.parametrize("overrides", [{"alpha": 0.25}, {"gamma": 0.0},
                                           {"sata_enabled": False}])
    def test_run_time_overrides_accepted(self, small_model, overrides):
        cfg = small_model.config
        img = np.linspace(0, 1, cfg.image * cfg.image).reshape(cfg.image, cfg.image)
        logits, traces = forward(img, small_model, cfg.with_overrides(**overrides))
        assert logits.shape == (cfg.num_classes,) and len(traces) == cfg.depth

    def test_stage_and_blocks_leave_arguments_untouched(self, small_model):
        cfg = small_model.config.with_overrides(gamma=0.0)
        img = np.linspace(0, 1, cfg.image * cfg.image).reshape(cfg.image, cfg.image)
        x = embed(img, small_model)
        attn = mhsa(x, attn_view(small_model, 0), cfg.heads)
        for stage in (True, False):
            run_cfg = cfg.with_overrides(sata_enabled=stage)
            assert_untouched(lambda a, w: sata_stage(a, run_cfg, w, 0),
                             attn, ffn_view(small_model, 0))
            assert_untouched(lambda s: run_blocks(s, small_model, run_cfg, 0, cfg.depth), x)

    @pytest.mark.parametrize("overrides", [{"sata_enabled": False}, {"gamma": 0.7}],
                             ids=["stage-off", "gamma-0.7"])
    def test_inactive_block_traces_match_straight_line_reference(self, small_model,
                                                                 overrides):
        cfg = small_model.config.with_overrides(**overrides)
        img = np.linspace(0, 1, cfg.image * cfg.image).reshape(cfg.image, cfg.image)
        _, traces = forward(img, small_model, cfg=cfg, trace_scores=True)
        assert len(traces) == cfg.depth
        assert cfg.sata_start_block >= cfg.depth or not cfg.sata_enabled
        x = stream = embed(img, small_model)
        n, d = x.shape
        for i, tr in enumerate(traces):
            attn = mhsa(x, attn_view(small_model, i), cfg.heads)
            xa = attn.features
            scores = spatial_scores(xa[1:], attn.mean_attention[1:, 1:])
            split = split_tokens(scores, cfg.alpha)
            x = xa + ffn(xa, ffn_view(small_model, i))
            stream, _ = run_blocks(stream, small_model, cfg, i, i + 1)
            assert np.array_equal(stream, x)
            assert tr.block_index == i
            assert (tr.n_a, tr.n_b, tr.n_groups, tr.n_residual) == (0, n - 1, 0, 0)
            assert tr.ffn_tokens == n
            assert tr.ffn_flops == ffn_flops(n, d, cfg.hidden)
            assert np.array_equal(tr.scores.s, scores.s)
            assert tr.bounds == (split.lower, split.upper)
            assert tr.scores.mean_s == scores.mean_s
            assert tr.scores.abs_median_s == scores.abs_median_s
            assert tr.residual_indices.dtype == np.int64 and tr.residual_indices.size == 0
            assert np.array_equal(tr.cls_attention, attn.mean_attention[0, 1:])

    def test_block_range_checked(self, small_model):
        cfg = small_model.config
        x = np.zeros((cfg.num_tokens, cfg.dim))
        for first, stop in ((-1, 1), (2, 1), (0, cfg.depth + 1)):
            with pytest.raises(ValueError, match="block range"):
                run_blocks(x, small_model, cfg, first, stop)

    def test_two_block_fixture_matches_naive_reference(self):
        cfg = ModelConfig(depth=2, dim=8, heads=2, patch=2, image=4, num_classes=3,
                          sata_enabled=False)
        model = random_init(cfg, seed=99)
        rng = np.random.default_rng(14)
        img = rng.uniform(size=(4, 4, 1))
        got, traces = forward(img, model)
        want = ref_forward(img, model)
        assert np.max(np.abs(got - want)) < 1e-8
        assert len(traces) == 2

    def test_token_count_into_head_constant(self, small_model):
        cfg = small_model.config
        x = embed(np.zeros((cfg.image, cfg.image)), small_model)
        for i in range(cfg.depth):
            x, _ = run_blocks(x, small_model, cfg, i, i + 1)
            assert x.shape == (cfg.num_tokens, cfg.dim)

    def test_attention_rows_stochastic_every_block(self, small_model):
        cfg = small_model.config
        img = np.linspace(0, 1, cfg.image * cfg.image).reshape(cfg.image, cfg.image)
        x = patch_embed(img[:, :, None], embed_view(small_model), cfg)
        for b in range(cfg.depth):
            out = mhsa(x, attn_view(small_model, b), cfg.heads)
            assert np.max(np.abs(out.mean_attention.sum(axis=1) - 1.0)) < 1e-6
            x = out.features + ffn(out.features, ffn_view(small_model, b))


class TestTraceScores:
    """A forward without ``trace_scores`` drops the score fields and nothing else."""

    SHAPES = {
        "8x32": dict(depth=8, dim=32, heads=4, patch=4, image=16),
        "vit-ti-width": dict(depth=12, dim=192, heads=3, patch=16, image=112),
    }
    RUNS = {
        "stage-off": dict(sata_enabled=False),
        "gamma-0": dict(gamma=0.0),
        "gamma-0.7": dict(gamma=0.7),
        "gamma-1": dict(gamma=1.0),
    }
    KEPT = ("n_a", "n_b", "n_groups", "n_residual", "ffn_tokens", "ffn_flops")
    SCORED = ("scores", "bounds", "cls_attention")

    @staticmethod
    def _model(shape):
        cfg = ModelConfig(num_classes=10, **TestTraceScores.SHAPES[shape])
        return random_init(cfg, seed=7), random_image(cfg, seed=3)

    @pytest.mark.parametrize("shape", ["8x32", "vit-ti-width"])
    def test_logits_and_kept_fields_agree(self, shape):
        model, img = self._model(shape)
        for run in self.RUNS.values():
            cfg = model.config.with_overrides(**run)
            want_logits, want = forward(img, model, cfg=cfg, trace_scores=True)
            got_logits, got = forward(img, model, cfg=cfg)
            assert np.array_equal(got_logits, want_logits)
            assert len(got) == len(want) == cfg.depth
            for g, w in zip(got, want):
                assert [getattr(g, f) for f in self.KEPT] == [getattr(w, f) for f in self.KEPT]
                assert g.residual_indices.dtype == w.residual_indices.dtype
                assert np.array_equal(g.residual_indices, w.residual_indices)
                assert all(getattr(g, f) is None for f in self.SCORED)
                assert all(getattr(w, f) is not None for f in self.SCORED)

    def test_scoring_runs_only_where_the_stage_merges(self, monkeypatch):
        model, img = self._model("8x32")
        cfg = model.config.with_overrides(gamma=0.7)
        calls = []
        real = sata.spatial_scores
        monkeypatch.setattr(sata, "spatial_scores", lambda *a: calls.append(1) or real(*a))

        def count(run_cfg, **kw):
            calls.clear()
            forward(img, model, cfg=run_cfg, **kw)
            return len(calls)

        assert count(cfg.with_overrides(sata_enabled=False)) == 0
        assert cfg.depth - cfg.sata_start_block == 2
        assert count(cfg) == 2
        assert count(cfg, trace_scores=True) == cfg.depth

    @pytest.mark.parametrize("run", ["stage-off", "gamma-0.7"])
    def test_cls_attention_owns_its_memory(self, run):
        # a view of the (n, n) mean map would keep the whole map alive per trace
        model, img = self._model("8x32")
        n = model.config.num_tokens
        _, traces = forward(img, model, cfg=model.config.with_overrides(**self.RUNS[run]),
                            trace_scores=True)
        for trace in traces:
            row = trace.cls_attention
            assert row.shape == (n - 1,)
            # the memory behind the row holds the one image's row, not its map
            owner = row if row.base is None else row.base
            assert owner.size == n - 1, trace.block_index
