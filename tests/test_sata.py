import math
import operator

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from satavit.harness import _naive_spatial_scores as naive_scores
from satavit.moran import SpatialScores, spatial_scores
from satavit.sata import bipartite_match, ffn_flops, sata_stage, split_tokens
from satavit.tensorops import row_softmax
from satavit.vit import AttentionOutput, ModelConfig, ffn

from conftest import random_attention_maps
from test_vit import make_ffn_weights, ref_ffn_delta


def make_attention(rng, heads, features):
    maps = random_attention_maps(rng, heads, features.shape[0])
    return AttentionOutput(features=features, mean_attention=maps.mean(axis=0))


def naive_stage(x, mean_attention, cfg, fw):
    """Straight-line reference of the whole stage: loops only.

    Independent of the vectorized path: scores via the loop oracle,
    median/band by explicit order statistics, matching by pairwise
    cosine loops, FFN deltas via the loop reference.
    """
    x = np.asarray(x, dtype=float)
    n = x.shape[0] - 1
    feats = x[1:]
    s, _ = naive_scores(feats, np.asarray(mean_attention)[1:, 1:])
    vals = sorted(s.tolist())
    mid = len(vals) // 2
    med = vals[mid] if len(vals) % 2 else (vals[mid - 1] + vals[mid]) / 2.0
    mean_s = sum(s) / len(s)
    lower = cfg.alpha * (mean_s - abs(med))
    upper = cfg.alpha * (mean_s + abs(med))
    set_b = [i for i in range(n) if lower <= s[i] <= upper]
    set_a = [i for i in range(n) if not lower <= s[i] <= upper]

    def cos(u, v):
        nu = math.sqrt(sum(t * t for t in u))
        nv = math.sqrt(sum(t * t for t in v))
        if nu == 0.0 and nv == 0.0:
            return 1.0
        if nu == 0.0 or nv == 0.0:
            return 0.0
        return sum(a * b for a, b in zip(u, v)) / (nu * nv)

    groups, residuals = [], []
    if len(set_a) <= 1:
        residuals = list(set_a)
    else:
        a1, a2 = set_a[0::2], set_a[1::2]
        sources_of = {t: [] for t in a2}
        for src in a1:
            sims = [cos(feats[src], feats[t]) for t in a2]
            best = max(range(len(a2)), key=lambda j: (sims[j], -j))
            sources_of[a2[best]].append(src)
        for tgt in a2:
            if sources_of[tgt]:
                groups.append(sorted([tgt] + sources_of[tgt]))
            else:
                residuals.append(tgt)

    reps = [feats[g].mean(axis=0) for g in groups]
    ffn_in = [x[0]] + [feats[i] for i in set_b] + reps
    deltas = ref_ffn_delta([row.tolist() for row in ffn_in], fw)
    out = x.copy()
    out[0] = x[0] + deltas[0]
    for pos, i in enumerate(set_b):
        out[1 + i] = x[1 + i] + np.array(deltas[1 + pos])
    for gi, g in enumerate(groups):
        for member in g:
            out[1 + member] = x[1 + member] + np.array(deltas[1 + len(set_b) + gi])
    return out, set_a, set_b, groups, residuals


class TestNaiveStageOracle:
    def test_full_stage_matches_loop_reference(self):
        rng = np.random.default_rng(777)
        cfg = ModelConfig(depth=1, dim=8, heads=2, patch=2, image=8, gamma=0.0, alpha=1.0)
        n = cfg.num_tokens
        for _ in range(20):
            x = rng.normal(size=(n, cfg.dim))
            attn = make_attention(rng, cfg.heads, x)
            fw = make_ffn_weights(rng, cfg.dim, cfg.hidden)
            got, trace = sata_stage(attn, cfg, fw, 0)
            want, set_a, set_b, groups, residuals = naive_stage(
                x, attn.mean_attention, cfg, fw)
            assert trace.n_a == len(set_a)
            assert trace.n_b == len(set_b)
            assert trace.n_groups == len(groups)
            assert trace.residual_indices.tolist() == residuals
            assert np.max(np.abs(got - want)) < 1e-9

    def test_full_stage_matches_under_alpha_variants(self):
        rng = np.random.default_rng(778)
        n_tokens = ModelConfig(depth=1, dim=8, heads=2, patch=2, image=8).num_tokens
        for alpha in (0.25, 0.5, 2.0):
            cfg = ModelConfig(depth=1, dim=8, heads=2, patch=2, image=8, gamma=0.0, alpha=alpha)
            x = rng.normal(size=(n_tokens, cfg.dim))
            attn = make_attention(rng, cfg.heads, x)
            fw = make_ffn_weights(rng, cfg.dim, cfg.hidden)
            got, _ = sata_stage(attn, cfg, fw, 0)
            want, *_ = naive_stage(x, attn.mean_attention, cfg, fw)
            assert np.max(np.abs(got - want)) < 1e-9


def loop_match(set_a, feats):
    """Per-group matching as the stage computed it with one object per group.

    Returns (edges, groups, representatives, residuals); groups are
    ascending member arrays in a2 order, each with its row mean.
    """
    set_a = np.asarray(set_a, dtype=np.int64)
    if set_a.size <= 1:
        return {}, [], [], set_a.tolist()
    a1, a2 = set_a[0::2], set_a[1::2]
    f1, f2 = feats[a1], feats[a2]

    def unit(f):
        norms = np.linalg.norm(f, axis=1, keepdims=True)
        return np.divide(f, norms, out=np.zeros_like(f), where=norms > 0)

    sim = unit(f1) @ unit(f2).T
    zero1 = np.all(f1 == 0.0, axis=1)
    zero2 = np.all(f2 == 0.0, axis=1)
    if zero1.any() and zero2.any():
        sim[np.ix_(zero1, zero2)] = 1.0
    choice = np.argmax(sim, axis=1)
    edges = {int(src): int(a2[j]) for src, j in zip(a1, choice)}
    sources_of = {}
    for src, tgt in edges.items():
        sources_of.setdefault(tgt, []).append(src)
    groups, reps, residuals = [], [], []
    for tgt in a2.tolist():
        if tgt in sources_of:
            members = np.sort(np.array([tgt] + sources_of[tgt], dtype=np.int64))
            groups.append(members)
            reps.append(feats[members].mean(axis=0))
        else:
            residuals.append(tgt)
    return edges, groups, reps, residuals


def loop_stage(x, attn, cfg, fw):
    """The stage with a per-group gather and restore loop; returns (out, trace fields)."""
    x = np.asarray(x, dtype=float)
    n_all, d = x.shape
    patches = x[1:]
    scores = spatial_scores(patches, attn.mean_attention[1:, 1:])
    split = split_tokens(scores, cfg.alpha)
    _, groups, reps, residuals = loop_match(split.set_a, patches)
    reps = np.stack(reps) if reps else np.zeros((0, d))
    ffn_in = np.concatenate([x[:1], patches[split.set_b], reps], axis=0)
    deltas = ffn(ffn_in, fw)
    out = x.copy()
    out[0] += deltas[0]
    out[1 + split.set_b] += deltas[1 : 1 + split.set_b.size]
    offset = 1 + split.set_b.size
    for gi, members in enumerate(groups):
        out[1 + members] += deltas[offset + gi]
    fields = dict(
        n_a=split.set_a.size, n_b=split.set_b.size, n_groups=len(groups),
        n_residual=len(residuals), ffn_tokens=ffn_in.shape[0],
        bounds=(split.lower, split.upper), ffn_flops=ffn_flops(ffn_in.shape[0], d, fw.w1.shape[1]),
        residual_indices=np.array(residuals, dtype=np.int64),
        cls_attention=attn.mean_attention[0, 1:],
    )
    fields.update({"scores.s": scores.s, "scores.mean_s": scores.mean_s,
                   "scores.abs_median_s": scores.abs_median_s})
    return out, fields


def alpha_leaving_one_out(x, attn):
    """An alpha whose band holds every patch token but the most extreme one."""
    scores = spatial_scores(x[1:], attn.mean_attention[1:, 1:])
    m, med = scores.mean_s, scores.abs_median_s
    # token i is in band iff alpha >= need[i]
    need = np.where(scores.s > 0, scores.s / (m + med), scores.s / (m - med))
    top, second = np.sort(need)[::-1][:2]
    return float(np.sqrt(top * second))


class TestLoopReferenceBitwise:
    """The array merge plan against the per-group loop, bit for bit."""

    SHAPES = {
        "8x32": dict(depth=8, dim=32, heads=4, patch=4, image=16),
        "vit-ti": dict(depth=12, dim=192, heads=3, patch=16, image=224),
    }

    @staticmethod
    def _features(rng, kind, n, d):
        x = rng.normal(size=(n, d))
        if kind == "ties":
            # patches are power-of-two multiples of one row: their unit rows
            # agree up to sign, so the cosine similarities tie exactly at +-1
            scale = rng.choice([-4.0, -0.5, 0.25, 1.0, 2.0, 8.0], size=(n - 1, 1))
            x[1:] = scale * rng.normal(size=d)
        elif kind == "zero-rows":
            x[1 + rng.permutation(n - 1)[: (n - 1) // 3]] = 0.0
        return x

    @pytest.mark.parametrize("shape", ["8x32", "vit-ti"])
    @pytest.mark.parametrize("kind", ["normal", "ties", "zero-rows"])
    def test_stage_output_and_trace(self, shape, kind):
        rng = np.random.default_rng(501)
        base = ModelConfig(**self.SHAPES[shape])
        n, d = base.num_tokens, base.dim
        fw = make_ffn_weights(rng, d, base.hidden)
        seen_n_a = set()
        for variant in (dict(), dict(alpha=0.3), dict(alpha=2.0), dict(alpha=1e9), "one-out"):
            x = self._features(rng, kind, n, d)
            attn = make_attention(rng, base.heads, x)
            if variant == "one-out":
                variant = dict(alpha=alpha_leaving_one_out(x, attn))
            cfg = base.with_overrides(**variant)
            got, trace = sata_stage(attn, cfg, fw, cfg.depth - 1, trace_scores=True)
            want, fields = loop_stage(x, attn, cfg, fw)
            assert np.array_equal(got, want)
            for name, value in fields.items():
                assert np.array_equal(operator.attrgetter(name)(trace), value), name
            seen_n_a.add(trace.n_a)
        assert {0, 1} <= seen_n_a

    def test_plans_on_crafted_sets(self):
        rng = np.random.default_rng(502)
        zero = np.zeros((8, 3))
        zero[[3, 6]] = rng.normal(size=(2, 3))
        tied = np.outer(rng.normal(size=8), rng.normal(size=3))
        cases = [
            (rng.normal(size=(8, 3)), [0, 2, 3, 5, 6, 7]),
            (tied, list(range(8))),
            (np.ones((8, 3)), [1, 2, 4, 5, 7]),
            (zero, list(range(8))),
            (rng.normal(size=(8, 3)), [6]),
            (rng.normal(size=(8, 3)), []),
        ]
        for feats, set_a in cases:
            plan = bipartite_match(set_a, feats)
            edges, groups, reps, residuals = loop_match(set_a, feats)
            assert plan.edges == edges
            assert plan.members.tolist() == [int(i) for g in groups for i in g]
            assert plan.group_sizes.tolist() == [g.size for g in groups]
            want = np.stack(reps) if reps else np.zeros((0, 3))
            assert np.array_equal(plan.representatives, want)
            assert plan.residuals.tolist() == residuals


class TestSplitTokens:
    def test_hand_band(self):
        # mean 0, |median| = 0.1 -> band [-0.1, 0.1] keeps only index 2
        s = SpatialScores.from_values([-1.5, -0.2, 0.1, 0.3, 1.3])
        res = split_tokens(s, alpha=1.0)
        assert res.set_b.tolist() == [2]
        assert res.set_a.tolist() == [0, 1, 3, 4]
        assert res.lower == pytest.approx(-0.1, abs=1e-15)
        assert res.upper == pytest.approx(0.1, abs=1e-15)

    def test_degenerate_zero_scores(self):
        res = split_tokens(SpatialScores.from_values(np.zeros(6)), alpha=1.0)
        assert res.set_b.tolist() == [0, 1, 2, 3, 4, 5]
        assert res.set_a.size == 0
        assert res.lower == res.upper == 0.0

    def test_band_covering_alpha(self):
        s = SpatialScores.from_values([-1.5, -0.2, 0.1, 0.3, 1.3])
        res = split_tokens(s, alpha=1e9)
        assert res.set_a.size == 0

    def test_alpha_must_be_positive(self):
        with pytest.raises(ValueError):
            split_tokens(SpatialScores.from_values([1.0]), alpha=0.0)

    def test_closed_band_includes_bounds(self):
        s = SpatialScores.from_values([-1.0, 0.0, 1.0])  # mean 0, |median| 0
        res = split_tokens(s, alpha=2.0)
        assert res.set_b.tolist() == [1]  # 0.0 sits exactly on both bounds

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.floats(-10, 10), min_size=1, max_size=40), st.floats(0.01, 5))
    def test_partition_property(self, values, alpha):
        s = SpatialScores.from_values(values)
        res = split_tokens(s, alpha)
        merged = np.sort(np.concatenate([res.set_a, res.set_b]))
        assert np.array_equal(merged, np.arange(len(values)))
        inside = (s.s >= res.lower) & (s.s <= res.upper)
        assert np.all(inside[res.set_b])
        assert not np.any(inside[res.set_a])


def split_bits(split):
    return split.inside.tobytes(), np.float64(split.lower).tobytes(), \
        np.float64(split.upper).tobytes(), split.set_a.tobytes(), split.set_b.tobytes()


class TestStackedSplit:
    """``split_tokens`` on a list of scores against each image's call and a
    textbook band, bit for bit."""

    @pytest.mark.parametrize("n", [1, 2, 15, 16, 196])
    @pytest.mark.parametrize("alpha", [0.3, 1.0, 2.5])
    def test_each_image_is_its_own_call(self, n, alpha):
        rng = np.random.default_rng(n)
        maps = rng.random(size=(6, n + 1, n + 1))
        x = rng.normal(size=(6, n, 8))
        x[0] = -0.3  # constant attribute: zero scores, every token in band
        scores = spatial_scores(x, maps[:, 1:, 1:])
        got = split_tokens(scores, alpha)
        assert isinstance(got, list) and len(got) == len(scores)
        for sc, split in zip(scores, got):
            assert split_bits(split) == split_bits(split_tokens(sc, alpha))
            lower = alpha * (sc.mean_s - sc.abs_median_s)
            upper = alpha * (sc.mean_s + sc.abs_median_s)
            inside = (sc.s >= lower) & (sc.s <= upper)
            assert (split.lower, split.upper) == (lower, upper)
            assert split.set_b.tolist() == np.flatnonzero(inside).tolist()
            assert split.set_a.tolist() == np.flatnonzero(~inside).tolist()
        assert got[0].set_a.size == 0

    def test_scores_on_the_bounds_are_in_band(self):
        # mean 3, |median| 3: band [0, 6]; mean 0, |median| 0: band [0, 0]
        scores = [SpatialScores.from_values(v) for v in ([0.0, 2.0, 4.0, 6.0],
                                                         [-3.0, 0.0, 0.0, 3.0])]
        got = split_tokens(scores, 1.0)
        assert [(sp.lower, sp.upper) for sp in got] == [(0.0, 6.0), (0.0, 0.0)]
        assert [sp.set_b.tolist() for sp in got] == [[0, 1, 2, 3], [1, 2]]
        assert [sp.set_a.tolist() for sp in got] == [[], [0, 3]]
        for sc, split in zip(scores, got):
            assert split_bits(split) == split_bits(split_tokens(sc, 1.0))

    def test_alpha_must_be_positive_for_a_stack(self):
        with pytest.raises(ValueError, match="alpha"):
            split_tokens([SpatialScores.from_values([1.0])], alpha=-1.0)


class TestBipartiteMatch:
    def test_hand_fixture_shared_target(self):
        feats = np.zeros((8, 2))
        feats[0] = [1.0, 0.01]
        feats[2] = [1.0, 0.0]   # target both sources prefer
        feats[5] = [1.0, -0.01]
        feats[7] = [0.0, 1.0]   # never chosen -> residual
        plan = bipartite_match([0, 2, 5, 7], feats)
        assert set(plan.edges) == {0, 5}  # sources: the even positions
        assert set(plan.edges.values()) | set(plan.residuals.tolist()) == {2, 7}  # targets
        assert plan.edges == {0: 2, 5: 2}
        assert plan.members.tolist() == [0, 2, 5]
        assert plan.group_sizes.tolist() == [3]
        want = feats[[0, 2, 5]].mean(axis=0)
        assert np.array_equal(plan.representatives, want[None])
        assert plan.residuals.tolist() == [7]

    def test_an_underflowing_norm_is_no_zero_row(self):
        feats = np.zeros((4, 3))
        feats[0] = 1e-170  # source whose norm underflows to 0
        feats[1] = [1.0, 2.0, 3.0]
        feats[2] = [1.0, 0.0, 0.0]  # feats[3], a target, is the exact zero row
        assert np.linalg.norm(feats[0]) == 0.0
        plan = bipartite_match([0, 1, 2, 3], feats)
        # all-zero similarities: the first target, not the zero row's 1.0
        assert plan.edges == {0: 1, 2: 1} == loop_match([0, 1, 2, 3], feats)[0]
        feats[0] = 0.0
        assert bipartite_match([0, 1, 2, 3], feats).edges == {0: 3, 2: 1}

    def test_empty_set(self):
        plan = bipartite_match([], np.zeros((4, 3)))
        assert plan.edges == {} and plan.residuals.size == 0
        assert plan.members.size == 0 and plan.group_sizes.size == 0
        assert plan.representatives.shape == (0, 3)

    def test_singleton_becomes_residual(self):
        plan = bipartite_match([4], np.ones((6, 3)))
        assert plan.edges == {}  # no source
        assert plan.residuals.tolist() == [4]  # the one target
        assert plan.members.size == 0 and plan.group_sizes.size == 0
        assert plan.representatives.shape == (0, 3)

    def test_tie_breaks_to_lowest_index(self):
        feats = np.ones((6, 3))  # every similarity identical
        plan = bipartite_match([0, 1, 2, 3, 4, 5], feats)
        # sources 0, 2, 4 all tie across targets 1, 3, 5 -> all pick 1
        assert plan.edges == {0: 1, 2: 1, 4: 1}
        assert plan.residuals.tolist() == [3, 5]

    def test_zero_rows_count_as_identical(self):
        feats = np.zeros((4, 3))
        feats[1] = [0.0, 0.0, 0.0]
        feats[3] = [1.0, 0.0, 0.0]
        plan = bipartite_match([0, 1, 2, 3], feats)
        # zero source 0 vs zero target 1 has similarity 1 > similarity 0 vs token 3
        assert plan.edges[0] == 1

    def test_cosine_ignores_magnitude(self):
        feats = np.zeros((4, 2))
        feats[0] = [1.0, 0.0]
        feats[1] = [2.0, 0.0]   # same direction, smaller dot than 3
        feats[2] = [1.5, 0.0]
        feats[3] = [30.0, 0.0]
        plan = bipartite_match([0, 1, 2, 3], feats)
        assert plan.edges == {0: 1, 2: 1}  # cosine ties -> lowest index

    def test_invariants_on_random_sets(self):
        rng = np.random.default_rng(31)
        for _ in range(100):
            n = int(rng.integers(2, 24))
            feats = rng.normal(size=(n, 5))
            size = int(rng.integers(0, n + 1))
            set_a = np.sort(rng.permutation(n)[:size])
            plan = bipartite_match(set_a, feats)
            if set_a.size > 1:
                assert set(plan.edges) == set(set_a[0::2].tolist())
                targets = set(plan.edges.values()) | set(plan.residuals.tolist())
                assert targets == set(set_a[1::2].tolist())
            else:
                assert plan.edges == {} and plan.residuals.tolist() == set_a.tolist()
            groups = np.split(plan.members, np.cumsum(plan.group_sizes)[:-1])
            for rep, members in zip(plan.representatives, groups):
                assert np.max(np.abs(rep - feats[members].mean(axis=0))) < 1e-12
            covered = plan.residuals.tolist() + plan.members.tolist()
            assert sorted(covered) == sorted(set_a.tolist())

    def test_representatives_are_the_mean_bitwise(self):
        # groups of 2 to 8 members, and a column that is -0.0 in every member:
        # numpy's mean gives +0.0 there, so a sum must start from +0.0, not
        # from a copy of the first member
        rng = np.random.default_rng(33)
        for _ in range(40):
            n = int(rng.integers(2, 60))
            feats = rng.normal(size=(n, 6)) + rng.normal(size=6) * rng.uniform(0, 8)
            feats[:, 2] = -0.0
            set_a = np.sort(rng.permutation(n)[:int(rng.integers(2, n + 1))])
            plan = bipartite_match(set_a, feats)
            groups = np.split(plan.members, np.cumsum(plan.group_sizes)[:-1])
            want = np.array([feats[members].mean(axis=0) for members in groups])
            assert plan.representatives.tobytes() == want.tobytes()

    def test_representatives_of_a_large_group_are_the_mean_bitwise(self):
        # every source points near token 1, so one group gathers 16 members
        rng = np.random.default_rng(34)
        feats = rng.normal(size=(32, 6))
        feats[0::2] = feats[1] + 0.01 * rng.normal(size=(16, 6))
        feats[:, 4] = -0.0
        plan = bipartite_match(np.arange(32), feats)
        assert plan.group_sizes.max() >= 10
        groups = np.split(plan.members, np.cumsum(plan.group_sizes)[:-1])
        want = np.array([feats[members].mean(axis=0) for members in groups])
        assert plan.representatives.tobytes() == want.tobytes()

    def test_deterministic(self):
        rng = np.random.default_rng(32)
        feats = rng.normal(size=(12, 4))
        set_a = [1, 3, 4, 7, 8, 10, 11]
        p1 = bipartite_match(set_a, feats)
        p2 = bipartite_match(set_a, feats)
        assert p1.edges == p2.edges
        assert p1.residuals.tolist() == p2.residuals.tolist()
        assert p1.members.tolist() == p2.members.tolist()
        assert p1.group_sizes.tolist() == p2.group_sizes.tolist()


class TestFfnFlops:
    def test_formula_instantiation(self):
        assert ffn_flops(3, 4, 16) == 768

    def test_zero_tokens(self):
        assert ffn_flops(0, 4, 16) == 0

    def test_reduction_bookkeeping(self):
        # |A| = 4 merged into 2 groups, no residuals: load drops by 2 tokens
        n_all, d, hidden = 10, 8, 32
        reduced = ffn_flops(n_all - 2, d, hidden)
        assert reduced / ffn_flops(n_all, d, hidden) == (n_all - 2) / n_all

    def test_invalid_dims(self):
        with pytest.raises(ValueError):
            ffn_flops(3, 0, 16)
        with pytest.raises(ValueError):
            ffn_flops(-1, 4, 16)


class TestSataStage:
    def _cfg(self, **kw):
        base = dict(depth=1, dim=4, heads=1, patch=2, image=4, num_classes=2, gamma=0.0)
        base.update(kw)
        return ModelConfig(**base)

    def test_empty_out_of_band_equals_vanilla(self):
        rng = np.random.default_rng(41)
        cfg = self._cfg(alpha=1e9)
        n = cfg.num_tokens
        x = rng.normal(size=(n, cfg.dim))
        attn = make_attention(rng, cfg.heads, x)
        fw = make_ffn_weights(rng, cfg.dim, cfg.hidden)
        out, trace = sata_stage(attn, cfg, fw, 0)
        assert trace.n_a == 0
        vanilla = x + ffn(x, fw)
        assert np.max(np.abs(out - vanilla)) < 1e-12

    def test_constant_tokens_degenerate_chain(self):
        rng = np.random.default_rng(42)
        cfg = self._cfg(alpha=1.0)
        n = cfg.num_tokens
        x = np.tile(np.array([0.3, -0.1, 0.7, 0.2]), (n, 1))
        attn = make_attention(rng, cfg.heads, x)
        fw = make_ffn_weights(rng, cfg.dim, cfg.hidden)
        out, trace = sata_stage(attn, cfg, fw, 0)
        assert trace.n_a == 0 and trace.ffn_tokens == n
        assert np.max(np.abs(out - (x + ffn(x, fw)))) < 1e-12

    def test_forced_band_residual_rows_bitwise(self):
        rng = np.random.default_rng(42)
        x = np.array([
            [0.5, 0.5, 0.5, 0.5],     # class
            [1.0, 0.0, 0.0, 0.0],
            [2.0, 0.1, 0.0, 0.0],
            [1.5, -0.05, 0.0, 0.0],
            [0.0, 0.0, 5.0, 0.0],     # dissimilar -> never chosen
            [0.5, 0.02, 0.0, 0.0],
        ])
        maps = row_softmax(rng.normal(size=(6, 6)))
        attn = AttentionOutput(features=x, mean_attention=maps)
        cfg = self._cfg(alpha=1e-3)
        fw = make_ffn_weights(rng, cfg.dim, cfg.hidden)
        out, trace = sata_stage(attn, cfg, fw, 0)
        assert trace.n_a == 5 and trace.n_b == 0
        assert trace.n_groups == 1 and trace.n_residual == 1
        assert trace.residual_indices.tolist() == [3]
        # residual row passes through untouched, bit for bit
        assert np.array_equal(out[4], x[4])
        # everything else moved
        changed = [0, 1, 2, 3, 5]
        assert all(not np.array_equal(out[i], x[i]) for i in changed)
        assert trace.ffn_tokens == 1 + 0 + 1

    def test_group_members_share_delta(self):
        rng = np.random.default_rng(43)
        x = np.array([
            [0.5, 0.5, 0.5, 0.5],
            [1.0, 0.0, 0.0, 0.0],
            [2.0, 0.1, 0.0, 0.0],
            [1.5, -0.05, 0.0, 0.0],
            [0.0, 0.0, 5.0, 0.0],
            [0.5, 0.02, 0.0, 0.0],
        ])
        maps = row_softmax(rng.normal(size=(6, 6)))
        attn = AttentionOutput(features=x, mean_attention=maps)
        cfg = self._cfg(alpha=1e-3)
        fw = make_ffn_weights(rng, cfg.dim, cfg.hidden)
        out, trace = sata_stage(attn, cfg, fw, 0)
        # group is patches {0, 1, 2, 4}: each member gets the representative's
        # delta broadcast onto its own row
        rep = x[1:][[0, 1, 2, 4]].mean(axis=0)
        delta = ffn(np.vstack([x[0], rep]), fw)[1]
        for member in (0, 1, 2, 4):
            assert np.max(np.abs(out[1 + member] - (x[1 + member] + delta))) < 1e-12

    def test_restoration_and_load_on_random_fixtures(self):
        rng = np.random.default_rng(44)
        cfg = self._cfg(alpha=1.0, dim=8, heads=2, image=8)
        n = cfg.num_tokens
        fw = make_ffn_weights(rng, cfg.dim, cfg.hidden)
        for _ in range(50):
            x = rng.normal(size=(n, cfg.dim))
            attn = make_attention(rng, cfg.heads, x)
            out, trace = sata_stage(attn, cfg, fw, 0, trace_scores=True)
            assert out.shape == x.shape
            assert trace.ffn_tokens == trace.n_b + trace.n_groups + 1
            assert trace.ffn_tokens <= n
            if trace.n_a >= 2 and trace.n_groups >= 1:
                assert trace.ffn_tokens < n
            assert trace.ffn_flops == ffn_flops(trace.ffn_tokens, cfg.dim, cfg.hidden)
            for idx in trace.residual_indices:
                assert np.array_equal(out[1 + idx], x[1 + idx])
            full, passive = sata_stage(attn, cfg.with_overrides(sata_enabled=False), fw, 0,
                                       trace_scores=True)
            assert np.array_equal(full, x + ffn(x, fw))
            assert passive.bounds == trace.bounds and passive.ffn_tokens == n

    @pytest.mark.parametrize("enabled", [True, False])
    @pytest.mark.parametrize("gamma", [0.0, 0.5, 1.0])
    def test_merge_rule(self, enabled, gamma):
        rng = np.random.default_rng(47)
        cfg = self._cfg(depth=4, dim=8, heads=2, image=8, gamma=gamma, alpha=1e-3,
                        sata_enabled=enabled)
        n = cfg.num_tokens
        x = rng.normal(size=(n, cfg.dim))
        attn = make_attention(rng, cfg.heads, x)
        fw = make_ffn_weights(rng, cfg.dim, cfg.hidden)
        for block in range(cfg.depth):
            _, trace = sata_stage(attn, cfg, fw, block)
            assert trace.block_index == block
            assert (trace.n_a > 0) == (enabled and block >= cfg.sata_start_block)

    def test_too_few_tokens_rejected(self):
        rng = np.random.default_rng(46)
        cfg = self._cfg()
        fw = make_ffn_weights(rng, cfg.dim, cfg.hidden)
        attn = make_attention(rng, 1, np.zeros((1, cfg.dim)))
        with pytest.raises(ValueError):
            sata_stage(attn, cfg, fw, 0)
