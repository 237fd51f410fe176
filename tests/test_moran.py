"""Score pipeline tests against a straight-line loop oracle."""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from satavit.harness import _naive_spatial_scores as naive_scores
from satavit.moran import (
    SpatialScores,
    global_attribute,
    local_moran,
    spatial_scores,
    z_normalize,
)


class TestGlobalAttribute:
    def test_single_token_mean(self):
        assert global_attribute([[1.0, 2.0, 3.0]])[0] == 2.0

    def test_zero_token(self):
        assert global_attribute([[0.0, 0.0, 0.0, 0.0]])[0] == 0.0

    def test_per_row_means(self):
        assert np.array_equal(global_attribute([[1.0, 3.0], [-2.0, 2.0]]), [2.0, 0.0])

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            global_attribute(np.zeros((0, 3)))

    @pytest.mark.parametrize("n,d", [(1, 1), (2, 3), (17, 32), (65, 192), (197, 384)])
    def test_bitwise_equal_to_mean(self, n, d):
        x = np.random.default_rng(n + d).normal(size=(n, d)) * 10 + 3
        assert np.array_equal(global_attribute(x), x.mean(axis=1))


class TestZNormalize:
    def test_three_point(self):
        out = z_normalize([2.0, 4.0, 6.0])
        assert np.allclose(out, [-1.224744871391589, 0.0, 1.224744871391589], atol=1e-12)

    def test_constant_degenerates_to_zero(self):
        assert np.array_equal(z_normalize([7.0, 7.0, 7.0]), [0.0, 0.0, 0.0])

    def test_two_point(self):
        assert np.allclose(z_normalize([0.0, 1.0]), [-1.0, 1.0], atol=1e-15)

    def test_nonrepresentable_constant_mean(self):
        # 5 copies of 0.3 have a rounded float mean; must still map to zeros
        assert np.array_equal(z_normalize([0.3] * 5), np.zeros(5))

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.floats(-1e6, 1e6), min_size=2, max_size=40))
    def test_bitwise_equal_to_textbook(self, values):
        a = np.array(values)
        assume(not np.all(a == a[0]) and a.std() > 0.0)
        assert np.array_equal(z_normalize(a), (a - a.mean()) / a.std())

    def test_normalized_moments(self):
        rng = np.random.default_rng(5)
        v = rng.normal(size=31) * 7 + 3
        z = z_normalize(v)
        assert abs(z.mean()) < 1e-9
        assert abs(z.std() - 1.0) < 1e-9


class TestLocalMoran:
    def test_identity_weights_square_scores(self):
        out = local_moran([1.0, -1.0, 0.0], np.eye(3))
        assert np.array_equal(out, [1.0, 1.0, 0.0])

    def test_brute_force_two_point(self):
        out = local_moran([1.0, -1.0], [[0.0, 1.0], [1.0, 0.0]])
        assert np.array_equal(out, [-1.0, -1.0])

    def test_zero_scores_annihilate(self):
        rng = np.random.default_rng(0)
        w = rng.normal(size=(3, 3))
        assert np.array_equal(local_moran(np.zeros(3), w), np.zeros(3))

    def test_shape_mismatch(self):
        with pytest.raises(ValueError, match="does not match"):
            local_moran(np.zeros(3), np.zeros((4, 4)))

    def test_column_contraction_matches_loops(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            n = rng.integers(2, 10)
            z = rng.normal(size=n)
            w = rng.normal(size=(n, n))
            want = [z[i] * sum(z[j] * w[j, i] for j in range(n)) for i in range(n)]
            assert np.allclose(local_moran(z, w), want, atol=1e-12)


class TestSpatialScores:
    def test_constant_tokens_degenerate(self):
        x = np.tile([0.2, 0.4, 0.6], (5, 1))
        rng = np.random.default_rng(1)
        res = spatial_scores(x, rng.normal(size=(5, 5)))
        assert np.array_equal(res.s, np.zeros(5))
        assert res.abs_median_s == 0.0

    def test_single_token(self):
        res = spatial_scores([[1.0, 2.0]], [[3.0]])
        assert np.array_equal(res.s, [0.0])

    def test_matches_oracle(self):
        rng = np.random.default_rng(77)
        for _ in range(30):
            n = int(rng.integers(2, 17))
            d = int(rng.integers(1, 9))
            x = rng.normal(size=(n, d))
            w = rng.normal(size=(n, n))
            want, want_raw = naive_scores(x, w)
            got = spatial_scores(x, w)
            assert np.max(np.abs(got.s - want)) < 1e-9
            raw = local_moran(z_normalize(global_attribute(x)), w)
            assert np.max(np.abs(raw - want_raw)) < 1e-9

    def test_score_moments(self):
        rng = np.random.default_rng(8)
        res = spatial_scores(rng.normal(size=(12, 4)), rng.normal(size=(12, 12)))
        assert abs(res.mean_s) < 1e-9
        assert abs(res.s.std() - 1.0) < 1e-9
        assert res.abs_median_s == abs(np.median(res.s))

    def test_permutation_equivariance(self):
        rng = np.random.default_rng(21)
        for _ in range(20):
            n = int(rng.integers(3, 14))
            x = rng.normal(size=(n, 5))
            w = rng.normal(size=(n, n))
            perm = rng.permutation(n)
            s = spatial_scores(x, w).s
            s_p = spatial_scores(x[perm], w[np.ix_(perm, perm)]).s
            assert np.max(np.abs(s_p - s[perm])) < 1e-12

    def test_attribute_scale_invariance(self):
        rng = np.random.default_rng(22)
        x = rng.normal(size=(9, 6))
        w = rng.normal(size=(9, 9))
        s1 = spatial_scores(x, w).s
        s2 = spatial_scores(3.7 * x, w).s
        assert np.max(np.abs(s1 - s2)) < 1e-9

    def test_shape_error_propagates(self):
        with pytest.raises(ValueError):
            spatial_scores(np.zeros((3, 2)), np.zeros((2, 2)))

    def test_from_values_summaries(self):
        s = SpatialScores.from_values([-1.0, 0.0, 2.0])
        assert s.mean_s == pytest.approx(1.0 / 3.0)
        assert s.abs_median_s == 0.0
        # a negative median is reported by its magnitude
        s = SpatialScores.from_values([-3.0, -1.0, 4.0])
        assert (s.mean_s, s.abs_median_s) == (0.0, 1.0)

    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=20),
           st.randoms(use_true_random=False))
    def test_from_values_permutation_invariant(self, values, rnd):
        shuffled = list(values)
        rnd.shuffle(shuffled)
        a = SpatialScores.from_values(values)
        b = SpatialScores.from_values(shuffled)
        assert a.mean_s == float(np.mean(values))
        assert np.allclose([a.mean_s, a.abs_median_s], [b.mean_s, b.abs_median_s],
                           rtol=1e-12, atol=1e-9)


def textbook_scores(x, w):
    """One image's scores in textbook numpy, one vector at a time: ``mean``,
    ``std``, ``w.T @ z`` and ``np.median``; the bitwise oracle for stacks."""
    def standardize(a):
        if np.all(a == a[0]) or a.std() == 0.0:
            return np.zeros_like(a)
        return (a - a.mean()) / a.std()

    z = standardize(x.mean(axis=1))
    s = standardize(z * (w.T @ z))
    return s, float(np.mean(s)), abs(float(np.median(s)))


def score_bits(scores):
    return scores.s.tobytes(), np.float64(scores.mean_s).tobytes(), \
        np.float64(scores.abs_median_s).tobytes()


def special_stack(rng, n, d, images=5):
    """A stack of token tensors and the stage's kind of weight views (the
    patch block of larger maps), with degenerate images up front: a
    constant attribute with a mean that is not representable, and an
    attribute whose sigma underflows to 0."""
    x = rng.normal(size=(images, n, d)) * 3.0 + 1.0
    x[0] = -0.3
    x[1] = 0.0
    x[1, 1::2] = 1e-170
    maps = rng.random(size=(images, n + 1, n + 1))
    return x, maps[:, 1:, 1:]


class TestStackedScores:
    @pytest.mark.parametrize("n", [1, 2, 15, 16, 196])
    def test_each_image_is_its_own_call_and_the_textbook(self, n):
        rng = np.random.default_rng(n)
        x, w = special_stack(rng, n, 8)
        got = spatial_scores(x, w)
        assert isinstance(got, list) and len(got) == len(x)
        for b, scores in enumerate(got):
            alone = spatial_scores(x[b], w[b])
            s, mean_s, abs_median_s = textbook_scores(x[b], w[b])
            assert score_bits(scores) == score_bits(alone), b
            assert score_bits(scores) == score_bits(SpatialScores(s, mean_s, abs_median_s)), b

    def test_degenerate_images_score_positive_zeros(self):
        x, w = special_stack(np.random.default_rng(3), 16, 8)
        a = global_attribute(x)
        assert np.all(a[0] == a[0, 0])  # constant attribute
        dev = a[1] - a[1].mean()
        assert np.any(dev != 0.0) and np.sum(dev * dev) == 0.0  # sigma underflows
        for scores in spatial_scores(x, w)[:2]:
            assert scores.s.tobytes() == np.zeros(16).tobytes()  # +0.0, not -0.0

    def test_stack_of_one_is_the_matrix(self):
        x, w = special_stack(np.random.default_rng(4), 9, 5)
        for b in range(len(x)):
            (one,) = spatial_scores(x[b : b + 1], w[b : b + 1])
            assert score_bits(one) == score_bits(spatial_scores(x[b], w[b]))

    def test_z_normalize_rows(self):
        rows = np.array([[-0.3] * 5, [0.0, 1e-170, 0.0, 1e-170, 0.0], [2.0, 4.0, 6.0, 8.0, 1.0]])
        got = z_normalize(rows)
        assert got[:2].tobytes() == np.zeros((2, 5)).tobytes()
        for row, want in zip(got, rows):
            assert row.tobytes() == z_normalize(want).tobytes()
        assert got[2].tobytes() == ((rows[2] - rows[2].mean()) / rows[2].std()).tobytes()

    def test_stacked_weights_must_match(self):
        with pytest.raises(ValueError, match="does not match"):
            spatial_scores(np.zeros((2, 3, 2)), np.zeros((2, 4, 4)))
        with pytest.raises(ValueError, match="does not match"):
            spatial_scores(np.zeros((2, 3, 2)), np.zeros((3, 3)))
        with pytest.raises(ValueError, match="does not match"):
            local_moran(np.zeros((2, 3)), np.zeros((3, 3, 3)))
