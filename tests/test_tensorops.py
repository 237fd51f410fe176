import math
import warnings
from dataclasses import astuple, is_dataclass

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy.special import erf

from satavit.tensorops import (
    cosine_similarity,
    gelu,
    layer_norm,
    row_softmax,
)
from satavit.moran import SpatialScores

# ---------------------------------------------------------------------------
# textbook expressions: the kernels must equal these bit for bit


def textbook_row_softmax(a):
    e = np.exp(a - a.max(axis=1, keepdims=True))
    return e / e.sum(axis=1, keepdims=True)


def textbook_layer_norm(x, gain, bias, eps=1e-6):
    mu = x.mean(axis=1, keepdims=True)
    var = x.var(axis=1, keepdims=True)
    return (x - mu) / np.sqrt(var + eps) * gain + bias


def textbook_gelu(x):
    return 0.5 * x * (1.0 + erf(x * (1.0 / np.sqrt(2.0))))


@st.composite
def matrices(draw, max_side=12):
    """Float64 matrices with |x| <= 1e3, single rows or columns, and some
    rows made constant."""
    shape = (draw(st.integers(1, max_side)), draw(st.integers(1, max_side)))
    m = draw(arrays(np.float64, shape, elements=st.floats(-1e3, 1e3)))
    constant = draw(arrays(np.bool_, shape[0]))
    m[constant] = m[constant, :1]
    return m


@st.composite
def layer_norm_inputs(draw):
    x = draw(matrices())
    vec = arrays(np.float64, x.shape[1], elements=st.floats(-10, 10))
    return x, draw(vec), draw(vec)


def assert_untouched(call, *args):
    """``call(*args)`` leaves every argument array, and every array field
    of a dataclass argument, byte-identical."""
    held = []
    for arg in args:
        held.extend(f for f in (astuple(arg) if is_dataclass(arg) else (arg,))
                    if isinstance(f, np.ndarray))
    before = [a.tobytes() for a in held]
    call(*args)
    assert [a.tobytes() for a in held] == before


class TestTextbookBitwise:
    @settings(max_examples=200, deadline=None)
    @given(matrices())
    @example(np.full((1, 1), 1e3))
    @example(np.array([[-1e3, 1e3, 0.0]]))
    def test_row_softmax(self, a):
        assert np.array_equal(row_softmax(a), textbook_row_softmax(a))

    @settings(max_examples=200, deadline=None)
    @given(layer_norm_inputs())
    @example((np.full((3, 1), -7.5), np.ones(1), np.zeros(1)))
    @example((np.full((1, 5), 1e3), np.full(5, 2.0), np.full(5, -1.0)))
    def test_layer_norm(self, args):
        assert np.array_equal(layer_norm(*args), textbook_layer_norm(*args))

    @settings(max_examples=200, deadline=None)
    @given(matrices())
    @example(np.array([[5e-324, -5e-324, 2.2250738585072014e-308, -8.3, 8.3, 40.0]]))
    def test_gelu(self, x):
        assert np.array_equal(gelu(x), textbook_gelu(x))


class TestInputsUntouched:
    @settings(max_examples=50, deadline=None)
    @given(matrices())
    def test_kernels_leave_arguments_byte_identical(self, x):
        d = x.shape[1]
        assert_untouched(row_softmax, x)
        assert_untouched(gelu, x)
        assert_untouched(layer_norm, x, np.linspace(0.5, 2.0, d), np.linspace(-1, 1, d))



class TestRowSoftmax:
    def test_symmetry(self):
        assert np.allclose(row_softmax([[0.0, 0.0]]), [[0.5, 0.5]], atol=0)

    def test_large_logit_stability(self):
        assert np.allclose(row_softmax([[1000.0, 1000.0]]), [[0.5, 0.5]], atol=0)

    def test_closed_form(self):
        out = row_softmax([[0.0, math.log(3.0)]])
        assert np.allclose(out, [[0.25, 0.75]], atol=1e-12)

    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.lists(st.floats(-50, 50), min_size=1, max_size=8),
                    min_size=1, max_size=8).filter(
                        lambda rows: len({len(r) for r in rows}) == 1))
    def test_rows_sum_to_one(self, rows):
        out = row_softmax(np.array(rows))
        assert np.max(np.abs(out.sum(axis=1) - 1.0)) < 1e-9
        assert np.all(out > 0) and np.all(out <= 1)


class TestLayerNorm:
    def test_constant_row_maps_to_zero(self):
        out = layer_norm([[2.0, 2.0, 2.0]], np.ones(3), np.zeros(3))
        assert np.allclose(out, 0.0, atol=1e-9)

    def test_already_standardized_row(self):
        out = layer_norm([[1.0, -1.0]], np.ones(2), np.zeros(2))
        assert np.allclose(out, [[1.0, -1.0]], atol=1e-5)

    def test_bias_passthrough(self):
        out = layer_norm([[0.0, 0.0]], np.ones(2), np.full(2, 5.0))
        assert np.allclose(out, [[5.0, 5.0]], atol=0)

    def test_standardization_within_tolerance(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=(20, 16)) * 4 + 2
        out = layer_norm(x, np.ones(16), np.zeros(16))
        assert np.max(np.abs(out.mean(axis=1))) < 1e-6
        assert np.max(np.abs(out.var(axis=1) - 1.0)) < 1e-6

    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="mismatch"):
            layer_norm(np.zeros((2, 3)), np.ones(4), np.zeros(3))

    @pytest.mark.parametrize("row", [[1e200, -1e200, 0.0], [1e308, 1e308, -1e308]],
                             ids=["variance-overflows", "mean-overflows"])
    def test_overflowing_row_raises_without_a_warning(self, row):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(FloatingPointError, match="layer_norm produced non-finite"):
                layer_norm([[1.0, 2.0, 4.0], row], np.ones(3), np.zeros(3))


class TestGelu:
    def test_zero_fixed_point(self):
        assert gelu([[0.0]])[0, 0] == 0.0

    def test_positive_asymptote(self):
        x = np.array([[30.0, 100.0]])
        assert np.allclose(gelu(x), x, atol=1e-12)

    def test_unit_value(self):
        # 1 * Phi(1), frozen from the normal CDF
        assert abs(gelu([[1.0]])[0, 0] - 0.841345) < 1e-5

    def test_monotone_above_stationary_point(self):
        # exact GELU dips below x ~ -0.7518; monotone only from there up
        grid = np.linspace(-0.7, 50, 2000)[None, :]
        vals = gelu(grid)[0]
        assert np.all(np.diff(vals) >= 0)


class TestFiniteGuard:
    """Only ``layer_norm`` scans, its variance: an overflowing row would
    otherwise come out finite and wrong.  The other kernels pass a
    non-finite value on, and the engine checks each part's output."""

    @pytest.mark.parametrize("kernel", [
        lambda x: layer_norm(x, np.ones(3), np.zeros(3)),
    ], ids=["layer_norm"])
    def test_inf_input_raises(self, kernel):
        with np.errstate(invalid="ignore"), pytest.raises(FloatingPointError, match="non-finite"):
            kernel(np.array([[0.5, np.inf, -1.0]]))

    @pytest.mark.parametrize("kernel", [row_softmax, gelu], ids=["row_softmax", "gelu"])
    def test_inf_input_passes_through(self, kernel):
        with np.errstate(invalid="ignore"):
            out = kernel(np.array([[0.5, np.inf, -1.0], [0.5, 2.0, -1.0]]))
        assert not np.isfinite(out[0]).all()
        assert np.isfinite(out[1]).all()


class TestMeanStdMedian:
    """The mean and median rules of the score summaries.

    `SpatialScores.from_values` computes them (`mean_s`, `abs_median_s`);
    no population std is computed for scores.
    """

    @staticmethod
    def summaries(values):
        s = SpatialScores.from_values(values)
        return s.mean_s, s.abs_median_s

    def test_odd_vector(self):
        assert self.summaries([2, 4, 6]) == (4.0, 4.0)

    def test_singleton(self):
        assert self.summaries([5.0]) == (5.0, 5.0)

    def test_even_length_median_rule(self):
        # the median of an even-length vector is the mean of the two middle values
        assert self.summaries([1, 2, 3, 4]) == (2.5, 2.5)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            SpatialScores.from_values([])

    def test_sorted_middle_is_numpys_median_magnitude_bitwise(self):
        # sizes 1-400 with ties, signed zeros and infinities; the raw median
        # may differ in the sign of a zero, so the magnitudes are compared
        rng = np.random.default_rng(77)
        specials = np.array([0.0, -0.0, np.inf, -np.inf, 1.5, -1.5])
        for n in range(1, 401):
            for kind in ("normal", "ties", "specials"):
                s = rng.normal(size=n) * 10.0 ** rng.integers(-3, 4)
                if kind == "ties":
                    s = rng.choice(s[: max(1, n // 4)], size=n)
                elif kind == "specials":
                    hit = rng.random(n) < 0.5
                    s[hit] = rng.choice(specials, size=int(hit.sum()))
                with np.errstate(invalid="ignore"):  # -inf and inf as the two middles
                    got = SpatialScores.from_values(s).abs_median_s
                    want = abs(float(np.median(s)))
                assert np.float64(got).tobytes() == np.float64(want).tobytes(), (n, kind)


class TestCosineSimilarity:
    def test_identical_is_exactly_one(self):
        v = np.array([0.3, -2.0, 5.5])
        assert cosine_similarity(v, v.copy()) == 1.0

    def test_orthogonal(self):
        assert cosine_similarity([1.0, 0.0], [0.0, 1.0]) == 0.0

    def test_closed_form(self):
        assert abs(cosine_similarity([1.0, 1.0], [1.0, 0.0]) - 0.7071067811865475) < 1e-6

    def test_zero_conventions(self):
        assert cosine_similarity([0.0, 0.0], [0.0, 0.0]) == 1.0
        assert cosine_similarity([0.0, 0.0], [1.0, 2.0]) == 0.0

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            cosine_similarity([1.0], [1.0, 2.0])

    def test_rows_are_each_their_own_call(self):
        rng = np.random.default_rng(9)
        u = rng.normal(size=(9, 17))
        v = u + rng.normal(size=(9, 17)) * 1e-3
        v[0] = u[0]  # identical: exactly 1.0
        u[1] = 0.0  # zero against nonzero: 0.0
        u[2] = v[2] = 0.0  # both zero: 1.0
        u[3] = -0.0  # -0.0 entries against +0.0: identical
        v[3] = 0.0
        u[4, ::2] = -0.0  # -0.0 entries against a nonzero row
        v[5] = -u[5]
        got = cosine_similarity(u, v)
        assert got.shape == (9,)
        for k in range(9):
            want = cosine_similarity(u[k], v[k])
            assert type(want) is float
            assert np.float64(got[k]).tobytes() == np.float64(want).tobytes(), k
            dot, nu, nv = np.dot(u[k], v[k]), np.linalg.norm(u[k]), np.linalg.norm(v[k])
            if not np.array_equal(u[k], v[k]) and nu != 0.0 and nv != 0.0:
                assert np.float64(want).tobytes() == (dot / (nu * nv)).tobytes(), k
        assert got[:4].tolist() == [1.0, 0.0, 1.0, 1.0]
        assert got[5] == pytest.approx(-1.0, abs=1e-15)

    def test_row_stacks_must_match(self):
        with pytest.raises(ValueError):
            cosine_similarity(np.zeros((2, 3)), np.zeros((3, 3)))
