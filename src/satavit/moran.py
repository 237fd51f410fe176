"""Spatial autocorrelation scores over token embeddings.

The pipeline: each token is collapsed to a scalar "global context"
attribute (its feature mean), the attribute vector is standardized, a
local Moran statistic is contracted against a token-closeness weight
matrix, and the result is standardized again into the per-token score
vector ``s``.

The local statistic is the diagonal of (z z^t W), i.e. the contraction
runs over the FIRST index of W:

    I[i] = z[i] * sum_j z[j] * W[j, i]

For a symmetric W this coincides with the textbook row convention
z[i] * sum_j W[i, j] z[j]; for asymmetric attention-derived weights the
two differ, and the stage uses the column form above.  Either way the
statistics sum to z^t W z (LISA additivity).  A stack of images runs the
same code, and its one :class:`SpatialScores` carries the image axis.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .tensorops import as_matrices

__all__ = [
    "SpatialScores",
    "global_attribute",
    "z_normalize",
    "local_moran",
    "spatial_scores",
]


@dataclass(slots=True)
class SpatialScores:
    """Normalized local Moran scores plus the summary stats the band needs."""

    s: np.ndarray  # ([B,] n)
    mean_s: float | np.ndarray  # ([B,]): a float64 scalar for one image
    abs_median_s: float | np.ndarray  # ([B,])

    @classmethod
    def from_values(cls, s) -> "SpatialScores":
        """Build from an explicit score vector, deriving the summaries.

        ``abs_median_s`` is the middle of the sorted scores (the mean of
        the two middles for an even count): bitwise ``abs(np.median(s))``
        for any scores without NaN, whose place in the order is the one
        way a sort differs from ``np.median``.  The engine's finiteness
        checks guarantee finite scores.
        """
        s = np.asarray(s, dtype=np.float64).ravel()
        if s.size == 0:
            raise ValueError("SpatialScores needs at least one score")
        return _summarize(s)


def _summarize(s: np.ndarray) -> SpatialScores:
    """The record of scores ``s``, ([B,] n), each row summarized along the last axis."""
    n = s.shape[-1]
    ordered = s.copy()  # np.sort's copy and sort, without its wrapper
    ordered.sort(axis=-1)
    median = ordered[..., n // 2]
    if not n % 2:  # the mean of the two middles
        median = (ordered[..., n // 2 - 1] + median) / 2.0
    # add.reduce / n is ndarray.mean's sum and divide, bitwise, without its wrapper
    return SpatialScores(s, np.add.reduce(s, axis=-1) / n, np.abs(median))


def global_attribute(x) -> np.ndarray:
    """Per-token scalar attribute: the mean over the feature dimension.

    A stack of token tensors, (B, n, d), gives one row per tensor, (B, n).
    """
    x = as_matrices(x)
    if x.shape[-2] < 1 or x.shape[-1] < 1:
        raise ValueError(f"token tensor must be non-empty, got shape {x.shape}")
    return np.add.reduce(x, axis=-1) / x.shape[-1]  # x.mean(axis=-1)'s bits


def z_normalize(a) -> np.ndarray:
    """Standardize to mean 0 / population std 1; constant input maps to zeros.

    A vector (any shape but 2-D is flattened) is one sample; a matrix is
    standardized row by row, each row bitwise what it gives alone.  A
    row maps to +0.0 zeros when its entries are all equal, or when its
    sigma underflows to 0.  The constant case is detected by exact
    element equality rather than by sigma == 0: a constant vector whose
    mean is not representable yields a tiny nonzero float sigma, which
    would otherwise blow the degenerate case up into +-1 scores.
    """
    a = np.asarray(a, dtype=np.float64)
    if a.ndim != 2:
        a = a.ravel()
    n = a.shape[-1]
    if a.size == 0:
        raise ValueError("cannot normalize an empty vector")
    # population std summed in np.std's order, so the bits match a.std()
    dev = a - np.add.reduce(a, axis=-1, keepdims=True) / n
    sigma = np.sqrt(np.add.reduce(dev * dev, axis=-1, keepdims=True) / n)
    flat = np.logical_and.reduce(a == a[..., :1], axis=-1, keepdims=True)
    flat |= sigma == 0.0
    return np.divide(dev, sigma, out=np.zeros(dev.shape), where=~flat)


def local_moran(z, w) -> np.ndarray:
    """diag(z z^t W) without materializing the N x N outer product.

    Contracting the weight column first keeps the cost at O(N^2):
    I = z * (W^t z).  Rows of ``z``, (B, N), against a stack of weight
    matrices, (B, N, N), give one row each: the contraction is a
    stacked ``matmul`` whose every slice is the one matrix's product.
    """
    w = as_matrices(w)
    z = np.asarray(z, dtype=np.float64)
    if w.ndim == 2:
        z = z.ravel()
    if w.shape != z.shape + z.shape[-1:]:
        raise ValueError(
            f"weight matrix shape {w.shape} does not match attribute shape {z.shape}"
        )
    # z^t W as a (1, N) row per matrix is W^t z, the same BLAS product
    return z * np.matmul(z[..., None, :], w)[..., 0, :]


def spatial_scores(x, w) -> SpatialScores:
    """Full score pipeline over a token tensor and a weight matrix.

    One token tensor, (n, d), and its weights, (n, n), give its
    :class:`SpatialScores`.  A stack of them, (B, n, d) and (B, n, n),
    gives one record whose fields carry the image axis: scores (B, n)
    and summaries (B,), each row bitwise what that image gives alone,
    since every step reduces along the last axis.
    """
    x = as_matrices(x)
    w = as_matrices(w)
    if w.ndim != x.ndim:
        raise ValueError(f"weight shape {w.shape} does not match token shape {x.shape}")
    z = z_normalize(global_attribute(x))
    return _summarize(z_normalize(local_moran(z, w)))
