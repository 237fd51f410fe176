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
two differ, and the stage uses the column form above.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .tensorops import as_matrix

__all__ = [
    "SpatialScores",
    "global_attribute",
    "z_normalize",
    "local_moran",
    "spatial_scores",
]


@dataclass(frozen=True)
class SpatialScores:
    """Normalized local Moran scores plus the summary stats the band needs."""

    s: np.ndarray
    mean_s: float
    abs_median_s: float

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
        mid = s.size // 2
        ordered = np.sort(s)
        median = ordered[mid] if s.size % 2 else (ordered[mid - 1] + ordered[mid]) / 2.0
        # sum / n is ndarray.mean's add.reduce and divide, bitwise, without its wrapper
        return cls(s=s, mean_s=float(s.sum() / s.size), abs_median_s=abs(float(median)))


def global_attribute(x) -> np.ndarray:
    """Per-token scalar attribute: the mean over the feature dimension."""
    x = as_matrix(x)
    if x.shape[0] < 1 or x.shape[1] < 1:
        raise ValueError(f"token tensor must be non-empty, got shape {x.shape}")
    return x.sum(axis=1) / x.shape[1]


def z_normalize(a) -> np.ndarray:
    """Standardize to mean 0 / population std 1; constant input maps to zeros.

    The constant case is detected by exact element equality rather than
    by sigma == 0: a constant vector whose mean is not representable
    yields a tiny nonzero float sigma, which would otherwise blow the
    degenerate case up into +-1 scores.
    """
    a = np.asarray(a, dtype=np.float64).ravel()
    if a.size == 0:
        raise ValueError("cannot normalize an empty vector")
    if np.all(a == a[0]):
        return np.zeros_like(a)
    # population std summed in np.std's order, so the bits match a.std()
    dev = a - a.sum() / a.size
    sigma = np.sqrt((dev * dev).sum() / a.size)
    if sigma == 0.0:
        return np.zeros_like(a)
    return dev / sigma


def local_moran(z, w) -> np.ndarray:
    """diag(z z^t W) without materializing the N x N outer product.

    Contracting the weight column first keeps the cost at O(N^2):
    I = z * (W^t z).
    """
    z = np.asarray(z, dtype=np.float64).ravel()
    w = as_matrix(w)
    n = z.size
    if w.shape != (n, n):
        raise ValueError(
            f"weight matrix shape {w.shape} does not match {n} attribute values"
        )
    return z * (w.T @ z)


def spatial_scores(x, w) -> SpatialScores:
    """Full score pipeline over a token tensor and a weight matrix."""
    x = as_matrix(x)
    z = z_normalize(global_attribute(x))
    return SpatialScores.from_values(z_normalize(local_moran(z, w)))
