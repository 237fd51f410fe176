"""Dense numerical kernels shared across the package.

Matrices are plain 2-D C-contiguous float64 ndarrays; ``row_softmax``,
``layer_norm`` and ``gelu`` also take a stack of them, (B, n, d) with a
leading image axis, and treat each slice exactly as the matrix alone
(last-axis reductions only, so a slice's bits do not depend on the
stack).  Every public operation validates shapes against its
contract; the heavy lifting is delegated to numpy/scipy.  No kernel
checks that its result is finite: a non-finite value passes through
(``gelu`` of ``inf`` is ``inf``, ``cosine_similarity([nan, 1], [1, 1])``
is ``nan``).  The one
guard is ``layer_norm``'s: it raises ``FloatingPointError`` when a
row's variance is non-finite, because an overflowing row would
otherwise come out finite and wrong.  :mod:`satavit.engine` checks each
stream once where it leaves a part of the model, so that a message
names the part that failed.

Kernel contract: every kernel returns a fresh array, never writes into
its arguments, and is bitwise equal to its textbook formula.  Only
temporaries are updated in place, in an order that keeps those bits, so
band membership and match edges cannot flip.
"""

from __future__ import annotations

import numpy as np
from scipy.special import erf

__all__ = [
    "as_matrix",
    "as_matrices",
    "row_softmax",
    "layer_norm",
    "gelu",
    "cosine_similarity",
]

_INV_SQRT2 = 1.0 / np.sqrt(2.0)


def as_matrix(a) -> np.ndarray:
    """Coerce input to a 2-D float64 array, rejecting other ranks."""
    m = np.asarray(a, dtype=np.float64)
    if m.ndim != 2:
        raise ValueError(f"expected a 2-D matrix, got array of shape {m.shape}")
    return m


def as_matrices(a) -> np.ndarray:
    """Coerce input to a float64 matrix (2-D) or stack of matrices (3-D)."""
    m = np.asarray(a, dtype=np.float64)
    if m.ndim not in (2, 3):
        raise ValueError(f"expected a 2-D matrix or a 3-D stack, got array of shape {m.shape}")
    return m


def row_softmax(a) -> np.ndarray:
    """Softmax over each row, stabilized by max subtraction."""
    a = as_matrices(a)
    if a.size == 0:
        return a.copy()
    e = a - np.maximum.reduce(a, axis=-1, keepdims=True)
    np.exp(e, out=e)
    e /= np.add.reduce(e, axis=-1, keepdims=True)
    return e


def layer_norm(x, gain, bias) -> np.ndarray:
    """Per-row standardization (population variance, eps 1e-6) followed by affine."""
    x = as_matrices(x)
    d = x.shape[-1]
    gain = np.asarray(gain, dtype=np.float64)
    bias = np.asarray(bias, dtype=np.float64)
    if gain.shape != (d,) or bias.shape != (d,):
        raise ValueError(
            f"layer_norm affine length mismatch: x has {d} columns, "
            f"gain has shape {gain.shape}, bias has shape {bias.shape}"
        )
    # (x - mu) / sqrt(var + 1e-6) * gain + bias; a row whose mean or
    # variance overflows would come out as the bias, finite, so it is
    # rejected here rather than warned about
    dev, var = _centered(x)
    if np.count_nonzero(np.isfinite(var)) != var.size:
        raise FloatingPointError("layer_norm produced non-finite entries")
    var += 1e-6
    dev /= np.sqrt(var, out=var)
    dev *= gain
    dev += bias
    return dev


# as a decorator, errstate sets and restores the error state in half the
# time of a with block (0.5 against 1.0 us); since numpy 2.0 each call keeps
# its own restore token, so lane threads may share the decorated function
@np.errstate(over="ignore", invalid="ignore")
def _centered(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``x`` minus its row means and the rows' population variances,
    summed and divided by the column count in ``x.mean``'s and
    ``np.var``'s order, so with their bits; overflow gives ``inf`` or
    ``nan`` without a warning."""
    d = x.shape[-1]
    mean = np.add.reduce(x, axis=-1, keepdims=True)
    mean /= d
    dev = x - mean
    var = np.add.reduce(dev * dev, axis=-1, keepdims=True)
    var /= d
    return dev, var


def gelu(x) -> np.ndarray:
    """Exact GELU x * Phi(x) with the Gaussian CDF (no tanh approximation)."""
    x = as_matrices(x)
    # 0.5 * x * (1 + erf(x / sqrt(2))); halving last keeps the bits: it is
    # exact except on subnormals, where 1 + erf(...) is exactly 1
    y = x * _INV_SQRT2
    erf(y, out=y)
    y += 1.0
    y *= x
    y *= 0.5
    return y


def cosine_similarity(u, v) -> float | np.ndarray:
    """Cosine of the angle between two flattened vectors, or row by row.

    Degenerate conventions: identical inputs (including zero/zero) give
    exactly 1.0, a zero vector against a nonzero one gives 0.0.  Two
    row stacks, (k, n), give the (k,) cosines of their rows, each
    bitwise its 1-D call and under the same conventions: the dots are
    a stacked ``matmul``, the BLAS dot ``np.dot`` and ``np.linalg.norm``
    call.  Any other shape is flattened and gives a float.
    """
    u = np.asarray(u, dtype=np.float64)
    v = np.asarray(v, dtype=np.float64)
    rows = u.ndim == 2 and v.ndim == 2
    if not rows:
        u = u.ravel()[None]
        v = v.ravel()[None]
    if u.shape != v.shape:
        raise ValueError(f"cosine_similarity shape mismatch: {u.shape} vs {v.shape}")
    uu = u[:, None, :]
    dot = np.matmul(uu, v[:, :, None])[:, 0, 0]
    nu = np.sqrt(np.matmul(uu, u[:, :, None])[:, 0, 0])
    nv = np.sqrt(np.matmul(v[:, None, :], v[:, :, None])[:, 0, 0])
    cos = np.divide(dot, nu * nv, out=np.zeros_like(dot), where=(nu != 0.0) & (nv != 0.0))
    cos[np.logical_and.reduce(u == v, axis=1)] = 1.0
    return cos if rows else float(cos[0])
