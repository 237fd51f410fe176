"""Deterministic, platform-independent random number generation.

Everything random in this package (weight initialization, synthetic
images, corruption noise) is drawn from a single fixed algorithm,
splitmix64, rather than from whatever generator the host numpy happens
to ship.  The update rule, for a 64-bit state ``n`` seeded by the user,
is

    state_k = seed + k * 0x9E3779B97F4A7C15          (mod 2**64)
    z = state_k
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9          (mod 2**64)
    z = (z ^ (z >> 27)) * 0x94D049BB133111EB          (mod 2**64)
    output_k = z ^ (z >> 31)

The purely additive state update makes the stream trivially
vectorizable: the k-th output depends only on ``seed + k * GOLDEN``.
Uniform doubles take the top 53 bits of an output word; normals come
from the Box-Muller transform of uniform pairs.
"""

from __future__ import annotations

import numpy as np

_GOLDEN = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)
_MASK64 = np.uint64(0xFFFFFFFFFFFFFFFF)


class SplitMix64:
    """Counter-based splitmix64 stream over a 64-bit seed."""

    def __init__(self, seed: int):
        self._seed = np.uint64(int(seed) & 0xFFFFFFFFFFFFFFFF)
        self._counter = 0

    def next_uint64(self, n: int) -> np.ndarray:
        """Return the next ``n`` raw 64-bit outputs of the stream."""
        if n < 0:
            raise ValueError(f"cannot draw a negative count of samples: {n}")
        ks = np.arange(self._counter + 1, self._counter + n + 1, dtype=np.uint64)
        self._counter += n
        with np.errstate(over="ignore"):
            z = self._seed + ks * _GOLDEN
            z = (z ^ (z >> np.uint64(30))) * _MIX1
            z = (z ^ (z >> np.uint64(27))) * _MIX2
            return z ^ (z >> np.uint64(31))

    def uniform(self, n: int) -> np.ndarray:
        """``n`` doubles in (0, 1]; never exactly 0, so safe under log()."""
        bits = self.next_uint64(n) >> np.uint64(11)
        return (bits.astype(np.float64) + 0.5) * (2.0 ** -53)

    def normal(self, n: int) -> np.ndarray:
        """``n`` standard normals via Box-Muller."""
        pairs = (n + 1) // 2
        u1 = self.uniform(pairs)
        u2 = self.uniform(pairs)
        r = np.sqrt(-2.0 * np.log(u1))
        theta = 2.0 * np.pi * u2
        out = np.concatenate([r * np.cos(theta), r * np.sin(theta)])
        return out[:n]

    def integers(self, n: int, upper: int) -> np.ndarray:
        """``n`` integers uniform on [0, upper) by 64-bit modulo.

        The modulo bias is below 2**-50 for any upper bound this package
        uses (token and pixel counts), which is irrelevant here: the
        contract is determinism, not statistical perfection.
        """
        if upper <= 0:
            raise ValueError(f"upper bound must be positive, got {upper}")
        return (self.next_uint64(n) % np.uint64(upper)).astype(np.int64)

    def permutation(self, n: int) -> np.ndarray:
        """A deterministic permutation of range(n) (sort of random keys)."""
        keys = self.next_uint64(n)
        return np.argsort(keys, kind="stable")

    def permutation_prefix(self, n: int, k: int) -> np.ndarray:
        """``permutation(n)[:k]`` from the same keys, without sorting all of them.

        The indices of the ``k`` smallest keys, in key order: a partition
        picks them and a sort orders only those.  Keys for distinct
        counters are distinct (the state update and the mix are
        bijections), so no tie can order them differently.
        """
        if not 0 <= k <= n:
            raise ValueError(f"prefix length {k} outside 0..{n}")
        keys = self.next_uint64(n)
        if k == 0:
            return np.empty(0, dtype=np.intp)
        head = np.argpartition(keys, k - 1)[:k]
        return head[np.argsort(keys[head], kind="stable")]

    def spawn(self, stream: int) -> "SplitMix64":
        """Derive an independent child stream; used for per-item seeding."""
        with np.errstate(over="ignore"):
            child = self._seed + np.uint64(0xD1B54A32D192ED03) * np.uint64(
                (int(stream) + 1) & 0xFFFFFFFFFFFFFFFF
            )
        return SplitMix64(int(child))
