"""One rule for running a model's independent work on several CPUs.

Two kinds of work follow it, both through :func:`run`, an ordered map
that runs its items on the calling thread and on helpers from one
persistent thread pool (started on first use): a harness report's
independent forwards, and inside one forward each block's two largest
steps, split into :class:`Lanes` (head groups from the Q/K/V
projections to the attended values, token rows for the whole FFN).
:func:`workers` decides how many threads either may use and
:func:`stacks` how many images each of a report's forwards takes; both
read only the environment and the model's shape, so there is no option
to set.

One rule stops nesting: while a thread runs an item of :func:`run`,
every ``run`` and :func:`lanes` inside that item is serial.  A report's
forwards run their lanes inline, so the CPUs are never oversubscribed
and no pool thread waits on work queued behind it.

Every partition is fixed by the sizes alone and every part writes its
own rows or heads, so results do not depend on the thread count (see
:func:`blocked_lines` for the one condition that needs).
"""

from __future__ import annotations

import itertools
import os
import threading
from concurrent.futures import ThreadPoolExecutor, wait
from dataclasses import dataclass

import numpy as np

__all__ = ["workers", "run", "stacks", "blocked_lines", "Lanes", "SERIAL", "lanes"]

# 2-thread/serial time, averaged report, 2 CPUs: 1.28x at 9.6M (d96), 0.84-1.15x at 17M (d128)
_POOL_MIN_FFN_FLOPS = 10_000_000
# Time per image of stacked over one-image forwards, 8-block stage-on models (gamma 0.7),
# 2 CPUs, OpenBLAS at 1 thread, median of 7 interleaved rounds; with scores traced
# (stability) / without (stats); map entries = B * heads * n * n of the stack:
#   model         entries per image  stack entries: stacked/one-image
#   8x32 (n17)    1,156              9k: 0.57        18k: 0.62         37k: 0.58
#   d32 n65 2h    8,450              67k: 0.80/0.70  135k: 0.70/0.71   202k: 0.80/0.71
#   d64 n65 4h    16,900             67k: 0.84/0.75  135k: 0.99/0.78   270k: 1.31/0.77
#   d32 n101 2h   20,402             81k: 0.92/0.84  163k: 0.78/0.81   244k: 0.89/0.82
#   d32 n145 4h   84,100             168k: 0.99/0.83 336k: 0.95/0.95   504k: 1.16/1.16
#   d32 n197 4h   155,236            310k: 1.04      620k: 1.00        2.5M: 1.50
_STACK_MAX_MAP_ENTRIES = 2**17
# 2-lane/serial median time of 12-block stage-on forwards, 2 CPUs, OpenBLAS at 1 thread,
# lanes and serial interleaved in one process (40-60 pairs per run, 1-3 runs):
#   FFN FLOPs  model                         lanes/serial  pairs lanes won
#   1.3e7      d64 N197                      1.12x         5/40
#   1.7-1.8e7  d128 N65, d256 N17            0.97-1.12x    2/40-25/40
#   2.0-2.9e7  d80, d88, d96 N197; d96 N145  0.90-0.95x    23/40-42/60
#   3.8-4.0e7  d112 N197, d192 N65, d256 N37 0.78-0.95x    25/40-53/60
#   5.2-6.0e7  d128 N197, d192 N101          0.73-0.84x    40/40, 57/60, 54/60
#   1.16e8     d192 N197 (ViT-Ti)            0.74x         40/40
_LANE_MIN_FFN_FLOPS = 50_000_000

# OpenBLAS runs a double GEMM with M*N*K <= 100**3 on its small-matrix
# kernel, which rounds differently from the blocked one; a chunk of rows
# or columns on the other side of that line from the whole product
# changes its bits
_SMALL_GEMM_MNK = 100**3

_pool: ThreadPoolExecutor | None = None
_pool_lock = threading.Lock()
_in_item = threading.local()


def _cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def workers(cfg, min_ffn_flops: int = _POOL_MIN_FFN_FLOPS) -> int:
    """Threads for a model's independent work: the usable CPUs, or 1.

    Numpy GEMMs and the elementwise kernels release the GIL, so work
    overlaps on several cores, but only if BLAS runs each call on the
    calling thread (otherwise the threads oversubscribe the CPUs) and a
    block's full FFN, ``cfg.block_ffn_flops``, has at least
    ``min_ffn_flops``, so that the work is not mostly Python under the
    GIL.  Whole forwards pay from
    ``_POOL_MIN_FFN_FLOPS``; lanes from ``_LANE_MIN_FFN_FLOPS``, the
    smallest measured size where they won at least 9 of 10 pairs.  A
    join itself is cheap (an empty two-item :func:`run` takes about
    20 us), but below that size lanes lost, or won too few pairs to
    tell from the spread between runs.
    """
    blas = os.environ.get("OPENBLAS_NUM_THREADS", os.environ.get("OMP_NUM_THREADS"))
    if blas != "1" or cfg.block_ffn_flops < min_ffn_flops:
        return 1
    return _cpus()


def _executor() -> ThreadPoolExecutor:
    global _pool
    with _pool_lock:
        if _pool is None:
            _pool = ThreadPoolExecutor(max_workers=max(1, _cpus() - 1),  # + the caller
                                       thread_name_prefix="satavit")
        return _pool


def run(fn, items, count: int) -> list:
    """``[fn(item) for item in items]`` on the caller and up to ``count - 1`` pool threads.

    Each worker takes the next item index from one shared counter and
    stores its result by index, so results keep the order of ``items``
    and callers reduce them in the serial order.  While a thread runs
    an item, every ``run`` and ``lanes`` inside it is serial, under the
    caller's numpy error state.  Once the caller runs out of items it
    cancels every helper not yet started, so a slow-to-wake pool costs
    about the serial time.  After a failure no item is taken; when every
    taken item has finished, the failure with the lowest index raises.
    """
    items = list(items)
    helpers = min(count, len(items)) - 1
    if helpers < 1 or getattr(_in_item, "active", False):
        return [fn(item) for item in items]
    results, failures = [None] * len(items), {}
    taken = itertools.count()  # one C call per next(), atomic under the GIL
    state = np.geterr()  # per thread: a pool thread starts from numpy's default

    def work():
        _in_item.active = True
        try:
            with np.errstate(**state):
                while not failures and (i := next(taken)) < len(items):
                    try:
                        results[i] = fn(items[i])
                    except BaseException as exc:
                        failures[i] = exc
        finally:
            _in_item.active = False

    pool = _executor()
    futures = [pool.submit(work) for _ in range(helpers)]
    try:
        work()
    finally:
        # a cancelled future counts as done for wait() only once a pool thread dequeues it
        wait([f for f in futures if not f.cancel()])
    if failures:
        raise failures[min(failures)]
    return results


def stacks(cfg, count: int) -> list[slice]:
    """How a report splits ``count`` independent images into stacks, each
    one ``engine.forward_batch``.

    From ``_POOL_MIN_FFN_FLOPS`` up each image is its own stack, so each
    is one :func:`run` item.  Below it a forward is mostly Python
    dispatch, which a stack pays once per block for all its images:
    they go into the fewest stacks whose (B, heads, n, n) attention
    maps hold at most ``_STACK_MAX_MAP_ENTRIES`` entries, beyond which
    the maps outgrow the cache and a stack stopped paying; the sizes
    differ by at most 1.  Lanes start above the pool floor, so they
    never split a stack.
    """
    size = 1
    if cfg.block_ffn_flops < _POOL_MIN_FFN_FLOPS:
        size = max(1, _STACK_MAX_MAP_ENTRIES // (cfg.heads * cfg.num_tokens**2))
    return _split(count, -(-count // size)) if count else []


def blocked_lines(mk: int) -> int:
    """The fewest product lines (rows or columns) that put a double GEMM
    whose other two sizes multiply to ``mk`` on OpenBLAS's blocked
    kernel: more than ``_SMALL_GEMM_MNK`` in all and at least 2 (1 line
    takes the matrix-vector path).

    Two products that share lines give those lines the same bits only
    while BLAS picks the same kernel for both: both at least this many
    lines, or both fewer and at least 2.  Lane chunks and the stage's
    padded reduced-FFN stacks keep to it.
    """
    return max(2, _SMALL_GEMM_MNK // mk + 1)


def _split(n: int, parts: int) -> list[slice]:
    """``range(n)`` cut into ``parts`` contiguous slices whose sizes differ by at most 1."""
    bounds = [n * j // parts for j in range(parts + 1)]
    return [slice(a, b) for a, b in zip(bounds, bounds[1:])]


@dataclass(frozen=True)
class Lanes:
    """How many threads one forward splits each block's work over; 1 runs it inline."""

    count: int = 1

    def rows(self, n: int, k: int, m: int) -> list[slice]:
        """Row chunks of an (n, k) operand multiplied by a (k, m) matrix."""
        return self._chunks(n, 1, k * m)

    def heads(self, heads: int, n: int, d: int) -> list[slice]:
        """Head groups of an (n, d) operand projected by a (d, d) matrix,
        each group taking its heads' block of columns."""
        return self._chunks(heads, d // heads, n * d)

    def _chunks(self, units: int, lines: int, mk: int) -> list[slice]:
        """``units`` cut into up to ``count`` chunks, each ``lines`` product
        lines (rows or columns) per unit against the other two GEMM sizes
        ``mk``.

        A chunk's product is bitwise the matching lines of the whole
        product only while BLAS picks the same kernel for both, so every
        chunk keeps at least :func:`blocked_lines` lines; work too small
        for two such chunks stays whole.
        """
        if self.count == 1:
            return [slice(0, units)]
        min_units = -(-blocked_lines(mk) // lines)
        return _split(units, max(1, min(self.count, units // min_units)))


SERIAL = Lanes()


def lanes(cfg) -> Lanes:
    """The lanes of one forward: ``workers`` of them, but 1 inside a :func:`run` item."""
    count = 1 if getattr(_in_item, "active", False) else workers(cfg, _LANE_MIN_FFN_FLOPS)
    return SERIAL if count == 1 else Lanes(count)
