"""Token analysis stage between attention and FFN.

Given per-token spatial autocorrelation scores, tokens whose score
falls inside the closed band

    [alpha * (mean_s - |median_s|), alpha * (mean_s + |median_s|)]

pass straight to the FFN.  Out-of-band tokens are bipartite-matched
(alternating halves, one edge per source to its most similar target)
and each connected group is merged into one averaged representative
for the FFN; unconnected targets skip the FFN entirely.  After the FFN
every original token position is restored: band tokens get their own
delta, merged-group members share their group's delta, residuals pass
through unchanged.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .moran import SpatialScores, spatial_scores
from .parallel import SERIAL, Lanes
from .tensorops import as_matrices, as_matrix
from .vit import AttentionOutput, FfnWeights, ModelConfig, ffn, ffn_flops

__all__ = [
    "SplitResult",
    "MergePlan",
    "BlockTrace",
    "split_tokens",
    "bipartite_match",
    "sata_stage",
]


@dataclass(frozen=True)
class SplitResult:
    """Partition of patch-token indices into in-band and out-of-band sets."""

    inside: np.ndarray  # per token: lower <= s <= upper
    lower: float
    upper: float

    @property
    def set_b(self) -> np.ndarray:
        """In-band token indices, ascending."""
        return self.inside.nonzero()[0]

    @property
    def set_a(self) -> np.ndarray:
        """Out-of-band token indices (the complement of ``set_b``), ascending."""
        return (~self.inside).nonzero()[0]


@dataclass(frozen=True)
class MergePlan:
    """Bipartite matching outcome over the out-of-band set.

    Sources (even positions of ``set_a``) are the keys of ``edges``;
    targets (odd positions) are its values plus ``residuals``.
    """

    edges: dict[int, int]  # source token index -> target token index
    members: np.ndarray  # merged tokens by group (ascending target), ascending within
    group_sizes: np.ndarray  # member count of each group, in the same order
    representatives: np.ndarray  # (groups, d): mean of each group's feature rows
    residuals: np.ndarray  # targets with no incoming edge


@dataclass(slots=True)
class BlockTrace:
    """Per-block record of split sizes, FFN load and, with ``trace_scores``, scores.

    The split sizes, FFN load and residual indices are always there
    (``n_residual`` is read from ``residual_indices``).
    The score fields (``scores``, the stage's own :class:`SpatialScores`,
    the band ``bounds`` and ``cls_attention``) are filled only with
    ``trace_scores=True`` and are ``None`` otherwise, in every block;
    ``split_tokens(trace.scores, alpha)`` re-bands the block at any
    alpha.  A trace keeps no token stream: ``engine.run_blocks`` over
    the one block gives its output, and ``mhsa(...).features`` the
    pre-FFN stream.  Traces are plain records, not frozen: the stage
    builds one per block and image, and a frozen dataclass sets each
    field through ``object.__setattr__``, several times the cost.
    """

    block_index: int
    n_a: int
    n_b: int
    n_groups: int
    ffn_tokens: int
    ffn_flops: int
    residual_indices: np.ndarray
    scores: Optional[SpatialScores] = None
    bounds: Optional[tuple[float, float]] = None
    cls_attention: Optional[np.ndarray] = None

    @property
    def n_residual(self) -> int:
        return self.residual_indices.size


def split_tokens(
    scores: SpatialScores | list[SpatialScores], alpha: float
) -> SplitResult | list[SplitResult]:
    """Split token indices by the closed alpha-scaled band around the scores.

    The out-of-band set is the complement of the band (score strictly
    below the lower bound or strictly above the upper bound); bound
    hits count as in-band.  One image's :class:`SpatialScores` gives its
    :class:`SplitResult`; a list of them, one per image of a stack, gives
    one ``SplitResult`` per image, the bounds and membership of all of
    them from one vectorised compare.  The one image is the stack of one.
    """
    if not alpha > 0.0:
        raise ValueError(f"alpha must be positive, got {alpha}")
    stacked = not isinstance(scores, SpatialScores)
    rows = scores if stacked else [scores]
    mean = np.array([sc.mean_s for sc in rows])
    half = np.array([sc.abs_median_s for sc in rows])
    lower = alpha * (mean - half)
    upper = alpha * (mean + half)
    s = np.array([sc.s for sc in rows])
    inside = s >= lower[:, None]
    inside &= s <= upper[:, None]
    splits = [
        SplitResult(inside=row, lower=lo, upper=up)
        for row, lo, up in zip(inside, lower.tolist(), upper.tolist())
    ]
    return splits if stacked else splits[0]


def _unit_rows(f: np.ndarray) -> np.ndarray:
    # np.linalg.norm(f, axis=1, keepdims=True) computes exactly this
    norms = np.sqrt(np.add.reduce(f * f, axis=1, keepdims=True))
    return np.divide(f, norms, out=np.zeros_like(f), where=norms > 0)


def bipartite_match(set_a, features) -> MergePlan:
    """One-edge-per-source matching between alternating halves of set_a.

    Sources are the even positions of set_a's order, targets the odd
    positions.  Each source connects to its most similar target (argmax
    cosine similarity, ties to the lowest token index), so the sources
    are the keys of ``edges``.  A target plus its sources merge into a
    group represented by the unweighted mean of their feature rows.
    Targets without edges become residuals.
    A set with fewer than two members yields an empty plan, the lone
    member (if any) turning residual.
    """
    set_a = np.asarray(set_a, dtype=np.int64).ravel()
    features = as_matrix(features)

    if set_a.size <= 1:
        none = np.empty(0, dtype=np.int64)
        return MergePlan(
            edges={},
            members=none,
            group_sizes=none,
            representatives=np.zeros((0, features.shape[1])),
            residuals=set_a.copy(),
        )

    a1 = set_a[0::2]
    a2 = set_a[1::2]
    f1 = features[a1]
    f2 = features[a2]
    sim = _unit_rows(f1) @ _unit_rows(f2).T
    # all-zero rows have unit 0; a zero source against a zero target
    # counts as identical (similarity 1), matching the package-wide
    # cosine convention.  Exact zeros: a row whose norm underflows to 0
    # is no zero row.  (The ufunc reductions np.all and ndarray.any run,
    # without their Python wrappers.)
    zero1 = np.logical_and.reduce(f1 == 0.0, axis=1)
    zero2 = np.logical_and.reduce(f2 == 0.0, axis=1)
    if np.logical_or.reduce(zero1) and np.logical_or.reduce(zero2):
        sim[np.ix_(zero1, zero2)] = 1.0

    # argmax returns the first maximum; a2 is ascending, so ties resolve
    # to the lowest token index
    choice = sim.argmax(axis=1)
    edges = dict(zip(a1.tolist(), a2[choice].tolist()))

    hit = np.zeros(a2.size, dtype=bool)
    hit[choice] = True
    # every member keyed by its target's position in a2: ascending a2
    # positions are ascending group targets
    keys = np.concatenate([hit.nonzero()[0], choice])
    tokens = np.concatenate([a2[hit], a1])
    members = tokens[np.lexsort((tokens, keys))]
    group_sizes = np.bincount(choice, minlength=a2.size)[hit] + 1

    # summed in member order from +0.0, one member rank of every group per
    # pass, then divided: bitwise equal to features[group].mean(axis=0)
    # (np.add.reduceat is not).  Largest groups first: the groups with a
    # member of rank r are then the first longer[r]
    order = (-group_sizes).argsort(kind="stable")
    first = (np.add.accumulate(group_sizes) - group_sizes)[order]
    longer = np.add.accumulate(np.bincount(group_sizes)[::-1])[::-1][1:]
    sums = np.zeros((group_sizes.size, features.shape[1]))
    for rank, live in enumerate(longer.tolist()):
        sums[:live] += features[members[first[:live] + rank]]
    reps = np.empty_like(sums)
    reps[order] = sums
    reps /= group_sizes[:, None]

    return MergePlan(
        edges=edges,
        members=members,
        group_sizes=group_sizes,
        representatives=reps,
        residuals=a2[~hit],
    )


def sata_stage(
    attn: AttentionOutput,
    cfg: ModelConfig,
    ffn_weights: FfnWeights,
    block_index: int,
    lanes: Lanes = SERIAL,
    trace_scores: bool = False,
) -> tuple[np.ndarray, BlockTrace | list[BlockTrace]]:
    """Score, split, merge, run the reduced FFN, and restore all positions.

    The stream is ``attn.features``, the post-attention residual stream
    with the class token in row 0; the class token is exempt from
    splitting and always routed to the FFN.  The output has exactly the
    input token count, in the original order.  One image's stream,
    (n, d), gives ``(out, trace)``; a stack of them, (B, n, d) with
    (B, n, n) maps, gives the output stack and a list of one trace per
    image, each image's slice and trace bitwise its own.

    The stage merges only if ``cfg.sata_enabled`` and ``block_index``
    is at least ``cfg.sata_start_block``.  In any other block the full
    FFN runs on the stream itself, once over the whole stack, with no
    gather or restore; the trace reports an empty out-of-band set
    (``n_a=0``, ``n_b=N-1``, no groups, no residuals, ``ffn_tokens=N``).

    A merging block, and with ``trace_scores`` every block, scores and
    bands the whole stack at once: one ``spatial_scores`` and one
    ``split_tokens`` call.  A merging block's token sets differ per
    image, so only the match, the reduced FFN and the restore run image
    by image.  The FFN runs on ``lanes``.

    With ``trace_scores`` every trace carries the scores, bounds and
    class-token attention row; a pass-through block reports its real
    scores and bounds next to the empty out-of-band set.  Without it
    those fields are ``None``, and a pass-through block skips scoring
    and banding altogether.  The output is the same either way.
    """
    x = as_matrices(attn.features)
    single = x.ndim == 2
    maps = attn.mean_attention[None] if single else attn.mean_attention
    x = x[None] if single else x
    images, n_all, d = x.shape
    if n_all < 2:
        raise ValueError(f"need at least one patch token besides the class token, got {n_all} rows")
    if maps.shape != (images, n_all, n_all):
        raise ValueError(
            f"attention map shape {attn.mean_attention.shape} does not match {n_all} tokens"
        )

    merge = cfg.sata_enabled and block_index >= cfg.sata_start_block
    if merge:
        out = x.copy()
    else:
        out = ffn(x, ffn_weights, lanes)
        out += x
    if merge or trace_scores:
        scores = spatial_scores(x[:, 1:], maps[:, 1:, 1:])
        splits = split_tokens(scores, cfg.alpha)
    if merge:
        counts = [_merge_image(x[b], out[b], split, ffn_weights, lanes)
                  for b, split in enumerate(splits)]
    else:  # the full FFN and an empty out-of-band set in each image
        counts = [(0, n_all - 1, 0, n_all, np.empty(0, dtype=np.int64))] * images
    if trace_scores:
        # one copy for the stack: a view would keep the block's mean maps
        # alive, and the averaged ViT-Ti stability report then peaked at
        # 190, not 117 MB
        cls_rows = maps[:, 0, 1:].copy()
        scored = zip(scores, [(sp.lower, sp.upper) for sp in splits], cls_rows)
    else:
        scored = [(None, None, None)] * images
    hidden = ffn_weights.w1.shape[1]
    traces = [
        BlockTrace(block_index, n_a, n_b, n_groups, n_tokens, ffn_flops(n_tokens, d, hidden),
                   residuals, *fields)
        for (n_a, n_b, n_groups, n_tokens, residuals), fields in zip(counts, scored)
    ]
    return (out[0], traces[0]) if single else (out, traces)


def _merge_image(x, out, split: SplitResult, ffn_weights, lanes) -> tuple:
    """One image of a merging block: match its out-of-band tokens, run the
    reduced FFN and add each delta into ``out``, which starts as a copy
    of ``x``.  Returns the trace's ``(n_a, n_b, n_groups, ffn_tokens,
    residual_indices)``."""
    patches = x[1:]
    set_a, set_b = split.set_a, split.set_b
    plan = bipartite_match(set_a, patches)
    ffn_in = np.concatenate([x[:1], patches[set_b], plan.representatives], axis=0)
    deltas = ffn(ffn_in, ffn_weights, lanes)

    n_b = set_b.size
    out[0] += deltas[0]
    out[1 + set_b] += deltas[1 : 1 + n_b]
    out[1 + plan.members] += deltas[1 + n_b :].repeat(plan.group_sizes, axis=0)
    # residual rows stay bitwise untouched
    return set_a.size, n_b, plan.group_sizes.size, ffn_in.shape[0], plan.residuals
