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

A stack of images runs through a block at once, each image's slice
bitwise what it gives alone: one score and band compare, one match, one
reduced-FFN call per BLAS kernel side and one restore.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import accumulate
from typing import NamedTuple, Optional

import numpy as np

from .moran import SpatialScores, spatial_scores
from .parallel import SERIAL, Lanes, blocked_lines
from .tensorops import as_matrices
from .vit import AttentionOutput, FfnWeights, ModelConfig, ffn, ffn_flops

__all__ = [
    "SplitResult",
    "MergePlan",
    "BlockTrace",
    "split_tokens",
    "bipartite_match",
    "sata_stage",
]


@dataclass(slots=True)
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
    The score fields (``scores``, the image's own :class:`SpatialScores`,
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


def split_tokens(scores: SpatialScores, alpha: float) -> SplitResult:
    """Split one image's token indices by the closed alpha-scaled band around its scores.

    The out-of-band set is the complement of the band (score strictly
    below the lower bound or strictly above the upper bound); bound
    hits count as in-band.
    """
    if np.ndim(scores.s) != 1:
        raise ValueError(f"split_tokens takes one image's scores, got shape {np.shape(scores.s)}")
    inside, lower, upper = _band(scores, alpha)
    return SplitResult(inside=inside, lower=float(lower), upper=float(upper))


def _band(scores: SpatialScores, alpha: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The in-band mask, ([B,] n), and each image's lower and upper bound, ([B,])."""
    if not math.isfinite(alpha):
        raise ValueError(f"config field 'alpha' must be finite, got {alpha!r}")
    if not alpha > 0.0:
        raise ValueError(f"alpha must be positive, got {alpha}")
    # ufuncs, not operators: a trace's record holds Python floats
    lower = alpha * np.subtract(scores.mean_s, scores.abs_median_s)
    upper = alpha * np.add(scores.mean_s, scores.abs_median_s)
    inside = scores.s >= lower[..., None]
    inside &= scores.s <= upper[..., None]
    return inside, lower, upper


def bipartite_match(set_a, features) -> MergePlan | list[MergePlan]:
    """One-edge-per-source matching between alternating halves of set_a.

    Sources are the even positions of set_a's order, targets the odd
    positions.  Each source connects to its most similar target (argmax
    cosine similarity, ties to the lowest token index), so the sources
    are the keys of ``edges``.  A target plus its sources merge into a
    group represented by the unweighted mean of their feature rows.
    Targets without edges become residuals.
    A set with fewer than two members yields an empty plan, the lone
    member (if any) turning residual.

    One image's ``set_a`` and features, (n, d), give its
    :class:`MergePlan`.  A list of sets, one per image, with a stack of
    features, (B, n, d), gives one ``MergePlan`` per image, each bitwise
    what the image gives alone, from one matching of the whole stack;
    the one image is the stack of one.  Every index must lie in
    ``[0, n)`` (a stack's images share no rows) and appear at most once
    in its image's set.
    """
    features = as_matrices(features)
    stacked = features.ndim == 3
    feats = features if stacked else features[None]
    sets = [np.asarray(a, dtype=np.int64).ravel() for a in (set_a if stacked else [set_a])]
    images, n, d = feats.shape
    if len(sets) != images:
        raise ValueError(f"{len(sets)} token sets for a stack of {images} images")
    n_a = np.array([a.size for a in sets], dtype=np.int64)
    img = np.repeat(np.arange(images), n_a)
    token = np.concatenate(sets)
    bad = (token < 0) | (token >= n)
    if np.logical_or.reduce(bad):
        raise ValueError(f"token index {token[bad][0]} outside [0, {n}) in image {img[bad][0]}")
    rows = token + n * img
    ordered = np.sort(rows)
    repeated = ordered[1:][ordered[1:] == ordered[:-1]]
    if repeated.size:
        raise ValueError(f"token index {repeated[0] % n} repeats in image {repeated[0] // n}")
    plan = _match(feats.reshape(-1, d), rows, img, n_a)

    def tokens(rows):  # flat rows -> each image's token indices
        owner = rows // n
        return _by_image(rows - n * owner, np.bincount(owner, minlength=images))

    plans = [
        MergePlan(edges=dict(zip(src.tolist(), tgt.tolist())), members=members,
                  group_sizes=sizes, representatives=reps, residuals=residuals)
        for src, tgt, members, sizes, reps, residuals in zip(
            tokens(plan.sources), tokens(plan.targets), tokens(plan.members),
            _by_image(plan.group_sizes, plan.groups),
            _by_image(plan.representatives, plan.groups),
            tokens(plan.residuals))
    ]
    return plans if stacked else plans[0]


class _Plan(NamedTuple):
    """A stack's matching over flat feature rows, image by image in order."""

    sources: np.ndarray  # even positions of each image's set
    targets: np.ndarray  # each source's target
    members: np.ndarray  # merged rows by group (ascending target), ascending within
    group_sizes: np.ndarray
    representatives: np.ndarray  # (groups, d)
    residuals: np.ndarray  # targets with no incoming edge
    groups: np.ndarray  # per image, its count of groups
    residual_counts: np.ndarray  # per image, its count of residuals


def _match(feats: np.ndarray, rows: np.ndarray, img: np.ndarray, n_a: np.ndarray) -> _Plan:
    """:func:`bipartite_match` of every image of a stack at once.

    ``feats`` holds the rows of all images, (R, d); ``rows`` lists each
    image's set in its order, image after image, ``img`` the image of
    each entry and ``n_a`` each image's set size.  Each image's results
    are bitwise its own: the unit rows and the zero-row flags are per
    row, each image's similarity GEMM has its own shape, written into a
    padded buffer whose padding (-inf) never wins the ``argmax``, and
    every group sums its own members from +0.0 in member order.
    """
    # even positions are sources, odd ones targets; a lone member is a
    # target.  k1 and k2: each image's count of sources and of targets
    sizes = n_a.tolist()
    images = len(sizes)
    k1 = [0 if size == 1 else (size + 1) // 2 for size in sizes]
    k2 = [size - m for size, m in zip(sizes, k1)]
    start = np.add.accumulate(n_a)
    start -= n_a
    half, odd = np.divmod(np.arange(rows.size) - start[img], 2)  # slot in the image's half
    is_target = odd == 1
    if 1 in sizes:
        is_target |= (n_a == 1)[img]
    src, tgt = (~is_target).nonzero()[0], is_target.nonzero()[0]
    src_rows, tgt_rows = rows[src], rows[tgt]
    if not src.size:
        none = np.empty(0, dtype=np.int64)
        return _Plan(none, none, none, none, np.zeros((0, feats.shape[1])), tgt_rows,
                     np.zeros(images, dtype=np.int64), n_a)
    src_img, slot = img[src], half[src]
    f = feats[np.concatenate([src_rows, tgt_rows])]
    # unit rows, 0 for a row of norm 0; np.linalg.norm(f, axis=1,
    # keepdims=True) computes exactly these norms
    norms = np.sqrt(np.add.reduce(f * f, axis=1, keepdims=True))
    positive = norms > 0
    u = np.divide(f, norms, out=np.zeros(f.shape), where=positive)
    u1, u2 = u[: src.size], u[src.size :]
    sim = np.empty((images, max(k1), max(k2)))
    sim.fill(-np.inf)
    s1 = s2 = 0
    for b, (m, k) in enumerate(zip(k1, k2)):
        if m:
            np.matmul(u1[s1 : s1 + m], u2[s2 : s2 + k].T, out=sim[b, :m, :k])
        s1 += m
        s2 += k
    # all-zero rows have unit 0; a zero source against a zero target of
    # its image counts as identical (similarity 1), matching the
    # package-wide cosine convention.  Exact zeros: a row whose norm
    # underflows to 0 is no zero row, and only a row of norm 0 can be
    # one.  (The ufunc reductions np.all and ndarray.any run, without
    # their Python wrappers.)
    if not np.logical_and.reduce(positive, axis=None):
        zero = np.logical_and.reduce(f == 0.0, axis=1)
        zero1, zero2 = zero[: src.size], zero[src.size :]
        if np.logical_or.reduce(zero1) and np.logical_or.reduce(zero2):
            zero_src = np.zeros(sim.shape[:2], dtype=bool)
            zero_src[src_img, slot] = zero1
            zero_tgt = np.zeros((images, sim.shape[2]), dtype=bool)
            zero_tgt[img[tgt], half[tgt]] = zero2
            sim[zero_src[:, :, None] & zero_tgt[:, None, :]] = 1.0

    # argmax returns the first maximum; targets are in set order, so ties
    # resolve to the lowest token index.  picked: each source's target as
    # a position among all targets, which run image after image
    first_target = np.array([0, *accumulate(k2[:-1])])
    picked = first_target[src_img] + sim.argmax(axis=2)[src_img, slot]
    hit = np.zeros(tgt.size, dtype=bool)
    hit[picked] = True
    # every member keyed by its target's position: the image leads, then
    # the target, then the member's own row
    keys = np.concatenate([hit.nonzero()[0], picked])
    members = np.concatenate([tgt_rows[hit], src_rows])
    members = members[np.lexsort((members, keys))]
    group_sizes = np.bincount(picked, minlength=tgt.size)[hit] + 1

    # summed in member order from +0.0, one member rank of every group of
    # every image per pass, then divided: bitwise equal to
    # feats[group].mean(axis=0) (np.add.reduceat is not).  Largest groups
    # first: the groups with a member of rank r are then the first
    # longer[r], and their rows of that rank the next longer[r] rows of
    # by_rank
    order = (-group_sizes).argsort(kind="stable")
    first = (np.add.accumulate(group_sizes) - group_sizes)[order]
    longer = np.add.accumulate(np.bincount(group_sizes)[::-1])[::-1][1:]
    rank = np.arange(longer.size)[:, None]
    by_rank = feats[members[(first + rank)[rank < group_sizes[order]]]]
    sums = np.zeros((group_sizes.size, feats.shape[1]))
    at = 0
    for live in longer.tolist():
        sums[:live] += by_rank[at : at + live]
        at += live
    reps = np.empty_like(sums)
    reps[order] = sums
    reps /= group_sizes[:, None]
    groups = np.bincount(img[tgt[hit]], minlength=images)
    return _Plan(src_rows, tgt_rows[picked], members, group_sizes, reps, tgt_rows[~hit], groups,
                 np.subtract(k2, groups))


def _by_image(values: np.ndarray, counts: np.ndarray) -> list[np.ndarray]:
    """``values``, image after image, cut into one slice per image of ``counts`` entries."""
    bounds = [0, *np.add.accumulate(counts).tolist()]
    return [values[a:b] for a, b in zip(bounds, bounds[1:])]


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

    The stage merges where ``cfg.merges(block_index)``: the stage is
    enabled and the block is at or past ``cfg.sata_start_block``.  In
    any other block the full FFN runs on the stream itself, once over
    the whole stack, with no gather or restore; the trace reports an
    empty out-of-band set (``n_a=0``, ``n_b=N-1``, no groups, no
    residuals, ``ffn_tokens=N``).

    A merging block, and with ``trace_scores`` every block, scores the
    whole stack into one :class:`SpatialScores` and bands it at once.
    A merging block then matches the out-of-band tokens of every image
    in one call (only the similarity GEMMs run image by image, each at
    its own shape), runs the reduced FFN for the whole stack and adds
    every delta back by flat row indices.  Each image's reduced token
    set is padded with zero rows to the longest image's (a stack of one
    has no padding rows).  Padding keeps an image's bits only while its
    own and the padded row count use the same BLAS kernel
    (:func:`~satavit.parallel.blocked_lines`), so the images run in one
    padded stack per kernel side: one ``ffn`` call per side.  The FFN
    runs on ``lanes``.  A trace counts each image's own tokens, never
    padding rows.

    With ``trace_scores`` every trace carries its image's own scores
    (a ``SpatialScores`` built only then), bounds and class-token
    attention row; a pass-through block reports its real scores and
    bounds next to the empty out-of-band set.  Without it
    those fields are ``None``, and a pass-through block skips scoring
    and banding altogether.  The output is the same either way.

    Only a merging block, or any block with ``trace_scores``, reads
    ``attn.mean_attention``, and raises ``ValueError`` if it is
    ``None``.  A pass-through block without ``trace_scores`` reads no
    map, so ``mhsa(..., mean_attention=False)`` may skip building it.
    A map that is given must match the stream's shape.
    """
    x = as_matrices(attn.features)
    single = x.ndim == 2
    x = x[None] if single else x
    images, n_all, d = x.shape
    if n_all < 2:
        raise ValueError(f"need at least one patch token besides the class token, got {n_all} rows")

    merge = cfg.merges(block_index)
    maps = attn.mean_attention
    if maps is not None:
        maps = maps[None] if single else maps
        if maps.shape != (images, n_all, n_all):
            raise ValueError(
                f"attention map shape {attn.mean_attention.shape} does not match {n_all} tokens"
            )
    elif merge or trace_scores:
        raise ValueError(f"block {block_index} reads the attention map "
                         f"({'it merges' if merge else 'scores are traced'}) but got none")
    if merge or trace_scores:
        scores = spatial_scores(x[:, 1:], maps[:, 1:, 1:])
        inside, lower, upper = _band(scores, cfg.alpha)
    if merge:
        out, counts = _merge(x, inside, ffn_weights, lanes)
    else:  # the full FFN and an empty out-of-band set in each image
        out = ffn(x, ffn_weights, lanes)
        out += x
        counts = [(n_all, 0, np.empty(0, dtype=np.int64))] * images
    if trace_scores:
        # one copy for the stack: a view would keep the block's mean maps
        # alive, and the averaged ViT-Ti stability report then peaked at
        # 190, not 117 MB
        cls_rows = maps[:, 0, 1:].copy()
        per_image = map(SpatialScores, scores.s, scores.mean_s.tolist(),
                        scores.abs_median_s.tolist())
        scored = zip(per_image, zip(lower.tolist(), upper.tolist()), cls_rows)
    else:
        scored = [(None, None, None)] * images
    # ffn_flops is linear in the token count: each trace's count times one token's
    token_flops = ffn_flops(1, d, ffn_weights.w1.shape[1])
    traces = [
        BlockTrace(block_index, n_all - n_kept, n_kept - 1, n_groups, n_kept + n_groups,
                   (n_kept + n_groups) * token_flops, residuals, *fields)
        for (n_kept, n_groups, residuals), fields in zip(counts, scored)
    ]
    return (out[0], traces[0]) if single else (out, traces)


def _merge(x: np.ndarray, inside: np.ndarray, ffn_weights: FfnWeights, lanes: Lanes):
    """A merging block on a stack, (B, n, d), with its in-band patch mask,
    (B, n - 1): the output stack and, per image, its count of rows
    routed to the FFN as they are (the class token and the in-band
    tokens), its group count and its residual token indices."""
    images, n_all, d = x.shape
    routed = np.empty((images, n_all), dtype=bool)
    routed[:, 0] = True
    routed[:, 1:] = inside
    flat = x.reshape(-1, d)
    img, col = (~routed).nonzero()
    n_kept = np.add.reduce(routed, axis=1)
    plan = _match(flat, n_all * img + col, img, n_all - n_kept)

    # each image's FFN input: its routed rows, then its groups'
    # representatives, padded with zero rows to the longest image's.
    # at_kept and at_group: each part's rows in the padded stack, image
    # after image
    kept = routed.ravel().nonzero()[0]
    n_rows = n_kept + plan.groups
    rows = n_rows.tolist()
    line = np.arange(max(rows))
    is_kept = line < n_kept[:, None]
    is_group = line < n_rows[:, None]
    is_group ^= is_kept
    at_kept, at_group = is_kept.ravel().nonzero()[0], is_group.ravel().nonzero()[0]
    ffn_in = np.zeros((images, line.size, d))
    ffn_rows = ffn_in.reshape(-1, d)
    ffn_rows[at_kept] = flat[kept]
    ffn_rows[at_group] = plan.representatives
    # padding keeps an image's bits only on its own BLAS kernel side;
    # every image has at least 2 rows (the class token and an in-band
    # token or a group), so none takes the matrix-vector path
    blocked = blocked_lines(d * ffn_weights.w1.shape[1])
    if (max(rows) >= blocked) == (min(rows) >= blocked):
        deltas = ffn(ffn_in, ffn_weights, lanes)
    else:  # one stack per side, each as long as its longest image
        deltas = np.empty_like(ffn_in)
        for side in (n_rows >= blocked, n_rows < blocked):
            longest = n_rows[side].max()
            deltas[side, :longest] = ffn(ffn_in[side, :longest], ffn_weights, lanes)

    # each routed row takes its own delta, each member its group's;
    # residual rows stay bitwise untouched
    out = x.copy()
    to = np.concatenate([kept, plan.members])
    out.reshape(-1, d)[to] += deltas.reshape(-1, d)[
        np.concatenate([at_kept, at_group.repeat(plan.group_sizes)])]
    residuals = _by_image(plan.residuals % n_all - 1, plan.residual_counts)
    return out, list(zip(n_kept.tolist(), plan.groups.tolist(), residuals))
