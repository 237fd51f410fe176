"""Full forward pass: embedding, blocks, optional token stage, head.

``forward_batch`` is the composition of three steps that callers may
also run separately: ``embed`` (patch tokens plus class token),
``run_blocks`` (any contiguous block range from a given stream) and
``classify`` (final LayerNorm and head).  The harness uses them to
resume from a cached stream instead of recomputing a shared prefix.
``run_blocks`` and ``classify`` take one image's stream, (n, d), or a
stack of them, (B, n, d): each block then runs its attention and any
pass-through FFN once over the stack, and each image's slice of every
result is bitwise what the image gives alone.  ``forward`` is the
stack of one.

Every block goes through :func:`~satavit.sata.sata_stage`, which
records the block's :class:`~satavit.sata.BlockTrace`, so token counts
and FLOPs are observable across the whole depth.  The stage decides
from ``cfg`` and the block index whether a block merges
(``cfg.merges``); before ``sata_start_block`` or with the stage
disabled it passes through: the full FFN on the whole stream, and a
trace with an empty out-of-band set.  ``trace_scores`` decides what
else a trace holds.  Without it (the default) only stage blocks score
and band the tokens, because they need the split, and no trace keeps
a score; a pass-through block then reads no attention map, so its
``mhsa`` builds none.  With it every block scores and bands, and every
trace keeps its image's :class:`~satavit.moran.SpatialScores`, band
bounds and class-token attention row.  The logits are the same either way.

Weights come from outside the program, so a forward checks that each
stream is finite once, where it leaves a part of the model: the
embedding, each block's attention and FFN, the final LayerNorm and the
logits.  The kernels in between let a non-finite value pass through, so
a failure raises ``FloatingPointError`` naming the part whose output it
first reached: ``embed: ``, ``block {i}: attention``, ``block {i}: ffn``
or ``head: ``.  A finite stream whose LayerNorm variance overflows
raises from ``layer_norm`` itself, prefixed with its block or the head.
"""

from __future__ import annotations

import numpy as np

from . import parallel
from .modelio import Model, attn_view, embed_view, ffn_view, head_view
# ffn and spatial_scores are unused here; perfbench/run.py traces them as engine globals
from .moran import spatial_scores
from .sata import BlockTrace, sata_stage
from .tensorops import layer_norm
from .vit import ModelConfig, ffn, mhsa, patch_embed

__all__ = ["forward", "forward_batch", "embed", "run_blocks", "classify"]


def _finite(x: np.ndarray, part: str) -> np.ndarray:
    """``x``, if every entry is finite; else a ``FloatingPointError`` naming ``part``."""
    if np.count_nonzero(np.isfinite(x)) != x.size:  # .all() without its Python wrapper
        raise FloatingPointError(f"{part} produced non-finite entries")
    return x


def embed(image, model: Model) -> np.ndarray:
    """Token stream entering block 0, in the geometry of ``model.config``.

    A non-finite stream (say a NaN in ``pos_embed``) raises
    ``FloatingPointError`` prefixed with ``embed: ``.
    """
    return _finite(patch_embed(image, embed_view(model), model.config), "embed: patch embedding")


def run_blocks(
    x: np.ndarray,
    model: Model,
    cfg: ModelConfig,
    first: int,
    stop: int,
    trace_scores: bool = False,
) -> tuple[np.ndarray, list[BlockTrace]]:
    """Run blocks ``first .. stop - 1`` on the stream ``x`` entering block ``first``.

    Returns the stream leaving block ``stop - 1`` (``x`` itself for an
    empty range) and one trace per block run, with scores if
    ``trace_scores`` (see :class:`~satavit.sata.BlockTrace`).  For a
    stack of streams, (B, n, d), it returns the stack and one such list
    of traces per image.  ``cfg``
    must match ``model.config`` in every ``ModelConfig.ARCHITECTURE_FIELDS``.  The stream
    is never modified in place, so a caller may keep it and resume from
    it.  The blocks run on ``parallel.lanes(cfg)``, decided once per
    call.  Each block checks its attention output and its own output
    once; a non-finite one raises ``FloatingPointError`` prefixed with
    ``block {i}: attention`` or ``block {i}: ffn``, and an overflowing
    LayerNorm variance with ``block {i}: layer_norm``.

    A caller that needs each block's streams steps the blocks one call
    at a time: ``run_blocks(x, model, cfg, i, i + 1)`` gives the stream
    leaving block ``i``, bitwise equal to the one ``forward`` passes on,
    and ``mhsa(x, model.blocks[i][0], cfg.heads).features`` the pre-FFN
    stream the stage reads.
    """
    differ = [f for f in ModelConfig.ARCHITECTURE_FIELDS
              if getattr(cfg, f) != getattr(model.config, f)]
    if differ:
        raise ValueError(f"config does not match the model's weights in {', '.join(differ)}")
    if not 0 <= first <= stop <= cfg.depth:
        raise ValueError(f"block range [{first}, {stop}) outside depth {cfg.depth}")
    lanes = parallel.lanes(cfg)
    traces = []
    for i in range(first, stop):
        try:
            attn = mhsa(x, attn_view(model, i), cfg.heads, lanes, trace_scores or cfg.merges(i))
            _finite(attn.features, "attention")
            x_next, trace = sata_stage(attn, cfg, ffn_view(model, i), i, lanes, trace_scores)
            _finite(x_next, "ffn")
        except FloatingPointError as exc:
            raise FloatingPointError(f"block {i}: {exc}") from exc
        traces.append(trace)
        x = x_next
    if np.ndim(x) == 3:  # per block, one trace per image -> per image, one per block
        traces = [[block[b] for block in traces] for b in range(len(x))]
    return x, traces


def classify(x: np.ndarray, model: Model) -> np.ndarray:
    """Logits from the final stream: final LayerNorm, then the class-token head.

    A stack of streams, (B, n, d), gives one row of logits per image.
    A non-finite final LayerNorm output or logit (say a NaN in
    ``head.weight``) raises ``FloatingPointError`` prefixed with
    ``head: ``.  The LayerNorm check covers every row, not only the
    class token's: a huge ``final_norm.gain`` can overflow the other
    rows alone.
    """
    head = head_view(model)
    try:
        final = _finite(layer_norm(x, head.ln_gain, head.ln_bias), "layer_norm")
        # the class rows as (..., 1, d): a stack of vector-matrix products,
        # each bitwise the one image's; a (B, d) GEMM rounds differently
        logits = (final[..., :1, :] @ head.weight)[..., 0, :]
        logits += head.bias
        return _finite(logits, "classifier")
    except FloatingPointError as exc:
        raise FloatingPointError(f"head: {exc}") from exc


def forward_batch(
    images,
    model: Model,
    cfg: ModelConfig | None = None,
    trace_scores: bool = False,
) -> list[tuple[np.ndarray, list[BlockTrace]]]:
    """Run all blocks and the classifier head on a stack of images.

    Returns one ``(logits, traces)`` per image, bitwise what
    :func:`forward` gives for that image alone.  ``cfg`` overrides the
    model's stored config for run-time settings (alpha, gamma, stage
    on/off); architecture fields must match the weights.  With
    ``trace_scores`` each trace also keeps the block's scores, band
    bounds and class-token attention row; without it, the default,
    those fields are ``None`` and blocks where the stage does not merge
    skip scoring.  The traces keep no token streams; :func:`run_blocks`
    over one block at a time gives them.  A non-finite stream raises as
    in :func:`run_blocks`, from the first block where any image's does.
    """
    if cfg is None:
        cfg = model.config
    images = list(images)
    if not images:
        raise ValueError("forward_batch needs at least one image")
    # one image's stack is a view of its fresh stream, which no block writes into
    x = embed(images[0], model)[None] if len(images) == 1 else np.stack(
        [embed(image, model) for image in images])
    x, traces = run_blocks(x, model, cfg, 0, cfg.depth, trace_scores)
    return list(zip(classify(x, model), traces))


def forward(
    image,
    model: Model,
    cfg: ModelConfig | None = None,
    trace_scores: bool = False,
) -> tuple[np.ndarray, list[BlockTrace]]:
    """:func:`forward_batch` of the one image: its logits and block traces."""
    return forward_batch([image], model, cfg, trace_scores)[0]
