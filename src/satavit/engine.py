"""Full forward pass: embedding, blocks, optional token stage, head.

``forward`` is the composition of three steps that callers may also
run separately: ``embed`` (patch tokens plus class token),
``run_blocks`` (any contiguous block range from a given stream) and
``classify`` (final LayerNorm and head).  The harness uses them to
resume from a cached stream instead of recomputing a shared prefix.

Every block records a :class:`~satavit.sata.BlockTrace` whether or not
the token-analysis stage acts there, so score statistics and FLOPs are
observable across the whole depth.  In blocks where the stage is
inactive the trace reports the diagnostic scores and band bounds with
an empty out-of-band set (all tokens go to the FFN).
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from .modelio import Model, attn_view, embed_view, ffn_view, head_view
from .moran import spatial_scores
from .sata import BlockTrace, moran_weights, ffn_flops, sata_stage
from .tensorops import layer_norm
from .vit import LN_EPS, AttentionOutput, ModelConfig, ffn, mhsa, patch_embed

__all__ = ["forward", "embed", "run_blocks", "classify"]


def _passthrough_trace(
    x: np.ndarray, attn: AttentionOutput, cfg: ModelConfig, block_index: int
) -> BlockTrace:
    """Diagnostic trace for a block where the token stage does not act."""
    scores = spatial_scores(
        x[1:], moran_weights(attn, cfg), row_convention=cfg.moran_row_convention
    )
    lower = cfg.alpha * (scores.mean_s - scores.abs_median_s)
    upper = cfg.alpha * (scores.mean_s + scores.abs_median_s)
    n_all, d = x.shape
    hidden = cfg.hidden
    return BlockTrace(
        block_index=block_index,
        n_a=0,
        n_b=n_all - 1,
        n_groups=0,
        n_residual=0,
        ffn_tokens=n_all,
        s_snapshot=scores.s.copy(),
        bounds=(float(lower), float(upper)),
        ffn_flops=ffn_flops(n_all, d, hidden),
        mean_s=scores.mean_s,
        abs_median_s=scores.abs_median_s,
        residual_indices=np.empty(0, dtype=np.int64),
        cls_attention=attn.mean_attention[0, 1:].copy(),
    )


def embed(image, model: Model, cfg: ModelConfig) -> np.ndarray:
    """Token stream entering block 0: patch projection, class token, positions."""
    return patch_embed(image, embed_view(model), cfg)


def run_blocks(
    x: np.ndarray,
    model: Model,
    cfg: ModelConfig,
    first: int,
    stop: int,
    capture_streams: bool = False,
) -> tuple[np.ndarray, list[BlockTrace]]:
    """Run blocks ``first .. stop - 1`` on the stream ``x`` entering block ``first``.

    Returns the stream leaving block ``stop - 1`` (``x`` itself for an
    empty range) and one trace per block run.  The stream is never
    modified in place, so a caller may keep it and resume from it.
    """
    if not 0 <= first <= stop <= cfg.depth:
        raise ValueError(f"block range [{first}, {stop}) outside depth {cfg.depth}")
    start = cfg.sata_start_block
    traces: list[BlockTrace] = []
    for i in range(first, stop):
        attn = mhsa(x, attn_view(model, i), cfg.heads)
        xa = attn.features
        if cfg.sata_enabled and i >= start:
            x_next, trace = sata_stage(xa, attn, cfg, ffn_view(model, i), block_index=i)
        else:
            x_next = ffn(xa, ffn_view(model, i))
            x_next += xa
            trace = _passthrough_trace(xa, attn, cfg, i)
        if capture_streams:
            trace = replace(trace, x_pre=xa.copy(), x_post=x_next.copy())
        traces.append(trace)
        x = x_next
    return x, traces


def classify(x: np.ndarray, model: Model) -> np.ndarray:
    """Logits from the final stream: final LayerNorm, then the class-token head."""
    head = head_view(model)
    final = layer_norm(x, head.ln_gain, head.ln_bias, eps=LN_EPS)
    return final[0] @ head.weight + head.bias


def forward(
    image,
    model: Model,
    cfg: ModelConfig | None = None,
    capture_streams: bool = False,
) -> tuple[np.ndarray, list[BlockTrace]]:
    """Run all blocks and the classifier head on one image.

    ``cfg`` overrides the model's stored config for run-time settings
    (alpha, gamma, stage on/off); architecture fields must match the
    weights.  With ``capture_streams`` each trace also keeps the
    pre-FFN and post-block token tensors for inspection.
    """
    if cfg is None:
        cfg = model.config
    # the embedding goes straight into run_blocks so that no local here
    # keeps it alive through the block loop; holding it changes the
    # allocation pattern and made a ViT-Ti forward about 8% slower
    x, traces = run_blocks(embed(image, model, cfg), model, cfg, 0, cfg.depth, capture_streams)
    return classify(x, model), traces
