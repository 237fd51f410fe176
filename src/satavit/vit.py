"""Pre-norm ViT building blocks: config, patch embedding, attention, FFN.

Block wiring (including the optional token-analysis stage between
attention and FFN) lives in :mod:`satavit.engine`; this module only
provides the per-layer math.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, fields, replace
from numbers import Integral, Real
from typing import ClassVar

import numpy as np

from .parallel import SERIAL, Lanes, run
from .tensorops import as_matrices, gelu, layer_norm, row_softmax

__all__ = [
    "ModelConfig",
    "AttentionOutput",
    "EmbedWeights",
    "AttnWeights",
    "FfnWeights",
    "HeadWeights",
    "patch_embed",
    "mhsa",
    "ffn",
    "ffn_flops",
]

# the most float64 weights (4 GiB) a config may need: ViT-L/16 needs about 3.0e8
MAX_WEIGHTS = 2**29
# fields of earlier manifests, loadable only at the one value the stage now
# always uses (head-averaged attention, cosine matching, column contraction)
_RETIRED_FIELDS = {
    "attention_reduce": "mean",
    "match_metric": "cosine",
    "moran_row_convention": False,
}


@dataclass(frozen=True)
class ModelConfig:
    """Architecture and token-analysis settings for one model.

    ``gamma`` is the depth fraction after which the analysis stage
    activates (blocks with index >= ceil(gamma * depth), 0-based);
    ``alpha`` scales the in-band interval around the score median.

    Every field is in one of two groups: ``ARCHITECTURE_FIELDS`` fix the
    shapes of the weights, so a run config must match the model's in
    each; ``RUN_FIELDS`` are the stage settings a run may override.
    """

    ARCHITECTURE_FIELDS: ClassVar[tuple[str, ...]] = (
        "depth", "dim", "heads", "ffn_ratio", "patch", "image", "num_classes", "channels")
    RUN_FIELDS: ClassVar[tuple[str, ...]] = ("gamma", "alpha", "sata_enabled")

    depth: int = 8
    dim: int = 32
    heads: int = 4
    ffn_ratio: float = 4.0
    patch: int = 4
    image: int = 16
    num_classes: int = 10
    channels: int = 1
    gamma: float = 0.7
    alpha: float = 1.0
    sata_enabled: bool = True

    def __post_init__(self):
        self._check_types()
        for name in _INT_FIELDS:  # each is at most a valid config's weight count
            if getattr(self, name) > MAX_WEIGHTS:
                raise ValueError(f"config field {name!r} must be at most {MAX_WEIGHTS}")
        if self.depth < 1:
            raise ValueError(f"depth must be >= 1, got {self.depth}")
        if self.dim < 1 or self.heads < 1 or self.dim % self.heads != 0:
            raise ValueError(
                f"dim must be a positive multiple of heads, got dim={self.dim} "
                f"heads={self.heads}"
            )
        if self.patch < 1 or self.image < 1 or self.image % self.patch != 0:
            raise ValueError(
                f"image side {self.image} must be divisible by patch side {self.patch}"
            )
        if self.channels < 1:
            raise ValueError(f"channels must be >= 1, got {self.channels}")
        if self.num_classes < 1:
            raise ValueError(f"num_classes must be >= 1, got {self.num_classes}")
        if not 0.0 <= self.gamma <= 1.0:
            raise ValueError(f"gamma must lie in [0, 1], got {self.gamma}")
        if not self.alpha > 0.0:
            raise ValueError(f"alpha must be positive, got {self.alpha}")
        width = self.ffn_ratio * self.dim
        if not (math.isfinite(width) and round(width) >= 1):
            raise ValueError(
                f"config field 'ffn_ratio' must give a finite hidden width of at least 1 "
                f"at dim {self.dim}, got {self.ffn_ratio!r} (width {width:g})"
            )
        parts = self._weights_by_fields()
        if sum(parts.values()) > MAX_WEIGHTS:
            raise ValueError(
                f"config fields {max(parts, key=parts.get)} give more than the "
                f"{MAX_WEIGHTS} weights (4 GiB of float64) a model may have"
            )

    def _check_types(self) -> None:
        """Reject wrongly typed or non-finite fields before any comparison."""
        for name in _INT_FIELDS:
            v = getattr(self, name)
            if isinstance(v, bool) or not isinstance(v, Integral):
                raise ValueError(
                    f"config field {name!r} must be an integer, got {type(v).__name__} {v!r}"
                )
        for name in _FLOAT_FIELDS:
            v = getattr(self, name)
            if isinstance(v, bool) or not isinstance(v, Real):
                raise ValueError(
                    f"config field {name!r} must be a number, got {type(v).__name__} {v!r}"
                )
            if not math.isfinite(v):
                raise ValueError(f"config field {name!r} must be finite, got {v!r}")
        for name in _BOOL_FIELDS:
            v = getattr(self, name)
            if not isinstance(v, (bool, np.bool_)):
                raise ValueError(
                    f"config field {name!r} must be true or false, got {type(v).__name__} {v!r}"
                )

    def _weights_by_fields(self) -> dict[str, int]:
        """The exact number of float64 weights, in parts keyed by the fields
        each part grows with."""
        d, h, p = int(self.dim), self.hidden, int(self.patch)  # no numpy int overflows
        return {
            "'depth', 'dim', 'ffn_ratio'": int(self.depth) * (4 * d * d + 2 * d * h + 9 * d + h),
            "'dim', 'patch', 'channels'": d * (p * p * int(self.channels) + 2),
            "'dim', 'image', 'patch'": d * ((int(self.image) // p) ** 2 + 1),
            "'dim', 'num_classes'": (d + 1) * int(self.num_classes) + 2 * d,
        }

    @property
    def num_weights(self) -> int:
        """Float64 entries of every tensor the config requires."""
        return sum(self._weights_by_fields().values())

    @property
    def hidden(self) -> int:
        return int(round(self.ffn_ratio * self.dim))

    @property
    def grid(self) -> int:
        return self.image // self.patch

    @property
    def num_patches(self) -> int:
        return self.grid * self.grid

    @property
    def num_tokens(self) -> int:
        """Patch tokens plus the class token."""
        return self.num_patches + 1

    @property
    def block_ffn_flops(self) -> int:
        """A block's full FFN on every token: ``ffn_flops(num_tokens, dim, hidden)``."""
        return ffn_flops(self.num_tokens, self.dim, self.hidden)

    @property
    def sata_start_block(self) -> int:
        """First 0-based block index the analysis stage applies to."""
        return math.ceil(self.gamma * self.depth)

    def with_overrides(self, **kwargs) -> "ModelConfig":
        return replace(self, **kwargs)

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, d: dict) -> "ModelConfig":
        if not isinstance(d, dict):
            raise ValueError(f"model config must be a JSON object, got {type(d).__name__}")
        for name, old in _RETIRED_FIELDS.items():
            v = d.get(name, old)
            if type(v) is not type(old) or v != old:
                raise ValueError(
                    f"config field {name!r} is retired and only its old default {old!r} "
                    f"is accepted, got {type(v).__name__} {v!r}"
                )
        d = {k: v for k, v in d.items() if k not in _RETIRED_FIELDS}
        known = {f.name for f in fields(cls)}
        unknown = set(d) - known
        if unknown:
            raise ValueError(f"unknown config fields: {sorted(unknown)}")
        return cls(**d)


# each field's type check, by its annotation
_INT_FIELDS, _FLOAT_FIELDS, _BOOL_FIELDS = (
    tuple(f.name for f in fields(ModelConfig) if f.type == kind) for kind in ("int", "float", "bool")
)


@dataclass(frozen=True)
class EmbedWeights:
    weight: np.ndarray  # (patch*patch*channels, dim)
    bias: np.ndarray  # (dim,)
    class_token: np.ndarray  # (dim,)
    pos_embed: np.ndarray  # (num_tokens, dim)


@dataclass(frozen=True)
class AttnWeights:
    ln_gain: np.ndarray
    ln_bias: np.ndarray
    wq: np.ndarray
    bq: np.ndarray
    wk: np.ndarray
    bk: np.ndarray
    wv: np.ndarray
    bv: np.ndarray
    wo: np.ndarray
    bo: np.ndarray


@dataclass(frozen=True)
class FfnWeights:
    ln_gain: np.ndarray
    ln_bias: np.ndarray
    w1: np.ndarray  # (dim, hidden)
    b1: np.ndarray
    w2: np.ndarray  # (hidden, dim)
    b2: np.ndarray


@dataclass(frozen=True)
class HeadWeights:
    ln_gain: np.ndarray
    ln_bias: np.ndarray
    weight: np.ndarray  # (dim, num_classes)
    bias: np.ndarray


@dataclass(frozen=True)
class AttentionOutput:
    """Attention result: residual-added features plus the head-averaged map."""

    features: np.ndarray  # ([B,] num_tokens, dim), x + projected attention
    mean_attention: np.ndarray  # ([B,] num_tokens, num_tokens), head average


def patch_embed(image, w: EmbedWeights, cfg: ModelConfig) -> np.ndarray:
    """Image -> token tensor: linear patch projection, class token, pos add.

    Patches are read in raster order; each patch block is flattened
    row-major over (row, col, channel) before the linear map.
    """
    img = np.asarray(image, dtype=np.float64)
    if img.ndim == 2:
        img = img[:, :, None]
    if img.ndim != 3:
        raise ValueError(f"image must be HxW or HxWxC, got shape {img.shape}")
    h, wpx, c = img.shape
    if h != cfg.image or wpx != cfg.image or c != cfg.channels:
        raise ValueError(
            f"image shape {img.shape} does not match config "
            f"({cfg.image}x{cfg.image}x{cfg.channels})"
        )
    p = cfg.patch
    g = cfg.grid
    if w.weight.shape != (p * p * c, cfg.dim):
        raise ValueError(
            f"patch projection shape {w.weight.shape} does not match "
            f"({p * p * c}, {cfg.dim})"
        )
    # (g, p, g, p, c) -> (g, g, p, p, c) -> (g*g, p*p*c)
    blocks = img.reshape(g, p, g, p, c).transpose(0, 2, 1, 3, 4)
    flat = blocks.reshape(g * g, p * p * c)
    tokens = flat @ w.weight + w.bias
    x = np.vstack([w.class_token[None, :], tokens])
    if w.pos_embed.shape != x.shape:
        raise ValueError(
            f"position embedding shape {w.pos_embed.shape} does not match "
            f"token tensor shape {x.shape}"
        )
    return x + w.pos_embed


def mhsa(x, w: AttnWeights, heads: int, lanes: Lanes = SERIAL) -> AttentionOutput:
    """Pre-norm multi-head self-attention with residual add.

    ``x`` is one image's tokens, (n, d), or a stack of them, (B, n, d);
    each image's slice of the output is bitwise the output for that
    image alone, because every product is a stacked ``matmul`` of the
    same per-image shapes.  Per-head logits are scaled by
    1/sqrt(dim/heads); ``mean_attention`` is the head average of the
    post-softmax maps, which are not kept.  ``lanes`` splits the work
    from the Q/K/V projections to the attended values by head groups
    (each group projects its own columns); the result is bitwise the
    same for every lane count.  A non-finite weight passes through to
    ``features``, and only ``layer_norm`` raises, on an input row whose
    variance is non-finite; the caller checks the result, as
    :func:`satavit.engine.run_blocks` does.
    """
    x = as_matrices(x)
    n, d = x.shape[-2:]
    for name, mat in (("wq", w.wq), ("wk", w.wk), ("wv", w.wv), ("wo", w.wo)):
        if mat.shape != (d, d):
            raise ValueError(f"attention weight {name} has shape {mat.shape}, expected ({d}, {d})")
    if d % heads != 0:
        raise ValueError(f"dim {d} not divisible by {heads} heads")
    hd = d // heads
    scale = 1.0 / math.sqrt(hd)  # correctly rounded, as np.sqrt
    by_head = x.shape[:-1] + (-1, hd)  # ([B,] n, heads, hd), swapped to ([B,] heads, n, hd)

    normed = layer_norm(x, w.ln_gain, w.ln_bias)
    attended = np.empty(x.shape)
    ah = attended.reshape(by_head).swapaxes(-3, -2)

    def attend(group):
        cols = slice(group.start * hd, group.stop * hd)
        q, k, v = normed @ w.wq[:, cols], normed @ w.wk[:, cols], normed @ w.wv[:, cols]
        q += w.bq[cols]
        k += w.bk[cols]
        v += w.bv[cols]
        qh, kh, vh = (m.reshape(by_head).swapaxes(-3, -2) for m in (q, k, v))
        logits = qh @ kh.swapaxes(-2, -1)
        logits *= scale
        maps = row_softmax(logits.reshape(-1, n)).reshape(logits.shape)
        np.matmul(maps, vh, out=ah[..., group, :, :])
        return maps

    groups = run(attend, lanes.heads(heads, n, d), lanes.count)
    maps = groups[0] if len(groups) == 1 else np.concatenate(groups, axis=-3)
    features = attended @ w.wo
    features += w.bo
    features += x
    # ndarray.mean's add.reduce and in-place divide, bitwise, without its wrapper
    mean_attention = maps.sum(axis=-3)
    mean_attention /= heads
    return AttentionOutput(features=features, mean_attention=mean_attention)


def ffn(x, w: FfnWeights, lanes: Lanes = SERIAL) -> np.ndarray:
    """Feed-forward delta: Linear -> GELU -> Linear on the layer-normed input.

    ``x`` is one image's tokens, (n, d), or a stack of them, (B, n, d),
    with each image's slice of the delta bitwise its delta alone.
    Returns only the delta; the caller owns the residual add.  An empty
    token tensor maps to an empty delta.  ``lanes`` splits the whole
    chain by token rows; the result is bitwise the same for every lane
    count.  A non-finite weight passes through to the delta, and
    only ``layer_norm`` raises, on an input row whose variance is
    non-finite; the caller checks the result, as
    :func:`satavit.engine.run_blocks` does.
    """
    x = as_matrices(x)
    n, d = x.shape[-2:]
    if w.w1.shape[0] != d or w.w2.shape[1] != d or w.w1.shape[1] != w.w2.shape[0]:
        raise ValueError(
            f"ffn weight shapes {w.w1.shape} / {w.w2.shape} do not chain for dim {d}"
        )
    if n == 0:
        return np.zeros_like(x)
    out = np.empty(x.shape)

    def ffn_rows(rows):
        h = layer_norm(x[..., rows, :], w.ln_gain, w.ln_bias) @ w.w1
        h += w.b1
        part = out[..., rows, :]
        np.matmul(gelu(h), w.w2, out=part)
        part += w.b2

    run(ffn_rows, lanes.rows(n, d, w.w1.shape[1]), lanes.count)
    return out


def ffn_flops(n_tokens: int, d: int, hidden: int) -> int:
    """FLOPs of the two FFN linear layers, multiply-accumulate counted as 2.

    Biases and the GELU are excluded from the count.
    """
    if n_tokens < 0:
        raise ValueError(f"token count must be non-negative, got {n_tokens}")
    if d < 1 or hidden < 1:
        raise ValueError(f"dimensions must be positive, got d={d} hidden={hidden}")
    return 2 * n_tokens * (d * hidden + hidden * d)
