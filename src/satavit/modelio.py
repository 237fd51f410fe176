"""Model persistence and seeded initialization.

On disk a model is two files sharing a stem: ``<name>.manifest.json``
(format, config, tensor table, checksum) and ``<name>.weights.bin``
(the raw tensors as little-endian float64, concatenated in manifest
order).  The checksum is a hex digest of the blob bytes, verified on
load; the manifest's format names the digest.  ``save_model`` writes
``satavit-weights-v2`` (SHA-256, 64 hex characters); ``load_model``
also reads ``satavit-weights-v1`` (64-bit BLAKE2b, 16 hex characters).
The tensor names, shapes and blob order, and the typed weights a
``Model`` resolves, all derive from the one layout table in
``_layout``.

Random initialization draws every tensor from the package's fixed
splitmix64 stream (see :mod:`satavit.rng`), so a seed produces the
same model on every platform.  Non-norm tensors get i.i.d. normal
entries scaled by 1/sqrt(dim); layer-norm affines start at identity
(gain 1, bias 0).
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .rng import SplitMix64
from .vit import AttnWeights, EmbedWeights, FfnWeights, HeadWeights, ModelConfig

__all__ = [
    "Model",
    "ChecksumError",
    "SchemaError",
    "tensor_schema",
    "random_init",
    "save_model",
    "load_model",
    "model_checksum",
]

MANIFEST_FORMAT = "satavit-weights-v2"

# every manifest format load_model reads, and the hex digest of the blob
# it stores as "checksum"; SHA-256 hashes a ViT-S blob about twice as fast
# as CPython's BLAKE2b where OpenSSL has SHA extensions
_DIGESTS = {
    "satavit-weights-v1": lambda blob: hashlib.blake2b(blob, digest_size=8).hexdigest(),
    MANIFEST_FORMAT: lambda blob: hashlib.sha256(blob).hexdigest(),
}


class ChecksumError(ValueError):
    """Blob bytes do not match the manifest checksum."""


class SchemaError(ValueError):
    """Manifest tensor table does not match what the config requires."""


@dataclass(frozen=True)
class Model:
    """A config and its tensors by name (the one storage), with the typed
    weights resolved from the params' own arrays once, at construction."""

    config: ModelConfig
    params: dict[str, np.ndarray]
    embed: EmbedWeights = field(init=False, repr=False, compare=False)
    # one (attention, FFN) pair per block
    blocks: tuple[tuple[AttnWeights, FfnWeights], ...] = field(
        init=False, repr=False, compare=False
    )
    head: HeadWeights = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        embed, *blocks, head = [
            cls(**{f: self._param(name, shape) for f, name, shape in tensors})
            for cls, tensors in _layout(self.config)
        ]
        object.__setattr__(self, "embed", embed)
        object.__setattr__(self, "blocks", tuple(zip(blocks[::2], blocks[1::2])))
        object.__setattr__(self, "head", head)

    def _param(self, name: str, shape: tuple[int, ...]) -> np.ndarray:
        if name not in self.params:
            raise SchemaError(f"model has no tensor named {name!r}")
        if self.params[name].shape != shape:
            raise SchemaError(
                f"tensor {name!r} has shape {self.params[name].shape}, schema requires {shape}"
            )
        return self.params[name]


def _layout(cfg: ModelConfig) -> list[tuple[type, list[tuple[str, str, tuple[int, ...]]]]]:
    """The weight layout in blob order: each weights object's class and
    its tensors as (field, name, shape)."""
    d, h = cfg.dim, cfg.hidden
    layout: list = [(EmbedWeights, [
        ("weight", "patch_embed.weight", (cfg.patch * cfg.patch * cfg.channels, d)),
        ("bias", "patch_embed.bias", (d,)),
        ("class_token", "class_token", (d,)),
        ("pos_embed", "pos_embed", (cfg.num_tokens, d)),
    ])]
    for i in range(cfg.depth):
        b = f"block{i}"
        layout += [
            (AttnWeights, [
                ("ln_gain", f"{b}.ln1.gain", (d,)),
                ("ln_bias", f"{b}.ln1.bias", (d,)),
                ("wq", f"{b}.attn.wq", (d, d)),
                ("bq", f"{b}.attn.bq", (d,)),
                ("wk", f"{b}.attn.wk", (d, d)),
                ("bk", f"{b}.attn.bk", (d,)),
                ("wv", f"{b}.attn.wv", (d, d)),
                ("bv", f"{b}.attn.bv", (d,)),
                ("wo", f"{b}.attn.wo", (d, d)),
                ("bo", f"{b}.attn.bo", (d,)),
            ]),
            (FfnWeights, [
                ("ln_gain", f"{b}.ln2.gain", (d,)),
                ("ln_bias", f"{b}.ln2.bias", (d,)),
                ("w1", f"{b}.ffn.w1", (d, h)),
                ("b1", f"{b}.ffn.b1", (h,)),
                ("w2", f"{b}.ffn.w2", (h, d)),
                ("b2", f"{b}.ffn.b2", (d,)),
            ]),
        ]
    layout.append((HeadWeights, [
        ("ln_gain", "final_norm.gain", (d,)),
        ("ln_bias", "final_norm.bias", (d,)),
        ("weight", "head.weight", (d, cfg.num_classes)),
        ("bias", "head.bias", (cfg.num_classes,)),
    ]))
    return layout


def tensor_schema(cfg: ModelConfig) -> list[tuple[str, tuple[int, ...]]]:
    """Canonical (name, shape) list for every tensor a config requires."""
    return [(name, shape) for _, tensors in _layout(cfg) for _, name, shape in tensors]


_LN_FILL = {"ln_gain": 1.0, "ln_bias": 0.0}


def random_init(cfg: ModelConfig, seed: int) -> Model:
    """Deterministic scaled-normal weights from the fixed splitmix64 stream."""
    gen = SplitMix64(seed)
    scale = 1.0 / np.sqrt(cfg.dim)
    params: dict[str, np.ndarray] = {}
    for _, tensors in _layout(cfg):
        for f, name, shape in tensors:
            if f in _LN_FILL:
                params[name] = np.full(shape, _LN_FILL[f])
            else:
                params[name] = (gen.normal(int(np.prod(shape))) * scale).reshape(shape)
    return Model(config=cfg, params=params)


def _blob_bytes(model: Model) -> tuple[bytes, list[dict]]:
    chunks = []
    table = []
    offset = 0
    for name, shape in tensor_schema(model.config):
        raw = np.ascontiguousarray(model.params[name], dtype="<f8").tobytes()
        table.append({"name": name, "shape": list(shape), "offset": offset})
        chunks.append(raw)
        offset += len(raw)
    return b"".join(chunks), table


def model_checksum(model: Model) -> str:
    """The checksum ``save_model`` writes for ``model``."""
    blob, _ = _blob_bytes(model)
    return _DIGESTS[MANIFEST_FORMAT](blob)


def _resolve_stem(path) -> Path:
    p = Path(path)
    name = p.name
    for suffix in (".manifest.json", ".weights.bin"):
        if name.endswith(suffix):
            return p.with_name(name[: -len(suffix)])
    return p


def save_model(model: Model, path) -> str:
    """Write ``<stem>.manifest.json`` and ``<stem>.weights.bin``; return the checksum."""
    stem = _resolve_stem(path)
    blob, table = _blob_bytes(model)
    manifest = {
        "format": MANIFEST_FORMAT,
        "config": model.config.to_dict(),
        "checksum": _DIGESTS[MANIFEST_FORMAT](blob),
        "tensors": table,
    }
    try:
        stem.with_name(stem.name + ".weights.bin").write_bytes(blob)
        stem.with_name(stem.name + ".manifest.json").write_text(
            json.dumps(manifest, indent=2, sort_keys=True) + "\n", encoding="utf-8"
        )
    except OSError as exc:
        raise OSError(f"failed to save model at {stem}: {exc}") from exc
    return manifest["checksum"]


def _is_int(v) -> bool:
    return isinstance(v, int) and not isinstance(v, bool)


def _tensor_table(tensors, manifest_path) -> dict[str, dict]:
    """Manifest tensor entries by name, each checked for its required fields."""
    if not isinstance(tensors, list):
        raise SchemaError(
            f"{manifest_path}: 'tensors' must be a list, got {type(tensors).__name__}"
        )
    entries: dict[str, dict] = {}
    for i, entry in enumerate(tensors):
        where = f"{manifest_path}: tensors[{i}]"
        if not isinstance(entry, dict):
            raise SchemaError(f"{where} must be an object, got {type(entry).__name__}")
        missing = [k for k in ("name", "shape", "offset") if k not in entry]
        if missing:
            raise SchemaError(f"{where} lacks {', '.join(repr(k) for k in missing)}")
        name, shape, offset = entry["name"], entry["shape"], entry["offset"]
        if not isinstance(name, str):
            raise SchemaError(f"{where} has a non-string name {name!r}")
        if not isinstance(shape, list) or not all(_is_int(n) for n in shape):
            raise SchemaError(f"{where} ({name!r}) has shape {shape!r}, not a list of integers")
        if not _is_int(offset):
            raise SchemaError(f"{where} ({name!r}) has offset {offset!r}, not an integer")
        if name in entries:
            raise SchemaError(f"{manifest_path}: duplicate tensor entries for {name!r}")
        entries[name] = entry
    return entries


def load_model(path) -> Model:
    """Load a manifest/blob pair; verifies checksum and tensor table."""
    stem = _resolve_stem(path)
    manifest_path = stem.with_name(stem.name + ".manifest.json")
    blob_path = stem.with_name(stem.name + ".weights.bin")
    try:
        manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
        blob = blob_path.read_bytes()
    except OSError as exc:
        raise OSError(f"failed to load model at {stem}: {exc}") from exc

    if not isinstance(manifest, dict):
        raise SchemaError(f"{manifest_path}: manifest must be a JSON object")
    fmt = manifest.get("format")
    # a list or object format is unhashable, so test the type before the lookup
    if not isinstance(fmt, str) or fmt not in _DIGESTS:
        raise SchemaError(f"{manifest_path}: unsupported manifest format {fmt!r}")
    cfg = ModelConfig.from_dict(manifest.get("config"))

    digest = _DIGESTS[fmt](blob)
    if digest != manifest.get("checksum"):
        raise ChecksumError(
            f"{blob_path}: checksum mismatch (blob {digest}, manifest "
            f"{manifest.get('checksum')}); the weight file is corrupt or truncated"
        )

    entries = _tensor_table(manifest.get("tensors", []), manifest_path)

    params: dict[str, np.ndarray] = {}
    spans = []
    for name, shape in tensor_schema(cfg):
        if name not in entries:
            raise SchemaError(f"{manifest_path}: manifest is missing tensor {name!r}")
        entry = entries.pop(name)
        if tuple(entry["shape"]) != shape:
            raise SchemaError(
                f"{manifest_path}: tensor {name!r} has shape {entry['shape']}, "
                f"config requires {list(shape)}"
            )
        count = int(np.prod(shape))
        start = entry["offset"]
        end = start + count * 8
        if start < 0 or end > len(blob):
            raise SchemaError(
                f"{manifest_path}: tensor {name!r} spans bytes [{start}, {end}) "
                f"outside the {len(blob)}-byte blob"
            )
        spans.append((start, end, name))
        # a read-only view into the one blob (no kernel writes to a param); a
        # tensor at an offset off the 8-byte grid is copied once to aligned memory
        arr = np.frombuffer(blob, dtype="<f8", count=count, offset=start).reshape(shape)
        if not arr.flags.aligned:
            arr = arr.copy()
            arr.flags.writeable = False
        params[name] = arr
    if entries:
        raise SchemaError(
            f"{manifest_path}: manifest lists unknown tensors {sorted(entries)}"
        )
    spans.sort()
    for (s0, e0, n0), (s1, _, n1) in zip(spans, spans[1:]):
        if s1 < e0:
            raise SchemaError(
                f"{manifest_path}: tensors {n0!r} and {n1!r} overlap in the blob"
            )
    return Model(config=cfg, params=params)


def embed_view(model: Model) -> EmbedWeights:
    return model.embed


def attn_view(model: Model, i: int) -> AttnWeights:
    return model.blocks[i][0]


def ffn_view(model: Model, i: int) -> FfnWeights:
    return model.blocks[i][1]


def head_view(model: Model) -> HeadWeights:
    return model.head
