"""Input images: synthetic corruptions, seeded noise images and image files.

``corrupt`` applies one of ``CORRUPTION_KINDS`` at a severity and seed,
deterministically.  ``load_image`` reads a PGM/PPM (P2, P3, P5, P6) or
raw little-endian float64 file and validates it against a model
config; a malformed or non-finite image raises ``ValueError`` naming
the file.
"""

from __future__ import annotations

from dataclasses import dataclass
from numbers import Integral
from pathlib import Path

import numpy as np
from scipy.ndimage import uniform_filter

from .rng import SplitMix64
from .vit import ModelConfig

__all__ = [
    "CORRUPTION_KINDS",
    "CorruptionSpec",
    "corrupt",
    "random_image",
    "load_image",
    "write_raw_image",
]

CORRUPTION_KINDS = ("gaussian_noise", "impulse_noise", "box_blur", "contrast")


# ---------------------------------------------------------------------------
# corruption generator


@dataclass(frozen=True)
class CorruptionSpec:
    """One synthetic corruption: kind, severity 1..5, RNG seed."""

    kind: str
    severity: int
    seed: int = 0

    def __post_init__(self):
        if self.kind not in CORRUPTION_KINDS:
            raise ValueError(
                f"unknown corruption kind {self.kind!r}; choices: {CORRUPTION_KINDS}"
            )
        for name in ("severity", "seed"):
            v = getattr(self, name)
            if isinstance(v, bool) or not isinstance(v, Integral):
                raise ValueError(
                    f"corruption field {name!r} must be an integer, got {type(v).__name__} {v!r}"
                )
        if not 1 <= self.severity <= 5:
            raise ValueError(f"severity must be in 1..5, got {self.severity}")


def corrupt(image, spec: CorruptionSpec) -> np.ndarray:
    """Apply one corruption; output has the input's shape, clamped to [0, 1].

    gaussian_noise adds N(0, (0.04 * severity)^2) per element,
    impulse_noise flips a fraction 0.01 * severity of elements to 0 or 1,
    box_blur convolves with a (2 * severity + 1) box (reflect borders),
    contrast rescales toward the global mean by 1 - 0.12 * severity.
    """
    img = np.asarray(image, dtype=np.float64)
    squeeze = img.ndim == 2
    work = img[:, :, None] if squeeze else img
    if work.ndim != 3:
        raise ValueError(f"image must be HxW or HxWxC, got shape {img.shape}")
    sev = int(spec.severity)
    gen = SplitMix64(spec.seed)

    if spec.kind == "gaussian_noise":
        sigma = 0.04 * sev
        out = work + sigma * gen.normal(work.size).reshape(work.shape)
    elif spec.kind == "impulse_noise":
        k = int(round(0.01 * sev * work.size))
        out = work.reshape(-1).copy()
        hit = gen.permutation_prefix(work.size, k)
        values = (gen.next_uint64(k) & np.uint64(1)).astype(np.float64)
        out[hit] = values
        out = out.reshape(work.shape)
    elif spec.kind == "box_blur":
        size = 2 * sev + 1
        out = uniform_filter(work, size=(size, size, 1), mode="reflect")
    else:  # contrast
        factor = 1.0 - 0.12 * sev
        mu = work.mean()
        out = mu + (work - mu) * factor

    out = np.clip(out, 0.0, 1.0)
    return out[:, :, 0] if squeeze else out


# ---------------------------------------------------------------------------
# images


def random_image(cfg: ModelConfig, seed: int) -> np.ndarray:
    """Deterministic uniform-noise image matching the config's geometry."""
    gen = SplitMix64(seed)
    n = cfg.image * cfg.image * cfg.channels
    return gen.uniform(n).reshape(cfg.image, cfg.image, cfg.channels)


def write_raw_image(image, path) -> None:
    """Raw little-endian float64 dump (shape is implied by the model config)."""
    arr = np.asarray(image, dtype="<f8")
    Path(path).write_bytes(np.ascontiguousarray(arr).tobytes())


def _read_netpbm(path: Path) -> np.ndarray:
    data = path.read_bytes()
    pos = 0

    def token() -> bytes:
        nonlocal pos
        while pos < len(data):
            if data[pos : pos + 1].isspace():
                pos += 1
            elif data[pos : pos + 1] == b"#":
                while pos < len(data) and data[pos : pos + 1] not in (b"\n", b"\r"):
                    pos += 1
            else:
                break
        start = pos
        while pos < len(data) and not data[pos : pos + 1].isspace():
            pos += 1
        if start == pos:
            raise ValueError(f"{path}: truncated netpbm header")
        return data[start:pos]

    def header_field(name: str) -> int:
        raw = token()
        if not raw.isdigit() or int(raw) == 0:
            raise ValueError(
                f"{path}: netpbm {name} must be a positive integer, got "
                f"{raw.decode('ascii', 'replace')!r}"
            )
        return int(raw)

    magic = token().decode("ascii", "replace")
    if magic not in ("P2", "P3", "P5", "P6"):
        raise ValueError(f"{path}: unsupported netpbm magic {magic!r}")
    width = header_field("width")
    height = header_field("height")
    maxval = header_field("maxval")
    if maxval > 65535:
        raise ValueError(f"{path}: netpbm maxval must be at most 65535, got {maxval}")
    channels = 3 if magic in ("P3", "P6") else 1
    count = width * height * channels

    if magic in ("P5", "P6"):
        pos += 1  # single whitespace after maxval
        dtype = np.dtype(np.uint8 if maxval < 256 else ">u2")
        body = len(data) - pos
        if body < count * dtype.itemsize:
            raise ValueError(
                f"{path}: netpbm body holds {max(body, 0)} bytes, expected "
                f"{count * dtype.itemsize} for {width}x{height}x{channels} samples"
            )
        raw = np.frombuffer(data, dtype=dtype, count=count, offset=pos)
    else:
        values = data[pos:].split()[:count]
        if len(values) < count:
            raise ValueError(f"{path}: expected {count} samples, found {len(values)}")
        bad = next((v for v in values if not v.isdigit()), None)
        if bad is not None:
            raise ValueError(
                f"{path}: netpbm sample {bad.decode('ascii', 'replace')!r} is not a "
                "non-negative integer"
            )
        raw = np.array([int(v) for v in values], dtype=np.float64)

    if raw.max() > maxval:
        raise ValueError(f"{path}: netpbm sample {int(raw.max())} exceeds maxval {maxval}")
    return raw.astype(np.float64).reshape(height, width, channels) / float(maxval)


def load_image(path, cfg: ModelConfig) -> np.ndarray:
    """Load a PGM/PPM or raw float64 image and validate it against the config."""
    p = Path(path)
    suffix = p.suffix.lower()
    if suffix in (".pgm", ".ppm"):
        img = _read_netpbm(p)
    else:
        blob = p.read_bytes()
        expected = cfg.image * cfg.image * cfg.channels
        if len(blob) != expected * 8:
            raise ValueError(
                f"{p}: raw image holds {len(blob)} bytes, config expects "
                f"{expected} float64 values ({expected * 8} bytes) for a "
                f"{cfg.image}x{cfg.image}x{cfg.channels} grid"
            )
        img = np.frombuffer(blob, dtype="<f8").reshape(
            cfg.image, cfg.image, cfg.channels
        ).copy()
    if img.shape != (cfg.image, cfg.image, cfg.channels):
        raise ValueError(
            f"{p}: image shape {img.shape} does not match config "
            f"({cfg.image}, {cfg.image}, {cfg.channels})"
        )
    if not np.all(np.isfinite(img)):
        raise ValueError(f"{p}: image contains non-finite values")
    return img
