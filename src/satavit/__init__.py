"""Inference-only vision transformer with a spatial-autocorrelation token stage.

The engine runs a standard pre-norm ViT and, in the later blocks,
scores tokens by local Moran spatial autocorrelation over the attention
map, keeps in-band tokens, merges out-of-band tokens by bipartite
matching before the FFN, and restores every token position afterward.
A measurement harness tracks corruption stability and FFN FLOPs.
"""

from .engine import forward, forward_batch
from .harness import (
    StabilityRecord,
    SweepRecord,
    averaged_stability_report,
    selftest,
    stability_report,
    stats_report,
    sweep,
)
from .images import (
    CORRUPTION_KINDS,
    CorruptionSpec,
    corrupt,
    load_image,
    random_image,
    write_raw_image,
)
from .modelio import (
    ChecksumError,
    Model,
    SchemaError,
    load_model,
    model_checksum,
    random_init,
    save_model,
    tensor_schema,
)
from .moran import SpatialScores, global_attribute, local_moran, spatial_scores, z_normalize
from .rng import SplitMix64
from .sata import (
    BlockTrace,
    MergePlan,
    SplitResult,
    bipartite_match,
    sata_stage,
    split_tokens,
)
from .tensorops import (
    cosine_similarity,
    gelu,
    layer_norm,
    row_softmax,
)
from .vit import AttentionOutput, ModelConfig, ffn, ffn_flops, mhsa, patch_embed

__version__ = "0.1.0"

__all__ = [
    "AttentionOutput",
    "BlockTrace",
    "ChecksumError",
    "CORRUPTION_KINDS",
    "CorruptionSpec",
    "Model",
    "ModelConfig",
    "MergePlan",
    "SchemaError",
    "SpatialScores",
    "SplitMix64",
    "SplitResult",
    "StabilityRecord",
    "SweepRecord",
    "averaged_stability_report",
    "bipartite_match",
    "corrupt",
    "cosine_similarity",
    "ffn",
    "ffn_flops",
    "forward",
    "forward_batch",
    "gelu",
    "global_attribute",
    "layer_norm",
    "load_image",
    "load_model",
    "local_moran",
    "mhsa",
    "model_checksum",
    "patch_embed",
    "random_image",
    "random_init",
    "row_softmax",
    "sata_stage",
    "save_model",
    "selftest",
    "spatial_scores",
    "split_tokens",
    "stability_report",
    "stats_report",
    "sweep",
    "tensor_schema",
    "write_raw_image",
    "z_normalize",
]
