"""The benchmark's workloads and the inputs each one derives from its seed.

Every workload runs the same closed loop with one client: interleaved
stage-on/stage-off forward pairs, each followed by those of the three
harness reports that are below their share of the elapsed time (each
runs at least once), until the run's time is up.  The workloads differ
in model shape and in how the time splits between reports and pairs:

* ``vits-single``: ViT-S shape.  Bound by the GEMMs and ``erf``; the
  stage saves wall time here.  The one stability report takes about
  two fifths of the run; pairs and the short reports share the rest.
* ``tiny-single``: the 8x32 acceptance model.  A forward is a few ms of
  mostly Python dispatch, so per-call overhead shows; BLAS does not.
* ``vitti-harness``: ViT-Ti shape.  Reports take most of the time, so
  the harness's repeated work (the same clean forward per corruption
  pair, alpha-independent blocks per sweep value) shows.

The library sees only generated inputs: the model is
``random_init(cfg, seed)``, saved and reloaded, and image ``i`` (from 1)
is ``random_image(cfg, seed + i)``.
"""

from __future__ import annotations

from dataclasses import dataclass

ALPHAS = (0.5, 0.75, 1.0, 1.5, 2.0)
DEFAULT_SEED = 0


@dataclass(frozen=True)
class Workload:
    name: str
    config: dict  # ModelConfig fields
    # report kind -> share of the run's time it may take; tried in this order
    report_shares: dict
    sweep_images: int  # the sweep and the stats report read images 1..n
    stats_images: int
    golden_images: int  # images 1..n have recorded golden outputs


_VIT_224 = {"depth": 12, "patch": 16, "image": 224, "channels": 3,
            "gamma": 0.7, "alpha": 1.0}

WORKLOADS = {
    w.name: w
    for w in (
        Workload("vits-single", {**_VIT_224, "dim": 384, "heads": 6},
                 report_shares={"stats": 0.12, "sweep": 0.10, "stability": 0.40},
                 sweep_images=1, stats_images=1, golden_images=3),
        Workload("tiny-single", {"depth": 8, "dim": 32, "heads": 4, "patch": 4, "image": 16,
                                 "channels": 1, "gamma": 0.7, "alpha": 1.0},
                 report_shares={"stats": 0.10, "sweep": 0.10, "stability": 0.20},
                 sweep_images=2, stats_images=4, golden_images=32),
        Workload("vitti-harness", {**_VIT_224, "dim": 192, "heads": 3},
                 report_shares={"stats": 0.10, "sweep": 0.15, "stability": 0.45},
                 sweep_images=1, stats_images=2, golden_images=3),
    )
}
