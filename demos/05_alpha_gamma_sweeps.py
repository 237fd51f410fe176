#!/usr/bin/env python3
"""Sweep the band scale (alpha) and the start fraction (gamma).

Accuracy is not measurable with random weights, so the sweep reports
the two desk-scale axes: mean FFN FLOPs per forward and L2 logit drift
against the stage-off baseline.  CSVs land in the current directory.
"""

from satavit import ModelConfig, random_image, random_init, sweep
from satavit.harness import SWEEP_HEADER, write_csv

cfg = ModelConfig(depth=8, dim=32, heads=4, patch=4, image=16, num_classes=10)
model = random_init(cfg, seed=13)
images = [random_image(cfg, seed=100 + i) for i in range(5)]

for param, values, fixed in (("alpha", [0.5, 0.75, 1.0, 1.5, 2.0, 1e9], "gamma fixed at 0.7"),
                             ("gamma", [0.0, 0.25, 0.5, 0.7, 0.9, 1.0], "alpha fixed at 1.0")):
    records = sweep(model, images, param, values)
    print(f"{param} sweep ({fixed}):")
    print("value      mean_ffn_flops   logit_drift")
    for rec in records:
        print(f"{rec.value:<10g} {rec.total_flops:>14.0f} {rec.logit_drift:>13.6f}")
    print()
    write_csv(f"sweep_{param}.csv", SWEEP_HEADER, records)  # each record is a CSV row

print("wrote sweep_alpha.csv and sweep_gamma.csv")
print("A band-covering alpha (1e9) or gamma = 1.0 reproduces the baseline")
print("exactly: drift 0, full FLOPs. Tighter bands trade drift for load.")
