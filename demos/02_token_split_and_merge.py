#!/usr/bin/env python3
"""Show the band split and the bipartite merge plan on a hand-made fixture.

Scores are crafted so a few tokens fall inside the alpha-scaled band
while the rest get matched and merged; prints the resulting sets,
edges, groups and residuals.
"""

import numpy as np

from satavit import bipartite_match, split_tokens
from satavit.moran import SpatialScores

scores = SpatialScores.from_values(
    [-1.8, -0.3, 0.05, -0.02, 0.4, 1.2, 0.08, -1.1, 0.9, 2.1]
)
print("scores       :", scores.s)
print(f"mean(s)      : {scores.mean_s:.4f}")
print(f"|median(s)|  : {scores.abs_median_s:.4f}")

for alpha in (0.5, 1.0, 4.0):
    res = split_tokens(scores, alpha)
    print(f"\nalpha = {alpha}: band [{res.lower:+.4f}, {res.upper:+.4f}]")
    print("  in-band  B :", res.set_b.tolist())
    print("  out-band A :", res.set_a.tolist())

# merge the alpha = 1.0 out-of-band set using random token features
rng = np.random.default_rng(1)
features = rng.normal(size=(10, 6))
res = split_tokens(scores, 1.0)
plan = bipartite_match(res.set_a, features)

print("\nbipartite matching over A (alpha = 1.0):")
print("  sources A1 :", res.set_a[0::2].tolist())
print("  targets A2 :", res.set_a[1::2].tolist())
print("  edges      :", plan.edges)
print("  members    :", plan.members.tolist(), "(by group, ascending target)")
print("  group sizes:", plan.group_sizes.tolist(),
      "(each representative = mean of its members' rows)")
print("  reps shape :", plan.representatives.shape)
print("  residuals  :", plan.residuals.tolist(), "(skip the FFN entirely)")
