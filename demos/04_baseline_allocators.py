"""
Three ways to split p rows: uniform, load-balanced, HCMM
========================================================

Uniform ignores heterogeneity.  Load-balanced splits exactly p rows in
proportion to expected speed, so one straggler can still sink the task.
Both are allocators.split_rows, the one exact-p split (largest remainder):
uniform of equal weights, load-balanced of weights beta / (alpha beta + 1).
HCMM gives worker i p / (h lambda_i) rows with deliberate redundancy:
its ceilings make the sum exceed p, so it is separate by design, and the
slowest results become droppable.
"""

from dataclasses import replace

import numpy as np

from macc.allocators import hcmm_alloc, load_balanced_alloc, split_rows
from macc.config import preset_scenario
from macc import experiments

# ----------------------------------------------------------------------
# 1. The allocations themselves on a heterogeneous trio
# ----------------------------------------------------------------------
p = 6000
betas = (1e4, 2e4, 4e4)
alphas = [1.0 / b for b in betas]

uni = split_rows(p, np.ones(3))
bal = load_balanced_alloc(p, alphas, betas)
hc = hcmm_alloc(p, alphas, betas)

print(f"p = {p}, betas = {betas}")
print(f"uniform        {uni}  (sum {sum(uni)})")
print(f"load-balanced  {bal}  (sum {sum(bal)})")
print(f"hcmm           {hc.loads}  (sum {sum(hc.loads)}, "
      f"{sum(hc.loads) - p} redundant rows)")
print(f"hcmm internals: beta*lambda = {hc.lam[0] * betas[0]:.6f} "
      f"(same for all, alpha beta = 1), h = {hc.h:.2f}")

# ----------------------------------------------------------------------
# 2. What redundancy buys under a straggler
# ----------------------------------------------------------------------
scenario = preset_scenario("desk")
print(f"\n{scenario.n_workers} workers at desk scale, 20 episodes each:")
print(f"{'scheme':>14}  {'no straggler':>13}  {'one straggler':>13}")
for scheme in ("uniform", "load-balanced", "hcmm"):
    means = []
    for straggler in (False, True):
        records = experiments.evaluate_scheme(
            replace(scenario, straggler_enabled=straggler), scheme, 20, seed=42
        )
        means.append(experiments.summarize(records)[0])
    print(f"{scheme:>14}  {means[0]:>12.4f}s  {means[1]:>12.4f}s")

print("\nwithout stragglers the exact-cover schemes win (no wasted rows);")
print("with one straggler hcmm's redundancy makes the victim droppable.")

# ----------------------------------------------------------------------
# 3. Paired seeds: the comparison is episode by episode, not in bulk
# ----------------------------------------------------------------------
results = experiments.compare_schemes(
    replace(scenario, straggler_enabled=True), ["uniform", "hcmm"], 20, seed=42
)
d = experiments.total_times(results["uniform"]) - experiments.total_times(results["hcmm"])
print(f"\nper-episode uniform - hcmm gaps (same worlds): "
      f"min {d.min():.4f}s, mean {d.mean():.4f}s, max {d.max():.4f}s")
print(f"hcmm faster in {np.sum(d > 0)} of 20 paired episodes")
