"""
Learning the allocation: MADDPG against the baselines
=====================================================

Each worker is an agent choosing its own load from local geometry; a
centralized critic per agent scores the joint choice with the shared
reward -T_j - 200 * 1[sum l < p].  This script trains at desk scale,
then runs the paired comparison that the `macc compare` command
automates.  About 15 s end to end on a 2-CPU VM; the full-size runs
behind the CLI use the same code paths.
"""

from dataclasses import replace

import numpy as np

from macc import experiments, marl
from macc.config import TrainConfig, preset_scenario
from macc.numerics import RngStream

scenario = preset_scenario("desk")
cfg = TrainConfig(max_iterations=300, episodes_per_iteration=4, minibatch=256)

# ----------------------------------------------------------------------
# 1. Train; the curve is mean total episode reward per iteration
# ----------------------------------------------------------------------
print(f"training {scenario.n_workers} agents on {scenario.name} "
      f"(p={scenario.p_rows}, K={scenario.k_tasks}) ...")


def report(it, value):
    if it % 50 == 0 or it == cfg.max_iterations - 1:
        print(f"  iteration {it:>3}: mean total reward {value:9.2f}")


agents, curve = marl.train(scenario, cfg, RngStream(11), progress=report)
first = np.mean(curve[:30])
final = np.mean(curve[-30:])
print(f"first 10% of iterations: {first:.2f}   final 10%: {final:.2f}")

# ----------------------------------------------------------------------
# 2. What did the actors learn to request?
# ----------------------------------------------------------------------
straggling = replace(scenario, straggler_enabled=True)
records = experiments.evaluate_scheme(straggling, "marl", 5, seed=42, agents=agents)
loads = records[0].tasks[0].loads
print(f"\nsample learned allocation: {loads} "
      f"(sum {sum(loads)} vs p = {scenario.p_rows})")

# ----------------------------------------------------------------------
# 3. Paired comparison under an uncertain straggler
# ----------------------------------------------------------------------
results = experiments.compare_schemes(
    straggling, ["uniform", "load-balanced", "hcmm", "marl"], 20, seed=42, agents=agents,
)
print("\nmean total completion time over 20 paired episodes (straggler on):")
worst = max(experiments.summarize(r)[0] for r in results.values())
for scheme, recs in results.items():
    mean, _, half = experiments.summarize(recs)
    bar = "#" * int(mean / worst * 40)
    print(f"  {scheme:>14}: {mean:.4f} +- {half:.4f} s  {bar}")

d = (experiments.total_times(results["uniform"])
     - experiments.total_times(results["marl"]))
t_stat = d.mean() / (d.std(ddof=1) / np.sqrt(len(d)))
print(f"\npaired t statistic, uniform vs marl: {t_stat:.2f} "
      f"(95% one-sided critical value at 19 dof is 1.73)")
