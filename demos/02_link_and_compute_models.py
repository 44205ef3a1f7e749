"""
The two clocks of a worker: wireless link and shifted-exponential CPU
=====================================================================

A result row travels over a Shannon-capacity link whose rate falls with
distance (log-distance path loss plus lognormal shadowing), and is
produced by a CPU whose runtime for l rows is alpha l plus an exponential
tail with rate beta / l.  A straggler multiplies its computation by
(1 + slowdown).
"""

import math

import numpy as np

from macc.envmodels import CommConfig, StragglerPlan, channel_capacity, comp_time, link_gain
from macc.numerics import RngStream

cfg = CommConfig()
rng = RngStream(7)

# ----------------------------------------------------------------------
# 1. Capacity falls ~20 dB per distance decade
# ----------------------------------------------------------------------
print("distance   capacity        one 200x1 result")
for d in (1, 2, 5, 10, 50, 100):
    c = channel_capacity(d * d, link_gain(0.0, cfg), cfg)  # the link takes squared distance
    t = 200 * cfg.bits_per_element / c
    print(f"{d:>5} m   {c:>11.0f} b/s   {t * 1e3:8.2f} ms")

# shadowing makes each transmission's rate a draw, not a constant:
# omega ~ N(0, sigma^2) dB once per transmission
omega = rng.substream("tx").gen.normal(0.0, cfg.noise_std_db, 2000)
times = 200 * cfg.bits_per_element / channel_capacity(10.0**2, link_gain(omega, cfg), cfg)
print(f"\n200 rows at 10 m with shadowing: mean {np.mean(times) * 1e3:.2f} ms, "
      f"spread {np.std(times) * 1e3:.2f} ms")

# ----------------------------------------------------------------------
# 2. Computation: floor alpha*l, exponential tail l/beta
# ----------------------------------------------------------------------
alpha, beta = 1e-4, 1e4
load = 100
u = rng.substream("cpu").gen.random(20000)  # U ~ Uniform[0, 1), one per draw
draws = comp_time(load, u, alpha, beta)
floor = alpha * load
mean_expect = floor + load / beta
print(f"\n{load} rows on (alpha {alpha}, beta {beta:.0f}):")
print(f"  floor {floor * 1e3:.1f} ms, expected mean {mean_expect * 1e3:.1f} ms, "
      f"empirical {draws.mean() * 1e3:.2f} ms")
print(f"  min draw {draws.min() * 1e3:.2f} ms (never below the floor)")
print(f"  P(t <= mean) = {np.mean(draws <= mean_expect):.3f} "
      f"(memoryless tail gives 1 - 1/e = {1 - 1 / math.e:.3f})")

# ----------------------------------------------------------------------
# 3. A straggler is the same worker, eleven times slower
# ----------------------------------------------------------------------
plan = StragglerPlan(enabled=True, victim=0, slowdown_factor=10.0)
t = draws[0]
print(f"\nsampled computation {t * 1e3:.2f} ms -> "
      f"victim pays {t * plan.time_factor(0) * 1e3:.2f} ms, "
      f"others still {t * plan.time_factor(1) * 1e3:.2f} ms")
