"""
Anatomy of one task: broadcast, batched compute, pipelined returns
==================================================================

Worker i receives x, computes its l_i encoded rows in batches of b, and
streams each finished batch back while the CPU keeps going.  The task
completes at the first arrival that brings the master to p cumulative
rows; everything still in flight is discarded.  Small batches overlap
computation with transmission, one big batch serializes them.
"""

from macc.config import ScenarioConfig
from macc.envmodels import time_factors
from macc.numerics import RngStream
from macc.simcore import rows_received_curve, run_episode, run_task, sample_world

scenario = ScenarioConfig(name="demo", n_workers=3, p_rows=60, m_cols=40,
                          k_tasks=1, beta_range=(5e3, 1e4))
rng = RngStream(42)
world, victim = sample_world(scenario, rng.substream("env"))
# world.pos row 0 is the master, row i + 1 worker i
print("workers:", "  ".join(
    f"{i}: beta {beta:.0f} at {x:.0f},{y:.0f} m"
    for i, (beta, (x, y)) in enumerate(zip(world.beta, world.pos[1:]))))

# ----------------------------------------------------------------------
# 1. Run one task with redundancy and batching
# ----------------------------------------------------------------------
# the engine times rows, never their values: it needs the loads, p, the
# payload length m and each worker's computation-time multiple
p, m = scenario.p_rows, scenario.m_cols
loads = (30, 30, 30)  # 90 rows assigned, only 60 needed
no_straggler = time_factors(scenario.n_workers, victim, False, scenario.straggler_slowdown)

rec, _ = run_task(world, loads, 10, p, m, no_straggler,
                  rng.substream("task"), scenario.comm)

print(f"\nbatches of 10, loads {rec.loads}: done at {rec.t_complete * 1e3:.1f} ms "
      f"with {rec.rows_received_at_completion} rows")
print("receipt timeline (worker, rows, arrival ms):")
for worker, rows, arrival in rec.receipt_log:
    bar = "#" * int(arrival / rec.t_complete * 40)
    print(f"  w{worker} +{rows:>3}  {arrival * 1e3:7.1f}  {bar}")

times, rows = rows_received_curve(rec)
print("cumulative rows at each arrival:", rows.tolist())

# ----------------------------------------------------------------------
# 2. Batch size sweep on the same world
# ----------------------------------------------------------------------
print("\nsame task, other batch sizes:")
for b in (1, 5, 15, 30, p):  # b = p: each worker sends its load as one batch
    rec_b, _ = run_task(world, loads, b, p, m, no_straggler,
                        rng.substream("task"), scenario.comm)
    label = "single" if b == p else f"b={b}"
    print(f"  {label:>7}: {rec_b.t_complete * 1e3:7.1f} ms "
          f"({len(rec_b.receipt_log)} receipts used)")

# ----------------------------------------------------------------------
# 3. Episodes chain K tasks through a drifting world
# ----------------------------------------------------------------------
ep = run_episode(
    ScenarioConfig(name="demo", n_workers=3, p_rows=60, m_cols=40, k_tasks=4,
                   beta_range=(5e3, 1e4), batch_size=10),
    lambda world, states: (30, 30, 30),
    RngStream(42),
)
print(f"\n4-task episode: total {ep.total_time * 1e3:.1f} ms, "
      f"per task {[f'{t.t_complete * 1e3:.1f}' for t in ep.tasks]}")
print(f"rewards (shared, negative seconds): {[f'{r:.4f}' for r in ep.rewards]}")
