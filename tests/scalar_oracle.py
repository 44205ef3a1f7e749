"""The scalar batch-by-batch engine, kept as the reference for simcore.run_task.

It walks every worker's batches in a Python loop, evaluating the link at
each transmission's begin time, then sorts every receipt by (arrival,
worker, batch).  It draws the same random numbers as run_task and returns
the TaskRecord fields that depend on timing; the differential tests in
test_engine.py compare the two.  It applies the straggler by its own rule,
straggler = (enabled, victim, slowdown_factor), where run_task is given
the vector envmodels.time_factors builds, so they check that as well.  It keeps its own copy of the paper's
link formula in dBm, so they check envmodels' link end to end as well.
"""

import math

from macc.simcore import TaskRecord


def capacity(d, omega, cfg):
    """C = W log2(1 + S / Noise) with S_d = sd_offset - PL log10(d) + omega (dBm), d >= min_d."""
    s_dbw = cfg.sd_offset_dbm - 30.0 + omega - cfg.path_loss_db_per_decade * math.log10(d)
    return cfg.bandwidth_hz * math.log2(1.0 + 10.0 ** (s_dbw / 10.0) / cfg.noise_power_w)


def run_task_scalar(world, loads, batch_size, p, m, straggler, rng, cfg, index=0):
    loads = tuple(int(l) for l in loads)
    u_bits = cfg.bits_per_element
    sigma = cfg.noise_std_db
    min_d = cfg.min_distance_m
    (mx, my), *positions = world.pos.tolist()
    (mvx, mvy), *velocities = world.vel.tolist()

    receipts = []  # (arrival, worker, batch index, rows)
    for i, load in enumerate(loads):
        if load == 0:
            continue
        nb = -(-load // batch_size)  # batches: all of batch_size rows but the last
        last = load - (nb - 1) * batch_size
        wrng = rng.substream("worker", i)
        if sigma > 0:
            omegas = wrng.gen.normal(0.0, sigma, nb + 1)
        else:
            omegas = [0.0] * (nb + 1)
        us = wrng.gen.random(nb)

        px, py = positions[i]
        vx, vy = velocities[i]
        d0 = max(math.hypot(px - mx, py - my), min_d)
        bc = m * u_bits / capacity(d0, omegas[0], cfg)

        enabled, victim, slowdown_factor = straggler
        slow = 1.0 + slowdown_factor if enabled and victim == i else 1.0
        alpha, beta = float(world.alpha[i]), float(world.beta[i])

        t_cpu = bc
        link_free = bc
        for k in range(nb):
            rows = batch_size if k < nb - 1 else last
            t_cpu += (alpha * rows - (rows / beta) * math.log1p(-us[k])) * slow
            begin = t_cpu if t_cpu > link_free else link_free
            dx = (px + vx * begin) - (mx + mvx * begin)
            dy = (py + vy * begin) - (my + mvy * begin)
            d = max(math.hypot(dx, dy), min_d)
            arrival = begin + rows * u_bits / capacity(d, omegas[k + 1], cfg)
            link_free = arrival
            receipts.append((arrival, i, k, rows))

    receipts.sort(key=lambda r: (r[0], r[1], r[2]))
    total_rows = sum(loads)
    feasible = total_rows >= p
    if feasible:
        cum = 0
        for cut, (arrival, _, _, rows) in enumerate(receipts):
            cum += rows
            if cum >= p:
                t_done = arrival
                received = cum
                kept = receipts[: cut + 1]
                break
    else:
        t_done = receipts[-1][0]
        received = total_rows
        kept = receipts

    return TaskRecord(
        index=index,
        dispatch_time=world.clock,
        t_complete=float(t_done),
        receipt_log=tuple((i, rows, float(arrival)) for arrival, i, _, rows in kept),
        rows_received_at_completion=received,
        feasible=feasible,
        loads=loads,
    )
