"""Experiment drivers: paired-seed evaluation, scheme comparison, batch sweeps.

Episode e of any run draws from RngStream(seed).substream("episode", e),
which depends only on (seed, e); schemes evaluated at the same seed
therefore see identical environments (same betas, positions, velocities,
straggler victim) and differ only in their allocation decisions.
compare_schemes derives each episode's environment (simcore.episode_env)
once and hands it to every scheme that runs the same scenario.

The records these drivers return hold what the writers read: totals,
betas, victim and each task's fields, but no receipt logs (each task's
receipt_log is None) and no states (()).  Both are dropped as each
episode returns (simcore.without_logs), so a run holds them for one
episode at a time.

An episode's settings come from its scenario alone.  Baselines dispatch
each task as a single batch per worker (the classical one-shot protocol),
so evaluate_scheme runs them at batch size p_rows, which no load exceeds;
the learned scheme streams results at the scenario's batch size.  A batch
sweep writes each of its batch sizes into the scenario, whichever scheme
it runs.

All CSV output starts with a "# config=... seed=..." metadata comment and
formats floats with repr(), so a rerun with the same config and seed is
byte-identical; so is episodes.jsonl, one episode_to_json line per episode.
"""

import json
import math
from dataclasses import replace

import numpy as np

from . import marl
from .allocators import hcmm_alloc, load_balanced_alloc, uniform_alloc
from .config import ConfigError, config_digest
from .numerics import RngStream
from .simcore import episode_env, run_episode, without_logs

SCHEMES = ("uniform", "load-balanced", "hcmm", "marl")

METRICS_COLUMNS = (
    "scenario", "scheme", "seed", "episode",
    "total_time_s", "mean_task_time_s", "infeasible_count",
)


def check_scheme(scheme):
    """Reject a scheme name that is not one of SCHEMES."""
    if scheme not in SCHEMES:
        raise ValueError(f"unknown scheme '{scheme}' (have {', '.join(SCHEMES)})")


def check_episodes(episodes):
    """Reject an episode count below one."""
    if episodes < 1:
        raise ConfigError(f"episodes must be >= 1, got {episodes}")


def check_schemes(schemes):
    """Reject a repeated or unknown scheme."""
    _reject_duplicates("schemes", schemes)
    for scheme in schemes:
        check_scheme(scheme)


def check_batch_sizes(batch_sizes):
    """Reject a batch size below one, or a repeated one."""
    if any(b < 1 for b in batch_sizes):
        raise ValueError(f"batch sizes must be >= 1, got {batch_sizes}")
    _reject_duplicates("batch sizes", [int(b) for b in batch_sizes])


def make_allocator(scheme, scenario, agents=None):
    """Allocator callable for run_episode; baselines read the profiles off the world."""
    check_scheme(scheme)
    p = scenario.p_rows
    n = scenario.n_workers
    if scheme == "uniform":
        loads = uniform_alloc(p, n)
        return _per_profiles(lambda alpha, beta: loads)
    if scheme == "load-balanced":
        return _per_profiles(lambda alpha, beta: load_balanced_alloc(p, alpha, beta))
    if scheme == "hcmm":
        return _per_profiles(lambda alpha, beta: hcmm_alloc(p, alpha, beta).loads)
    # marl
    if agents is None:
        raise ValueError("the marl scheme needs trained agents (checkpoint)")
    return marl.policy_allocator(agents, scenario)


def _per_profiles(loads_of):
    """Allocator whose loads depend only on the workers' compute profiles.

    The profiles are fixed for an episode, so the allocator is marked
    per_episode = True: run_episode calls it once per episode, with
    states=None, and reuses its loads for every task.
    """

    def allocator(world, states):
        return loads_of(world.alpha, world.beta)

    allocator.per_episode = True
    return allocator


def evaluate_scheme(scenario, scheme, episodes, seed, agents=None):
    """Run paired-seed episodes under one scheme; returns EpisodeRecords with no logs or states.

    It is compare_schemes of the one scheme, which runs on _as_run's
    scenario: a baseline at batch_size = p_rows, one batch per worker, and
    marl at the scenario's own batch size, or at p_rows when that is smaller.
    """
    return compare_schemes(scenario, [scheme], episodes, seed, agents=agents)[scheme]


def _as_run(scenario, scheme):
    """The scenario scheme runs on: batch_size = p_rows for a baseline, and for marl above it.

    Every batch size at or above p_rows sends one batch per worker, so
    marl runs such a scenario as at p_rows, bit for bit, on the scenario
    the baselines run on.
    """
    if scheme == "marl" and scenario.batch_size < scenario.p_rows:
        return scenario
    return replace(scenario, batch_size=scenario.p_rows)


def _episodes(scenario, scheme, episodes, seed, agents, envs=None):
    """Episodes 0..episodes-1 of seed under one scheme, every setting read off the scenario.

    Each record run_episode returns is kept as simcore.without_logs's copy,
    with no receipt logs and no states; the returned record is not changed.

    envs, when given, holds each episode's EpisodeEnv, derived from the
    same scenario and episode stream (compare_schemes shares them between
    schemes); otherwise run_episode derives each.  run_episode is looked
    up in this module at each call, so a caller may wrap it here
    (perfbench's EpisodeHook does); env goes to it by keyword.
    """
    check_episodes(episodes)
    allocator = make_allocator(scheme, scenario, agents=agents)
    root = RngStream(seed)
    return [without_logs(run_episode(scenario, allocator, root.substream("episode", e),
                                     env=None if envs is None else envs[e]))
            for e in range(episodes)]


def total_times(records):
    return np.array([r.total_time for r in records])


# two-sided 95% Student-t critical values t_{0.975, df} for df = 1..30
_T975 = (
    12.706205, 4.3026527, 3.1824463, 2.7764451, 2.5705818,
    2.4469119, 2.3646243, 2.3060041, 2.2621572, 2.2281389,
    2.2009852, 2.1788128, 2.1603687, 2.1447867, 2.1314495,
    2.1199053, 2.1098156, 2.1009220, 2.0930241, 2.0859634,
    2.0796138, 2.0738731, 2.0686576, 2.0638986, 2.0595386,
    2.0555294, 2.0518305, 2.0484071, 2.0452296, 2.0422725,
)
# beyond df = 30, (df, t) anchors interpolated linearly in 1 / df
_T975_TAIL = ((30, 2.0422725), (40, 2.0210754), (60, 2.0002978), (120, 1.9799304),
              (math.inf, 1.9599640))


def _t_quantile_975(df):
    """Two-sided 95% Student-t critical value at df >= 1 degrees of freedom."""
    if df <= len(_T975):
        return _T975[df - 1]
    for (lo, t_lo), (hi, t_hi) in zip(_T975_TAIL, _T975_TAIL[1:]):
        if df <= hi:
            return t_lo + (1 / lo - 1 / df) / (1 / lo - 1 / hi) * (t_hi - t_lo)


def summarize(records):
    """(mean, sample std, 95% Student-t halfwidth) of total times.

    One episode has no spread to estimate, so its std and halfwidth are nan.
    """
    t = total_times(records)
    mean = float(t.mean())
    if len(t) < 2:
        return mean, math.nan, math.nan
    std = float(t.std(ddof=1))
    return mean, std, _t_quantile_975(len(t) - 1) * std / float(np.sqrt(len(t)))


def compare_schemes(scenario, schemes, episodes, seed, agents=None, straggler=None):
    """Evaluate one or more schemes against identical per-episode environments.

    Returns each scheme's EpisodeRecords, with no receipt logs or states.
    The schemes run one after another, in the given order, each on
    _as_run's scenario.  Each episode's environment (simcore.episode_env)
    is derived once per scenario as run and episode, and every scheme
    that runs that scenario gets it: all the baselines, and marl when its
    batch size is p_rows or more.  The envs are read-only, so no scheme's
    run changes another's, and are kept for the call alone.

    straggler, when not None, is written into the scenario's
    straggler_enabled first; it is kept for perfbench's compare workload,
    which passes it.
    """
    check_schemes(schemes)
    check_episodes(episodes)
    if straggler is not None:
        scenario = replace(scenario, straggler_enabled=straggler)
    root = RngStream(seed)
    envs = {}  # per scenario as run, its episodes' envs
    results = {}
    for scheme in schemes:
        run_as = _as_run(scenario, scheme)
        if run_as not in envs:
            envs[run_as] = [episode_env(run_as, root.substream("episode", e))
                            for e in range(episodes)]
        results[scheme] = _episodes(run_as, scheme, episodes, seed, agents, envs[run_as])
    return results


def sweep_batch(scenario, scheme, batch_sizes, episodes, seed, agents=None):
    """Evaluate one scheme at several batch sizes with paired seeds.

    Returns each batch size's EpisodeRecords, with no receipt logs or states.
    Each batch size b runs on the scenario with batch_size = b, baselines
    included, so an engine error about it names scenario.batch_size = b.
    """
    check_batch_sizes(batch_sizes)
    return {int(b): _episodes(replace(scenario, batch_size=int(b)), scheme, episodes, seed, agents)
            for b in batch_sizes}


def _reject_duplicates(what, values):
    """Each value names one output row; a repeat would be run twice and written once."""
    if len(set(values)) < len(values):
        raise ConfigError(f"duplicate {what} in {list(values)}")


def _fmt(value):
    if isinstance(value, float):
        return repr(value)
    return str(value)


def write_csv(path, header, rows, digest, seed):
    """CSV with a metadata comment line; floats via repr for byte stability."""
    lines = [f"# config={digest} seed={seed}", ",".join(header)]
    for row in rows:
        lines.append(",".join(_fmt(v) for v in row))
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def metrics_rows(scenario, scheme, seed, records):
    rows = []
    for e, rec in enumerate(records):
        rows.append((
            scenario.name, scheme, seed, e,
            rec.total_time,
            rec.total_time / scenario.k_tasks,
            rec.infeasible_count,
        ))
    return rows


def write_metrics_csv(path, scenario, scheme, seed, records, digest):
    write_csv(path, METRICS_COLUMNS, metrics_rows(scenario, scheme, seed, records), digest, seed)


def write_comparison_csv(path, scenario, seed, results, digest):
    header = ("scenario", "scheme", "seed", "episodes",
              "mean_total_time_s", "std_total_time_s", "ci95_halfwidth_s")
    rows = []
    for scheme, records in results.items():
        mean, std, half = summarize(records)
        rows.append((scenario.name, scheme, seed, len(records), mean, std, half))
    write_csv(path, header, rows, digest, seed)


def write_plotdata_csv(path, results, digest, seed):
    header = ("scheme", "mean_total_time_s")
    rows = [(scheme, summarize(records)[0]) for scheme, records in results.items()]
    write_csv(path, header, rows, digest, seed)


def write_sweep_csv(path, scenario, scheme, seed, sweep, digest):
    header = ("scenario", "scheme", "seed", "batch_size", "episodes",
              "mean_total_time_s", "std_total_time_s")
    rows = []
    for b, records in sweep.items():
        mean, std, _ = summarize(records)
        rows.append((scenario.name, scheme, seed, b, len(records), mean, std))
    write_csv(path, header, rows, digest, seed)


def write_curve_csv(path, curve, digest, seed):
    header = ("iteration", "mean_total_reward")
    rows = [(i, v) for i, v in enumerate(curve)]
    write_csv(path, header, rows, digest, seed)


def episode_to_json(rec):
    """One JSON line per episode for downstream analysis.

    It holds no rewards, which depend on the penalty: a reader scores a
    task as -t_complete_s - c (not feasible) with the c of its choice.
    """
    payload = {
        "total_time_s": rec.total_time,
        "betas": list(rec.betas),
        "victim": rec.victim,
        "straggler": rec.straggler_enabled,
        "tasks": [
            {
                "index": t.index,
                "t_complete_s": t.t_complete,
                "loads": list(t.loads),
                "rows_at_completion": t.rows_received_at_completion,
                "feasible": t.feasible,
            }
            for t in rec.tasks
        ],
    }
    return json.dumps(payload, separators=(",", ":"))


def write_episodes_jsonl(path, records):
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for rec in records:
            fh.write(episode_to_json(rec) + "\n")


def run_digest(scenario, train=None):
    return config_digest(scenario, train)
