"""Command line entry points: train, evaluate, compare, sweep-batch.

    macc train --config run.ini --out results/ [--progress]
    macc evaluate --config run.ini --scheme hcmm --episodes 20 --out results/
    macc compare --config run.ini --scheme uniform,load-balanced,hcmm --out results/
    macc sweep-batch --config run.ini --scheme hcmm --batch-sizes 1,50,200 --out results/

Every command is a pure function of (config file, seed): reruns produce
byte-identical outputs.  train --progress adds one line per iteration on
stderr (iteration, mean reward, elapsed seconds) and changes nothing else.
Every command first fixes glibc's heap thresholds for the rest of the
process, a process-wide allocator setting that moves no output byte.
evaluate and compare print each scheme's mean total time, followed by
its count of infeasible tasks when any task fell short of p rows.

--out is created only when a command writes its first output, so a run
that fails, on its arguments or midway, leaves no output directory
behind.  The price: a --out that cannot be created is reported only
after the run.
"""

import argparse
import ctypes
import os
import sys
import time
from dataclasses import replace

from . import experiments, marl
from .config import ConfigError, check_seed, load_config
from .numerics import RngStream


def build_parser():
    parser = argparse.ArgumentParser(
        prog="macc",
        description="Coded matrix-vector offloading simulator: training and evaluation.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--config", required=True, help="INI config file")
        p.add_argument("--seed", type=int, default=None,
                       help="override the scenario seed; recorded as the outputs' seed=")
        p.add_argument("--out", default=".",
                       help="output directory, created when the first output is written")
        p.add_argument("--straggler", choices=("on", "off"), default=None,
                       help="override [straggler] enabled with on or off; like the INI key, "
                            "it enters the outputs' config= digest")

    p_train = sub.add_parser("train", help="train the MARL allocator")
    add_common(p_train)
    p_train.add_argument("--progress", action="store_true",
                         help="print each iteration's mean reward and elapsed time to stderr")

    p_eval = sub.add_parser("evaluate", help="evaluate one allocation scheme")
    add_common(p_eval)
    p_eval.add_argument("--scheme", required=True,
                        help="uniform | load-balanced | hcmm | marl")
    p_eval.add_argument("--episodes", type=int, default=20)
    p_eval.add_argument("--checkpoint", default=None, help="trained model (marl scheme)")

    p_cmp = sub.add_parser("compare", help="paired comparison of several schemes")
    add_common(p_cmp)
    p_cmp.add_argument("--scheme", default="uniform,load-balanced,hcmm",
                       help="comma-separated list of two or more schemes")
    p_cmp.add_argument("--episodes", type=int, default=20)
    p_cmp.add_argument("--checkpoint", default=None)

    p_sweep = sub.add_parser("sweep-batch", help="batch-size sweep for one scheme")
    add_common(p_sweep)
    p_sweep.add_argument("--scheme", default="hcmm")
    p_sweep.add_argument("--episodes", type=int, default=20)
    p_sweep.add_argument("--checkpoint", default=None)
    p_sweep.add_argument("--batch-sizes", default="1,50,200",
                         help="comma-separated batch sizes; each is written into the "
                              "scenario's batch_size, so an error names scenario.batch_size")

    return parser


def _setup(args, schemes=()):
    """Check the seed and load the config, with --straggler written into the
    scenario, then the agents of any marl checkpoint.

    Returns (scenario, train_cfg, seed, agents or None).
    """
    if args.seed is not None:
        check_seed("--seed", args.seed)
    if "marl" in schemes and args.checkpoint is None:
        raise ConfigError("the marl scheme requires --checkpoint")
    scenario, train_cfg = load_config(args.config)
    if args.straggler is not None:  # before anything runs or is hashed into the digest
        scenario = replace(scenario, straggler_enabled=args.straggler == "on")
    seed = args.seed if args.seed is not None else scenario.seed
    agents = marl.load_checkpoint(args.checkpoint, scenario) if "marl" in schemes else None
    return scenario, train_cfg, seed, agents


def _out(args, name):
    """Path of output file name under --out, creating --out if it is missing."""
    os.makedirs(args.out, exist_ok=True)
    return os.path.join(args.out, name)


def _infeasible(records):
    """The suffix ", n of m tasks infeasible" when n of the records' m tasks are, else ""."""
    n = sum(r.infeasible_count for r in records)
    return f", {n} of {sum(len(r.tasks) for r in records)} tasks infeasible" if n else ""


def _fix_heap_thresholds():
    """Fix glibc's mmap and trim thresholds at 4 and 8 MiB for the rest of the process.

    A no-op where libc has no mallopt.  glibc raises both only after a large mapped block
    is freed, so until then each training iteration's 128 KiB temporaries, and each
    episode's dropped receipt logs, are trimmed and refaulted.
    """
    try:
        mallopt = ctypes.CDLL("libc.so.6").mallopt
    except (OSError, AttributeError):
        return
    mallopt(-3, 4 << 20)  # M_MMAP_THRESHOLD
    mallopt(-1, 8 << 20)  # M_TRIM_THRESHOLD


def cmd_train(args):
    scenario, train_cfg, seed, _ = _setup(args)
    digest = experiments.run_digest(scenario, train_cfg)
    progress = None
    if args.progress:
        start = time.perf_counter()

        def progress(it, mean_reward):
            print(f"iteration {it + 1}/{train_cfg.max_iterations}: mean reward {mean_reward:.4f}, "
                  f"{time.perf_counter() - start:.1f} s", file=sys.stderr, flush=True)

    agents, curve = marl.train(scenario, train_cfg, RngStream(seed), progress=progress)
    ckpt = _out(args, "checkpoint.bin")
    curve_path = _out(args, "learning_curve.csv")
    marl.save_checkpoint(ckpt, agents, scenario)
    experiments.write_curve_csv(curve_path, curve, digest, seed)
    print(f"trained {train_cfg.max_iterations} iterations; wrote {ckpt} and {curve_path}")
    return 0


def cmd_evaluate(args):
    scenario, _, seed, agents = _setup(args, [args.scheme])
    digest = experiments.run_digest(scenario)
    records = experiments.evaluate_scheme(scenario, args.scheme, args.episodes, seed, agents=agents)
    metrics = _out(args, "metrics.csv")
    summary = _out(args, "summary.csv")
    jsonl = _out(args, "episodes.jsonl")
    experiments.write_metrics_csv(metrics, scenario, args.scheme, seed, records, digest)
    experiments.write_comparison_csv(summary, scenario, seed, {args.scheme: records}, digest)
    experiments.write_episodes_jsonl(jsonl, records)
    mean, std, _ = experiments.summarize(records)
    print(f"{args.scheme}: mean total time {mean:.4f} s (std {std:.4f}) over {args.episodes} "
          f"episodes{_infeasible(records)}")
    return 0


def cmd_compare(args):
    schemes = [s.strip() for s in args.scheme.split(",") if s.strip()]
    if len(schemes) < 2:  # evaluate runs one scheme
        raise ValueError("compare needs at least two schemes")
    scenario, _, seed, agents = _setup(args, schemes)
    digest = experiments.run_digest(scenario)
    results = experiments.compare_schemes(scenario, schemes, args.episodes, seed, agents=agents)
    comparison = _out(args, "comparison.csv")
    plotdata = _out(args, "plotdata.csv")
    experiments.write_comparison_csv(comparison, scenario, seed, results, digest)
    experiments.write_plotdata_csv(plotdata, results, digest, seed)
    for scheme in schemes:
        mean, _, half = experiments.summarize(results[scheme])
        print(f"{scheme}: {mean:.4f} +- {half:.4f} s{_infeasible(results[scheme])}")
    return 0


def cmd_sweep_batch(args):
    try:
        batch_sizes = [int(b) for b in args.batch_sizes.split(",") if b.strip()]
    except ValueError:
        raise ConfigError(f"--batch-sizes must be integers, got '{args.batch_sizes}'") from None
    if not batch_sizes:
        raise ConfigError("--batch-sizes is empty")
    scenario, _, seed, agents = _setup(args, [args.scheme])
    digest = experiments.run_digest(scenario)
    sweep = experiments.sweep_batch(
        scenario, args.scheme, batch_sizes, args.episodes, seed, agents=agents
    )
    path = _out(args, "sweep.csv")
    experiments.write_sweep_csv(path, scenario, args.scheme, seed, sweep, digest)
    for b in batch_sizes:
        mean, _, _ = experiments.summarize(sweep[b])
        print(f"b={b}: mean total time {mean:.4f} s")
    return 0


_COMMANDS = {
    "train": cmd_train,
    "evaluate": cmd_evaluate,
    "compare": cmd_compare,
    "sweep-batch": cmd_sweep_batch,
}


def main(argv=None):
    _fix_heap_thresholds()
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except (ConfigError, ValueError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
