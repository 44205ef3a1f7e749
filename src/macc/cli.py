"""Command line entry points: train, evaluate, compare, sweep-batch.

    macc train --config run.ini --out results/ [--progress]
    macc evaluate --config run.ini --scheme hcmm --episodes 20 --out results/
    macc compare --config run.ini --scheme uniform,load-balanced,hcmm --out results/
    macc sweep-batch --config run.ini --scheme hcmm --batch-sizes 1,50,200 --out results/

Every command is a pure function of (config file, seed): reruns produce
byte-identical outputs.  train --progress adds one line per iteration on
stderr (iteration, mean reward, elapsed seconds) and changes nothing else.
"""

import argparse
import os
import sys
import time
from dataclasses import replace

from . import experiments, marl
from .config import ConfigError, check_seed, load_config
from .numerics import RngStream


def _straggler_flag(value):
    if value is None:
        return None
    if value == "on":
        return True
    if value == "off":
        return False
    raise argparse.ArgumentTypeError("--straggler takes 'on' or 'off'")


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
        p.add_argument("--out", default=".", help="output directory (created if missing)")
        p.add_argument("--straggler", type=_straggler_flag, default=None,
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
                       help="comma-separated scheme list")
    p_cmp.add_argument("--episodes", type=int, default=20)
    p_cmp.add_argument("--checkpoint", default=None)

    p_sweep = sub.add_parser("sweep-batch", help="batch-size sweep for one scheme")
    add_common(p_sweep)
    p_sweep.add_argument("--scheme", default="hcmm")
    p_sweep.add_argument("--episodes", type=int, default=20)
    p_sweep.add_argument("--checkpoint", default=None)
    p_sweep.add_argument("--batch-sizes", default="1,50,200",
                         help="comma-separated batch sizes")

    return parser


def _setup(args, schemes=(), train=False):
    """Check the seed and load the config, with --straggler written into the
    scenario, then what the command runs with: the agents of any marl
    checkpoint or, with train, an empty replay buffer of
    train.replay_capacity.  Only then create --out.

    Each command checks its own arguments first, and a capacity too large
    to allocate is refused here, so a bad one leaves no output directory
    behind.  Returns (scenario, train_cfg, seed, agents or buffer or None).
    """
    if args.seed is not None:
        check_seed("--seed", args.seed)
    if "marl" in schemes and args.checkpoint is None:
        raise ConfigError("the marl scheme requires --checkpoint")
    scenario, train_cfg = load_config(args.config)
    if args.straggler is not None:  # before anything runs or is hashed into the digest
        scenario = replace(scenario, straggler_enabled=args.straggler)
    seed = args.seed if args.seed is not None else scenario.seed
    loaded = marl.load_checkpoint(args.checkpoint, scenario) if "marl" in schemes else None
    if train:
        n = scenario.n_workers
        loaded = marl.ReplayBuffer(train_cfg.replay_capacity, n, marl.state_dim(n))
    os.makedirs(args.out, exist_ok=True)
    return scenario, train_cfg, seed, loaded


def cmd_train(args):
    scenario, train_cfg, seed, buffer = _setup(args, train=True)
    digest = experiments.run_digest(scenario, train_cfg)
    progress = None
    if args.progress:
        start = time.perf_counter()

        def progress(it, mean_reward):
            print(f"iteration {it + 1}/{train_cfg.max_iterations}: mean reward {mean_reward:.4f}, "
                  f"{time.perf_counter() - start:.1f} s", file=sys.stderr, flush=True)

    agents, curve = marl.train(scenario, train_cfg, RngStream(seed), progress=progress,
                               buffer=buffer)
    ckpt = os.path.join(args.out, "checkpoint.bin")
    curve_path = os.path.join(args.out, "learning_curve.csv")
    marl.save_checkpoint(ckpt, agents, scenario)
    experiments.write_curve_csv(curve_path, curve, digest, seed)
    print(f"trained {train_cfg.max_iterations} iterations; wrote {ckpt} and {curve_path}")
    return 0


def cmd_evaluate(args):
    experiments.check_scheme(args.scheme)
    experiments.check_episodes(args.episodes)
    scenario, _, seed, agents = _setup(args, [args.scheme])
    digest = experiments.run_digest(scenario)
    records = experiments.evaluate_scheme(scenario, args.scheme, args.episodes, seed, agents=agents)
    metrics = os.path.join(args.out, "metrics.csv")
    summary = os.path.join(args.out, "summary.csv")
    jsonl = os.path.join(args.out, "episodes.jsonl")
    experiments.write_metrics_csv(metrics, scenario, args.scheme, seed, records, digest)
    experiments.write_comparison_csv(summary, scenario, seed, {args.scheme: records}, digest)
    experiments.write_episodes_jsonl(jsonl, records)
    mean, std, _ = experiments.summarize(records)
    print(f"{args.scheme}: mean total time {mean:.4f} s (std {std:.4f}) over {args.episodes} episodes")
    return 0


def cmd_compare(args):
    schemes = [s.strip() for s in args.scheme.split(",") if s.strip()]
    experiments.check_schemes(schemes)
    experiments.check_episodes(args.episodes)
    scenario, _, seed, agents = _setup(args, schemes)
    digest = experiments.run_digest(scenario)
    results = experiments.compare_schemes(scenario, schemes, args.episodes, seed, agents=agents)
    comparison = os.path.join(args.out, "comparison.csv")
    plotdata = os.path.join(args.out, "plotdata.csv")
    experiments.write_comparison_csv(comparison, scenario, seed, results, digest)
    experiments.write_plotdata_csv(plotdata, results, digest, seed)
    for scheme in schemes:
        mean, _, half = experiments.summarize(results[scheme])
        print(f"{scheme}: {mean:.4f} +- {half:.4f} s")
    return 0


def cmd_sweep_batch(args):
    try:
        batch_sizes = [int(b) for b in args.batch_sizes.split(",") if b.strip()]
    except ValueError:
        raise ConfigError(f"--batch-sizes must be integers, got '{args.batch_sizes}'") from None
    if not batch_sizes:
        raise ConfigError("--batch-sizes is empty")
    experiments.check_batch_sizes(batch_sizes)
    experiments.check_scheme(args.scheme)
    experiments.check_episodes(args.episodes)
    scenario, _, seed, agents = _setup(args, [args.scheme])
    digest = experiments.run_digest(scenario)
    sweep = experiments.sweep_batch(
        scenario, args.scheme, batch_sizes, args.episodes, seed, agents=agents
    )
    path = os.path.join(args.out, "sweep.csv")
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
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except (ConfigError, ValueError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
