"""Record the run_task calls of a training run or a comparison, then time them through two checkouts.

A speed change to the engine can be timed on exactly the tasks a training
run or a comparison makes, late iterations included, without running it
again:

    PYTHONPATH=src python tools/replay_tasks.py record late.pkl --preset scenario1 \\
        --seed 0 --iterations 290 300
    PYTHONPATH=src python tools/replay_tasks.py record one-batch.pkl --preset scenario1 \\
        --iterations 0 60 --batch-size p
    PYTHONPATH=src python tools/replay_tasks.py record compare.pkl --preset scenario3 \\
        --compare uniform,load-balanced,hcmm --episodes 100 --straggler
    python tools/replay_tasks.py time late.pkl ../parent/src src --pairs 10

``record`` keeps the inputs of ``simcore.run_task`` calls, as plain
numbers and arrays, in a pickle.  By default it runs ``marl.train`` with
the default TrainConfig at the preset and seed, keeps the calls made in
the iterations [first, stop), and stops training after the last of them;
``--batch-size`` trains at that batch size, an int or ``p`` for p_rows
(one batch per worker).  With ``--compare`` it runs
``experiments.compare_schemes`` of the comma-separated schemes instead,
``--episodes`` each, with the straggler on when ``--straggler`` is given
(the preset's own setting otherwise), as perfbench's compare workload
does, and keeps every call.  ``time`` copies the ``macc`` package of each
source directory under a name of its own, imports both into one process,
and replays the calls through each in turn, the first side first in even
rounds: per round and side it prints the seconds spent inside
``run_task``, after one untimed replay per side.  It checks that both
sides return the same records and next worlds, bit for bit, and ends with
one JSON line of every time.
Unpickle only files that ``record`` wrote.
"""

import argparse
import contextlib
import dataclasses
import gc
import hashlib
import importlib
import json
import os
import pickle
import shutil
import statistics
import sys
import tempfile
import time


class _Done(Exception):
    """Raised from the progress callback once the recorded iterations are over."""


@contextlib.contextmanager
def _recorder(path, what, keep=lambda: True):
    """Keep the inputs of each simcore.run_task call made while keep() holds; pickle them to path."""
    from macc import simcore

    calls = []
    run_task = simcore.run_task

    def recording(world, loads, batch_size, p, m, factors, rng, cfg, index=0):
        if keep():
            calls.append(((world.pos, world.vel, world.alpha, world.beta, world.clock),
                          tuple(loads), batch_size, p, m, factors, (rng.seed, rng.stream),
                          dataclasses.asdict(cfg), index))
        return run_task(world, loads, batch_size, p, m, factors, rng, cfg, index)

    simcore.run_task = recording
    try:
        yield
    finally:
        simcore.run_task = run_task
    with open(path, "wb") as fh:
        pickle.dump(calls, fh)
    print(f"{len(calls)} run_task calls of {what} written to {path}")


def record(path, preset, seed, first, stop, batch_size=None):
    """Record the calls of training iterations [first, stop); batch_size is an int, "p" or None."""
    from macc import config, marl
    from macc.numerics import RngStream

    scenario = config.preset_scenario(preset)
    if batch_size is not None:
        scenario = dataclasses.replace(
            scenario, batch_size=scenario.p_rows if batch_size == "p" else batch_size)
    iteration = [0]

    def progress(it, _):
        iteration[0] = it + 1
        if iteration[0] >= stop:
            raise _Done

    with _recorder(path, f"iterations {first} to {stop - 1}", lambda: first <= iteration[0]):
        try:
            marl.train(scenario, config.TrainConfig(), RngStream(seed), progress=progress)
        except _Done:
            pass


def record_compare(path, preset, seed, schemes, episodes, straggler):
    """Record the calls of a comparison of schemes, episodes each, the straggler on if straggler."""
    from macc import config, experiments

    scenario = config.preset_scenario(preset)
    if straggler:
        scenario = dataclasses.replace(scenario, straggler_enabled=True)
    with _recorder(path, f"{episodes} episodes of each of {', '.join(schemes)}"):
        experiments.compare_schemes(scenario, schemes, episodes, seed)


def _replay(package, calls):
    """Seconds inside run_task over the calls, and a digest of every record and next world."""
    simcore, numerics, envmodels = (importlib.import_module(f"{package}.{m}")
                                    for m in ("simcore", "numerics", "envmodels"))
    h = hashlib.sha256()
    spent = 0.0
    for world, loads, batch_size, p, m, factors, (seed, stream), cfg, index in calls:
        args = (simcore.WorldState(*world), loads, batch_size, p, m, factors,
                numerics.RngStream(seed, stream), envmodels.CommConfig(**cfg), index)
        start = time.perf_counter()
        rec, nxt = simcore.run_task(*args)
        spent += time.perf_counter() - start
        log = rec.receipt_log
        h.update(repr((rec.t_complete, rec.feasible, rec.rows_received_at_completion,
                       nxt.clock)).encode())
        for a in (log.workers, log.rows, log.arrivals, nxt.pos):
            h.update(a.tobytes())
    return spent, h.hexdigest()


def time_sides(path, sources, pairs):
    with open(path, "rb") as fh:
        calls = pickle.load(fh)
    names = ("side_a", "side_b")
    with tempfile.TemporaryDirectory() as root:
        for name, src in zip(names, sources):
            shutil.copytree(os.path.join(src, "macc"), os.path.join(root, name),
                            ignore=shutil.ignore_patterns("__pycache__"))
        sys.path.insert(0, root)
        try:
            times = {name: [] for name in names}
            for name in names:  # untimed: imports and first calls warm up
                _replay(name, calls)
            for i in range(pairs):
                digests = {}
                for name in names if i % 2 == 0 else names[::-1]:
                    gc.collect()
                    spent, digests[name] = _replay(name, calls)
                    times[name].append(spent)
                if digests[names[0]] != digests[names[1]]:
                    raise SystemExit(f"round {i}: the two sides returned different records")
                print(f"round {i}: " + ", ".join(f"{src} {times[n][-1]:.4f} s"
                                                 for n, src in zip(names, sources)), flush=True)
        finally:  # a later call imports its own copies
            sys.path.remove(root)
            for module in [m for m in sys.modules if m.split(".")[0] in names]:
                del sys.modules[module]
    medians = [statistics.median(times[n]) for n in names]
    print(json.dumps({"calls": len(calls), "pairs": pairs, "sources": list(sources),
                      "seconds": [times[n] for n in names], "medians": medians,
                      "ratio": medians[1] / medians[0]}))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)
    rec = sub.add_parser("record", help="record the run_task calls of a training run")
    rec.add_argument("path")
    rec.add_argument("--preset", default="scenario1")
    rec.add_argument("--seed", type=int, default=0)
    rec.add_argument("--iterations", type=int, nargs=2, metavar=("FIRST", "STOP"),
                     default=(290, 300), help="iterations first to stop - 1 (default 290 300)")
    rec.add_argument("--batch-size", type=lambda v: v if v == "p" else int(v),
                     help="train at this batch size, an int or p for p_rows")
    rec.add_argument("--compare", metavar="SCHEMES",
                     help="record a comparison of these comma-separated schemes instead")
    rec.add_argument("--episodes", type=int, default=100,
                     help="episodes per scheme of --compare (default 100)")
    rec.add_argument("--straggler", action="store_true",
                     help="run --compare with the straggler on")
    tim = sub.add_parser("time", help="replay recorded calls through two source directories")
    tim.add_argument("path")
    tim.add_argument("sources", nargs=2, help="two directories that hold a macc package")
    tim.add_argument("--pairs", type=int, default=10)
    args = parser.parse_args(argv)
    if args.command == "record" and args.compare:
        record_compare(args.path, args.preset, args.seed, args.compare.split(","), args.episodes,
                       args.straggler)
    elif args.command == "record":
        record(args.path, args.preset, args.seed, *args.iterations, args.batch_size)
    else:
        time_sides(args.path, args.sources, args.pairs)
    return 0


if __name__ == "__main__":
    sys.exit(main())
