"""Record the run_task calls of a training run, then time them through two checkouts.

A speed change to the engine can be timed on exactly the tasks a training
run makes, late iterations included, without training again:

    PYTHONPATH=src python tools/replay_tasks.py record late.pkl --preset scenario1 \\
        --seed 0 --iterations 290 300
    python tools/replay_tasks.py time late.pkl ../parent/src src --pairs 10

``record`` runs ``marl.train`` with the default TrainConfig at the preset
and seed, and keeps the inputs of every ``simcore.run_task`` call made in
the iterations [first, stop), as plain numbers and arrays, in a pickle;
it stops training after the last of them.  ``time`` copies the ``macc``
package of each source directory under a name of its own, imports both
into one process, and replays the calls through each in turn, the first
side first in even rounds: per round and side it prints the seconds spent
inside ``run_task``, after one untimed replay per side.  It checks that
both sides return the same records and next worlds, bit for bit, and ends
with one JSON line of every time.
Unpickle only files that ``record`` wrote.
"""

import argparse
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


def record(path, preset, seed, first, stop):
    from macc import config, marl, simcore
    from macc.numerics import RngStream

    calls, iteration = [], [0]
    run_task = simcore.run_task

    def recording(world, loads, batch_size, p, m, factors, rng, cfg, index=0):
        if first <= iteration[0]:
            calls.append(((world.pos, world.vel, world.alpha, world.beta, world.clock),
                          tuple(loads), batch_size, p, m, factors, (rng.seed, rng.stream),
                          dataclasses.asdict(cfg), index))
        return run_task(world, loads, batch_size, p, m, factors, rng, cfg, index)

    def progress(it, _):
        iteration[0] = it + 1
        if iteration[0] >= stop:
            raise _Done

    simcore.run_task = recording
    try:
        marl.train(config.preset_scenario(preset), config.TrainConfig(), RngStream(seed),
                   progress=progress)
    except _Done:
        pass
    finally:
        simcore.run_task = run_task
    with open(path, "wb") as fh:
        pickle.dump(calls, fh)
    print(f"{len(calls)} run_task calls of iterations {first} to {stop - 1} written to {path}")


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
    tim = sub.add_parser("time", help="replay recorded calls through two source directories")
    tim.add_argument("path")
    tim.add_argument("sources", nargs=2, help="two directories that hold a macc package")
    tim.add_argument("--pairs", type=int, default=10)
    args = parser.parse_args(argv)
    if args.command == "record":
        record(args.path, args.preset, args.seed, *args.iterations)
    else:
        time_sides(args.path, args.sources, args.pairs)
    return 0


if __name__ == "__main__":
    sys.exit(main())
