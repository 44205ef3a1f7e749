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
    PYTHONPATH=src python tools/replay_tasks.py replay late.pkl

``record`` keeps the inputs of ``simcore.run_task`` calls, as plain
numbers and arrays, in a pickle: the time factors the episode's terms
were derived from (``simcore.episode_terms``), and the loads as a tuple,
with whether they came checked once for the episode (a
``simcore.Loads``), the task's own stream, and, when its one-batch
episode drew its noise (``simcore.one_batch_noise``), the episode's
"task" stream and task count.  By default it runs ``marl.train`` with
the default TrainConfig at the preset and seed, keeps the calls made in
the iterations [first, stop), and stops training after the last of them;
``--batch-size`` trains at that batch size, an int or ``p`` for p_rows
(one batch per worker).  With ``--compare`` it runs
``experiments.compare_schemes`` of the comma-separated schemes instead,
``--episodes`` each, with the straggler on when ``--straggler`` is given
(the preset's own setting otherwise), as perfbench's compare workload
does, and keeps every call.  ``replay`` replays the calls through the
``macc`` package on the path, once untimed and once timed, and prints one
JSON line: the seconds spent inside ``run_task``, the host speed scale
and the seconds scaled by it, the process's minor page faults over the
timed replay, and a digest of every record and next world.  The scale is
perfbench's ``calibrate.scale_now()``, the mean of one taken just before
and one just after the timed replay, so a scaled time is what the replay
would take on perfbench's reference host: a shared host's speed moves
from set to set, and the scaled times follow it less than the raw ones.
An episode that drew its tasks' noise gets it drawn again, through
``one_batch_noise``, inside its first task's timed call, as ``run_episode``
draws it before task 0, and each task is passed its row as ``run_task``'s
``noise``.  So on a one-batch recording, such as a ``--compare`` one, the
times hold every draw.
``time`` runs ``replay`` in a fresh process per side and round, with
PYTHONPATH at that side's source directory, the first side first in even
rounds, so neither side runs in a process whose allocator the other
warmed: per round and side it prints the seconds, raw and scaled, and the
minor page faults.  It checks that both sides return the same records and
next worlds, bit for bit, and ends with one JSON line of every time and
fault count and the ratios of the medians, raw and scaled.
Unpickle only files that ``record`` wrote.
"""

import argparse
import contextlib
import dataclasses
import gc
import hashlib
import importlib.util
import json
import os
import pickle
import resource
import statistics
import subprocess
import sys
import time


# perfbench's host speed scale, which replay takes next to its timed replay
CALIBRATE = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "perfbench",
                         "calibrate.py")


class _Done(Exception):
    """Raised from the progress callback once the recorded iterations are over."""


@contextlib.contextmanager
def _recorder(path, what, keep=lambda: True):
    """Keep the inputs of each simcore.run_task call made while keep() holds; pickle them to path."""
    from macc import simcore
    from macc.numerics import RngStream

    calls = []
    run_task, episode_terms, one_batch_noise = (simcore.run_task, simcore.episode_terms,
                                                simcore.one_batch_noise)
    # the latest terms episode_terms built, their time factors, and the "task" stream and
    # task count of the latest episode whose noise one_batch_noise drew
    episode = [None, None, None]

    def terms_recording(world, factors):
        episode[:2] = episode_terms(world, factors), factors
        return episode[0]

    def noise_recording(rng, n, cfg, k=None):
        if k is not None:  # an episode's draw, not a task's own
            episode[2] = rng.seed, rng.stream, k
        return one_batch_noise(rng, n, cfg, k)

    def recording(world, loads, batch_size, p, m, terms, rng, cfg, index=0, noise=None):
        if keep():
            if terms is not episode[0]:
                raise RuntimeError("run_task was called with terms episode_terms did not build")
            checked = type(loads) is simcore.Loads
            drawn = None if noise is None else episode[2]
            task = rng if drawn is None else RngStream(*drawn[:2]).substream(index)
            calls.append(((world.pos, world.vel, world.alpha, world.beta, world.clock),
                          tuple(loads.loads if checked else loads), checked, batch_size, p, m,
                          episode[1], (task.seed, task.stream), dataclasses.asdict(cfg), index,
                          drawn))
        return run_task(world, loads, batch_size, p, m, terms, rng, cfg, index, noise)

    simcore.run_task, simcore.episode_terms, simcore.one_batch_noise = (
        recording, terms_recording, noise_recording)
    try:
        yield
    finally:
        simcore.run_task, simcore.episode_terms, simcore.one_batch_noise = (
            run_task, episode_terms, one_batch_noise)
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


def _replay(calls):
    """Seconds inside run_task over the calls, and a digest of every record and next world.

    The episode's terms are derived from the world and the time factors,
    and loads that were passed checked (a simcore.Loads) are checked
    again, before the clock starts.  The noise of an episode that drew it
    is drawn again in its first task's timed call, so the time holds every
    draw.  one_batch_noise is called with keywords, which a macc whose
    one_batch_noise takes (rng, k, n, cfg) reads alike.
    """
    from macc import envmodels, numerics, simcore

    h = hashlib.sha256()
    spent = 0.0
    latest = None  # the episode whose noise was drawn last
    for (world, loads, checked, batch_size, p, m, factors, (seed, stream), cfg, index,
         drawn) in calls:
        world = simcore.WorldState(*world)
        terms = simcore.episode_terms(world, factors)
        if checked:
            loads = simcore.check_loads(loads, world.n_workers, p, index)
        cfg = envmodels.CommConfig(**cfg)
        args = (world, loads, batch_size, p, m, terms, numerics.RngStream(seed, stream), cfg, index)
        fresh = drawn is not None and (index == 0 or drawn != latest)  # its episode's first task
        episode = numerics.RngStream(*drawn[:2]) if fresh else None
        start = time.perf_counter()
        if fresh:
            gain, us = simcore.one_batch_noise(episode, n=world.n_workers, cfg=cfg, k=drawn[2])
        if drawn is not None:
            rec, nxt = simcore.run_task(*args, noise=(gain[index], us[index]))
        else:
            rec, nxt = simcore.run_task(*args)
        latest = drawn
        spent += time.perf_counter() - start
        log = rec.receipt_log
        h.update(repr((rec.t_complete, rec.feasible, rec.rows_received_at_completion,
                       nxt.clock)).encode())
        for a in (log.workers, log.rows, log.arrivals, nxt.pos):
            h.update(a.tobytes())
    return spent, h.hexdigest()


def replay(path):
    """Replay the calls through the macc on the path, untimed then timed; print one JSON line."""
    import macc

    spec = importlib.util.spec_from_file_location("calibrate", CALIBRATE)
    calibrate = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(calibrate)
    with open(path, "rb") as fh:
        calls = pickle.load(fh)
    _replay(calls)  # imports and first calls warm up
    gc.collect()
    before = calibrate.scale_now()
    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    spent, digest = _replay(calls)
    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - faults
    scale = (before + calibrate.scale_now()) / 2
    print(json.dumps({"package": os.path.dirname(os.path.realpath(macc.__file__)),
                      "calls": len(calls), "seconds": spent, "scale": scale,
                      "scaled_seconds": spent * scale, "faults": faults, "digest": digest}))


def _replay_in(path, src):
    """replay's JSON of the calls in a fresh process that imports macc from src."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
    done = subprocess.run([sys.executable, os.path.abspath(__file__), "replay", path], env=env,
                          capture_output=True, text=True)
    if done.returncode:
        raise SystemExit(f"replay through {src} failed:\n{done.stderr}")
    out = json.loads(done.stdout.strip().splitlines()[-1])
    if out["package"] != os.path.realpath(os.path.join(src, "macc")):
        raise SystemExit(f"replay through {src} imported macc from {out['package']}")
    return out


def time_sides(path, sources, pairs):
    times, scaled, faults = [[], []], [[], []], [[], []]
    for i in range(pairs):
        digests = [None, None]
        for side in (0, 1) if i % 2 == 0 else (1, 0):
            out = _replay_in(path, sources[side])
            times[side].append(out["seconds"])
            scaled[side].append(out["scaled_seconds"])
            faults[side].append(out["faults"])
            digests[side] = out["digest"]
        if digests[0] != digests[1]:
            raise SystemExit(f"round {i}: the two sides returned different records")
        print(f"round {i}: " + ", ".join(f"{src} {times[n][-1]:.4f} s ({scaled[n][-1]:.4f} s "
                                         f"scaled) {faults[n][-1]} faults"
                                         for n, src in enumerate(sources)), flush=True)
    medians = [statistics.median(t) for t in times]
    scaled_medians = [statistics.median(t) for t in scaled]
    print(json.dumps({"calls": out["calls"], "pairs": pairs, "sources": list(sources),
                      "seconds": times, "scaled_seconds": scaled, "faults": faults,
                      "medians": medians, "ratio": medians[1] / medians[0],
                      "scaled_medians": scaled_medians,
                      "scaled_ratio": scaled_medians[1] / scaled_medians[0]}))


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
    rep = sub.add_parser("replay", help="replay recorded calls once through the macc on the path")
    rep.add_argument("path")
    args = parser.parse_args(argv)
    if args.command == "record" and args.compare:
        record_compare(args.path, args.preset, args.seed, args.compare.split(","), args.episodes,
                       args.straggler)
    elif args.command == "record":
        record(args.path, args.preset, args.seed, *args.iterations, args.batch_size)
    elif args.command == "replay":
        replay(args.path)
    else:
        time_sides(args.path, args.sources, args.pairs)
    return 0


if __name__ == "__main__":
    sys.exit(main())
