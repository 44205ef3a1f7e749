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
``simcore.Loads``), the task's own stream, and, when its episode derived
its tasks' worker stream ids (``simcore.worker_ids``, called with a task
count by ``simcore.episode_env`` after the episode's terms), the
episode's "task" stream and task count.  Each call is matched to its
episode by the terms it is passed, so the calls of schemes that share
one episode's env, as ``compare_schemes`` runs them, are each recorded
with that episode's; a recording is made through a ``macc`` that has
``episode_env``.  By default it runs
``marl.train`` with the default TrainConfig at the preset and seed,
keeps the calls made in the iterations [first, stop), and stops
training after the last of them;
``--batch-size`` trains at that batch size, an int or ``p`` for p_rows
(one batch per worker).  With ``--compare`` it runs
``experiments.compare_schemes`` of the comma-separated schemes instead,
``--episodes`` each, with the straggler on when ``--straggler`` is given
(the preset's own setting otherwise), as perfbench's compare workload
does, and keeps every call.  ``replay`` replays the calls through the
``macc`` package on the path, once untimed and once timed, and prints one
JSON line: the seconds spent inside ``run_task``, the seconds scaled to
host speed, their mean scale and the kernel's run count, the process's
minor page faults over the timed replay, and a digest of every record
and next world.  The replay is
scaled slice by slice, as perfbench scales a unit: perfbench's
``calibrate.Speed`` runs its kernel before a call whenever 5 ms have
passed since its last run, outside the clock, and each call's time is
scaled by the kernel runs around it, so a scaled time is what the replay
would take on perfbench's reference host even when the host's speed
moves within the replay.
An episode that derived its tasks' noise or stream ids gets them derived
again once, in a timed span before the first of its calls, and each
task of each scheme that ran it is passed its row, as ``compare_schemes``
derives each episode's env once for every scheme.  With a ``macc`` that
has ``simcore.one_batch_terms``, a one-batch episode's ``noise`` row is
that of ``one_batch_terms(*one_batch_noise(...), terms)`` (the broadcast
gains, transmission gains and compute times per row), and a multi-batch
episode's task gets its row of ``worker_ids`` as ``ids``; with one
before it, the row is ``one_batch_noise``'s (gain, us), and a
multi-batch task derives its own ids.  ``one_batch_noise`` is passed the
episode's ``worker_ids`` in a ``macc`` that has ``simcore.episode_env``,
and a task count in one before it.  So on a one-batch recording, such
as a ``--compare`` one, the times hold every draw, and either package
replays through its own contract.
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


# perfbench's host speed kernel, which replay runs between its timed calls
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
    run_task, episode_terms, worker_ids = (simcore.run_task, simcore.episode_terms,
                                           simcore.worker_ids)
    # per terms episode_terms built, by id: the terms, their time factors, and the "task"
    # stream and task count its episode derived its tasks' worker ids from; an episode
    # derives its ids after its terms (simcore.episode_env), and runs under several
    # schemes may share one episode's terms
    episodes, latest = {}, [None]

    def terms_recording(world, factors):
        latest[0] = terms = episode_terms(world, factors)
        episodes[id(terms)] = terms, factors, None
        return terms

    def ids_recording(rng, n, k=None):
        if k is not None:  # an episode's ids, not a task's own
            terms, factors, _ = episodes[id(latest[0])]
            episodes[id(terms)] = terms, factors, (rng.seed, rng.stream, k)
        return worker_ids(rng, n, k)

    def recording(world, loads, batch_size, p, m, terms, rng, cfg, index=0, noise=None,
                  ids=None):
        if keep():
            built, factors, episode = episodes.get(id(terms), (None, None, None))
            if built is not terms:
                raise RuntimeError("run_task was called with terms episode_terms did not build")
            checked = type(loads) is simcore.Loads
            drawn = None if noise is None and ids is None else episode
            task = rng if drawn is None else RngStream(*drawn[:2]).substream(index)
            calls.append(((world.pos, world.vel, world.alpha, world.beta, world.clock),
                          tuple(loads.loads if checked else loads), checked, batch_size, p, m,
                          factors, (task.seed, task.stream), dataclasses.asdict(cfg), index,
                          drawn))
        return run_task(world, loads, batch_size, p, m, terms, rng, cfg, index, noise, ids)

    simcore.run_task, simcore.episode_terms, simcore.worker_ids = (
        recording, terms_recording, ids_recording)
    try:
        yield
    finally:
        simcore.run_task, simcore.episode_terms, simcore.worker_ids = (
            run_task, episode_terms, worker_ids)
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


def _replay(calls, speed):
    """Seconds inside run_task over the calls, scaled and raw, and a digest of every record
    and next world.

    The episode's terms are derived from the world and the time factors,
    and loads that were passed checked (a simcore.Loads) are checked
    again, before the clock starts.  What an episode derived before task 0
    is derived again once, in a timed span before the first call of any
    scheme's run of it, so the time holds every draw; see the module
    docstring for each contract.
    speed, a calibrate.Speed, runs its kernel before a span when one is
    due, and each span is scaled by the kernel runs around it.
    """
    from macc import envmodels, numerics, simcore

    derived = hasattr(simcore, "one_batch_terms")  # noise holds per-row times, ids a row
    keyed = hasattr(simcore, "episode_env")  # one_batch_noise takes the workers' ids
    h = hashlib.sha256()
    spans = []  # (seconds, the kernel run before it)
    shared = {}  # per episode draw and whether its tasks send one batch: its tasks' rows
    for (world, loads, checked, batch_size, p, m, factors, (seed, stream), cfg, index,
         drawn) in calls:
        world = simcore.WorldState(*world)
        terms = simcore.episode_terms(world, factors)
        if checked:
            loads = simcore.check_loads(loads, world.n_workers, p, index)
        cfg = envmodels.CommConfig(**cfg)
        args = (world, loads, batch_size, p, m, terms, numerics.RngStream(seed, stream), cfg, index)
        one_batch = batch_size >= p
        if drawn is not None and (drawn, one_batch) not in shared:  # its episode's first task
            episode, n, k = numerics.RngStream(*drawn[:2]), world.n_workers, drawn[2]
            speed.maybe_sample()
            start = time.perf_counter()
            rows = None
            if one_batch and keyed:
                rows = simcore.one_batch_noise(episode, simcore.worker_ids(episode, n, k), cfg)
            elif one_batch:
                rows = simcore.one_batch_noise(episode, n=n, cfg=cfg, k=k)
            elif derived:
                rows = simcore.worker_ids(episode, n, k)
            if one_batch and derived:
                rows = simcore.one_batch_terms(*rows, terms)
            spans.append((time.perf_counter() - start, speed.index))
            shared[drawn, one_batch] = rows
        kwargs = {}
        if drawn is not None and one_batch:
            kwargs["noise"] = tuple(a[index] for a in shared[drawn, one_batch])
        elif drawn is not None and derived:
            kwargs["ids"] = shared[drawn, one_batch][index]
        speed.maybe_sample()
        start = time.perf_counter()
        rec, nxt = simcore.run_task(*args, **kwargs)
        spans.append((time.perf_counter() - start, speed.index))
        log = rec.receipt_log
        h.update(repr((rec.t_complete, rec.feasible, rec.rows_received_at_completion,
                       nxt.clock)).encode())
        for a in (log.workers, log.rows, log.arrivals, nxt.pos):
            h.update(a.tobytes())
    scales = speed.scales()
    return (sum(t for t, _ in spans), sum(t * scales[mark] for t, mark in spans),
            h.hexdigest())


def _calibrate():
    """perfbench's calibrate module, loaded from its file."""
    spec = importlib.util.spec_from_file_location("calibrate", CALIBRATE)
    calibrate = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(calibrate)
    return calibrate


def replay(path):
    """Replay the calls through the macc on the path, untimed then timed; print one JSON line."""
    import macc

    calibrate = _calibrate()
    with open(path, "rb") as fh:
        calls = pickle.load(fh)
    _replay(calls, calibrate.Speed())  # imports, first calls and the kernel warm up
    gc.collect()
    speed = calibrate.Speed()
    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    spent, scaled, digest = _replay(calls, speed)
    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - faults
    print(json.dumps({"package": os.path.dirname(os.path.realpath(macc.__file__)),
                      "calls": len(calls), "seconds": spent, "scale": scaled / spent,
                      "scaled_seconds": scaled, "kernel_runs": len(speed.samples),
                      "faults": faults, "digest": digest}))


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
