"""The benchmark's workloads and the unit of work each one repeats.

A unit is what one ``macc train`` or ``macc compare`` invocation does,
driven through the same public calls the CLI makes: write an INI,
``load_config``, then ``marl.train`` or ``experiments.compare_schemes``,
then the checkpoint and CSV writers.  The only hooks in an untraced unit
are a clock at each ``run_task`` call, a clock and output check around
each ``run_episode`` call and, in a timed unit, the speed kernel of
calibrate.py between tasks; the time spent checking and calibrating is
measured and taken out of the unit's times.

Why each workload exists:

* ``train-desk`` -- the only workload where the update path (``nets``,
  replay, ``marl`` updates) is a real share of host time.  100 iterations
  cover all three training phases: replay below one minibatch
  (iterations 0-11), critic-only until warm-up ends at 60, then critic
  and actor.
* ``train-scenario1`` -- paper scale, one iteration of the default
  TrainConfig (10 episodes).  Almost all host time is the per-batch loop
  of ``simcore.run_task``; ``nets`` and ``marl`` are under 1 %.
* ``compare-scenario3`` -- paper scale baselines with one batch per
  worker, as the CLI sends them: per-task overhead (RNG streams, HCMM
  bisection, agent states) dominates, and the batch loop does little.
"""

import hashlib
import math
import os
import time
import traceback
from contextlib import nullcontext
from dataclasses import dataclass, field

import numpy as np

from macc import config, experiments, marl, simcore
from macc.numerics import RngStream

from calibrate import Speed
from checks import WorkCounters, episode_problems, mismatches

_clock = time.perf_counter


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str                      # "train" or "compare"
    scenario: dict                 # [scenario] keys besides the seed
    train: dict = field(default_factory=dict)
    straggler: bool = False
    schemes: tuple = ()
    episodes: int = 0              # per scheme, compare only
    repeats: int = 2               # most identical units per run; --seconds may stop it sooner


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="train-desk",
            kind="train",
            scenario={"preset": "desk"},
            train={"episodes_per_iteration": 4, "minibatch": 256, "max_iterations": 100},
            repeats=5,
        ),
        Workload(
            name="train-scenario1",
            kind="train",
            scenario={"preset": "scenario1"},
            train={"max_iterations": 1},
            repeats=3,
        ),
        Workload(
            name="compare-scenario3",
            kind="compare",
            scenario={"preset": "scenario3"},
            straggler=True,
            schemes=("uniform", "load-balanced", "hcmm"),
            episodes=100,
            repeats=12,
        ),
    )
}


def write_ini(wl, seed, workdir):
    os.makedirs(workdir, exist_ok=True)
    lines = ["[scenario]", *(f"{k} = {v}" for k, v in wl.scenario.items()), f"seed = {seed}"]
    lines += ["", "[straggler]", f"enabled = {'true' if wl.straggler else 'false'}"]
    if wl.train:
        lines += ["", "[train]", *(f"{k} = {v}" for k, v in wl.train.items())]
    path = os.path.join(workdir, "run.ini")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
    return path


def planned_ops(wl):
    if wl.kind == "compare":
        return len(wl.schemes) * wl.episodes
    return int(wl.train["max_iterations"])


class EpisodeHook:
    """Clock and output check around the run_episode name a caller resolves.

    It also clocks each task at ``simcore.run_task``, the name run_episode
    resolves, so a unit's time splits into parts of a few milliseconds.
    Given a ``calibrate.Speed``, it runs the speed kernel before a task when
    one is due and notes which kernel run each part is scaled by.
    """

    def __init__(self, owner, p, speed=None):
        self.owner = owner
        self.p = p
        self.speed = speed
        self.times = []
        self.task_times = []         # per episode, the time of each of its tasks
        self.task_marks = []         # per episode, the kernel run before each of its tasks
        self.episode_marks = []      # the latest kernel run at the end of each episode
        self.totals = []
        self.problems = []           # (episode index, message)
        self.counters = WorkCounters()
        self.overhead_s = 0.0
        self._digest = hashlib.blake2b(digest_size=16)

    def __enter__(self):
        self._original = self.owner.__dict__["run_episode"]
        self._original_task = simcore.__dict__["run_task"]
        run, run_task = self._original, self._original_task
        tasks, marks = [], []

        def timed_task(*args, **kwargs):
            self.sample()
            t0 = _clock()
            out = run_task(*args, **kwargs)
            tasks.append(_clock() - t0)
            marks.append(self.mark())
            return out

        def run_episode(scenario, allocator, rng, **kwargs):
            tasks.clear()
            marks.clear()
            overhead = self.overhead_s
            t0 = _clock()
            rec = run(scenario, allocator, rng, **kwargs)
            t1 = _clock()
            e = len(self.times)
            self.times.append(t1 - t0 - (self.overhead_s - overhead))
            self.task_times.append(list(tasks))
            self.task_marks.append(list(marks))
            self.episode_marks.append(self.mark())
            self.totals.append(rec.total_time)
            batch_size = kwargs.get("batch_size", "scenario")
            if batch_size == "scenario":
                batch_size = scenario.batch_size
            self.counters.add_episode(rec, batch_size)
            self.problems.extend((e, msg) for msg in episode_problems(rec, self.p))
            self._digest.update(np.array([t.t_complete for t in rec.tasks]).tobytes())
            self._digest.update(np.array([t.loads for t in rec.tasks]).tobytes())
            self.overhead_s += _clock() - t1
            return rec

        self.owner.run_episode = run_episode
        simcore.run_task = timed_task
        if self.speed is not None:
            self.speed.maybe_sample()  # before the unit's clock starts, so no overhead
        return self

    def __exit__(self, *exc):
        simcore.run_task = self._original_task
        self.owner.run_episode = self._original
        return False

    def sample(self):
        """Run the speed kernel if one is due; its time counts as overhead."""
        if self.speed is not None:
            self.overhead_s += self.speed.maybe_sample()

    def mark(self):
        return self.speed.index if self.speed is not None else 0

    def episode_parts(self, e, op):
        """The parts of episode e as (time, operation, kernel run): each task, then the rest."""
        tasks = self.task_times[e]
        return [(t, op, m) for t, m in zip(tasks, self.task_marks[e])] + [
            (self.times[e] - sum(tasks), op, self.episode_marks[e])
        ]

    def set_parts(self, res, parts):
        """Store parts on res, each scaled to the reference host speed if the hook has a Speed."""
        scales = self.speed.scales() if self.speed is not None else None
        res.parts = [t * scales[m] if scales else t for t, _, m in parts]
        res.part_ops = [op for _, op, _ in parts]

    def digest(self):
        return self._digest.hexdigest()


@dataclass
class UnitResult:
    ops: int                       # operations attempted: iterations or episodes
    failed_ops: set
    problems: list                 # messages for failed checks
    wall_s: float = 0.0            # timed part, checking time taken out
    op_times: list = field(default_factory=list)
    parts: list = field(default_factory=list)      # the unit's time, split in call order
    part_ops: list = field(default_factory=list)   # operation of each part; None outside ops
    tasks: int = 0
    curve: list = field(default_factory=list)
    totals: list = field(default_factory=list)
    counters: dict = field(default_factory=dict)
    digest: str = ""

    def outputs(self):
        """Everything the simulation returned, for exact comparison between runs."""
        return (self.curve, self.totals, self.counters, self.digest)


def run_unit(wl, seed, workdir, reference=None, tracer=None, calibrate=False):
    """Run one unit; every failure is counted against its operations, never raised.

    With calibrate, the unit's parts are scaled to the reference host speed
    (see calibrate.py); its wall_s and op_times stay as measured.
    """
    try:
        with tracer if tracer is not None else nullcontext():
            ini = write_ini(wl, seed, workdir)
            scenario, train_cfg = config.load_config(ini)
            run = _run_train if wl.kind == "train" else _run_compare
            speed = Speed() if calibrate else None
            result = run(wl, scenario, train_cfg, seed, workdir, speed)
    except Exception as err:  # a unit that raises fails all its operations
        traceback.print_exc()
        n = planned_ops(wl)
        return UnitResult(ops=n, failed_ops=set(range(n)), problems=[f"raised {err!r}"])
    if reference is not None:
        check_reference(wl, result, reference, train_cfg)
    return result


def _run_train(wl, scenario, train_cfg, seed, workdir, speed):
    hook = EpisodeHook(simcore, scenario.p_rows, speed)
    marks = []

    def progress(it, value):
        hook.sample()
        marks.append((_clock(), hook.overhead_s, hook.mark()))

    ckpt = os.path.join(workdir, "checkpoint.json")
    curve_path = os.path.join(workdir, "learning_curve.csv")
    with hook:
        t0 = _clock()
        digest = experiments.run_digest(scenario, train_cfg)
        agents, curve = marl.train(scenario, train_cfg, RngStream(seed), progress=progress)
        marl.save_checkpoint(ckpt, agents, scenario)
        experiments.write_curve_csv(curve_path, curve, digest, seed)
        t1 = _clock()

    n = train_cfg.max_iterations
    per_ep = train_cfg.episodes_per_iteration
    res = UnitResult(
        ops=n,
        failed_ops={e // per_ep for e, _ in hook.problems},
        problems=[f"episode {e}: {msg}" for e, msg in hook.problems],
        wall_s=t1 - t0 - hook.overhead_s,
        tasks=len(hook.times) * scenario.k_tasks,
        curve=list(curve),
        totals=hook.totals,
        counters=hook.counters.as_dict(),
        digest=hook.digest(),
    )
    prev = (t0, 0.0)
    for mark in marks:
        res.op_times.append((mark[0] - prev[0]) - (mark[1] - prev[1]))
        prev = mark
    parts = []
    for i, it in enumerate(res.op_times):
        episodes = range(i * per_ep, min((i + 1) * per_ep, len(hook.times)))
        for e in episodes:
            parts += hook.episode_parts(e, i)
        parts.append((it - sum(hook.times[e] for e in episodes), i, marks[i][2]))
    parts.append((res.wall_s - sum(res.op_times), None, hook.mark()))
    hook.set_parts(res, parts)

    def fail(ops, msg):
        res.failed_ops.update(ops)
        res.problems.append(msg)

    if len(curve) != n or len(hook.times) != n * per_ep:
        fail(range(n), f"{len(curve)} curve entries and {len(hook.times)} episodes for {n} iterations")
    bad = [i for i, v in enumerate(curve) if not math.isfinite(v)]
    if bad:
        fail(bad, f"non-finite learning-curve entries at {bad[:5]}")
    written = _read_csv_column(curve_path, 1)
    if written != [float(v) for v in curve]:
        fail(range(n), "learning_curve.csv does not hold the returned curve")
    if not _checkpoint_matches(ckpt, agents):
        fail(range(n), "checkpoint does not round-trip the trained networks")
    return res


def _run_compare(wl, scenario, train_cfg, seed, workdir, speed):
    hook = EpisodeHook(experiments, scenario.p_rows, speed)
    comparison = os.path.join(workdir, "comparison.csv")
    plotdata = os.path.join(workdir, "plotdata.csv")
    with hook:
        t0 = _clock()
        digest = experiments.run_digest(scenario)
        results = experiments.compare_schemes(
            scenario, list(wl.schemes), wl.episodes, seed, straggler=wl.straggler
        )
        experiments.write_comparison_csv(comparison, scenario, seed, results, digest)
        experiments.write_plotdata_csv(plotdata, results, digest, seed)
        t1 = _clock()

    n = len(wl.schemes) * wl.episodes
    res = UnitResult(
        ops=n,
        failed_ops={e for e, _ in hook.problems},
        problems=[f"episode {e}: {msg}" for e, msg in hook.problems],
        wall_s=t1 - t0 - hook.overhead_s,
        op_times=list(hook.times),
        tasks=len(hook.times) * scenario.k_tasks,
        totals=hook.totals,
        counters=hook.counters.as_dict(),
        digest=hook.digest(),
    )
    parts = [part for e in range(len(hook.times)) for part in hook.episode_parts(e, e)]
    parts.append((res.wall_s - sum(hook.times), None, hook.mark()))
    hook.set_parts(res, parts)
    if list(results) != list(wl.schemes) or len(hook.totals) != n:
        res.failed_ops.update(range(n))
        res.problems.append(f"{len(hook.totals)} episodes over {list(results)}, expected {n}")
        return res
    means = _read_csv_column(comparison, 4)
    for s, scheme in enumerate(wl.schemes):
        block = hook.totals[s * wl.episodes:(s + 1) * wl.episodes]
        if len(means) != len(wl.schemes) or not math.isclose(
            means[s], math.fsum(block) / len(block), rel_tol=1.0e-12
        ):
            res.failed_ops.update(range(s * wl.episodes, (s + 1) * wl.episodes))
            res.problems.append(f"comparison.csv mean of {scheme} does not match its episodes")
    return res


def _read_csv_column(path, col):
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()[2:]  # metadata comment, header
    return [float(line.split(",")[col]) for line in lines]


def _checkpoint_matches(path, agents):
    loaded = marl.load_checkpoint(path)
    nets = ("actor", "critic", "target_actor", "target_critic")
    return len(loaded) == len(agents) and all(
        all(
            np.array_equal(x, y)
            for x, y in zip(getattr(a, k).params(), getattr(b, k).params())
        )
        for a, b in zip(agents, loaded)
        for k in nets
    )


def reference_entries(wl, result, train_cfg):
    """The outputs of a unit that depend on the environment alone.

    For training these are the learning-curve entries through the warm-up
    iteration, and the episode totals behind them: the actors are frozen
    until then.  For compare, every episode total.
    """
    if wl.kind == "compare":
        return {"episode_totals": result.totals}
    upto = min(train_cfg.warmup_iterations + 1, len(result.curve))
    return {
        "curve": result.curve[:upto],
        "episode_totals": result.totals[: upto * train_cfg.episodes_per_iteration],
    }


def check_reference(wl, result, reference, train_cfg):
    per_op = train_cfg.episodes_per_iteration if wl.kind == "train" else 1
    entries = reference_entries(wl, result, train_cfg)
    for key, want in reference.items():
        for idx, msg in mismatches(key, entries.get(key, []), want):
            if idx is None:
                result.failed_ops.update(range(result.ops))
            else:
                result.failed_ops.add(idx if key == "curve" else idx // per_op)
            result.problems.append(msg)
