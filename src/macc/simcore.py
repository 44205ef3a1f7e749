"""Discrete-event engine for the master/worker batch-processing protocol,
and the MDP step built on it.

One task: the master broadcasts the payload x (m elements) to every loaded
worker over dedicated links, each worker computes its assigned encoded rows
batch by batch (CPU never idles between batches), and streams each finished
batch back over its link.  A batch transmission begins when both the batch
is computed and the link is free of the previous result; the link distance
is evaluated at that instant, with all nodes drifting at constant velocity:
each loaded worker's position and velocity relative to the master are held
as r and rv, with x and y stacked on axis 0, and a transmission beginning
at t spans the squared distance |r + rv t|^2.
The master counts received rows and the task completes at the arrival that
first reaches p cumulative rows; results still in flight are ignored
(acknowledgment semantics).  The link, compute and straggler models are
envmodels' functions, called on whole arrays of batches.  The engine takes
plain numbers: integer loads, p and m.  It tracks when rows arrive, never
their values, so no encoding matrix or payload is drawn; the receipt log
names, per worker, how many rows of its coding block arrived and when.
A ReceiptLog holds it as three read-only arrays (worker, rows, arrival),
since a paper-scale task keeps thousands of receipts; read as a sequence
it yields plain (int, int, float) triples.

Each loaded worker i draws its noise from the task's substream
("worker", i): first the shadowing of its broadcast and of each batch's
transmission (when noise_std_db > 0), then one compute uniform per batch.
It makes all its draws at once, so it draws through fresh_gen(i) of the
task's one "worker" substream, which re-keys the shared generator from one
reused state dict and builds no RngStream, generator or dict per worker.

A task in which some worker sends more than one batch is laid out as a
padded (workers x batches) array, with r and rv of shape (2, A, 1), and
its link is solved as a fixed point (_batched).  A task whose workers each
send one batch (every baseline in compare) takes its own path on flat
arrays, with r and rv of shape (2, A) (_one_batch): its sizes are the
loads, and a batch's link is free as soon as it is computed, so the first
evaluation of the link gives the arrivals.  On these few-element arrays
the fixed cost per call dominates.  Both paths call the same draw, link,
compute and sort helpers, and read the world's own arrays, a cached
worker index and the episode's time factors, with no gather, when every
worker is loaded (_loaded).

The world (WorldState) is held as arrays: node positions and velocities
with the master in row 0, the workers' compute profiles, and the clock.
All times inside a TaskRecord are measured from the task dispatch; the
world clock accumulates completion times across the K tasks of an episode,
since task j+1 is dispatched only once task j completed, and run_task
moves every node with one envmodels.advance call.

An episode is the MDP the allocators act in: before each task run_episode
builds the joint state (build_state), asks the allocator for loads, rounds
and clamps them to integers, runs the task and scores it (reward).  A
baseline, marked per_episode, is asked once per episode, with no state.
The scenario is the episode's one source of settings: every task runs at
its batch_size, its straggler_enabled decides whether the victim is
slowed, through the time factors (envmodels.time_factors) built once per
episode, and reward reads the feasibility that run_task decided.
"""

import functools
import itertools
import json
import math
import operator
from collections.abc import Sequence
from dataclasses import dataclass, replace

import numpy as np

from .coding import plan_batches
from .envmodels import advance, channel_capacity, comp_time, link_gain, time_factors


class DegenerateTaskError(ValueError):
    """An all-zero allocation dispatches no work at all."""


class NonFiniteLoadError(ValueError):
    """An allocator returned a load that is not finite.

    Names the task, the raw loads as floats, and worker, the first worker
    whose load is not finite.
    """

    def __init__(self, task, loads):
        self.task = task
        self.loads = [float(v) for v in loads]
        self.worker = next(i for i, v in enumerate(self.loads) if not math.isfinite(v))
        super().__init__(f"task {task}: allocator returned non-finite loads {self.loads}")


@dataclass(frozen=True, eq=False)
class WorldState:
    """Node kinematics and worker compute profiles at a clock time, as arrays.

    pos and vel (m, m/s) have shape (N+1, 2): row 0 is the master, row i+1
    worker i.  alpha (s per row) and beta (straggling), shape (N,), are the
    workers' shifted-exponential parameters.  run_task returns a new world
    and never writes into these arrays.
    """

    pos: np.ndarray
    vel: np.ndarray
    alpha: np.ndarray
    beta: np.ndarray
    clock: float = 0.0

    @property
    def n_workers(self):
        return len(self.beta)


class ReceiptLog(Sequence):
    """Receipts of one task in completion order, held as three arrays.

    workers and rows are int64, arrivals float64 (seconds since dispatch),
    all read-only.  The log takes over the arrays it is given, without a
    copy, and marks them read-only in place: a view per array would cost
    more than the tuples it replaces on the few-receipt tasks of a
    baseline.  As a sequence it reads like a tuple of (worker, rows,
    arrival) triples of Python numbers: an index gives one triple, a slice
    another ReceiptLog, and it equals any sequence of the same triples.
    """

    __slots__ = ("workers", "rows", "arrivals")

    def __init__(self, workers=(), rows=(), arrivals=()):
        self.workers = np.asarray(workers, dtype=np.int64)
        self.rows = np.asarray(rows, dtype=np.int64)
        self.arrivals = np.asarray(arrivals, dtype=np.float64)
        for a in (self.workers, self.rows, self.arrivals):
            a.setflags(write=False)  # about half the cost of assigning flags.writeable

    def __len__(self):
        return len(self.arrivals)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return ReceiptLog(self.workers[i], self.rows[i], self.arrivals[i])
        i = operator.index(i)
        return int(self.workers[i]), int(self.rows[i]), float(self.arrivals[i])

    def __iter__(self):
        return zip(self.workers.tolist(), self.rows.tolist(), self.arrivals.tolist())

    def __eq__(self, other):
        if not isinstance(other, Sequence):
            return NotImplemented
        return len(self) == len(other) and all(a == tuple(b) for a, b in zip(self, other))

    def __hash__(self):  # equal to its tuple of triples, so hashed alike; keeps TaskRecord hashable
        return hash(tuple(self))

    def __repr__(self):
        return f"ReceiptLog({list(self)!r})"


@dataclass(frozen=True)
class TaskRecord:
    index: int
    dispatch_time: float
    t_complete: float              # T_j, seconds since dispatch
    receipt_log: ReceiptLog        # (worker, rows, arrival) in completion order
    rows_received_at_completion: int
    feasible: bool
    loads: tuple
    clamped: bool = False


@dataclass(frozen=True)
class EpisodeRecord:
    tasks: tuple
    states: tuple                  # per task: (N, 3N+2) raw joint state, see build_state;
                                   # () when the allocator does not read states
    rewards: tuple                 # per task scalar (identical across agents)
    total_time: float
    betas: tuple
    victim: int
    straggler_enabled: bool

    @property
    def infeasible_count(self):
        return sum(1 for t in self.tasks if not t.feasible)


def _dist2(r, rv, t):
    """Squared link distance at time t, elementwise: |r + rv t|^2.

    r and rv are positions and velocities relative to the master with x
    and y stacked on axis 0, so both coordinates take one call per step.
    """
    u = rv * t
    u += r
    u *= u
    return u[0] + u[1]


def _send_time(bits, d2, gain, cfg):
    """Time to send `bits` over a link of squared length d2; elementwise.

    gain is the transmission's link_gain.
    """
    return bits / channel_capacity(d2, gain, cfg)


def _scan(cpu, tau):
    """Arrivals and the begins they imply, with the send times tau frozen.

    The arrivals are the max-plus scan S_k + max_{j<=k} (cpu_j - S_{j-1}),
    S = cumsum(tau), computed in place.  Column k depends only on columns
    up to k, so the scan of a leading slice is that slice of the full scan.
    """
    arrival = tau.cumsum(axis=1)
    gap = arrival - tau
    np.subtract(cpu, gap, out=gap)
    arrival += np.fmax.accumulate(gap, axis=1, out=gap)
    # a batch begins once computed and once its predecessor has arrived
    settled = cpu.copy()
    np.maximum(cpu[:, 1:], arrival[:, :-1], out=settled[:, 1:])
    return arrival, settled


def _guess_cols(arrival, valid, p, b, n_active):
    """Columns to solve first, from pass 1's arrivals of a feasible task.

    The most valid slots any worker delivers by the k-th valid arrival,
    times 1.02, plus 4, where k = ceil((p - A) / b) + A for A = n_active
    workers at batch size b, capped at the valid slots.  Only a worker's
    last batch can be short, so any k slots hold at least p rows: the
    k-th arrival is never before the one at which the received rows
    first reach p, and is that one at b = 1.
    """
    arrival = np.where(valid, arrival, np.inf)
    k = min(-(-(p - n_active) // b) + n_active, np.count_nonzero(valid))
    t_first = np.partition(arrival, k - 1, axis=None)[k - 1]
    return int((arrival <= t_first).sum(axis=1).max() * 1.02) + 4


def _reach(arrival, sizes, p):
    """Slots in arrival order, their cumulative rows, and how many it takes to reach p.

    A stable sort of the worker-major layout breaks arrival ties by
    (worker, batch).  The count runs up to the first arrival that brings
    the received rows to p, and is one past the last slot when none does.
    """
    order = arrival.argsort(axis=None, kind="stable")
    received = sizes.ravel()[order].cumsum()
    return order, received, int(received.searchsorted(p)) + 1


def _fixed_point(cpu, tau, settled, bits, valid, gain, r, rv, cfg):
    """Passes 2.. of the link fixed point; returns the final (begin, tau).

    Pass 1 evaluated tau at begin = cpu and scanned it into settled.  The
    arrays may be leading column slices of the full layout: every pass is
    exact on them.  The passes run until no valid begin moves; pass n is
    exact for the first n batches of every worker, so there is at most one
    pass per column.
    """
    cols = cpu.shape[1]
    begin = cpu
    for done in itertools.count(2):
        if not ((settled != begin) & valid).any():
            return begin, tau
        begin = settled
        tau = _send_time(bits, _dist2(r, rv, begin), gain, cfg)
        if done >= cols:  # pass n starts from begins that are final for n batches
            return begin, tau
        settled = _scan(cpu, tau)[1]


@functools.lru_cache(maxsize=16)
def _all_workers(n):
    """The read-only index 0..n-1 of the workers."""
    index = np.arange(n)
    index.setflags(write=False)
    return index


def _loaded(world, active, factors):
    """The loaded workers' index, geometry, compute profile and time factors, flat per worker.

    Returns (act, r, rv, alpha, beta, factors): r and rv, shape (2, A),
    are the positions and velocities relative to the master with x and y
    stacked, and factors the loaded workers' entries of the (N,) time
    factors.  When every worker is loaded they are the world's own arrays,
    the cached index and the given factors, with no gather; otherwise each
    is gathered once.  All are read, never written.
    """
    n = world.n_workers
    if len(active) == n:
        return (_all_workers(n), (world.pos[1:] - world.pos[0]).T,
                (world.vel[1:] - world.vel[0]).T, world.alpha, world.beta, factors)
    act = np.array(active)
    return (act, (world.pos[act + 1] - world.pos[0]).T, (world.vel[act + 1] - world.vel[0]).T,
            world.alpha[act], world.beta[act], factors[act])


def _draw_noise(workers, active, omega, us, cfg, counts=None):
    """Draw each loaded worker's noise into its rows of omega and us, in place.

    Worker i draws from fresh_gen(i) of the task's "worker" substream:
    first the standard normals of its row of omega (when noise_std_db > 0),
    then the compute uniforms of its row of us.  counts, when given, cuts
    row r to counts[r] batches: counts[r] + 1 shadowings and counts[r]
    uniforms.  omega is then scaled by noise_std_db once.
    """
    if counts is not None:
        omega_rows = [row[: nb + 1] for row, nb in zip(omega, counts)]
        us_rows = [row[:nb] for row, nb in zip(us, counts)]
    else:
        omega_rows, us_rows = omega, us
    noisy = cfg.noise_std_db > 0
    for i, shadow, u in zip(active, omega_rows, us_rows):
        gen = workers.fresh_gen(i)  # the stream rng.substream("worker", i)
        if noisy:
            gen.standard_normal(out=shadow)
        gen.random(out=u)
    if noisy:
        omega *= cfg.noise_std_db


def _broadcast_time(m, r, gain, cfg):
    """Time to send the m-element payload x at t = 0, where the squared distance is r * r summed."""
    sq = r * r
    return _send_time(m * cfg.bits_per_element, sq[0] + sq[1], gain, cfg)


def _one_batch(world, loads, active, p, m, factors, workers, cfg):
    """Receipts of a task whose loaded workers each send their load as one batch.

    Returns (ReceiptLog, rows received at completion).  The arrays are
    flat, one entry per loaded worker (see _loaded), and the sizes are the
    loads.  Each batch begins once computed, so one evaluation of the link
    gives the arrivals, and the log is read off their sorted order.
    """
    omega = np.zeros((len(active), 2))  # per worker: the broadcast of x, then the batch
    us = np.empty((len(active), 1))
    _draw_noise(workers, active, omega, us, cfg)
    gain = link_gain(omega, cfg)
    act, r, rv, alpha, beta, factors = _loaded(world, active, factors)
    sizes = np.array(loads)
    if len(act) < len(loads):
        sizes = sizes[act]
    arrival = comp_time(sizes, us[:, 0], alpha, beta, factors)
    arrival += _broadcast_time(m, r, gain[:, 0], cfg)
    arrival += _send_time(sizes * cfg.bits_per_element, _dist2(r, rv, arrival), gain[:, 1], cfg)
    order, received, n_kept = _reach(arrival, sizes, p)
    kept = order[: min(n_kept, len(act))]  # an infeasible task keeps every batch
    return ReceiptLog(act[kept], sizes[kept], arrival[kept]), int(received[len(kept) - 1])


def _batched(world, loads, active, batch_size, p, m, feasible, factors, workers, cfg, index):
    """Receipts of a task in which some worker sends more than one batch.

    Returns (ReceiptLog, rows received at completion); see run_task.  The
    batches sit in a padded (A, W) layout, and r, rv are (2, A, 1).  A
    layout that cannot be allocated is a ValueError naming task index,
    its shape and the settings it grows with, p and the batch size.
    """
    plans = [plan_batches(loads[i], min(batch_size, loads[i])) for i in active]
    counts = [plan.count for plan in plans]
    width = max(counts)
    try:
        sizes = np.zeros((len(active), width), dtype=np.int64)
        omega = np.zeros((len(active), width + 1))  # column 0 is the broadcast of x
        us = np.zeros((len(active), width))
    except (MemoryError, ValueError):  # numpy raises ValueError for sizes past its index range
        raise ValueError(
            f"task {index}: a batch layout of shape {(len(active), width)} cannot be "
            f"allocated; its width is the largest load over the batch size, from "
            f"scenario.p_rows = {p} and scenario.batch_size = {batch_size}"
        ) from None
    for r, plan in enumerate(plans):
        sizes[r, : plan.count] = plan.batch_size
        sizes[r, plan.count - 1] = plan.last
    _draw_noise(workers, active, omega, us, cfg, counts)
    act, r, rv, alpha, beta, factors = _loaded(world, active, factors)
    r, rv = r[:, :, None], rv[:, :, None]
    bits = sizes * cfg.bits_per_element
    gain = link_gain(omega, cfg)  # one per transmission, for every pass

    cpu = comp_time(sizes, us, alpha[:, None], beta[:, None], factors[:, None]).cumsum(axis=1)
    cpu += _broadcast_time(m, r, gain[:, :1], cfg)

    # pass 1, over the full width
    gain = gain[:, 1:]  # the batches' transmissions
    tau = _send_time(bits, _dist2(r, rv, cpu), gain, cfg)
    counts = np.array(counts)
    valid = sizes > 0
    arrival, settled = _scan(cpu, tau)
    cols = width
    if feasible:
        cols = min(_guess_cols(arrival, valid, p, batch_size, len(active)), width)
    while True:
        cut = np.s_[:, :cols]
        begin, tau_cut = _fixed_point(cpu[cut], tau[cut], settled[cut], bits[cut],
                                      valid[cut], gain[cut], r, rv, cfg)
        arrival = np.where(valid[cut], begin + tau_cut, np.inf)  # padding never arrives
        order, received, n_kept = _reach(arrival, sizes[cut], p)
        if cols == width:
            n_kept = min(n_kept, int(counts.sum()))  # an infeasible task keeps every batch
            break
        if n_kept <= order.size and (
            arrival[counts > cols, -1] >= arrival.flat[order[n_kept - 1]]
        ).all():
            break
        cols = min(2 * cols, width)
    kept = order[:n_kept]
    rows = sizes[:, :cols].ravel()[kept]
    return ReceiptLog(act[kept // cols], rows, arrival.ravel()[kept]), int(received[n_kept - 1])


def run_task(world, loads, batch_size, p, m, factors, rng, cfg, index=0):
    """Simulate one task; returns (TaskRecord, advanced WorldState).

    loads holds one non-negative integer per worker, each at most p, the
    rows needed to decode; m is the length of the broadcast payload.
    batch_size is an int: a worker sends its load in batches of that many
    rows, so any batch size >= the largest load, p among them, sends one
    batch per worker.  factors is the (N,) float64 vector of the workers'
    computation-time multiples (envmodels.time_factors).  A link whose
    capacity underflows to zero makes the completion infinite, which raises
    ValueError rather than moving the world to an infinite clock.

    When some worker sends more than one batch (_batched), the loaded
    workers' batches sit in a padded (workers x batches) layout, and
    compute finish times are a cumulative sum along it.  The link
    recurrence begin_k = max(cpu_k, arrival_{k-1}),
    arrival_k = begin_k + tau_k(begin_k) is solved as a fixed point: with
    the send times tau frozen, the arrivals are the max-plus scan
    S + cummax(cpu - (S - tau)), S = cumsum(tau); tau is then re-evaluated
    at the new begins until no begin moves, at most one pass per column
    (see _fixed_point).  Each transmission's link_gain is computed once, so
    a pass evaluates the link from the squared distances at the begins
    alone (_dist2); the broadcast, at t = 0, takes its squared distance as
    r * r summed.

    Only arrivals up to completion enter the record, so a feasible task is
    solved on the leading columns alone.  Pass 1 evaluates the link at the
    compute finish times over the full width; the columns kept are the
    most slots a worker delivers by a bound on pass 1's completion, taken
    by selection (see _guess_cols), plus a margin.
    Column k depends only on columns up to k, so the truncated solve is
    exact, bit for bit, on its columns.  Its completion T' stands when
    every worker with unsolved batches has its last solved arrival at or
    after T': each worker's arrivals strictly increase, so none of its
    unsolved batches arrives by T'.  Otherwise the width doubles and the
    solve repeats.  An infeasible task keeps every batch and is solved in
    full.

    When every loaded worker sends its load as one batch (batch_size at
    least the largest load), the task takes its own path
    (_one_batch) on flat arrays, one entry per loaded worker: the sizes
    are the loads, each batch begins once computed, so the arrivals are
    cpu + tau, sorted as above, with no plan_batches call, fixed point,
    padding or widening.  It calls the same link, compute and sort
    helpers, so each model expression has one copy.

    Worker i's noise, the stream rng.substream("worker", i), is drawn
    through fresh_gen(i) of one "worker" substream per task, into that
    worker's rows of the draw arrays.  The shadowing is drawn as standard
    normals and scaled by noise_std_db once: normal(0, s) gives 0.0 + s z,
    which differs from s z only in a zero's sign, and link_gain adds a
    nonzero constant to it.
    """
    loads = tuple(loads)
    if len(loads) != world.n_workers:
        raise ValueError(f"allocation covers {len(loads)} workers, world has {world.n_workers}")
    exact = all(type(l) is int for l in loads)  # no float round trip for plain ints
    if min(loads) < 0 or not (exact or all(float(l).is_integer() for l in loads)):
        raise ValueError(f"loads must be non-negative integers, got {loads}")
    if not exact:
        loads = tuple(map(int, loads))
    top = max(loads)
    if top > p:
        raise ValueError(f"loads may not exceed p={p}, got {loads}")
    if top == 0:
        raise DegenerateTaskError("all-zero allocation: no worker receives any rows")
    feasible = sum(loads) >= p

    active = [i for i, l in enumerate(loads) if l > 0]
    workers = rng.substream("worker")
    if batch_size >= top:  # each worker's one batch is its whole load
        receipt_log, rows = _one_batch(world, loads, active, p, m, factors, workers, cfg)
    else:
        receipt_log, rows = _batched(world, loads, active, batch_size, p, m, feasible,
                                     factors, workers, cfg, index)
    t_done = float(receipt_log.arrivals[-1])
    if not math.isfinite(t_done):
        raise ValueError(f"task {index}: a link's capacity fell to zero, "
                         "so the task never completes")

    record = TaskRecord(
        index=index,
        dispatch_time=world.clock,
        t_complete=t_done,
        receipt_log=receipt_log,
        rows_received_at_completion=rows,
        feasible=feasible,
        loads=loads,
    )
    # built directly: dataclasses.replace costs twice as much
    pos = advance(world.pos, world.vel, t_done)
    return record, WorldState(pos, world.vel, world.alpha, world.beta, world.clock + t_done)


def rows_received_curve(rec):
    """Cumulative received rows R_j(t) as step samples (times, rows)."""
    return rec.receipt_log.arrivals, np.cumsum(rec.receipt_log.rows)


def sample_world(scenario, rng):
    """Draw the initial world for an episode from the scenario ranges.

    Returns (WorldState, victim), with alpha = 1 / beta for every worker.
    The straggler victim index is always drawn, so the environment is
    identical with and without straggler injection (paired comparisons).
    """
    n = scenario.n_workers
    gen = rng.gen
    beta = gen.uniform(scenario.beta_range[0], scenario.beta_range[1], n)
    pos = gen.uniform(scenario.pos_range[0], scenario.pos_range[1], (n + 1, 2))
    vel = gen.uniform(scenario.vel_range[0], scenario.vel_range[1], (n + 1, 2))
    victim = int(gen.integers(n))
    return WorldState(pos=pos, vel=vel, alpha=1.0 / beta, beta=beta), victim


@functools.lru_cache(maxsize=16)
def _state_order(n):
    """build_state's (N, N) gather index: row i is i, then the other workers in order."""
    order = np.array([[i, *range(i), *range(i + 1, n)] for i in range(n)])
    order.setflags(write=False)
    return order


def build_state(world):
    """Raw joint state of the N agents, one row each: shape (N, 3N+2).

    Row i is agent i's [d_i, d_-i, v_i, v_-i, v_m]: its own distance to the
    master, the other workers' distances, its own velocity, the others'
    velocities (the others in worker order) and the master's velocity.
    Distances use math.hypot: np.hypot differs from it in the last bit on
    some inputs, which would change the recorded states.
    """
    n = world.n_workers
    order = _state_order(n)
    dists = np.array([math.hypot(dx, dy) for dx, dy in (world.pos[1:] - world.pos[0]).tolist()])
    states = np.empty((n, 3 * n + 2))
    states[:, :n] = dists[order]
    states[:, n:-2] = world.vel[1:][order].reshape(n, 2 * n)
    states[:, -2:] = world.vel[0]
    return states


def reward(rec, c=200.0):
    """Shared reward -T_j, less c when the task's rows fall short of p.

    run_task alone decides decodability: rec.feasible is sum(l) >= p, and
    the all-zero record of run_episode is infeasible.
    """
    return -rec.t_complete - (0.0 if rec.feasible else c)


def run_episode(scenario, allocator, rng, penalty=200.0):
    """Run K sequential tasks under one sampled environment.

    allocator is a callable (world, states) -> iterable of N raw loads,
    where states is build_state(world).  Its loads are rounded to the
    nearest integers; out-of-range loads are clamped to [0, p] and flagged,
    and a non-finite one raises NonFiniteLoadError.  An allocator whose
    attribute per_episode is True (the baselines of
    experiments.make_allocator) promises loads that depend only on the
    workers' compute profiles, which are fixed for the episode: it is
    called once, at task 0, with states=None, its loads serve all K tasks,
    no state is built, and the record's states is ().  Any other allocator
    is called, gets states and has its loads read anew on every task.
    Every task runs at scenario.batch_size, the victim is slowed when
    scenario.straggler_enabled is set, and each task is scored by
    reward(rec, penalty).  Same (scenario, allocator, rng) reproduces the
    record bit for bit.
    """
    p = scenario.p_rows
    world, victim = sample_world(scenario, rng.substream("env"))
    factors = time_factors(scenario.n_workers, victim, scenario.straggler_enabled,
                           scenario.straggler_slowdown)

    tasks, states_all, rewards = [], [], []
    per_episode = getattr(allocator, "per_episode", False)
    states = None
    task_rng = rng.substream("task")  # task j draws from rng.substream("task", j)
    for j in range(scenario.k_tasks):
        if not per_episode:
            states = build_state(world)
            states_all.append(states)
        if j == 0 or not per_episode:
            raw = list(allocator(world, states))
            if not all(map(math.isfinite, raw)):
                raise NonFiniteLoadError(j, raw)
            loads = tuple([int(round(v)) for v in raw])  # int loads pass through as the same objects
            clamped = not all(0 <= l <= p for l in loads)
            if clamped:
                loads = tuple(min(max(l, 0), p) for l in loads)

        try:
            rec, world = run_task(
                world, loads, scenario.batch_size, p, scenario.m_cols, factors,
                task_rng.substream(j), scenario.comm, index=j,
            )
            if clamped:
                rec = replace(rec, clamped=True)
        except DegenerateTaskError:
            # nothing dispatched: the task takes no time and completes nothing
            rec = TaskRecord(
                index=j, dispatch_time=world.clock, t_complete=0.0,
                receipt_log=ReceiptLog(), rows_received_at_completion=0,
                feasible=False, loads=loads, clamped=clamped,
            )

        tasks.append(rec)
        rewards.append(reward(rec, penalty))

    return EpisodeRecord(
        tasks=tuple(tasks),
        states=tuple(states_all),
        rewards=tuple(rewards),
        total_time=float(sum(t.t_complete for t in tasks)),
        betas=tuple(world.beta),
        victim=victim,
        straggler_enabled=scenario.straggler_enabled,
    )


def episode_to_json(rec):
    """One JSON line per episode for downstream analysis."""
    payload = {
        "total_time_s": rec.total_time,
        "betas": list(rec.betas),
        "victim": rec.victim,
        "straggler": rec.straggler_enabled,
        "rewards": list(rec.rewards),
        "tasks": [
            {
                "index": t.index,
                "t_complete_s": t.t_complete,
                "loads": list(t.loads),
                "rows_at_completion": t.rows_received_at_completion,
                "feasible": t.feasible,
                "clamped": t.clamped,
            }
            for t in rec.tasks
        ],
    }
    return json.dumps(payload, separators=(",", ":"))
