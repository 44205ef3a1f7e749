"""Discrete-event engine for the master/worker batch-processing protocol,
and the MDP step built on it.

One task: the master broadcasts the payload x (m elements) to every loaded
worker over dedicated links, each worker computes its assigned encoded rows
batch by batch (CPU never idles between batches), and streams each finished
batch back over its link.  A batch transmission begins when both the batch
is computed and the link is free of the previous result; the link distance
is evaluated at that instant, with all nodes drifting at constant velocity:
each loaded worker's position and velocity relative to the master are held
as r and rv, of shape (2, A, 1) with x and y stacked, and a transmission
beginning at t spans the squared distance |r + rv t|^2.
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
task's one "worker" substream, which re-keys the shared generator and
builds no RngStream or generator per worker.

A task whose workers each send one batch (every baseline in compare) is
the degenerate case of the batch layout: its one column is the loads, with
no plan_batches call, and a batch's link is free as soon as it is computed,
so the first evaluation of the link gives the arrivals and run_task skips
the fixed point.  On these few-element arrays the fixed cost per call
dominates, so run_task also builds the next world directly and
build_state keeps its gather index per N.

The world (WorldState) is held as arrays: node positions and velocities
with the master in row 0, the workers' compute profiles, and the clock.
All times inside a TaskRecord are measured from the task dispatch; the
world clock accumulates completion times across the K tasks of an episode,
since task j+1 is dispatched only once task j completed, and run_task
moves every node with one envmodels.advance call.

An episode is the MDP the allocators act in: before each task run_episode
builds the joint state (build_state) when the allocator reads it, asks the
allocator for loads, rounds and clamps them to integers, runs the task and
scores it (reward).
"""

import functools
import json
import math
import operator
from collections.abc import Sequence
from dataclasses import dataclass, replace

import numpy as np

from .coding import plan_batches
from .envmodels import StragglerPlan, advance, channel_capacity, comp_time, link_gain


MAX_PASSES = 32  # fixed-point passes of run_task before the sequential finish


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


def _fixed_point(cpu, tau, settled, bits, valid, gain, counts, r, rv, cfg):
    """Passes 2.. of the link fixed point; returns the final (begin, tau).

    Pass 1 evaluated tau at begin = cpu and scanned it into settled.  The
    arrays may be leading column slices of the full layout: every pass is
    exact on them.  Pass n is exact for the first n batches of every
    worker, so after MAX_PASSES a worker whose begins still move finishes
    with the plain sequential recurrence.
    """
    cols = cpu.shape[1]
    begin = cpu
    for done in range(2, MAX_PASSES + 2):
        moved = (settled != begin) & valid
        if not moved.any():
            return begin, tau
        begin = settled
        if done > MAX_PASSES:
            break
        tau = _send_time(bits, _dist2(r, rv, begin), gain, cfg)
        if done >= cols:  # pass n starts from begins that are final for n batches
            return begin, tau
        settled = _scan(cpu, tau)[1]
    # pass 1's arrays may be views that a wider retry reads again
    begin, tau = begin.copy(), tau.copy()
    # a worker's begins up to its first moved one are final
    for w in np.flatnonzero(moved.any(axis=1)):
        r_w, rv_w = r[:, w, 0], rv[:, w, 0]
        for j in range(int(moved[w].argmax()), min(counts[w], cols)):
            start = max(cpu[w, j], begin[w, j - 1] + tau[w, j - 1])
            begin[w, j] = start
            tau[w, j] = _send_time(bits[w, j], _dist2(r_w, rv_w, start), gain[w, j], cfg)
    return begin, tau


def run_task(world, loads, batch_size, p, m, straggler, rng, cfg, index=0):
    """Simulate one task; returns (TaskRecord, advanced WorldState).

    loads holds one non-negative integer per worker, each at most p, the
    rows needed to decode; m is the length of the broadcast payload.
    batch_size None means one batch per worker (no batching).

    The loaded workers' batches sit in a padded (workers x batches) layout,
    and compute finish times are a cumulative sum along it.  The link
    recurrence begin_k = max(cpu_k, arrival_{k-1}),
    arrival_k = begin_k + tau_k(begin_k) is solved as a fixed point: with
    the send times tau frozen, the arrivals are the max-plus scan
    S + cummax(cpu - (S - tau)), S = cumsum(tau); tau is then re-evaluated
    at the new begins until no begin moves (see _fixed_point).  Each
    transmission's link_gain is computed once, so a pass evaluates the
    link from the squared distances at the begins alone (_dist2); the
    broadcast, at t = 0, takes its squared distance as r * r summed.

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

    When every loaded worker sends its load as one batch (batch_size None,
    or at least the largest load), the layout is one column of the loads,
    built with no plan_batches call, and each batch begins once computed,
    so pass 1 is exact: the arrivals are cpu + tau, sorted as above, with
    no fixed point, padding or widening.

    Worker i's noise, the stream rng.substream("worker", i), is drawn
    through fresh_gen(i) of one "worker" substream per task.  The shadowing
    is drawn as standard normals and scaled by noise_std_db once: normal(0,
    s) gives 0.0 + s z, which differs from s z only in a zero's sign, and
    link_gain adds a nonzero constant to it.
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
    act = np.array(active)
    col = act[:, None]  # a fancy index of one row per loaded worker
    if batch_size is None or batch_size >= top:  # each worker's one batch is its whole load
        counts = [1] * len(active)
        width = 1
        sizes = np.array(loads)[col]
    else:
        plans = [plan_batches(loads[i], min(batch_size, loads[i])) for i in active]
        counts = [plan.count for plan in plans]
        width = max(counts)
        sizes = np.zeros((len(active), width), dtype=np.int64)
        for r, plan in enumerate(plans):
            sizes[r, : plan.count] = plan.batch_size
            sizes[r, plan.count - 1] = plan.last
    omega = np.zeros((len(active), width + 1))  # column 0 is the broadcast of x
    us = np.zeros((len(active), width))
    noisy = cfg.noise_std_db > 0
    workers = rng.substream("worker")
    for r, (i, nb) in enumerate(zip(active, counts)):
        gen = workers.fresh_gen(i)  # the stream rng.substream("worker", i)
        if noisy:
            gen.standard_normal(out=omega[r, : nb + 1])
        gen.random(out=us[r, :nb])
    if noisy:
        omega *= cfg.noise_std_db
    # position and velocity relative to the master (x and y stacked),
    # compute profile and slowdown
    r = (world.pos[act + 1] - world.pos[0]).T[:, :, None]
    rv = (world.vel[act + 1] - world.vel[0]).T[:, :, None]
    alpha, beta = world.alpha[col], world.beta[col]
    slow = straggler.time_factors(col)
    bits = sizes * cfg.bits_per_element
    gain = link_gain(omega, cfg)  # one per transmission, for every pass

    sq = r * r  # the broadcast begins at t = 0
    bc = _send_time(m * cfg.bits_per_element, sq[0] + sq[1], gain[:, :1], cfg)
    cpu = comp_time(sizes, us, alpha, beta, slow)
    if width > 1:
        cpu = cpu.cumsum(axis=1)
    cpu += bc

    # pass 1, over the full width
    gain = gain[:, 1:]  # the batches' transmissions
    tau = _send_time(bits, _dist2(r, rv, cpu), gain, cfg)
    if width == 1:  # one batch per worker: each begins once computed, so pass 1 is exact
        cols, arrival = 1, cpu + tau
        order, received, n_kept = _reach(arrival, sizes, p)
        n_kept = min(n_kept, len(active))  # an infeasible task keeps every batch
    else:
        counts = np.array(counts)
        valid = sizes > 0
        arrival, settled = _scan(cpu, tau)
        cols = width
        if feasible:
            cols = min(_guess_cols(arrival, valid, p, batch_size, len(active)), width)
        while True:
            cut = np.s_[:, :cols]
            begin, tau_cut = _fixed_point(cpu[cut], tau[cut], settled[cut], bits[cut],
                                          valid[cut], gain[cut], counts, r, rv, cfg)
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
    receipt_log = ReceiptLog(act[kept // cols], rows, arrival.ravel()[kept])
    t_done = float(receipt_log.arrivals[-1])

    record = TaskRecord(
        index=index,
        dispatch_time=world.clock,
        t_complete=t_done,
        receipt_log=receipt_log,
        rows_received_at_completion=int(received[n_kept - 1]),
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


def reward(t_complete, loads, p, c=200.0, boundary="lt"):
    """Shared reward -T_j - c when the allocation misses the decodability bar.

    boundary "lt" penalizes sum(l) < p (the constraint-consistent reading);
    "le" penalizes sum(l) <= p (the literal formula).
    """
    if boundary == "lt":
        short = sum(loads) < p
    elif boundary == "le":
        short = sum(loads) <= p
    else:
        raise ValueError(f"boundary must be 'lt' or 'le', got '{boundary}'")
    return -float(t_complete) - (float(c) if short else 0.0)


def run_episode(
    scenario,
    allocator,
    rng,
    straggler_enabled=None,
    batch_size="scenario",
    penalty=200.0,
    penalty_boundary="lt",
):
    """Run K sequential tasks under one sampled environment.

    allocator is a callable (world, states) -> iterable of N raw loads,
    where states is build_state(world).  An allocator whose attribute
    reads_states is False (the baselines of experiments.make_allocator) gets
    states=None instead, no state is built, and the record's states is ();
    any other allocator reads states.  Each load is rounded to the nearest
    integer; out-of-range loads are clamped to [0, p] and flagged, and a
    non-finite one raises NonFiniteLoadError.  batch_size is the scenario's
    unless overridden here (None = single batch per worker).  Same
    (scenario, allocator, rng) reproduces the record bit for bit.
    """
    if straggler_enabled is None:
        straggler_enabled = scenario.straggler_enabled
    if batch_size == "scenario":
        batch_size = scenario.batch_size

    p = scenario.p_rows
    world, victim = sample_world(scenario, rng.substream("env"))
    plan = StragglerPlan(
        enabled=straggler_enabled,
        victim=victim,
        slowdown_factor=scenario.straggler_slowdown,
    )

    tasks, states_all, rewards = [], [], []
    reads_states = getattr(allocator, "reads_states", True)
    states = None
    task_rng = rng.substream("task")  # task j draws from rng.substream("task", j)
    for j in range(scenario.k_tasks):
        if reads_states:
            states = build_state(world)
            states_all.append(states)
        raw = list(allocator(world, states))
        if not all(map(math.isfinite, raw)):
            raise NonFiniteLoadError(j, raw)
        loads = tuple([int(round(v)) for v in raw])  # int loads pass through as the same objects
        clamped = not all(0 <= l <= p for l in loads)
        if clamped:
            loads = tuple(min(max(l, 0), p) for l in loads)

        try:
            rec, world = run_task(
                world, loads, batch_size, p, scenario.m_cols, plan,
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

        r = reward(rec.t_complete, loads, p, c=penalty, boundary=penalty_boundary)
        tasks.append(rec)
        rewards.append(r)

    return EpisodeRecord(
        tasks=tuple(tasks),
        states=tuple(states_all),
        rewards=tuple(rewards),
        total_time=float(sum(t.t_complete for t in tasks)),
        betas=tuple(world.beta),
        victim=victim,
        straggler_enabled=straggler_enabled,
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
