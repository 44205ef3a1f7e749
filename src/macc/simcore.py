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
since a paper-scale task keeps thousands of receipts; an index or an
iteration yields plain (int, int, float) triples.

Each loaded worker i draws its noise from the task's substream
("worker", i): first the shadowing of its broadcast and of each batch's
transmission (when noise_std_db > 0), then one compute uniform per batch.
It makes all its draws before the next worker draws, so the workers'
stream ids are folded as one array (RngStream.substream_ids), for every
task of an episode at once, before task 0: the (K, N) grid of the ids of
("task", j, "worker", i) (worker_ids).  One loop re-keys the shared
generator to each id in turn (RngStream.fresh_gens_at), with no
RngStream, generator or dict built per worker.  A worker that sends one
batch makes the same draws whatever its load, so a one-batch task draws
for every worker, idle ones too (one_batch_noise), and an episode of
one-batch tasks draws them all before task 0 and derives from them, as
three (K, N) arrays, all that a task reads of them: the link gains of
each broadcast and each batch, and each worker's compute time per row
(one_batch_terms); each task is handed its row of these as its noise.
A multi-batch task draws for its loaded workers alone (_batched_noise),
as their draw counts depend on the loads, each keyed by its entry of
the task's row of the episode's grid, handed to it as its ids.

The shadowing is drawn as standard normals and scaled by noise_std_db
once, for the batches where pass 1 reads it: normal(0, s) gives
0.0 + s z, which differs from s z only in a zero's sign, and link_gain
adds a nonzero constant to it.  Each transmission's link_gain is
computed once, so a later evaluation of its link needs only the squared
distance (_dist2); the broadcast, at t = 0, takes it as r * r summed.

A task in which some worker sends more than one batch (_batched) is laid
out by one plan_batches call, flat and worker-major, with no padding: one
slot per batch, the k-th loaded worker's batches in the segment
[start_k, end_k) of one-dimensional arrays, and r and rv repeated per
slot to shape (2, slots).  Compute finish times are a cumulative sum
along each segment.  The link recurrence
begin_k = max(cpu_k, arrival_{k-1}), arrival_k = begin_k + tau_k(begin_k)
is solved as a fixed point: with the send times tau frozen, the arrivals
are the max-plus scan S + cummax(cpu - (S - tau)), S = cumsum(tau), per
segment (_scan), whose running sum runs once per segment and every other
step once over the flat arrays; tau is then evaluated again at the new
begins until no begin moves, at most one pass per slot of the longest
segment (_fixed_point).  The running maximum runs once per segment too,
unless every worker's link stays busy after its first batch, as at paper
scale, where a row takes longer to send than to compute: then no later
value of cpu - (S - tau) in a segment exceeds its first, the cummax is
that first value at every slot, bit for bit, and it is added without one.
Only arrivals up to completion enter the record, and slot k of a segment
depends only on the slots before it, so a feasible task is computed and
solved, exactly, on each worker's leading batches alone: as many as an
estimate puts among the earliest arrivals that hold p rows (_reaching,
_first_extent), with a margin.  One loop solves them (_solve).  The
solve's completion T' stands when every worker with unsolved batches
has its last solved arrival at or after T', since each worker's arrivals
strictly increase; otherwise the workers whose last solved arrival falls
before T' are extended at the pace of their own solved arrivals
(_further) and solved again, alone, from their first batch.  No worker's
segment reads another's, so a worker solved alone gets the bits it gets
beside the others.  This covers about a third of the batches late in a
scenario1 training, where every worker holds nearly p rows.  An
infeasible task keeps, so solves, every batch.

A task whose workers each send one batch (every baseline in compare)
takes its own path on arrays of one entry per worker, with r and rv of
shape (2, A) (_one_batch): its sizes are the loads, and a batch's link is
free as soon as it is computed, so the first evaluation of the link
gives the arrivals.  On these few-element arrays the fixed cost per call
dominates, so what stays fixed for an episode is not derived per task:
the workers' velocities relative to the master and the compute model's
coefficients are derived once per episode (EpisodeTerms), a baseline's
loads are checked and laid out once (Loads), and an episode whose batch
size is at least p draws its noise and derives its gains and per-row
compute times once (see above), so a task's compute times are one
product of its loads.  Both paths compute from the terms' coefficients
(envmodels.comp_time_with, whose per-row factor a one-batch episode
takes once), call the same link and sort helpers, and read the terms'
own arrays, a task's row and a cached worker index, with no gather, when
every worker is loaded, or gather them once when a worker is idle
(_loaded).

The world (WorldState) is held as arrays: node positions and velocities
with the master in row 0, the workers' compute profiles, and the clock.
It is a NamedTuple, and a TaskRecord, a frozen dataclass with slots,
is built through its slots' setters (TaskRecord._of): the frozen
__init__ sets each field through object.__setattr__, at twice the cost.
All times inside a TaskRecord are measured from the task dispatch; the
world clock accumulates completion times across the K tasks of an episode,
since task j+1 is dispatched only once task j completed, and run_task
moves every node with one envmodels.advance call.

An episode is the MDP the allocators act in: before each task run_episode
builds the agents' joint observation (build_state, which alone fixes its
layout and scale), asks the allocator for loads, rounds them to integers,
runs the task and scores it (reward).  run_task builds every TaskRecord,
the all-zero task's among them, and check_loads is the one check of the
rounded loads: run_task calls it on a policy's loads in every task.  A
baseline, marked per_episode, is asked once per episode, with no state,
and run_episode checks its loads once, for every task.  The scenario is
the episode's one source of settings: every task runs at its batch_size,
its straggler_enabled decides whether the victim is slowed, through the
time factors (envmodels.time_factors) built once per episode with the
terms derived from them, its ranges give the observation's scales
(state_scales), taken once per episode, and reward reads the feasibility
that run_task decided.
"""

import functools
import itertools
import math
import operator
from dataclasses import dataclass, fields
from typing import NamedTuple

import numpy as np

from .coding import plan_batches
from .envmodels import (advance, channel_capacity, comp_coefficients, comp_time_with, link_gain,
                        time_factors)

_new = object.__new__
_INT = {int}


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


class WorldState(NamedTuple):
    """Node kinematics and worker compute profiles at a clock time, as arrays.

    pos and vel (m, m/s) have shape (N+1, 2): row 0 is the master, row i+1
    worker i.  alpha (s per row) and beta (straggling), shape (N,), are the
    workers' shifted-exponential parameters.  run_task returns a new world
    and never writes into these arrays.  A world is a tuple of arrays, so
    two worlds are compared by their arrays, not with ==.
    """

    pos: np.ndarray
    vel: np.ndarray
    alpha: np.ndarray
    beta: np.ndarray
    clock: float = 0.0

    @property
    def n_workers(self):
        return len(self.beta)


class EpisodeTerms(NamedTuple):
    """What an episode's worlds share, for every task's run_task: see episode_terms.

    rv is the (2, N) worker velocities relative to the master with x and
    y stacked, and floor and tail the (N,) compute coefficients
    (envmodels.comp_coefficients of alpha, beta and the episode's time
    factors).
    """

    rv: np.ndarray
    floor: np.ndarray
    tail: np.ndarray


def episode_terms(world, factors):
    """The EpisodeTerms of world and of every world run_task moves it to, under factors.

    A task moves the nodes and keeps their velocities and the compute
    profiles, so these hold for the episode.  The arrays are read-only.
    """
    rv = (world.vel[1:] - world.vel[0]).T
    floor, tail = comp_coefficients(world.alpha, world.beta, factors)
    for a in (rv, floor, tail):
        a.setflags(write=False)
    return EpisodeTerms(rv, floor, tail)


class Loads(NamedTuple):
    """One task's integer loads, checked and laid out by check_loads.

    loads is the tuple of N plain ints, active the loaded workers in order
    (range(N) when every worker is loaded), top the largest load and
    feasible whether the loads sum to p or more.  sizes and float_sizes
    are the loaded workers' loads, int64 for the receipt log and float64
    for arithmetic, both read-only.
    """

    loads: tuple
    active: object
    top: int
    feasible: bool
    sizes: np.ndarray
    float_sizes: np.ndarray


def check_loads(loads, n, p, index=0):
    """The Loads of N = n raw loads at p rows to decode; a ValueError naming task index if bad.

    Each load must be a non-negative integer, as an int or an integral
    float, and at most p.  A tuple of plain ints, what run_episode passes,
    is checked as it is, with no copy or float round trip.
    """
    loads = tuple(loads)
    if len(loads) != n:
        raise ValueError(f"task {index}: allocation covers {len(loads)} workers, world has {n}")
    exact = {*map(type, loads)} == _INT  # no float round trip for plain ints
    low = min(loads)
    if low < 0 or not (exact or all(float(l).is_integer() for l in loads)):
        raise ValueError(f"task {index}: loads must be non-negative integers, got {loads}")
    if not exact:
        loads = tuple(map(int, loads))
    top = max(loads)
    if top > p:
        raise ValueError(f"task {index}: loads may not exceed p={p}, got {loads}")
    sizes = np.array(loads)
    if low > 0:
        active = range(n)
    else:
        active = [i for i, l in enumerate(loads) if l > 0]
        sizes = sizes[active]
    float_sizes = sizes.astype(np.float64)
    sizes.setflags(write=False)
    float_sizes.setflags(write=False)
    return Loads(loads, active, top, sum(loads) >= p, sizes, float_sizes)


class ReceiptLog:
    """Receipts of one task in completion order, held as three arrays.

    workers and rows are int64, arrivals float64 (seconds since dispatch),
    all read-only.  The log takes over the arrays it is given, without a
    copy, and marks them read-only in place: a view per array would cost
    more than the tuples it replaces on the few-receipt tasks of a
    baseline.  The engine builds it with _of from arrays that already
    have those dtypes, so they are not coerced again.  Its length is the
    number of receipts; an index gives one (worker, rows, arrival) triple
    of Python numbers, a slice another ReceiptLog, and iteration the
    triples in order.  Two logs are equal when their arrays are.
    """

    __slots__ = ("workers", "rows", "arrivals")

    def __init__(self, workers=(), rows=(), arrivals=()):
        self._hold(np.asarray(workers, dtype=np.int64), np.asarray(rows, dtype=np.int64),
                   np.asarray(arrivals, dtype=np.float64))

    @classmethod
    def _of(cls, workers, rows, arrivals):
        """The log of arrays that are already int64, int64 and float64, taken as they are."""
        log = _new(cls)
        log._hold(workers, rows, arrivals)
        return log

    def _hold(self, workers, rows, arrivals):
        self.workers, self.rows, self.arrivals = workers, rows, arrivals
        workers.setflags(write=False)  # about half the cost of assigning flags.writeable
        rows.setflags(write=False)
        arrivals.setflags(write=False)

    def __len__(self):
        return len(self.arrivals)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return ReceiptLog._of(self.workers[i], self.rows[i], self.arrivals[i])
        i = operator.index(i)
        return int(self.workers[i]), int(self.rows[i]), float(self.arrivals[i])

    def __iter__(self):
        return zip(self.workers.tolist(), self.rows.tolist(), self.arrivals.tolist())

    def __eq__(self, other):
        if not isinstance(other, ReceiptLog):
            return NotImplemented
        return all(np.array_equal(getattr(self, a), getattr(other, a)) for a in self.__slots__)


@dataclass(frozen=True, slots=True)
class TaskRecord:
    index: int
    dispatch_time: float
    t_complete: float              # T_j, seconds since dispatch
    receipt_log: ReceiptLog        # (worker, rows, arrival) in completion order
    rows_received_at_completion: int
    feasible: bool
    loads: tuple

    @classmethod
    def _of(cls, index, dispatch_time, t_complete, receipt_log, rows, feasible, loads):
        """The record of these fields, each set through its slot's own setter.

        The frozen __init__ sets each field through object.__setattr__,
        which looks the slot up anew and takes twice as long.
        """
        rec = _new(cls)
        s_index, s_dispatch, s_complete, s_log, s_rows, s_feasible, s_loads = _RECORD_SLOTS
        s_index(rec, index)
        s_dispatch(rec, dispatch_time)
        s_complete(rec, t_complete)
        s_log(rec, receipt_log)
        s_rows(rec, rows)
        s_feasible(rec, feasible)
        s_loads(rec, loads)
        return rec


# each field's slot setter, in field order, for TaskRecord._of
_RECORD_SLOTS = tuple(TaskRecord.__dict__[f.name].__set__ for f in fields(TaskRecord))


@dataclass(frozen=True)
class EpisodeRecord:
    tasks: tuple
    states: tuple                  # per task: the (N, 3N+2) scaled observation, see build_state;
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


def _segments(widths):
    """The flat worker-major layout of the given per-worker slot counts.

    Returns (starts, segments): each worker's first slot, as an int64
    array, and its slots as one slice per worker, in worker order.
    """
    ends = list(itertools.accumulate(widths))
    starts = [e - w for e, w in zip(ends, widths)]
    return np.array(starts, dtype=np.int64), [slice(s, e) for s, e in zip(starts, ends)]


def _scan(cpu, tau, starts, segments, test=True):
    """Arrivals and the begins they imply, with the send times tau frozen.

    Returns (arrival, settled, busy).  Within each worker's segment (see
    _segments) the arrivals are the max-plus scan
    S_k + max_{j<=k} (cpu_j - S_{j-1}), S = cumsum(tau): its running
    accumulates run once per segment, in place, and every elementwise step
    once over the flat arrays.  Slot k of a segment depends only on the
    slots before it, so the scan of each segment's leading slots is those
    slots of the full scan.

    busy, tested only when test is set, is whether every worker's link
    stays busy after its first batch: no later gap of any segment exceeds
    its first, found by one np.maximum.reduceat.  Then fmax's running
    maximum would be that first gap at every slot, bit for bit, so the gap
    is added per segment instead; a NaN gap fails the test.
    """
    arrival = np.empty_like(tau)
    for seg in segments:
        np.add.accumulate(tau[seg], out=arrival[seg])
    gap = arrival - tau
    np.subtract(cpu, gap, out=gap)
    busy = False
    if test:  # as lists: a NaN, a new float object each time, is unequal to every value
        first = gap[starts].tolist()
        busy = np.maximum.reduceat(gap, starts).tolist() == first
    if busy:
        for seg, g in zip(segments, first):
            arrival[seg] += g
    else:
        for seg in segments:
            np.fmax.accumulate(gap[seg], out=gap[seg])
        arrival += gap
    # a batch begins once computed and once its predecessor has arrived
    settled = np.empty_like(cpu)
    np.maximum(cpu[1:], arrival[:-1], out=settled[1:])
    settled[starts] = cpu[starts]
    return arrival, settled, busy


def _reaching(p, b, n_active, total):
    """k = ceil((p - A) / b) + A for A workers at batch size b, capped at the total slots.

    Only a worker's last batch can be short, so any k slots hold at least
    p rows: a first extent that holds the k earliest arrivals
    (_first_extent) gives a solve that reaches p.
    """
    return min(-(-(p - n_active) // b) + n_active, total)


def _first_extent(pace, send, counts, b, k):
    """Each worker's estimated batches up to the k-th arrival, with a margin.

    Plain floats over one entry per loaded worker, whose compute
    coefficients floor and tail (envmodels.comp_coefficients) and
    broadcast time bc are pace's three rows.  A batch's send time is
    about send, and its mean compute time b (floor + tail); a worker
    delivers a batch per the larger of the two after the broadcast and
    the smaller.  The k earliest such arrivals are filled in under each
    worker's batch count.

    send is taken unshadowed at the distance where the broadcast ends.
    b / m of the broadcast time, which carries the broadcast's shadowing
    and its distance at t = 0, left some worker short on 42% of the
    tasks of scenario1 training's first iteration and 84% of its last ten.
    """
    free = []  # (start, batches per second, worker)
    floor, tail, bc = pace.tolist()
    for i, (x, s, fl, ta) in enumerate(zip(bc, send.tolist(), floor, tail)):
        c = b * (fl + ta)
        if c > s:
            s, c = c, s
        if not 0.0 < s < math.inf:
            return counts
        free.append((x + c, 1.0 / s, i))
    n = [0.0] * len(counts)
    while free:  # cap the workers whose batches all arrive by t, then drop those none of
        t = (k + sum(x * q for x, q, _ in free)) / sum(q for _, q, _ in free)
        full = [i for x, q, i in free if not (t - x) * q < counts[i]]
        if full:
            for i in full:
                n[i] = counts[i]
                k -= counts[i]
            free = [w for w in free if w[2] not in full]
        else:
            rest = [w for w in free if t > w[0]]
            if len(rest) == len(free):
                break
            free = rest
    for x, q, i in free:
        n[i] = (t - x) * q
    return [int(x * 1.03) + 6 for x in n]


def _further(t, first, last, extent, count):
    """A new extent of a worker whose solved arrivals stop before t, from its own pace.

    Plain floats: the batches still to go to t at the pace of its solved
    arrivals so far, first to last, with a margin, or about twice its
    extent when it holds one arrival, capped at its count; its count when
    any of them is not finite, t among them.
    """
    more = (t - last) / (last - first) * (extent - 1) if last > first else extent
    return min(count, extent + int(more * 1.05) + 8) if more < count else count


def _take(arrays, spans):
    """Each array's entries in the [start, stop) spans, in order.

    Spans that meet are taken as one, so spans that join into one give
    views, and any others one concatenation per array.
    """
    joined = []
    for start, stop in spans:
        if joined and joined[-1][1] == start:
            joined[-1][1] = stop
        else:
            joined.append([start, stop])
    if len(joined) == 1:
        return [a[joined[0][0]:joined[0][1]] for a in arrays]
    return [np.concatenate([a[start:stop] for start, stop in joined]) for a in arrays]


def _reach(arrival, sizes, p):
    """Slots in arrival order, their cumulative rows, and how many it takes to reach p.

    A stable sort of the worker-major layout breaks arrival ties by
    (worker, batch).  The count runs up to the first arrival that brings
    the received rows to p, and is one past the last slot when none does.
    """
    order = arrival.argsort(kind="stable")
    received = sizes[order].cumsum()
    return order, received, int(received.searchsorted(p)) + 1


def _fixed_point(cpu, tau, settled, busy, bits, gain, r, rv, starts, segments, cfg):
    """Passes 2.. of the link fixed point; returns the final (begin, tau).

    Pass 1 evaluated tau at begin = cpu and scanned it into settled; busy
    is what its _scan found.  These passes test for busy links only after
    a pass 1 that found every link busy: after one that did not, a later
    pass was all busy in 28 of 8,093 scans of desk training.  Both of
    _scan's paths give the same bits, so the choice moves no output.  The
    arrays may hold each worker's leading slots alone: every pass is exact
    on them.  The passes run until no begin moves; pass n is exact for the
    first n batches of every worker, so there are at most as many passes
    as the widest segment has slots.
    """
    width = max(seg.stop - seg.start for seg in segments)
    begin = cpu
    for done in itertools.count(2):
        if not (settled != begin).any():
            return begin, tau
        begin = settled
        tau = _send_time(bits, _dist2(r, rv, begin), gain, cfg)
        if done >= width:  # pass n starts from begins that are final for n batches
            return begin, tau
        settled = _scan(cpu, tau, starts, segments, busy)[1]


def _solve(draws, spans, profile, cfg):
    """Arrivals of some workers' leading batches: pass 1, then the link fixed point.

    draws are the task's (us, omega, sizes) over every slot of its flat
    worker-major layout, omega unscaled; spans are the [start, stop) slots
    of each worker to solve, in worker order, and profile has a column per
    such worker and the rows floor and tail (envmodels.comp_coefficients),
    broadcast time, r and rv.  Pass 1 sums each worker's compute times
    from its first batch, evaluates each batch's link at its compute
    finish time and scans the send times into the begins they imply
    (_scan); _fixed_point solves on.
    Each worker is a segment of its own, which no other worker's slots
    reach, so it gets the same bits whichever workers it is solved with.
    Returns (arrival, sizes, segments) over the solved slots, laid out as
    the spans.
    """
    width = [stop - start for start, stop in spans]
    starts, segments = _segments(width)
    us, omega, sizes = _take(draws, spans)
    per_slot = np.repeat(profile, width, axis=1)
    floor, tail, bc = per_slot[:3]
    cpu = comp_time_with(sizes, us, floor, tail)
    for seg in segments:
        np.add.accumulate(cpu[seg], out=cpu[seg])
    cpu += bc
    gain = link_gain(omega * cfg.noise_std_db, cfg)
    tau = _send_time(sizes * cfg.bits_per_element, _dist2(per_slot[3:5], per_slot[5:], cpu),
                     gain, cfg)
    _, settled, busy = _scan(cpu, tau, starts, segments)
    # pass 1's draws and 7-row profile go before the fixed point, which repeats r and rv
    # anew: in the other orders tried, glibc trimmed and regrew its heap on each late
    # scenario1 task (0.46-0.76 M minor page faults, up to 22% slower over 3,000 tasks)
    del us, omega, per_slot, floor, tail, bc
    geometry = np.repeat(profile[3:], width, axis=1)  # r and rv, per slot
    r, rv = geometry[:2], geometry[2:]
    bits = sizes * cfg.bits_per_element
    begin, tau = _fixed_point(cpu, tau, settled, busy, bits, gain, r, rv, starts, segments, cfg)
    return begin + tau, sizes, segments


@functools.lru_cache(maxsize=16)
def _all_workers(n):
    """The read-only index 0..n-1 of the workers."""
    index = np.arange(n)
    index.setflags(write=False)
    return index


def _loaded(world, active, terms, *rows):
    """The loaded workers' index and geometry, and their entries of rows, flat per worker.

    Returns (act, r, rv, *rows): r and rv, shape (2, A), are the positions
    and velocities relative to the master with x and y stacked, rv the
    loaded workers' entries of the episode's terms (EpisodeTerms), and
    each array of rows, shape (N,), gives its loaded workers' entries.
    When every worker is loaded, those are the given arrays themselves and
    act the cached index, with no gather; otherwise each is gathered once.
    All are read, never written.
    """
    n = len(world.beta)
    if len(active) == n:
        return (_all_workers(n), (world.pos[1:] - world.pos[0]).T, terms.rv, *rows)
    act = np.array(active)
    return (act, (world.pos[act + 1] - world.pos[0]).T, terms.rv[:, act], *[a[act] for a in rows])


def worker_ids(rng, n, k=None):
    """The stream ids of rng's substreams ("worker", i) of the n workers, as uint64, shape (n,).

    With k, rng is an episode's "task" stream, and the ids are those of
    rng.substream(j, "worker", i), shape (k, n): row j is task j's, the
    ids of rng.substream(j)'s ("worker", i).  One array fold covers them
    all (RngStream.substream_ids).
    """
    tokens = ("worker", _all_workers(n))
    if k is not None:
        tokens = (np.arange(k)[:, None], *tokens)
    return rng.substream_ids(*tokens)


def one_batch_noise(rng, n, cfg, k=None):
    """The noise of the n workers of one-batch tasks: (gain, us), read-only.

    Without k, rng is a task's stream, worker i draws from
    rng.substream("worker", i), and gain, the link gains, has shape (n, 2)
    and us, the compute uniforms, (n,).  With k, rng is an episode's
    "task" stream, worker i of task j draws from
    rng.substream(j, "worker", i), and the shapes are (k, n, 2) and
    (k, n): task j's rows are gain[j] and us[j].  Each worker draws, when
    noise_std_db > 0, two standard normals into its row of omega, the
    shadowing of its broadcast and of its batch, scaled by noise_std_db;
    then its compute uniform, as a float.
    """
    ids = worker_ids(rng, n, k)
    omega = np.zeros((ids.size, 2))  # per worker: the broadcast of x, then the batch
    us = []
    noisy = cfg.noise_std_db > 0
    for row, gen in zip(omega, rng.fresh_gens_at(ids.ravel().tolist())):
        if noisy:
            gen.standard_normal(out=row)
        us.append(gen.random())
    if noisy:
        omega *= cfg.noise_std_db
    gain, us = link_gain(omega, cfg).reshape(*ids.shape, 2), np.array(us).reshape(ids.shape)
    gain.setflags(write=False)
    us.setflags(write=False)
    return gain, us


def one_batch_terms(gain, us, terms):
    """What one-batch tasks read of one_batch_noise's (gain, us): (head, send, per_row).

    head and send are the link gains of each worker's broadcast and of its
    batch, and per_row its compute time per row, floor - tail ln(1 - U)
    under the episode's terms (envmodels.comp_time_with of one row), so a
    task's compute times are its loads times its row of per_row, bit for
    bit comp_time_with of its loads.  Each is contiguous, read-only and of
    us's shape: (N,) for a task's noise, (K, N) for an episode's.
    """
    head, send = gain[..., 0].copy(), gain[..., 1].copy()
    per_row = comp_time_with(1.0, us, terms.floor, terms.tail)  # x 1.0 is exact
    for a in (head, send, per_row):
        a.setflags(write=False)
    return head, send, per_row


def _batched_noise(rng, ids, heads, shadows, uniforms, cfg):
    """Draw, in place, the noise of a task in which some worker sends more than one batch.

    The k-th loaded worker draws from RngStream(rng.seed, ids[k]), its
    substream ("worker", i) of the task's stream (worker_ids): when
    noise_std_db > 0, the standard normals of heads[k], its broadcast's
    shadowing, then those of shadows[k], its batches'; then the uniforms
    of uniforms[k], one per batch.  Normals drawn into one array after
    another are those of one draw into both.  The caller scales the
    shadowing by noise_std_db.
    """
    noisy = cfg.noise_std_db > 0
    for k, gen in enumerate(rng.fresh_gens_at(ids)):
        if noisy:
            gen.standard_normal(out=heads[k])
            gen.standard_normal(out=shadows[k])
        gen.random(out=uniforms[k])


def _broadcast_time(m, r, gain, cfg):
    """Time to send the m-element payload x at t = 0, where the squared distance is r * r summed."""
    sq = r * r
    return _send_time(m * cfg.bits_per_element, sq[0] + sq[1], gain, cfg)


def _one_batch(world, lay, p, m, terms, cfg, noise):
    """Receipts of a task whose loaded workers each send their load as one batch.

    Returns (ReceiptLog, rows received at completion).  The arrays are
    flat, one entry per loaded worker (see _loaded), and the sizes are the
    loads, laid out by check_loads (lay).  noise is the task's
    one_batch_terms, over every worker, whose loaded workers' entries are
    gathered when a worker is idle.  Each batch begins once computed, so
    one evaluation of the link gives the arrivals, and the log is read off
    their sorted order.
    """
    sizes, float_sizes = lay.sizes, lay.float_sizes
    act, r, rv, head, send, per_row = _loaded(world, lay.active, terms, *noise)
    arrival = float_sizes * per_row  # comp_time_with's product of the loads
    arrival += _broadcast_time(m, r, head, cfg)
    arrival += _send_time(float_sizes * cfg.bits_per_element, _dist2(r, rv, arrival), send, cfg)
    order, received, n_kept = _reach(arrival, sizes, p)
    kept = order[: min(n_kept, len(act))]  # an infeasible task keeps every batch
    return ReceiptLog._of(act[kept], sizes[kept], arrival[kept]), int(received[len(kept) - 1])


def _layout_error(index, total, p, batch_size):
    """The ValueError of task index, whose batch layout of total slots cannot be allocated."""
    return ValueError(f"task {index}: a batch layout of {total} slots cannot be allocated; it "
                      "holds one slot per batch, each load over the batch size, from "
                      f"scenario.p_rows = {p} and scenario.batch_size = {batch_size}")


def _batched(world, lay, batch_size, p, m, terms, rng, cfg, index, ids):
    """Receipts of a task in which some worker sends more than one batch.

    Returns (ReceiptLog, rows received at completion); see run_task.  The
    batches sit in a flat worker-major layout, one slot per batch, whose
    draws are made in full, each loaded worker's keyed by its entry of
    ids, the task's worker_ids, derived here from rng when None.  Each
    worker's leading batches are computed and solved together (_solve),
    and the workers whose solved arrivals stop before the completion are
    extended and solved again, alone; the others keep their arrivals,
    which are joined up again for the sort to completion (_reach).  A
    layout that cannot be allocated, a load past int64 among them, is a
    ValueError naming task index, its size and the settings it grows
    with, p and the batch size.
    """
    loads, active = lay.loads, lay.active
    try:
        counts, last = plan_batches([loads[i] for i in active], batch_size)
    except OverflowError:  # a load past int64: its slots are counted as Python ints
        total = sum(-(-loads[i] // batch_size) for i in active)
        raise _layout_error(index, total, p, batch_size) from None
    counts = counts.tolist()
    total = sum(counts)  # as Python ints: an int64 sum can wrap
    try:
        # one shadowing per batch's transmission, drawn when noise_std_db > 0, and one
        # compute uniform per batch, always drawn
        omega = np.empty(total) if cfg.noise_std_db > 0 else np.zeros(total)
        us = np.empty(total)
        sizes = np.full(total, batch_size)
    except (MemoryError, ValueError):  # numpy raises ValueError for sizes past its index range
        raise _layout_error(index, total, p, batch_size) from None
    segments = _segments(counts)[1]
    sizes[[seg.stop - 1 for seg in segments]] = last
    if ids is None:  # a task run alone
        ids = worker_ids(rng, len(world.beta))
    act, r, rv, floor, tail, ids = _loaded(world, active, terms, terms.floor, terms.tail, ids)
    heads = np.zeros((len(active), 1))  # per worker: the broadcast of x
    _batched_noise(rng, ids.tolist(), heads, [omega[seg] for seg in segments],
                   [us[seg] for seg in segments], cfg)
    heads *= cfg.noise_std_db  # the batches' shadowing is scaled where pass 1 reads it
    bc = _broadcast_time(m, r, link_gain(heads[:, 0], cfg), cfg)
    profile = np.concatenate((floor[None], tail[None], bc[None], r, rv))
    extent = counts  # an infeasible task keeps, so solves, every batch
    if lay.feasible:  # a batch's send time, unshadowed, where the broadcast ends
        send = _send_time(batch_size * cfg.bits_per_element, _dist2(r, rv, bc),
                          link_gain(0.0, cfg), cfg)
        k = _reaching(p, batch_size, len(active), total)
        extent = [min(c, max(1, e)) for c, e in
                  zip(counts, _first_extent(profile[:3], send, counts, batch_size, k))]
    draws = (us, omega, sizes)
    todo = range(len(counts))  # the workers to solve
    arrivals, batches = [None] * len(counts), [None] * len(counts)  # each worker's latest
    while True:
        arrival, sizes, solved = _solve(draws, [(segments[i].start, segments[i].start + extent[i])
                                                for i in todo], profile[:, todo], cfg)
        for i, seg in zip(todo, solved):
            arrivals[i], batches[i] = arrival[seg], sizes[seg]
        if len(todo) < len(counts):
            arrival, sizes = np.concatenate(arrivals), np.concatenate(batches)
        order, received, n_kept = _reach(arrival, sizes, p)
        if extent == counts:  # every batch is solved
            n_kept = min(n_kept, order.size)  # an infeasible task keeps every batch
            break
        reached = n_kept <= order.size  # the solved slots hold p rows
        t = float(arrival[order[n_kept - 1]]) if reached else math.inf  # T'
        todo = [i for i, (e, c, a) in enumerate(zip(extent, counts, arrivals))
                if e < c and not (reached and a[-1] >= t)]  # may arrive by T'
        if not todo:
            break
        extent = list(extent)
        for i in todo:
            extent[i] = _further(t, float(arrivals[i][0]), float(arrivals[i][-1]), extent[i],
                                 counts[i])
    kept = order[:n_kept]
    return (ReceiptLog._of(np.repeat(act, extent)[kept], sizes[kept], arrival[kept]),
            int(received[n_kept - 1]))


def run_task(world, loads, batch_size, p, m, terms, rng, cfg, index=0, noise=None, ids=None):
    """Simulate one task; returns (TaskRecord, advanced WorldState).

    loads holds one non-negative integer per worker, each at most p, the
    rows needed to decode; check_loads checks and lays them out, and any
    other loads are a ValueError that names task index.  Loads that
    check_loads returned for this world's worker count and this p, what
    run_episode passes for a baseline, are taken as they are.  m is the
    length of the broadcast payload.  batch_size is an int: a worker sends
    its load in batches of that many rows, so any batch size >= the
    largest load, p among them, sends one batch per worker.  terms is
    episode_terms of this world's episode: the workers' velocities
    relative to the master and their compute coefficients, which no task
    changes.  rng is the task's stream, cfg the link's CommConfig.
    Worker i draws its noise from rng's substream ("worker", i).  noise,
    when given, is the task's row of what its one-batch episode derived
    once (one_batch_terms of one_batch_noise, over every worker): three
    (N,) arrays, the link gains of each worker's broadcast and of its
    batch and its compute time per row.  A one-batch task then draws
    nothing and reads no rng (None will do), and its compute times are
    its loads times the per-row times; without noise, it derives the same
    bits here, through one_batch_terms(*one_batch_noise(rng, N, cfg),
    terms).  ids, when given, is the task's row of its multi-batch
    episode's worker_ids, the (N,) stream ids of rng's substreams
    ("worker", i), from which a multi-batch task keys its loaded workers'
    draws; without it, it derives them from rng.  A multi-batch task
    ignores noise, and a one-batch task ids.
    The task completes at the first arrival, in (arrival, worker, batch)
    order, at which the received rows reach p; an infeasible task keeps
    every batch.  The module docstring describes how it is computed.
    All-zero loads dispatch nothing: the record is infeasible, takes 0 s,
    has an empty receipt log and 0 rows received, and the world is
    returned unchanged.
    A link whose capacity underflows to zero makes the completion infinite,
    which raises ValueError rather than moving the world to an infinite
    clock, and a batch layout that cannot be allocated is a ValueError
    naming the task (_layout_error).
    """
    lay = loads if type(loads) is Loads else check_loads(loads, len(world.beta), p, index)
    if lay.top == 0:  # nothing dispatched: the task takes no time and completes nothing
        return TaskRecord._of(index, world.clock, 0.0, ReceiptLog(), 0, False, lay.loads), world

    if batch_size >= lay.top:  # each worker's one batch is its whole load
        if noise is None:
            noise = one_batch_terms(*one_batch_noise(rng, len(world.beta), cfg), terms)
        receipt_log, rows = _one_batch(world, lay, p, m, terms, cfg, noise)
    else:
        receipt_log, rows = _batched(world, lay, batch_size, p, m, terms, rng, cfg, index, ids)
    t_done = float(receipt_log.arrivals[-1])
    if not math.isfinite(t_done):
        raise ValueError(f"task {index}: a link's capacity fell to zero, "
                         "so the task never completes")

    record = TaskRecord._of(index, world.clock, t_done, receipt_log, rows, lay.feasible, lay.loads)
    pos = advance(world.pos, world.vel, t_done)
    return record, WorldState(pos, world.vel, world.alpha, world.beta, world.clock + t_done)


def sample_world(scenario, rng):
    """Draw the initial world for an episode from the scenario ranges.

    Returns (WorldState, victim), with alpha = 1 / beta for every worker.
    The straggler victim index is always drawn, so the environment is
    identical with and without straggler injection (paired comparisons).
    rng is the episode's "env" stream, which makes all its draws here
    before any other stream draws, so they go through rng.fresh_gen().
    """
    n = scenario.n_workers
    gen = rng.fresh_gen()
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


def state_dim(n_workers):
    """Width of one agent's observation: N distances, N velocities and the master's."""
    return 3 * n_workers + 2


def state_scales(scenario):
    """Fixed observation scales (distance, velocity) from the scenario ranges."""
    half = 0.5 * (scenario.pos_range[1] - scenario.pos_range[0])
    dist_scale = half * math.sqrt(2.0)
    vel_scale = max(abs(scenario.vel_range[0]), abs(scenario.vel_range[1]))
    return (dist_scale if dist_scale > 0 else 1.0, vel_scale if vel_scale > 0 else 1.0)


def build_state(world, scales, like=None):
    """Scaled joint observation of the N agents, one row each: shape (N, 3N+2).

    Row i is agent i's [d_i, d_-i, v_i, v_-i, v_m]: its own distance to the
    master, the other workers' distances, its own velocity, the others'
    velocities (the others in worker order) and the master's velocity.
    scales is (d_scale, v_scale), from state_scales: distances are divided
    by d_scale and velocities by v_scale, so (1.0, 1.0) gives the raw
    values.  Distances use math.hypot: np.hypot differs from it in the last
    bit on some inputs, which would change the recorded states.

    like, when given, is an observation built with the same scales from a
    world with the same velocities, such as the previous task's in one
    episode (velocities never change within an episode): its velocity
    columns are copied, and only the distances are computed.
    """
    n = world.n_workers
    d_scale, v_scale = scales
    order = _state_order(n)
    dists = np.array([math.hypot(dx, dy) for dx, dy in (world.pos[1:] - world.pos[0]).tolist()])
    if like is None:
        states = np.empty((n, state_dim(n)))
        np.divide(world.vel[1:][order].reshape(n, 2 * n), v_scale, out=states[:, n:-2])
        np.divide(world.vel[0], v_scale, out=states[:, -2:])
    else:
        states = like.copy()
    np.divide(dists[order], d_scale, out=states[:, :n])
    return states


def reward(rec, c=200.0):
    """Shared reward -T_j, less c when the task's rows fall short of p.

    run_task alone decides decodability: rec.feasible is sum(l) >= p, so
    the all-zero record is infeasible.
    """
    return -rec.t_complete - (0.0 if rec.feasible else c)


def run_episode(scenario, allocator, rng, penalty=200.0):
    """Run K sequential tasks under one sampled environment.

    allocator is a callable (world, states) -> iterable of N raw loads,
    where states is build_state(world, state_scales(scenario)), the
    scales taken once per episode; from task 1 on, the velocity columns
    are copied from the previous task's states (build_state's like).  A
    non-finite load raises NonFiniteLoadError; the others are rounded to
    the nearest integers and checked (check_loads), whose ValueError names
    the task of a rounded load below 0 or above p.  An allocator whose
    attribute per_episode is True (the baselines of
    experiments.make_allocator) promises loads that depend only on the
    workers' compute profiles, which are fixed for the episode: it is
    called once, at task 0, with states=None, its loads are checked and
    laid out once and serve all K tasks, no state is built, and the
    record's states is ().  Any other allocator is called, gets states and
    has its loads read, and checked by run_task, anew on every task.
    The time factors and the terms derived from them and the first world
    (episode_terms) are taken once and handed to every task.  Task j
    draws from rng.substream("task", j), whose substreams ("worker", i)
    are keyed for every task at once, before task 0.  When
    scenario.batch_size >= p, every task sends one batch per worker, so
    the noise of every task and worker is drawn then (one_batch_noise),
    and the broadcast gains, the transmission gains and the compute times
    per row derived from it (one_batch_terms), three (K, N) arrays; each
    task is handed its row of them as noise, with no stream of its own.
    Otherwise the (K, N) grid of the workers' stream ids (worker_ids) is
    derived then, and each task is handed its stream and its row of ids.
    Every task runs at scenario.batch_size, the victim is slowed when
    scenario.straggler_enabled is set, and each task is scored by
    reward(rec, penalty).  Same (scenario, allocator, rng) reproduces the
    record bit for bit.
    """
    p = scenario.p_rows
    world, victim = sample_world(scenario, rng.substream("env"))
    factors = time_factors(scenario.n_workers, victim, scenario.straggler_enabled,
                           scenario.straggler_slowdown)
    terms = episode_terms(world, factors)
    scales = state_scales(scenario)

    tasks, states_all, rewards = [], [], []
    per_episode = getattr(allocator, "per_episode", False)
    states = None
    task_rng = rng.substream("task")  # task j draws from rng.substream("task", j)
    ids = None
    if scenario.batch_size >= p:  # every task sends one batch per worker: draw them all now
        head, send, per_row = one_batch_terms(
            *one_batch_noise(task_rng, scenario.n_workers, scenario.comm, scenario.k_tasks), terms)
    else:
        ids = worker_ids(task_rng, scenario.n_workers, scenario.k_tasks)
    for j in range(scenario.k_tasks):
        if not per_episode:
            states = build_state(world, scales, like=states)
            states_all.append(states)
        if j == 0 or not per_episode:
            raw = list(allocator(world, states))
            if not all(map(math.isfinite, raw)):
                raise NonFiniteLoadError(j, raw)
            loads = tuple([int(round(v)) for v in raw])  # int loads pass through as the same objects
            if per_episode:  # checked and laid out once, for every task
                loads = check_loads(loads, len(world.beta), p, j)

        if ids is None:  # the task's noise is drawn, so it reads no stream
            task, noise, row = None, (head[j], send[j], per_row[j]), None
        else:
            task, noise, row = task_rng.substream(j), None, ids[j]
        rec, world = run_task(world, loads, scenario.batch_size, p, scenario.m_cols, terms, task,
                              scenario.comm, index=j, noise=noise, ids=row)
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
