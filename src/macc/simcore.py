"""Discrete-event engine for the master/worker batch protocol, and the MDP step built on it.

One task: the master broadcasts the m-element payload x to every loaded
worker over a dedicated link; each worker computes its rows in batches,
with no idle time between them, and sends each finished batch back once it
is computed and its link is free.  A send's time is evaluated at the
instant it begins, every node drifting at constant velocity.  The task
completes at the first arrival, in (arrival, worker, batch) order, that
brings the received rows to p; results still in flight are ignored.  The
engine tracks when rows arrive, never their values.  All times in a
TaskRecord are measured from the task's dispatch; the world clock adds
them up across an episode's K tasks, which run one after another.

Noise keying: worker i of task j draws from the substream
("task", j, "worker", i) of the episode's stream: first, when
noise_std_db > 0, the shadowing of its broadcast and of each batch's send,
then one compute uniform per batch, all before the next worker draws.  A
one-batch episode (batch_size >= p) draws every task's and worker's noise,
idle workers' too, before task 0; any other task draws for its loaded
workers alone when it runs.
"""

import functools
import itertools
import math
import operator
from dataclasses import dataclass, fields, replace
from typing import NamedTuple

import numpy as np

from .coding import plan_batches
from .envmodels import (advance, channel_capacity, comp_coefficients, comp_time_with, link_gain,
                        time_factors)

_new = object.__new__


class NonFiniteLoadError(ValueError):
    """An allocator returned a non-finite load: holds task, loads as floats, and its worker."""

    def __init__(self, task, loads):
        self.task = task
        self.loads = [float(v) for v in loads]
        self.worker = next(i for i, v in enumerate(self.loads) if not math.isfinite(v))
        super().__init__(f"task {task}: allocator returned non-finite loads {self.loads}")


class WorldState(NamedTuple):
    """Node kinematics and worker compute profiles at a clock time, as arrays.

    pos and vel (m, m/s), shape (N+1, 2), hold the master in row 0 and worker i
    in row i+1; alpha (s per row) and beta, shape (N,), are the workers'
    shifted-exponential parameters.  Compare worlds by their arrays, not ==.
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
    """What every world of an episode shares (episode_terms); read-only.

    rv, shape (2, N), holds the workers' velocities relative to the master, x
    and y stacked; floor and tail, shape (N,), the compute coefficients
    (envmodels.comp_coefficients under the episode's time factors).
    """

    rv: np.ndarray
    floor: np.ndarray
    tail: np.ndarray


def episode_terms(world, factors):
    """The EpisodeTerms of world under factors, which hold for its whole episode."""
    rv = (world.vel[1:] - world.vel[0]).T
    floor, tail = comp_coefficients(world.alpha, world.beta, factors)
    for a in (rv, floor, tail):
        a.setflags(write=False)
    return EpisodeTerms(rv, floor, tail)


class Loads(NamedTuple):
    """One task's integer loads, checked and laid out by check_loads.

    loads is the tuple of N ints, active the loaded workers in order (range(N)
    when all are loaded), top the largest load and feasible whether the loads
    sum to p or more; sizes (int64) and float_sizes (float64), read-only, are
    the loaded workers' loads.
    """

    loads: tuple
    active: object
    top: int
    feasible: bool
    sizes: np.ndarray
    float_sizes: np.ndarray


def check_loads(loads, n, p, index=0):
    """The Loads of n raw loads at p rows to decode.

    Each load must be a non-negative integer, an int or anything operator.index
    takes (a numpy integer, a bool, never a float), of at most p; any other is
    a ValueError naming task index.
    """
    raw = tuple(loads)
    if len(raw) != n:
        raise ValueError(f"task {index}: allocation covers {len(raw)} workers, world has {n}")
    try:
        loads = tuple(map(operator.index, raw))
    except TypeError:
        loads = ()
    low = min(loads, default=-1)  # no loads: a load was no integer
    if low < 0:
        raise ValueError(f"task {index}: loads must be non-negative integers, got {raw}")
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
    """Receipts of one task in completion order, as three read-only arrays.

    workers and rows are int64, arrivals float64 (seconds since dispatch).
    Arrays of those dtypes are taken over, not copied, and made read-only.  An
    index gives a (worker, rows, arrival) triple of Python numbers, a slice
    another log, iteration the triples in order; two logs are equal when their
    arrays are.
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
    receipt_log: ReceiptLog        # (worker, rows, arrival) in completion order;
                                   # None in the records experiments returns, see without_logs
    rows_received_at_completion: int
    feasible: bool
    loads: tuple

    @classmethod
    def _of(cls, index, dispatch_time, t_complete, receipt_log, rows, feasible, loads):
        """The record of these fields, each set by its slot's setter, at half __init__'s cost."""
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
                                   # () when the allocator does not read states, and in the
                                   # records experiments returns
    rewards: tuple                 # per task scalar (identical across agents)
    total_time: float
    betas: tuple
    victim: int
    straggler_enabled: bool

    @property
    def infeasible_count(self):
        return sum(1 for t in self.tasks if not t.feasible)


def without_logs(record):
    """A copy of record whose tasks hold no receipt_log (None) and which holds no states (()).

    Every other field is record's own object; record itself is left as it is.
    """
    tasks = tuple([TaskRecord._of(t.index, t.dispatch_time, t.t_complete, None,
                                  t.rows_received_at_completion, t.feasible, t.loads)
                   for t in record.tasks])
    return replace(record, tasks=tasks, states=())


def _dist2(r, rv, t):
    """|r + rv t|^2, elementwise, for r and rv relative to the master with x and y on axis 0."""
    u = rv * t
    u += r
    u *= u
    return u[0] + u[1]


def _send_time(bits, d2, gain, cfg):
    """Time to send bits over links of squared length d2 and link_gain gain; elementwise."""
    return bits / channel_capacity(d2, gain, cfg)


def _segments(widths):
    """(starts, segments) of a flat worker-major layout: each worker's first slot, and its slice."""
    ends = list(itertools.accumulate(widths))
    starts = [e - w for e, w in zip(ends, widths)]
    return np.array(starts, dtype=np.int64), [slice(s, e) for s, e in zip(starts, ends)]


def _scan(cpu, tau, starts, segments, test=True):
    """(arrival, settled, busy) of the link recurrence with the send times tau frozen.

    Within each segment the arrivals are the max-plus scan S + cummax(cpu - (S - tau)),
    S = cumsum(tau), and settled are the begins they imply.  With test, busy is
    whether no later gap of any segment exceeds its first: then the cummax is that
    first gap at every slot, bit for bit, and is added without a running maximum.
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
    """ceil((p - A) / b) + A, capped at total: any that many slots of A workers hold p rows."""
    return min(-(-(p - n_active) // b) + n_active, total)


def _first_extent(pace, send, counts, b, k):
    """Each worker's estimated batches up to the k-th arrival of the task, with a margin.

    pace's rows are the compute coefficients floor and tail and the broadcast
    time; send is a batch's unshadowed send time where the broadcast ends.
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
    """A worker's new extent toward t, at the pace of its solved arrivals, capped at count."""
    more = (t - last) / (last - first) * (extent - 1) if last > first else extent
    return min(count, extent + int(more * 1.05) + 8) if more < count else count


def _take(arrays, spans):
    """Each array's entries in the [start, stop) spans, in order; views if the spans join up."""
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
    """Slots in arrival order, their cumulative rows, and how many reach p (all + 1 if none)."""
    order = arrival.argsort(kind="stable")
    received = sizes[order].cumsum()
    return order, received, int(received.searchsorted(p)) + 1


def _fixed_point(cpu, tau, settled, busy, bits, gain, r, rv, starts, segments, cfg):
    """Passes 2.. of the link fixed point, from pass 1's settled begins; returns (begin, tau).

    Pass n is exact for each worker's first n batches, so the passes stop when
    no begin moves or after as many as the widest segment has slots.
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
        # test for busy links only when pass 1 found all busy: both _scan paths give the same bits
        settled = _scan(cpu, tau, starts, segments, busy)[1]


def _solve(draws, spans, profile, cfg):
    """(arrival, sizes, segments) of the [start, stop) spans of each worker's slots.

    draws are the task's (us, omega, sizes) over its flat worker-major layout,
    omega unscaled; profile has a column per solved worker and the rows floor,
    tail, broadcast time, r and rv.  No worker's segment reads another's, so a
    worker gets the same bits whichever workers it is solved with.
    """
    width = [stop - start for start, stop in spans]
    starts, segments = _segments(width)
    us, omega, sizes = _take(draws, spans)
    per_slot = np.repeat(profile, width, axis=1)
    floor, tail, bc = per_slot[:3]
    # pass 1: each batch's link is evaluated at its compute finish time
    cpu = comp_time_with(sizes, us, floor, tail)
    for seg in segments:
        np.add.accumulate(cpu[seg], out=cpu[seg])
    cpu += bc
    # s z, not normal(0, s)'s 0.0 + s z: they differ only in a zero's sign, which link_gain erases
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
    """(act, r, rv, *rows): the loaded workers' index, (2, A) geometry and entries of rows.

    When every worker is loaded they are the given arrays, not gathered copies; never written.
    """
    n = len(world.beta)
    if len(active) == n:
        return (_all_workers(n), (world.pos[1:] - world.pos[0]).T, terms.rv, *rows)
    act = np.array(active)
    return (act, (world.pos[act + 1] - world.pos[0]).T, terms.rv[:, act], *[a[act] for a in rows])


def worker_ids(rng, n, k=None):
    """The uint64 stream ids of rng's substreams ("worker", i) of n workers, shape (n,).

    With k, rng is an episode's "task" stream and the ids, shape (k, n), are
    those of rng.substream(j, "worker", i): row j is task j's.
    """
    tokens = ("worker", _all_workers(n))
    if k is not None:
        tokens = (np.arange(k)[:, None], *tokens)
    return rng.substream_ids(*tokens)


def one_batch_terms(rng, ids, cfg, terms):
    """(head, send, per_row) of one-batch tasks' workers, each keyed by its id in ids.

    ids, from worker_ids, are a task's (N,) or an episode's (K, N).  Each worker
    draws, when noise_std_db > 0, two standard normals, its broadcast's and its
    batch's shadowing, then one compute uniform.  head and send are the link
    gains of the broadcast and of the batch, and per_row the compute time per
    row: loads * per_row is comp_time_with of the loads, bit for bit.  All three
    are read-only, of ids' shape.
    """
    omega = np.zeros((ids.size, 2))  # per worker: the broadcast of x, then the batch
    us = []
    noisy = cfg.noise_std_db > 0
    for row, gen in zip(omega, rng.fresh_gens_at(ids.ravel().tolist())):
        if noisy:
            gen.standard_normal(out=row)
        us.append(gen.random())
    if noisy:
        omega *= cfg.noise_std_db
    omega = omega.reshape(*ids.shape, 2)
    head, send = link_gain(omega[..., 0], cfg), link_gain(omega[..., 1], cfg)
    us = np.array(us).reshape(ids.shape)
    per_row = comp_time_with(1.0, us, terms.floor, terms.tail)  # x 1.0 is exact
    for a in (head, send, per_row):
        a.setflags(write=False)
    return head, send, per_row


def _batched_noise(rng, ids, heads, shadows, uniforms, cfg):
    """Draw, in place, a multi-batch task's noise, the k-th loaded worker from ids[k].

    Each draws, when noise_std_db > 0, the normals of heads[k], then those of
    shadows[k], then the uniforms of uniforms[k]; the caller scales the shadowing.
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
    """(ReceiptLog, rows received at completion) of a task whose workers send one batch each.

    noise is the task's one_batch_terms over every worker.  A batch's link is
    free once it is computed, so one link evaluation gives the arrivals.
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
    """(ReceiptLog, rows received at completion) of any task not handed its one-batch noise row.

    ids are the task's worker_ids, derived from rng when None.  A layout that
    cannot be allocated is a ValueError naming task index (_layout_error).
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
    # a slot depends only on the slots before it, so each worker's leading batches solve exactly;
    # a worker whose last solved arrival precedes the completion T' is extended and solved alone
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
    """Simulate one task; returns (TaskRecord, the world advanced to its completion).

    loads holds one non-negative integer per worker, each at most p, the rows
    to decode (check_loads), or is the Loads check_loads returned for this
    world and p.  A worker sends its load in batches of batch_size rows; m is
    the payload's length, terms the episode's EpisodeTerms, rng the task's
    stream, whose substream ("worker", i) worker i draws from, and cfg the
    link's CommConfig.  noise is a one-batch task's row of its episode's
    one_batch_terms, three (N,) arrays: given, with no load above batch_size,
    the task draws nothing and rng may be None.  Any other task draws its
    loaded workers' noise from rng, ids being its row of its episode's
    worker_ids, derived from rng when None; a one-batch task's record is the
    same either way, bit for bit.  An infeasible task's log keeps every
    batch.  All-zero loads dispatch nothing: the record is infeasible, takes
    0 s and receives nothing, and the world is returned unchanged.
    Raises ValueError for loads check_loads rejects, a batch layout that
    cannot be allocated, and a link whose capacity falls to zero.
    """
    lay = loads if type(loads) is Loads else check_loads(loads, len(world.beta), p, index)
    if lay.top == 0:  # nothing dispatched: the task takes no time and completes nothing
        return TaskRecord._of(index, world.clock, 0.0, ReceiptLog(), 0, False, lay.loads), world

    if noise is not None and batch_size >= lay.top:  # each worker's one batch is its whole load
        receipt_log, rows = _one_batch(world, lay, p, m, terms, cfg, noise)
    else:  # a batch size past the top load sends one batch per worker, as the top load does
        receipt_log, rows = _batched(world, lay, min(batch_size, lay.top), p, m, terms, rng, cfg,
                                     index, ids)
    t_done = float(receipt_log.arrivals[-1])
    if not math.isfinite(t_done):
        raise ValueError(f"task {index}: a link's capacity fell to zero, "
                         "so the task never completes")

    record = TaskRecord._of(index, world.clock, t_done, receipt_log, rows, lay.feasible, lay.loads)
    pos = advance(world.pos, world.vel, t_done)
    return record, WorldState(pos, world.vel, world.alpha, world.beta, world.clock + t_done)


def sample_world(scenario, rng):
    """Draw (WorldState, victim) from the scenario ranges, with alpha = 1 / beta.

    The victim is drawn with the straggler on or off, so paired runs share a
    world.  rng is the episode's "env" stream, read through rng.fresh_gen().
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

    Row i is [d_i, d_-i, v_i, v_-i, v_m]: worker i's distance to the master, the
    others' in worker order, its velocity, the others' and the master's, divided
    by scales = (d_scale, v_scale) from state_scales.  like, an observation of a
    world with the same velocities and scales, lends its velocity columns.
    """
    n = world.n_workers
    d_scale, v_scale = scales
    order = _state_order(n)
    # math.hypot: np.hypot differs from it in the last bit on some inputs
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
    """Shared reward -T_j, less c when the task is infeasible (as run_task set rec.feasible)."""
    return -rec.t_complete - (0.0 if rec.feasible else c)


class EpisodeEnv(NamedTuple):
    """All that an episode fixes before task 0 (episode_env); every array is read-only.

    scenario, seed and stream are what it was derived from; world is the first
    world, victim the straggler victim, terms the EpisodeTerms and tasks the
    "task" stream.  A one-batch episode (batch_size >= p) holds noise,
    one_batch_terms' (head, send, per_row), each (K, N), and ids None; any
    other holds noise None and ids, the (K, N) worker_ids.  Runs under several
    allocators may share one env.
    """

    scenario: object
    seed: int
    stream: int
    world: WorldState
    victim: int
    terms: EpisodeTerms
    tasks: object
    noise: tuple
    ids: np.ndarray


def episode_env(scenario, rng):
    """The EpisodeEnv of scenario's episode that draws from rng; see the module's noise keying."""
    n, k = scenario.n_workers, scenario.k_tasks
    world, victim = sample_world(scenario, rng.substream("env"))
    for a in world[:4]:
        a.setflags(write=False)
    terms = episode_terms(world, time_factors(n, victim, scenario.straggler_enabled,
                                              scenario.straggler_slowdown))
    tasks = rng.substream("task")  # task j draws from rng.substream("task", j)
    ids, noise = worker_ids(tasks, n, k), None
    ids.setflags(write=False)
    if scenario.batch_size >= scenario.p_rows:  # every task sends one batch per worker
        noise = one_batch_terms(tasks, ids, scenario.comm, terms)
        ids = None
    return EpisodeEnv(scenario, rng.seed, rng.stream, world, victim, terms, tasks, noise, ids)


def _check_env(env, scenario, rng):
    """A ValueError naming what differs when env was not derived from rng and scenario."""
    if (env.seed, env.stream) != (rng.seed, rng.stream):
        raise ValueError(f"env was derived from RngStream(seed={env.seed}, stream={env.stream}), "
                         f"not from the episode's {rng!r}")
    if env.scenario is not scenario and env.scenario != scenario:
        differ = [f.name for f in fields(scenario)
                  if getattr(env.scenario, f.name) != getattr(scenario, f.name)]
        raise ValueError(f"env was derived for another scenario: its {', '.join(differ)} "
                         "differ from the episode's")


def run_episode(scenario, allocator, rng, penalty=200.0, env=None):
    """Run K sequential tasks under one sampled environment; returns an EpisodeRecord.

    allocator(world, states) returns N raw loads, states being build_state
    under state_scales(scenario).  A non-finite load raises NonFiniteLoadError;
    the others are rounded to integers and checked (check_loads's ValueError).
    An allocator whose per_episode is True promises loads that depend only on
    the fixed compute profiles: it is called once, with states None, and the
    record's states is ().  env, when given, must come from
    episode_env(scenario, rng), or a ValueError names what differs; its arrays
    are read-only, so runs under several allocators share it, and an allocator
    that writes into the first world raises ValueError.  Each task is scored
    by reward(rec, penalty).  The same inputs give the same record bit for
    bit, with or without env.
    """
    if env is None:
        env = episode_env(scenario, rng)
    else:
        _check_env(env, scenario, rng)
    p = scenario.p_rows
    world, terms = env.world, env.terms
    scales = state_scales(scenario)

    tasks, states_all, rewards = [], [], []
    per_episode = getattr(allocator, "per_episode", False)
    states = None
    if env.ids is None:
        head, send, per_row = env.noise
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

        if env.ids is None:  # the task's noise is drawn, so it reads no stream
            task, noise, row = None, (head[j], send[j], per_row[j]), None
        else:
            task, noise, row = env.tasks.substream(j), None, env.ids[j]
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
        victim=env.victim,
        straggler_enabled=scenario.straggler_enabled,
    )
