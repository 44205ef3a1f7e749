import gc
import json
import math
import tracemalloc
from dataclasses import fields, replace

import numpy as np
import pytest

from macc import experiments, marl, simcore
from macc.allocators import hcmm_alloc
from macc.coding import decode, encode, generate_encoding_matrix
from macc.config import ScenarioConfig, preset_scenario
from macc.envmodels import CommConfig, channel_capacity, link_gain, time_factors
from macc.experiments import episode_to_json
from macc.numerics import RngStream
from macc.simcore import (
    EpisodeRecord,
    ReceiptLog,
    TaskRecord,
    WorldState,
    build_state,
    episode_env,
    episode_terms,
    reward,
    run_episode,
    run_task,
    sample_world,
    state_dim,
    state_scales,
)

NOISELESS = CommConfig(noise_std_db=0.0)


def no_straggler(world):
    """run_task's episode terms of world with the straggler off: time factors of 1.0 each."""
    return episode_terms(world, time_factors(world.n_workers, 0, False, 10.0))


def send_per_row(d):
    # one encoded result row is a single 64-bit element
    return NOISELESS.bits_per_element / channel_capacity(d * d, link_gain(0.0, NOISELESS), NOISELESS)


def make_world(workers, master_pos=(0.0, 0.0), master_vel=(0.0, 0.0)):
    """workers: list of (pos, vel, alpha, beta)."""
    pos, vel, alpha, beta = zip(*workers)
    return WorldState(
        pos=np.array([master_pos, *pos], dtype=float),
        vel=np.array([master_vel, *vel], dtype=float),
        alpha=np.array(alpha, dtype=float),
        beta=np.array(beta, dtype=float),
    )


def world_arrays(world):
    return [world.pos, world.vel, world.alpha, world.beta]


def episode_fields(rec):
    """Every field of an EpisodeRecord, by name, its tasks' and states' arrays as bytes.

    Two records run bit for bit alike exactly when their fields are equal.
    """
    def task_fields(task):
        log = task.receipt_log
        return [(f.name, getattr(task, f.name)) for f in fields(TaskRecord)
                if f.name != "receipt_log"] + [
            (a.dtype.str, a.tobytes()) for a in (log.workers, log.rows, log.arrivals)]

    out = []
    for f in fields(EpisodeRecord):
        value = getattr(rec, f.name)
        if f.name == "tasks":
            value = [task_fields(t) for t in value]
        elif f.name == "states":
            value = [(s.shape, s.tobytes()) for s in value]
        out.append((f.name, value))
    return out


def run_deterministic(world, loads, p, m, batch_size, factors=None, seed=0):
    terms = no_straggler(world) if factors is None else episode_terms(world, factors)
    return run_task(
        world, loads, batch_size, p, m, terms, RngStream(seed).substream("task"), NOISELESS,
    )


class TestLoadAllocation:
    """The loads run_task accepts: one non-negative integer per worker."""

    def test_total_and_feasibility(self):
        world = make_world([((1.0, 0.0), (0.0, 0.0), 1.0, 1e4)] * 3)
        rec, _ = run_deterministic(world, (3, 0, 7), p=10, m=5, batch_size=10)
        assert rec.loads == (3, 0, 7)
        assert rec.feasible and rec.rows_received_at_completion == 10
        rec, _ = run_deterministic(world, (3, 0, 6), p=10, m=5, batch_size=10)
        assert not rec.feasible and rec.rows_received_at_completion == 9

    def test_negative_rejected(self):
        world = make_world([((1.0, 0.0), (0.0, 0.0), 1.0, 1e4)] * 2)
        with pytest.raises(ValueError, match="non-negative integers"):
            run_deterministic(world, (3, -1), p=10, m=5, batch_size=10)

    def test_fractional_rejected(self):
        world = make_world([((1.0, 0.0), (0.0, 0.0), 1.0, 1e4)])
        for load in (2.5, math.nan, math.inf):
            with pytest.raises(ValueError, match="non-negative integers"):
                run_deterministic(world, (load,), p=10, m=5, batch_size=10)

    def test_empty_rejected(self):
        world = make_world([((1.0, 0.0), (0.0, 0.0), 1.0, 1e4)])
        with pytest.raises(ValueError, match="covers 0 workers"):
            run_deterministic(world, (), p=10, m=5, batch_size=10)

    @pytest.mark.parametrize("loads, message", [
        ((3, 4, 5), "allocation covers 3 workers, world has 2"),
        ((3, -1), "loads must be non-negative integers, got (3, -1)"),
        ((3, 2.5), "loads must be non-negative integers, got (3, 2.5)"),
        ((11, 0), "loads may not exceed p=10, got (11, 0)"),
    ])
    def test_load_errors_name_their_task(self, loads, message):
        world = make_world([((1.0, 0.0), (0.0, 0.0), 1.0, 1e4)] * 2)
        with pytest.raises(ValueError) as err:
            run_task(world, loads, 10, 10, 5, no_straggler(world), RngStream(0), NOISELESS,
                     index=5)
        assert str(err.value) == f"task 5: {message}"

    @pytest.mark.parametrize("load", [4.0, np.float64(4.0)])
    def test_float_loads_refused_naming_the_task(self, load):
        # run_episode rounds an allocator's floats; run_task takes integers alone
        world = make_world([((1.0, 0.0), (0.0, 0.0), 1.0, 1e4)] * 2)
        with pytest.raises(ValueError) as err:
            run_task(world, (load, 6), 10, 10, 5, no_straggler(world), RngStream(0), NOISELESS,
                     index=5)
        assert str(err.value) == f"task 5: loads must be non-negative integers, got {(load, 6)}"

    def test_numpy_ints_and_bools_accepted_as_ints(self):
        world = make_world([((1.0, 0.0), (0.0, 0.0), 1.0, 1e4)] * 3)
        rec, _ = run_deterministic(world, (np.int64(4), 6, True), p=10, m=5, batch_size=10)
        assert rec.loads == (4, 6, 1)
        assert all(type(l) is int for l in rec.loads)


class TestSingleWorkerClosedForm:
    """beta = inf kills the exponential tail and sigma = 0 the dB noise, so
    every event time is exact arithmetic on alpha, the batch plan and the
    Shannon send times."""

    def test_compute_bound_batches(self):
        # alpha 1 s/row dwarfs the link: every batch waits on the CPU
        world = make_world([((1.0, 0.0), (0.0, 0.0), 1.0, math.inf)])
        rec, _ = run_deterministic(world, [10], p=10, m=5, batch_size=4)
        su = send_per_row(1.0)
        # broadcast 5 elements, compute 10 rows, send the last batch of 2
        expected = 5 * su + 10.0 + 2 * su
        assert rec.t_complete == pytest.approx(expected, rel=1e-12)
        assert rec.feasible
        assert rec.rows_received_at_completion == 10

    def test_link_bound_batches(self):
        # negligible alpha: after the first batch the link is the bottleneck
        world = make_world([((1.0, 0.0), (0.0, 0.0), 1e-9, math.inf)])
        rec, _ = run_deterministic(world, [10], p=10, m=5, batch_size=4)
        su = send_per_row(1.0)
        expected = 5 * su + 4e-9 + 10 * su
        assert rec.t_complete == pytest.approx(expected, rel=1e-12)

    def test_single_batch(self):
        world = make_world([((1.0, 0.0), (0.0, 0.0), 0.5, math.inf)])
        rec, _ = run_deterministic(world, [10], p=10, m=5, batch_size=10)
        su = send_per_row(1.0)
        expected = 5 * su + 5.0 + 10 * su
        assert rec.t_complete == pytest.approx(expected, rel=1e-12)
        assert len(rec.receipt_log) == 1

    def test_straggler_multiplies_compute_only(self):
        world = make_world([((1.0, 0.0), (0.0, 0.0), 0.1, math.inf)])
        rec, _ = run_deterministic(world, [10], p=10, m=5, batch_size=10,
                                   factors=time_factors(1, 0, True, 10.0))
        su = send_per_row(1.0)
        expected = 5 * su + 11 * 0.1 * 10 + 10 * su
        assert rec.t_complete == pytest.approx(expected, rel=1e-12)

    def test_drifting_worker_sends_from_farther_away(self):
        world = make_world([((10.0, 0.0), (5.0, 0.0), 1.0, math.inf)])
        rec, _ = run_deterministic(world, [10], p=10, m=5, batch_size=10)
        bc = 5 * send_per_row(10.0)
        begin = bc + 10.0
        d_begin = 10.0 + 5.0 * begin
        expected = begin + 10 * send_per_row(d_begin)
        assert rec.t_complete == pytest.approx(expected, rel=1e-12)

        static = make_world([((10.0, 0.0), (0.0, 0.0), 1.0, math.inf)])
        rec_static, _ = run_deterministic(static, [10], p=10, m=5, batch_size=10)
        assert rec.t_complete > rec_static.t_complete


class TestCompletionRule:
    def test_infeasible_total_runs_to_last_arrival(self):
        world = make_world([((1.0, 0.0), (0.0, 0.0), 1.0, math.inf)])
        rec, _ = run_deterministic(world, [9], p=10, m=5, batch_size=4)
        su = send_per_row(1.0)
        expected = 5 * su + 9.0 + 1 * su  # last batch holds one row
        assert not rec.feasible
        assert rec.rows_received_at_completion == 9
        assert len(rec.receipt_log) == 3
        assert rec.t_complete == pytest.approx(expected, rel=1e-12)

    def test_simultaneous_arrivals_keep_lowest_worker(self):
        # two identical deterministic workers finish at the same instant;
        # the tie is broken toward worker 0
        workers = [((3.0, 4.0), (0.0, 0.0), 1e-3, math.inf)] * 2
        world = make_world(workers)
        rec, _ = run_deterministic(world, [10, 10], p=10, m=5, batch_size=10)
        assert rec.rows_received_at_completion == 10
        assert rec.receipt_log.workers.tolist() == [0]

    def test_in_flight_results_dropped_after_completion(self):
        # with full redundancy the task ends at the faster worker's arrival
        world = make_world([
            ((50.0, 0.0), (0.0, 0.0), 2e-4, 1e4),
            ((2.0, 0.0), (0.0, 0.0), 1e-5, 1e5),
        ])

        def one_run(loads):
            rec, _ = run_deterministic(world, loads, p=10, m=5, batch_size=10,
                                       seed=99)
            return rec

        t_w0 = one_run([10, 0]).t_complete
        t_w1 = one_run([0, 10]).t_complete
        both = one_run([10, 10])
        assert both.t_complete == min(t_w0, t_w1)
        assert both.receipt_log.workers.tolist() == [0 if t_w0 < t_w1 else 1]

    def test_receipts_sorted_and_curve_matches(self):
        world = make_world([((1.0, 0.0), (0.0, 0.0), 1.0, math.inf)])
        rec, _ = run_deterministic(world, [10], p=10, m=5, batch_size=4)
        times, rows = rec.receipt_log.arrivals, np.cumsum(rec.receipt_log.rows)
        assert list(rows) == [4, 8, 10]
        assert np.all(np.diff(times) > 0)
        assert times[-1] == rec.t_complete


class TestReceiptLog:
    """The record's receipts: three read-only arrays, read by index, slice or iteration."""

    @staticmethod
    def noisy_task():
        world = make_world([((1.0, 0.0), (0.5, 0.0), 1e-3, 1e3),
                            ((3.0, 4.0), (0.0, -1.0), 2e-3, 2e3)])
        rec, _ = run_task(world, (9, 7), 2, 12, 5, no_straggler(world),
                          RngStream(3).substream("task"), CommConfig(noise_std_db=4.0))
        return rec.receipt_log

    def test_arrays_and_python_triples(self):
        log = self.noisy_task()
        assert (log.workers.dtype, log.rows.dtype, log.arrivals.dtype) == (
            np.int64, np.int64, np.float64)
        assert len(log) == len(log.workers) == len(log.rows) == len(log.arrivals) >= 6
        for i, triple in enumerate(log):
            assert type(triple) is tuple
            assert [type(v) for v in triple] == [int, int, float]
            assert triple == log[i] == (log.workers[i], log.rows[i], log.arrivals[i])
        assert np.all(np.diff(log.arrivals) >= 0)

    def test_negative_and_slice_indexing(self):
        log = self.noisy_task()
        triples = tuple(log)
        assert log[-1] == triples[-1] and log[-len(log)] == triples[0]
        assert log[np.int64(1)] == triples[1]
        with pytest.raises(IndexError):
            log[len(log)]
        for cut in (np.s_[-1:], np.s_[1:4], np.s_[::2], np.s_[5:2]):
            part = log[cut]
            assert type(part) is ReceiptLog
            assert tuple(part) == triples[cut]

    def test_equality_by_value(self):
        log = self.noisy_task()
        triples = tuple(log)
        assert log == self.noisy_task() == ReceiptLog(*map(list, zip(*triples)))
        assert log[:-1] != log and log != log[:-1]
        changed = log.arrivals.copy()
        changed[-1] *= 2
        assert log != ReceiptLog(log.workers, log.rows, changed)
        assert log != triples  # a log equals another log alone

    def test_empty_log_of_a_degenerate_task(self):
        log = run_episode(TINY, lambda w, s: (0, 0), RngStream(4)).tasks[0].receipt_log
        assert type(log) is ReceiptLog
        assert not log and len(log) == 0
        assert log == ReceiptLog()
        assert list(log) == [] and log[-1:] == ReceiptLog()

    def test_arrays_are_read_only(self):
        log = self.noisy_task()
        for a in (log.workers, log.rows, log.arrivals, log[1:].arrivals):
            with pytest.raises(ValueError):
                a[0] = 0

    def test_received_rows_curve_from_the_arrays(self):
        log = self.noisy_task()
        rows = np.cumsum(log.rows)
        np.testing.assert_array_equal(log.arrivals, np.array([a for _, _, a in log]))
        np.testing.assert_array_equal(rows, np.cumsum([r for _, r, _ in log]))
        assert rows[-1] >= 12  # the task is feasible at p = 12

    def test_memory_per_receipt_is_three_array_elements(self):
        """A paper-scale task keeps thousands of receipts without one object each.

        One tuple of a Python int and float per receipt costs ~90 bytes or
        more; the arrays cost 24, plus the record's fixed overhead.
        """
        scenario = preset_scenario("scenario1", seed=0)
        world, victim = sample_world(scenario, RngStream(0).substream("env"))
        loads = hcmm_alloc(scenario.p_rows, world.alpha, world.beta).loads
        terms = episode_terms(
            world, time_factors(scenario.n_workers, victim, False, scenario.straggler_slowdown))

        def task():
            return run_task(world, loads, 1, scenario.p_rows, scenario.m_cols, terms,
                            RngStream(0).substream("task", 0), scenario.comm)

        task()  # first-call caches are not the record's
        gc.collect()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            rec, _ = task()
            gc.collect()
            retained = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert len(rec.receipt_log) > 1000
        assert retained / len(rec.receipt_log) < 40


class TestRunTaskValidation:
    def test_allocation_length_mismatch(self):
        world = make_world([((1.0, 0.0), (0.0, 0.0), 1.0, 1e4)])
        with pytest.raises(ValueError):
            run_deterministic(world, [5, 5], p=10, m=5, batch_size=10)

    def test_load_above_p_rejected(self):
        world = make_world([((1.0, 0.0), (0.0, 0.0), 1.0, 1e4)])
        with pytest.raises(ValueError):
            run_deterministic(world, [11], p=10, m=5, batch_size=10)

    def test_all_zero_loads_record_an_infeasible_zero_time_task(self):
        world = make_world([((1.0, 0.0), (0.0, 0.0), 1.0, 1e4)] * 2)._replace(clock=2.5)
        rec, after = run_task(world, [0, 0], 10, 10, 5, no_straggler(world), RngStream(0),
                              NOISELESS, index=4)
        assert rec == TaskRecord(index=4, dispatch_time=2.5, t_complete=0.0,
                                 receipt_log=ReceiptLog(), rows_received_at_completion=0,
                                 feasible=False, loads=(0, 0))
        assert type(rec.receipt_log) is ReceiptLog and len(rec.receipt_log) == 0
        assert after is world

    def test_episode_records_the_zero_task_run_task_builds(self):
        ep = run_episode(TINY, lambda w, s: (0, 0), RngStream(4))
        world, victim = sample_world(TINY, RngStream(4).substream("env"))
        terms = episode_terms(
            world, time_factors(2, victim, TINY.straggler_enabled, TINY.straggler_slowdown))
        for j, rec in enumerate(ep.tasks):
            want, world = run_task(world, (0, 0), TINY.batch_size, TINY.p_rows, TINY.m_cols,
                                   terms, RngStream(4).substream("task", j), TINY.comm,
                                   index=j)
            assert rec == want

    @pytest.mark.parametrize("rows", [2**46, 2**62, 2**63])
    def test_unallocatable_batch_layout_names_its_settings(self, rows):
        # 512 TiB is past any 47-bit user address space, so calloc refuses it without
        # touching memory; 2^65 bytes is past numpy's index range, its ValueError;
        # a load of 2^63 rows is past int64 itself
        world = make_world([((1.0, 0.0), (0.0, 0.0), 1.0, 1e4)])
        with pytest.raises(ValueError) as err:
            run_task(world, (rows,), 1, rows, 5, no_straggler(world), RngStream(0), NOISELESS,
                     index=3)
        assert str(err.value) == (
            f"task 3: a batch layout of {rows} slots cannot be allocated; it holds one slot "
            f"per batch, each load over the batch size, from scenario.p_rows = {rows} and "
            "scenario.batch_size = 1"
        )

    def test_unallocatable_batch_layout_counts_its_slots_past_int64(self):
        # three loads of 2^62 + 2^61 rows: 9 x 2^61 slots, a total that wraps in int64
        rows = 2**62 + 2**61
        world = make_world([((1.0, 0.0), (0.0, 0.0), 1.0, 1e4)] * 3)
        with pytest.raises(ValueError, match=f"^task 0: a batch layout of {3 * rows} slots "):
            run_task(world, (rows,) * 3, 1, rows, 5, no_straggler(world), RngStream(0), NOISELESS)

    def test_zero_load_worker_draws_nothing(self):
        # worker 1 idle: its arrival pattern must not disturb worker 0
        w0 = ((1.0, 0.0), (0.0, 0.0), 1e-4, 1e4)
        w1 = ((9.0, 2.0), (1.0, 0.0), 2e-4, 5e3)
        solo, _ = run_deterministic(make_world([w0]), [10], p=10, m=5,
                                    batch_size=4, seed=3)
        duo, _ = run_deterministic(make_world([w0, w1]), [10, 0], p=10, m=5,
                                   batch_size=4, seed=3)
        assert duo.t_complete == solo.t_complete


class TestWorldAdvance:
    def test_clock_and_positions_move_by_completion_time(self):
        world = make_world([((1.0, 0.0), (2.0, -1.0), 1.0, math.inf)])
        rec, after = run_deterministic(world, [10], p=10, m=5, batch_size=10)
        t = rec.t_complete
        assert after.clock == t
        assert after.pos.tolist() == [[0.0, 0.0], [1.0 + 2.0 * t, -1.0 * t]]
        assert after.vel.tolist() == [[0.0, 0.0], [2.0, -1.0]]
        assert after.alpha is world.alpha and after.beta is world.beta

    def test_input_world_left_unchanged(self):
        world = make_world([
            ((5.0, 1.0), (0.5, -0.2), 1e-4, 1e4),
            ((-8.0, 3.0), (1.0, 0.1), 2e-4, 5e3),
        ], master_vel=(0.3, 0.4))
        before = [a.copy() for a in world_arrays(world)]
        _, after = run_deterministic(world, [7, 6], p=10, m=5, batch_size=3, seed=21)
        for a, b in zip(world_arrays(world), before):
            np.testing.assert_array_equal(a, b)
        assert world.clock == 0.0 and after.pos is not world.pos

    def test_repeat_run_is_bitwise_identical(self):
        world = make_world([
            ((5.0, 1.0), (0.5, -0.2), 1e-4, 1e4),
            ((-8.0, 3.0), (1.0, 0.1), 2e-4, 5e3),
        ])
        a, _ = run_deterministic(world, [7, 6], p=10, m=5, batch_size=3, seed=21)
        b, _ = run_deterministic(world, [7, 6], p=10, m=5, batch_size=3, seed=21)
        assert a.t_complete == b.t_complete
        assert a.receipt_log == b.receipt_log


class TestWorkerNoise:
    def test_task_builds_no_generator_after_warm_up(self, monkeypatch):
        world, _ = sample_world(ScenarioConfig(n_workers=5), RngStream(3).substream("env"))

        def task(j):
            run_task(world, [4] * 5, 12, 12, 6, no_straggler(world),
                     RngStream(3).substream("task", j), CommConfig())

        task(0)  # builds the one re-keyed generator
        built = []
        philox = np.random.Philox
        monkeypatch.setattr(np.random, "Philox", lambda *args: built.append(args) or philox(*args))
        task(1)
        assert built == []


TINY = ScenarioConfig(name="tiny", n_workers=2, p_rows=8, m_cols=6, k_tasks=2,
                      beta_range=(1.0e3, 2.0e3), batch_size=3)


def full_loads(world, states):
    return (8, 8)


class TestSampleWorld:
    def test_draws_respect_ranges(self):
        world, victim = sample_world(TINY, RngStream(11).substream("env"))
        assert world.n_workers == 2
        assert 0 <= victim < 2
        assert world.pos.shape == world.vel.shape == (3, 2)
        assert ((1.0e3 <= world.beta) & (world.beta <= 2.0e3)).all()
        assert (np.abs(world.pos) <= 100.0).all()
        assert (np.abs(world.vel) <= 10.0).all()
        assert world.alpha.tolist() == [1.0 / b for b in world.beta]
        assert world.clock == 0.0

    def test_same_stream_same_world(self):
        w1, v1 = sample_world(TINY, RngStream(11).substream("env"))
        w2, v2 = sample_world(TINY, RngStream(11).substream("env"))
        assert v1 == v2
        for a, b in zip(world_arrays(w1), world_arrays(w2)):
            np.testing.assert_array_equal(a, b)


class TestStates:
    def test_layout_own_entries_first(self):
        world = make_world(
            [((3.0, 4.0), (1.0, 2.0), 1e-3, 1e3), ((6.0, 8.0), (-1.0, 0.0), 1e-3, 1e3)],
            master_vel=(0.5, -0.5),
        )
        assert build_state(world, (1.0, 1.0)).tolist() == [
            [5.0, 10.0, 1.0, 2.0, -1.0, 0.0, 0.5, -0.5],
            [10.0, 5.0, -1.0, 0.0, 1.0, 2.0, 0.5, -0.5],
        ]

    def test_rows_list_own_worker_then_the_others_in_order(self):
        # at unit scales the observation is the raw layout, bit for bit
        world, _ = sample_world(ScenarioConfig(n_workers=5), RngStream(3).substream("env"))
        states = build_state(world, (1.0, 1.0))
        assert states.shape == (5, 17)
        (mx, my), *pos = world.pos.tolist()
        master_vel, *vel = world.vel.tolist()
        for i in range(5):
            rows = [i] + [j for j in range(5) if j != i]
            want = [math.hypot(pos[j][0] - mx, pos[j][1] - my) for j in rows]
            want += [v for j in rows for v in vel[j]] + master_vel
            assert states[i].tolist() == want

    def test_scales_from_ranges(self):
        d_scale, v_scale = state_scales(TINY)
        assert d_scale == pytest.approx(100.0 * math.sqrt(2.0))
        assert v_scale == 10.0

    def test_distances_and_velocities_divided_by_their_scales(self):
        world, _ = sample_world(ScenarioConfig(n_workers=5), RngStream(3).substream("env"))
        raw = build_state(world, (1.0, 1.0))
        scaled = build_state(world, (2.0, 4.0))
        assert scaled.shape == (5, state_dim(5))
        assert np.array_equal(scaled[:, :5], raw[:, :5] / 2.0)
        assert np.array_equal(scaled[:, 5:], raw[:, 5:] / 4.0)

    def test_episode_observes_the_scenario_scales(self):
        ep = run_episode(TINY, full_loads, RngStream(4))
        world, _ = sample_world(TINY, RngStream(4).substream("env"))
        assert np.array_equal(ep.states[0], build_state(world, state_scales(TINY)))


class TestReward:
    """reward reads the feasibility run_task recorded, never the loads."""

    WORLD = make_world([((1.0, 0.0), (0.0, 0.0), 1e-3, 1e4)] * 2)

    def test_feasible_is_negative_time(self):
        rec, _ = run_deterministic(self.WORLD, (4, 5), p=8, m=5, batch_size=8)
        assert rec.feasible and rec.t_complete > 0
        assert reward(rec) == -rec.t_complete

    def test_short_allocation_penalized(self):
        rec, _ = run_deterministic(self.WORLD, (4, 3), p=8, m=5, batch_size=8)
        assert not rec.feasible and rec.t_complete > 0
        assert reward(rec) == -rec.t_complete - 200.0

    def test_boundary_lt_spares_exact_cover(self):
        rec, _ = run_deterministic(self.WORLD, (4, 4), p=8, m=5, batch_size=8)
        assert rec.feasible
        assert reward(rec) == -rec.t_complete

    def test_custom_penalty(self):
        ep = run_episode(TINY, lambda w, s: (0, 0), RngStream(4), penalty=7.0)
        zero = ep.tasks[0]
        assert (zero.t_complete, zero.feasible) == (0.0, False)
        assert reward(zero, c=7.0) == -7.0
        assert ep.rewards == (-7.0, -7.0)

    def test_record_not_loads_decides(self):
        rec, _ = run_deterministic(self.WORLD, (4, 5), p=8, m=5, batch_size=8)
        assert reward(replace(rec, feasible=False), c=3.0) == -rec.t_complete - 3.0


class TestRunEpisode:
    def test_reproducible(self):
        e1 = run_episode(TINY, full_loads, RngStream(4))
        e2 = run_episode(TINY, full_loads, RngStream(4))
        assert e1.total_time == e2.total_time
        assert e1.rewards == e2.rewards
        assert e1.betas == e2.betas

    def test_straggler_factors_built_once_per_episode(self, monkeypatch):
        built = []
        monkeypatch.setattr(simcore, "time_factors",
                            lambda *args: built.append(args) or time_factors(*args))
        ep = run_episode(replace(TINY, k_tasks=4, straggler_enabled=True), full_loads,
                         RngStream(4))
        assert built == [(2, ep.victim, True, TINY.straggler_slowdown)]

    def test_shapes_and_bookkeeping(self):
        ep = run_episode(TINY, full_loads, RngStream(4))
        assert len(ep.tasks) == 2
        assert ep.states[0].shape == (2, 3 * 2 + 2)
        assert [t.loads for t in ep.tasks] == [(8, 8), (8, 8)]
        assert ep.infeasible_count == 0
        assert ep.total_time == sum(t.t_complete for t in ep.tasks)
        assert [t.dispatch_time for t in ep.tasks] == [0.0, ep.tasks[0].t_complete]

    def test_straggler_pairing_shares_environment(self):
        off = run_episode(replace(TINY, straggler_enabled=False), full_loads, RngStream(4))
        on = run_episode(replace(TINY, straggler_enabled=True), full_loads, RngStream(4))
        assert on.betas == off.betas
        assert on.victim == off.victim
        assert on.total_time > off.total_time

    def test_out_of_range_loads_rejected_naming_the_task(self):
        with pytest.raises(ValueError, match=r"^task 0: loads must be non-negative integers, "
                                             r"got \(9, -1\)$"):
            run_episode(TINY, lambda w, s: (9, -1), RngStream(4))
        with pytest.raises(ValueError, match=r"^task 1: loads may not exceed p=8, got \(9, 0\)$"):
            run_episode(TINY, lambda w, s: (8.6, 0) if w.clock > 0 else (4, 4), RngStream(4))

    @pytest.mark.parametrize("per_episode", [True, False])
    def test_a_baselines_loads_are_checked_once_per_episode(self, monkeypatch, per_episode):
        # a baseline's loads are checked and laid out at task 0 and serve every task;
        # a per-task allocator's are checked in each task, by the same function
        checked = []
        check = simcore.check_loads
        monkeypatch.setattr(simcore, "check_loads",
                            lambda *args: checked.append(args[3]) or check(*args))

        def allocator(world, states):
            return (5.0, 4)

        allocator.per_episode = per_episode
        ep = run_episode(replace(TINY, k_tasks=4), allocator, RngStream(4))
        assert checked == ([0] if per_episode else [0, 1, 2, 3])
        assert [t.loads for t in ep.tasks] == [(5, 4)] * 4
        monkeypatch.undo()
        allocator.per_episode = not per_episode
        assert run_episode(replace(TINY, k_tasks=4), allocator, RngStream(4)).tasks == ep.tasks

    def test_a_baselines_load_above_p_names_task_0_and_p(self):
        def allocator(world, states):
            return (9, 0)

        allocator.per_episode = True
        with pytest.raises(ValueError, match=r"^task 0: loads may not exceed p=8, got \(9, 0\)$"):
            run_episode(TINY, allocator, RngStream(4))

    def test_raw_loads_rounded_to_nearest(self):
        ep = run_episode(TINY, lambda w, s: (3.4999, 4.5), RngStream(4))
        assert ep.tasks[0].loads == (3, 4)  # halves round to even

    def test_non_finite_load_names_task_and_values(self):
        def allocator(world, states):
            return (4.0, math.nan) if world.clock > 0 else (4.0, 4.0)

        with pytest.raises(ValueError, match=r"task 1: .*non-finite.*\[4\.0, nan\]") as err:
            run_episode(TINY, allocator, RngStream(4))
        assert (err.value.task, err.value.worker) == (1, 1)

    @pytest.mark.parametrize("container", [list, np.array])
    def test_one_output_changed_in_place_is_read_on_every_task(self, container):
        scenario = replace(TINY, k_tasks=4)
        plans = [(5.0, 4), (8, 8), (7.5, 0.4), (2.6, 6)]  # a float array when held as one
        out = container(plans[0])
        seen = []

        def allocator(world, states):
            out[:] = plans[len(seen)]
            seen.append(world.clock)
            return out

        ep = run_episode(scenario, allocator, RngStream(4))
        assert [t.loads for t in ep.tasks] == [(5, 4), (8, 8), (8, 0), (3, 6)]

    @pytest.mark.parametrize("scheme, allocator", [
        ("uniform", None), ("load-balanced", None), ("hcmm", None),
        ("rounded", lambda w, s: (7.5, 0.4)),
    ])
    def test_fresh_equal_tuples_give_the_records_of_one_shared_tuple(self, scheme, allocator):
        scenario = TINY if allocator else replace(preset_scenario("desk"), k_tasks=6)
        shared = allocator or experiments.make_allocator(scheme, scenario)
        inner = allocator or experiments.make_allocator(scheme, scenario)
        shared.per_episode = True  # as make_allocator marks its baselines

        def fresh(world, states):
            return tuple(list(inner(world, states)))  # equal, but a new tuple each task

        scenario = replace(scenario, straggler_enabled=True)
        a = run_episode(scenario, shared, RngStream(11))
        b = run_episode(scenario, fresh, RngStream(11))
        assert all(t.loads is a.tasks[0].loads for t in a.tasks)  # read once, then reused
        assert len({id(t.loads) for t in b.tasks}) == len(b.tasks)
        for x, y in zip(a.tasks, b.tasks, strict=True):
            assert (x.loads, x.feasible) == (y.loads, y.feasible)
            assert x.receipt_log == y.receipt_log
            assert (x.t_complete, x.rows_received_at_completion) == (
                y.t_complete, y.rows_received_at_completion)
        assert a.rewards == b.rewards
        assert a.total_time == b.total_time
        if allocator:
            assert all(t.loads == (8, 0) for t in a.tasks)  # rounded once, then reused

    @pytest.mark.parametrize("scheme", ["uniform", "load-balanced", "hcmm"])
    def test_per_episode_allocator_is_called_once_per_episode(self, scheme):
        scenario = preset_scenario("desk")
        inner = experiments.make_allocator(scheme, scenario)
        worlds = []

        def counted(world, states):
            assert states is None
            worlds.append(world)
            return inner(world, states)

        counted.per_episode = True
        ep = run_episode(replace(scenario, straggler_enabled=True), counted, RngStream(11))
        assert [w.clock for w in worlds] == [0.0]  # once, on task 0's world
        assert len(ep.tasks) == scenario.k_tasks
        assert all(t.loads is ep.tasks[0].loads for t in ep.tasks)
        assert ep.tasks[0].loads == tuple(inner(worlds[0], None))

    def test_same_tuple_from_a_state_reading_allocator_is_asked_every_task(self):
        scenario = replace(TINY, k_tasks=4)
        out = (5, 4)
        calls = []

        def counted(world, states):
            calls.append(states.shape)
            return out  # the very same tuple object each task

        ep = run_episode(scenario, counted, RngStream(4))
        assert calls == [(2, 3 * 2 + 2)] * scenario.k_tasks
        assert len(ep.states) == scenario.k_tasks
        assert [t.loads for t in ep.tasks] == [(5, 4)] * scenario.k_tasks

    def test_states_built_once_per_task_for_marl(self, monkeypatch):
        calls = []

        def counted(world, scales, like=None):
            calls.append((world, scales, like))
            return build_state(world, scales, like=like)

        monkeypatch.setattr(simcore, "build_state", counted)
        monkeypatch.setattr(marl, "build_state", counted)
        agents = marl.make_agents(2, RngStream(9), hidden=(4,))
        allocator = experiments.make_allocator("marl", TINY, agents=agents)
        ep = run_episode(TINY, allocator, RngStream(4))
        assert len(calls) == TINY.k_tasks
        previous = None
        for states, (world, scales, like), task in zip(ep.states, calls, ep.tasks):
            assert world.clock == task.dispatch_time
            assert scales == state_scales(TINY)
            assert like is previous  # each task after the first copies the last one's velocities
            assert states.shape == (2, state_dim(2))
            assert states.tobytes() == build_state(world, scales).tobytes()
            previous = states

    @pytest.mark.parametrize("batch_size", ["p", "scenario"])
    @pytest.mark.parametrize("scheme", ["uniform", "load-balanced", "hcmm"])
    def test_baselines_build_no_states_and_run_as_a_plain_callable(self, scheme, batch_size):
        scenario = preset_scenario("desk")
        blind = experiments.make_allocator(scheme, scenario)
        assert blind.per_episode is True
        scenario = replace(scenario, straggler_enabled=True)
        if batch_size == "p":  # one batch per worker, as evaluate_scheme runs a baseline
            scenario = replace(scenario, batch_size=scenario.p_rows)
        ep = run_episode(scenario, blind, RngStream(11))
        assert ep.states == ()
        inner = experiments.make_allocator(scheme, scenario)
        ref = run_episode(scenario, lambda w, s: inner(w, s), RngStream(11))
        assert len(ref.states) == scenario.k_tasks
        assert ep.tasks == ref.tasks
        assert ep.rewards == ref.rewards
        assert ep.total_time == ref.total_time

    def test_policy_episode_records_the_state_of_each_dispatch_world(self):
        scenario = preset_scenario("desk")
        agents = marl.make_agents(scenario.n_workers, RngStream(9), hidden=(4,))
        policy = marl.policy_allocator(agents, scenario)
        assert not hasattr(policy, "per_episode")
        ep = run_episode(scenario, policy, RngStream(11))
        worlds = []
        inner = marl.policy_allocator(agents, scenario)
        ref = run_episode(scenario, lambda w, s: (worlds.append(w), inner(w, s))[1],
                          RngStream(11))
        assert ep.tasks == ref.tasks
        assert len(ep.states) == len(worlds) == scenario.k_tasks
        for states, world, task in zip(ep.states, worlds, ep.tasks):
            assert world.clock == task.dispatch_time
            assert np.array_equal(states, build_state(world, state_scales(scenario)))

    def test_link_reached_through_a_positional_wrapper(self, monkeypatch):
        # perfbench's tracer replaces simcore.channel_capacity with traced(*args)
        plain = run_episode(TINY, full_loads, RngStream(4))
        calls = []
        capacity = simcore.channel_capacity

        def positional(*args):
            calls.append(len(args))
            return capacity(*args)

        monkeypatch.setattr(simcore, "channel_capacity", positional)
        wrapped = run_episode(TINY, full_loads, RngStream(4))
        assert calls and set(calls) == {3}
        assert wrapped.tasks == plain.tasks

    def test_worlds_left_unchanged(self):
        seen = []

        def allocator(world, states):
            seen.append((world, [a.copy() for a in world_arrays(world)]))
            return (5, 4)

        ep = run_episode(TINY, allocator, RngStream(4))
        assert [w.clock for w, _ in seen] == [t.dispatch_time for t in ep.tasks]
        for world, before in seen:
            for a, b in zip(world_arrays(world), before):
                np.testing.assert_array_equal(a, b)

    def test_all_zero_allocation_counts_penalty_only(self):
        ep = run_episode(TINY, lambda w, s: (0, 0), RngStream(4))
        assert ep.total_time == 0.0
        assert ep.infeasible_count == 2
        assert ep.rewards == (-200.0, -200.0)
        assert ep.tasks[0].receipt_log == ReceiptLog()

    def test_infeasible_allocation_penalized_on_top_of_time(self):
        ep = run_episode(TINY, lambda w, s: (4, 3), RngStream(4))
        assert not ep.tasks[0].feasible
        t0 = ep.tasks[0].t_complete
        assert t0 > 0
        assert ep.rewards[0] == -t0 - 200.0

    def test_single_batch_override_matches_full_width_batches(self):
        # batch size p and a batch size equal to the loads both send one batch per worker
        a = run_episode(replace(TINY, batch_size=TINY.p_rows), full_loads, RngStream(4))
        b = run_episode(replace(TINY, batch_size=8), full_loads, RngStream(4))
        assert a.total_time == b.total_time
        assert a.rewards == b.rewards

    @pytest.mark.parametrize("straggler", [False, True])
    @pytest.mark.parametrize("batch_size", [1, 10, 40])  # 1, p / 4 and p: one batch
    def test_receipts_decode_every_feasible_task(self, batch_size, straggler):
        """The receipt log names coded rows from which A x is recovered.

        Worker i's load is the first l_i rows of its block [i p, (i+1) p) of
        G, and its k-th receipt continues the block where receipt k-1
        stopped.  The last task is infeasible and is skipped.
        """
        scenario = ScenarioConfig(name="coded", n_workers=3, p_rows=40, m_cols=7, k_tasks=5,
                                  beta_range=(1.0e3, 2.0e3), comm=CommConfig(noise_std_db=4.0))
        p, n = scenario.p_rows, scenario.n_workers
        plans = iter([(40, 40, 40), (20, 15, 10), (30, 0, 25), (13, 14, 13), (10, 10, 10)])
        ep = run_episode(replace(scenario, straggler_enabled=straggler, batch_size=batch_size),
                         lambda world, states: next(plans), RngStream(6))
        gen = np.random.default_rng(6)
        g = generate_encoding_matrix(p, n, RngStream(6))
        a = gen.standard_normal((p, scenario.m_cols))
        a_hat = encode(g, a)
        assert [t.feasible for t in ep.tasks] == [True] * 4 + [False]
        for task in ep.tasks[:4]:
            x = gen.standard_normal(scenario.m_cols)
            next_row = [i * p for i in range(n)]
            idx = []
            log = task.receipt_log
            for worker, rows in zip(log.workers.tolist(), log.rows.tolist()):
                idx.extend(range(next_row[worker], next_row[worker] + rows))
                next_row[worker] += rows
            assert all(next_row[i] <= i * p + task.loads[i] for i in range(n))
            assert len(idx) == task.rows_received_at_completion >= p
            np.testing.assert_allclose(decode(g[idx, :], a_hat[idx, :] @ x), a @ x,
                                       rtol=1e-8, atol=1e-9)

    def test_json_line_round_trips(self):
        ep = run_episode(TINY, full_loads, RngStream(4))
        line = episode_to_json(ep)
        assert line == episode_to_json(ep)
        doc = json.loads(line)
        assert doc["total_time_s"] == ep.total_time
        assert doc["victim"] == ep.victim
        assert len(doc["tasks"]) == 2
        assert doc["tasks"][0]["loads"] == [8, 8]
        assert doc["tasks"][0].keys() == {
            "index", "t_complete_s", "loads", "rows_at_completion", "feasible"}
        # a reward depends on the penalty, so the line leaves it to the reader
        assert '"rewards"' not in line


class TestEpisodeEnv:
    """An episode's env, derived once, runs the episode as one derived inside it."""

    @pytest.mark.parametrize("batch_size", [1, 3, 8])  # several batches, and one at p = 8
    @pytest.mark.parametrize("per_episode", [False, True])
    def test_a_given_env_runs_the_episode_bit_for_bit(self, batch_size, per_episode):
        scenario = replace(TINY, batch_size=batch_size, straggler_enabled=True)
        if per_episode:
            allocator = experiments.make_allocator("hcmm", scenario)
        else:
            allocator = lambda world, states: (8, 4) if world.clock == 0 else (5, 3)
        rng = RngStream(4).substream("episode", 2)
        env = episode_env(scenario, rng)
        given = run_episode(scenario, allocator, rng, env=env)
        assert episode_fields(given) == episode_fields(run_episode(scenario, allocator, rng))
        # a second run of the same env, as the next scheme of a comparison makes
        again = run_episode(scenario, allocator, rng, env=env)
        assert episode_fields(again) == episode_fields(given)

    @pytest.mark.parametrize("batch_size", [1, 8])
    def test_env_holds_its_draws_read_only(self, batch_size):
        scenario = replace(TINY, batch_size=batch_size)
        rng = RngStream(4).substream("episode", 0)
        env = episode_env(scenario, rng)
        world, victim = sample_world(scenario, rng.substream("env"))
        assert [a.tobytes() for a in world_arrays(env.world)] == [
            a.tobytes() for a in world_arrays(world)]
        assert env.victim == victim and (env.seed, env.stream) == (rng.seed, rng.stream)
        # one batch per worker at p: each task's draws; below it, the workers' stream ids
        draws = env.noise if batch_size == 8 else (env.ids,)
        assert (env.ids is None) == (batch_size == 8) and (env.noise is None) == (batch_size < 8)
        for a in (*world_arrays(env.world), *env.terms, *draws):
            assert not a.flags.writeable
        assert all(a.shape == (TINY.k_tasks, TINY.n_workers) for a in draws)

    def test_an_env_of_another_stream_or_scenario_is_refused(self):
        rng = RngStream(4).substream("episode", 0)
        env = episode_env(TINY, rng)
        for other in (RngStream(4).substream("episode", 1), RngStream(5).substream("episode", 0)):
            with pytest.raises(ValueError, match=r"env was derived from RngStream\(seed=4, "):
                run_episode(TINY, full_loads, other, env=env)
        with pytest.raises(ValueError, match="its straggler_enabled, batch_size differ"):
            run_episode(replace(TINY, batch_size=8, straggler_enabled=True), full_loads, rng,
                        env=env)
        # an equal scenario built anew is the same scenario
        assert episode_fields(run_episode(replace(TINY), full_loads, rng, env=env)) == \
            episode_fields(run_episode(TINY, full_loads, rng))

    @pytest.mark.parametrize("per_episode", [False, True])
    @pytest.mark.parametrize("name", ["pos", "vel", "alpha", "beta"])
    def test_an_allocator_cannot_write_into_the_world(self, name, per_episode):
        # so one scheme cannot change the episode the next scheme runs on the same env
        rng = RngStream(4).substream("episode", 0)
        env = episode_env(TINY, rng)

        def allocator(world, states):
            getattr(world, name)[0] += 1.0
            return (8, 8)

        allocator.per_episode = per_episode
        with pytest.raises(ValueError, match="read-only"):
            run_episode(TINY, allocator, rng, env=env)
        with pytest.raises(ValueError, match="read-only"):
            run_episode(TINY, allocator, rng)
        assert episode_fields(run_episode(TINY, full_loads, rng, env=env)) == \
            episode_fields(run_episode(TINY, full_loads, rng))
