"""The vectorized fixed-point engine against the scalar oracle, plus properties.

run_task solves each worker's link recurrence as a fixed point over a
padded (workers x batches) layout; scalar_oracle.run_task_scalar walks the
same recurrence batch by batch.  Both draw the same random numbers, so
they agree up to floating-point rounding: completion times to 1e-12
relative, and rows, feasibility and kept receipts exactly.
"""

import hashlib
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from macc import simcore
from macc.coding import plan_batches
from macc.config import ScenarioConfig, preset_scenario
from macc.envmodels import CommConfig, channel_capacity, link_gain, time_factors
from macc.experiments import sweep_batch
from macc.numerics import RngStream
from macc.simcore import WorldState, _dist2, _guess_cols, _send_time, run_task, sample_world

from scalar_oracle import capacity, run_task_scalar

RTOL = 1.0e-12
NO_STRAGGLER = (False, 0, 10.0)  # the oracle's (enabled, victim, slowdown_factor)
DESK_P = preset_scenario("desk").p_rows


def factors_of(n, straggler):
    """run_task's time factors of n workers under the oracle's straggler rule."""
    enabled, victim, slowdown_factor = straggler
    return time_factors(n, victim, enabled, slowdown_factor)


def run_both(world, loads, p, m, batch_size, straggler, cfg, seed):
    args = (world, loads, batch_size, p, m)
    got, _ = run_task(*args, factors_of(world.n_workers, straggler),
                      RngStream(seed).substream("task"), cfg)
    want = run_task_scalar(*args, straggler, RngStream(seed).substream("task"), cfg)
    return got, want


def assert_matches_oracle(got, want):
    assert got.t_complete == pytest.approx(want.t_complete, rel=RTOL, abs=0.0)
    assert got.feasible == want.feasible
    assert got.rows_received_at_completion == want.rows_received_at_completion
    assert [r[:2] for r in got.receipt_log] == [r[:2] for r in want.receipt_log]
    np.testing.assert_allclose(
        [r[2] for r in got.receipt_log], [r[2] for r in want.receipt_log], rtol=RTOL, atol=0.0
    )


def random_loads(seed, n, p):
    """Feasible, infeasible, or with an idle worker, by seed; never all zero."""
    gen = np.random.default_rng(seed)
    kind = seed % 3
    if kind == 1:  # infeasible: the loads cannot reach p
        loads = gen.integers(0, p // (n + 1) + 1, n)
    else:
        loads = gen.integers(0, p + 1, n)
        if kind == 2:
            loads[gen.integers(n)] = 0
    if not loads.any():
        loads[0] = 1
    return [int(l) for l in loads]


class TestAgainstScalarOracle:
    @pytest.mark.parametrize("seed", range(12))
    @pytest.mark.parametrize("batch", ["one", "quarter", "single"])
    @pytest.mark.parametrize("straggling", [False, True])
    @pytest.mark.parametrize("noise_std_db", [1.0, 0.0])
    def test_random_worlds(self, seed, batch, straggling, noise_std_db):
        n = 2 + seed % 4
        scenario = ScenarioConfig(n_workers=n, p_rows=120, m_cols=80,
                                  beta_range=(1.0e3, 1.0e5))
        cfg = CommConfig(noise_std_db=noise_std_db)
        world, victim = sample_world(scenario, RngStream(seed).substream("env"))
        b = {"one": 1, "quarter": scenario.p_rows // 4, "single": scenario.p_rows}[batch]
        loads = random_loads(seed, n, scenario.p_rows)
        got, want = run_both(world, loads, scenario.p_rows, scenario.m_cols, b,
                             (straggling, victim, 10.0), cfg, seed)
        assert got.feasible == (sum(loads) >= scenario.p_rows)
        assert_matches_oracle(got, want)

    def test_identical_workers_tie_by_worker_then_batch(self):
        # noiseless, tail-free and co-located: every batch of the four
        # workers arrives at the same instant as its peers
        world = WorldState(
            pos=np.array([[0.0, 0.0]] + [[3.0, 4.0]] * 4),
            vel=np.array([[0.0, 0.0]] + [[1.0, -1.0]] * 4),
            alpha=np.full(4, 1.0e-4),
            beta=np.full(4, math.inf),
        )
        got, want = run_both(world, [12] * 4, 40, 5, 1, NO_STRAGGLER,
                             CommConfig(noise_std_db=0.0), 0)
        assert [w for w, _, _ in got.receipt_log] == [0, 1, 2, 3] * 10
        assert_matches_oracle(got, want)

    def test_zero_load_workers_and_infeasible_total(self):
        world, _ = sample_world(ScenarioConfig(n_workers=4), RngStream(5).substream("env"))
        # batches of 7 rows, then one batch per worker; an infeasible task keeps every batch
        for batch_size, batches in ((7, 5 + 6), (200, 2)):
            got, want = run_both(world, [0, 30, 0, 40], 200, 50, batch_size, NO_STRAGGLER,
                                 CommConfig(), 5)
            assert not got.feasible and got.rows_received_at_completion == 70
            assert len(got.receipt_log) == batches
            assert {w for w, _, _ in got.receipt_log} == {1, 3}
            assert_matches_oracle(got, want)

    def test_one_batch_tasks_skip_the_fixed_point(self, monkeypatch):
        def unused(*args):
            raise AssertionError("a one-batch task entered the batch solve")

        monkeypatch.setattr(simcore, "_scan", unused)
        monkeypatch.setattr(simcore, "_fixed_point", unused)
        world, victim = sample_world(ScenarioConfig(n_workers=4), RngStream(3).substream("env"))
        # feasible and infeasible at batch size p, and a batch size no load exceeds
        for loads, p, batch_size in (([50, 60, 0, 70], 120, 120), ([10, 0, 0, 20], 200, 200),
                                     ([50, 60, 0, 70], 120, 70)):
            got, want = run_both(world, loads, p, 50, batch_size, (True, victim, 10.0),
                                 CommConfig(), 3)
            assert len(got.receipt_log) <= 3
            assert_matches_oracle(got, want)

    def test_one_batch_tasks_plan_no_batches_and_derive_one_substream(self, monkeypatch):
        calls = {"plan_batches": 0, "substream": 0}
        plan_batches, substream = simcore.plan_batches, RngStream.substream

        def counted_plan(*args):
            calls["plan_batches"] += 1
            return plan_batches(*args)

        def counted_substream(self, *tokens):
            calls["substream"] += 1
            return substream(self, *tokens)

        world, victim = sample_world(ScenarioConfig(n_workers=4), RngStream(3).substream("env"))
        task_rng = RngStream(3).substream("task")
        monkeypatch.setattr(simcore, "plan_batches", counted_plan)
        monkeypatch.setattr(RngStream, "substream", counted_substream)
        for loads, batch_size in (([50, 60, 0, 70], 120), ([50, 60, 0, 70], 70)):
            calls.update(plan_batches=0, substream=0)
            run_task(world, loads, batch_size, 120, 50, time_factors(4, victim, True, 10.0),
                     task_rng, CommConfig())
            assert calls["plan_batches"] == 0
            assert calls["substream"] <= 1


# (loads, batch_size, straggler on, noise_std_db) -> (t_complete.hex(), receipts, digest),
# recorded before one-batch tasks built their layout from the loads; see TestPinnedOutputs.
# The one-batch cases, recorded at batch size None, run at batch size p = DESK_P.
PINNED_TASKS = {
    "one batch, every worker loaded": (([60, 50, 70, 40], DESK_P, False, 1.0),
                                       ("0x1.00fddfa07b149p-3", 4, "225f7abe5e5deefb")),
    "one batch, a zero-load worker": (([80, 0, 70, 60], DESK_P, False, 1.0),
                                      ("0x1.1b4c5d8dbe353p-3", 3, "c5fdc37dfecefa35")),
    "one batch, infeasible": (([30, 0, 40, 20], DESK_P, False, 1.0),
                              ("0x1.ab0fe86a5bf20p-4", 3, "3dcc2383a5c0b7ef")),
    "batch size 1": (([60, 50, 70, 40], 1, False, 1.0),
                     ("0x1.86492fd3d2a58p-4", 200, "605a282b7301dadc")),
    "partial last batch": (([60, 50, 70, 40], 7, False, 1.0),
                           ("0x1.9c8f9211e8649p-4", 30, "c8a632b0a0541eb9")),
    "straggler victim loaded": (([60, 50, 70, 40], 10, True, 1.0),
                                ("0x1.28d65217b0207p-3", 20, "3e174a44cc1478fa")),
    "noiseless": (([60, 50, 70, 40], 5, False, 0.0),
                  ("0x1.8c1dc3cf46849p-4", 40, "52a9327afbcfbe99")),
    # recorded before one-batch tasks took their own path on (A,) arrays
    "one batch, straggler victim loaded": (([60, 50, 70, 40], DESK_P, True, 1.0),
                                           ("0x1.11c1ccbd79252p-2", 4, "94ed380b4e806388")),
    "one batch, noiseless": (([60, 50, 70, 40], DESK_P, False, 0.0),
                             ("0x1.106e97d5155bap-3", 4, "7d293e3662a135ce")),
    "one batch through a batch size": (([80, 60, 0, 70], 80, True, 1.0),
                                       ("0x1.3a3598bd251e8p-2", 3, "24a81bc8b2ac3e28")),
}


class TestPinnedOutputs:
    """run_task's outputs bit for bit on the desk preset: a change to the engine's
    layout, draws or gathers must leave every task time, receipt and next world
    exactly as recorded.  The digest is the first 16 hex digits of the sha256 of
    the receipt log's workers, rows and arrivals and the next world's pos, in
    that order, as int64 and float64 bytes."""

    @pytest.mark.parametrize("case", PINNED_TASKS)
    def test_task_matches_recorded_outputs(self, case):
        (loads, batch_size, straggling, noise_std_db), (t_hex, receipts, digest) = PINNED_TASKS[case]
        scenario = preset_scenario("desk")
        world, victim = sample_world(scenario, RngStream(8).substream("env"))
        assert victim == 1  # the straggler case slows a loaded worker
        rec, nxt = run_task(world, loads, batch_size, scenario.p_rows, scenario.m_cols,
                            time_factors(4, victim, straggling, 10.0),
                            RngStream(8).substream("task", 3), CommConfig(noise_std_db=noise_std_db))
        log = rec.receipt_log
        assert rec.t_complete.hex() == t_hex
        assert len(log) == receipts
        h = hashlib.sha256()
        for a, dtype in ((log.workers, np.int64), (log.rows, np.int64),
                         (log.arrivals, np.float64), (nxt.pos, np.float64)):
            assert a.dtype == dtype
            h.update(np.ascontiguousarray(a).tobytes())
        assert h.hexdigest()[:16] == digest


def close_pass_world():
    """A worker that sweeps through the master at 20 m/s, 0.3 m off its path.

    Its distance falls below min_distance_m while it streams, so the clamp
    is active, and the send times change fastest there.
    """
    return WorldState(
        pos=np.array([[0.0, 0.0], [-3.0, 0.3], [40.0, -30.0]]),
        vel=np.array([[0.0, 0.0], [20.0, 0.0], [-2.0, 1.0]]),
        alpha=np.array([1.0e-5, 2.0e-5]),
        beta=np.array([1.0e5, 5.0e4]),
    )


@pytest.fixture
def solved_widths(monkeypatch):
    """The column count of each link solve run_task makes, in order."""
    widths = []
    solve = simcore._fixed_point

    def recording(cpu, *args):
        widths.append(cpu.shape[1])
        return solve(cpu, *args)

    monkeypatch.setattr(simcore, "_fixed_point", recording)
    return widths


@pytest.fixture
def solve_passes(monkeypatch):
    """The link passes of each solve run_task makes, in order, pass 1 included."""
    passes = []
    evaluated = [0]
    dist2, solve = simcore._dist2, simcore._fixed_point

    def counting(*args):
        evaluated[0] += 1
        return dist2(*args)

    def recording(*args):
        before = evaluated[0]
        out = solve(*args)
        passes.append(1 + evaluated[0] - before)
        return out

    monkeypatch.setattr(simcore, "_dist2", counting)
    monkeypatch.setattr(simcore, "_fixed_point", recording)
    return passes


def closing_world():
    """Worker 1 closes on the master at 3000 m/s from 3 km, beside a static worker 0.

    Pass 1 evaluates worker 1's link at its compute finish times, when it is
    still far, so it overstates the send times of its later batches and the
    first guess is short of the batches it really delivers by completion.
    """
    return WorldState(
        pos=np.array([[0.0, 0.0], [3000.0, 0.0], [3000.0, 1.0]]),
        vel=np.array([[0.0, 0.0], [0.0, 0.0], [-3000.0, 0.0]]),
        alpha=np.full(2, 1.0e-6),
        beta=np.full(2, 1.0e6),
    )


class TestTruncatedSolve:
    @pytest.mark.parametrize("seed", range(4))
    def test_one_column_guess_widens_to_the_oracle(self, monkeypatch, solved_widths, seed):
        monkeypatch.setattr(simcore, "_guess_cols", lambda *args: 1)
        world, _ = sample_world(ScenarioConfig(n_workers=3), RngStream(seed).substream("env"))
        got, want = run_both(world, [90, 70, 60], 120, 50, 1, NO_STRAGGLER, CommConfig(), seed)
        assert solved_widths[:3] == [1, 2, 4] and solved_widths[-1] < 90
        assert_matches_oracle(got, want)

    def test_closing_worker_outruns_the_first_guess(self, solved_widths):
        got, want = run_both(closing_world(), [2000, 2000], 2000, 5, 1, NO_STRAGGLER,
                             CommConfig(), 3)
        delivered = sum(1 for w, _, _ in got.receipt_log if w == 1)
        assert len(solved_widths) == 2 and solved_widths[0] < delivered <= solved_widths[1]
        assert_matches_oracle(got, want)

    def test_infeasible_task_keeps_every_batch(self, solved_widths):
        world, _ = sample_world(ScenarioConfig(n_workers=3), RngStream(2).substream("env"))
        got, want = run_both(world, [40, 25, 0], 120, 50, 1, NO_STRAGGLER, CommConfig(), 2)
        assert solved_widths == [40]
        assert not got.feasible and len(got.receipt_log) == 65
        assert_matches_oracle(got, want)

    def test_link_work_at_paper_scale(self, monkeypatch):
        # solving every batch evaluated the link at 2,808,105 distances here
        evaluated = []
        vector_capacity = simcore.channel_capacity

        def counting(d2, gain, cfg):
            evaluated.append(np.size(d2))
            return vector_capacity(d2, gain, cfg)

        monkeypatch.setattr(simcore, "channel_capacity", counting)
        (rec,) = sweep_batch(preset_scenario("scenario1"), "hcmm", [1], 1, 0)[1]
        assert sum(evaluated) <= 0.8 * 2_808_105
        assert rec.total_time == 217.6616366530215

    def test_solves_at_paper_scale_as_recorded(self, solved_widths, solve_passes):
        # recorded when the guess sorted every slot; at b = 1 selection gives the same guess
        for seed in range(10):
            sweep_batch(preset_scenario("scenario1"), "hcmm", [1], 1, seed)
        assert len(solved_widths) == 300 and sum(solved_widths) == 902_166
        assert max(solve_passes) <= 11  # 10 when recorded


def crossing_world():
    """One worker 1.2 km from the master, receding from it at 11.6 km/s.

    Its send times grow as it streams, and at batch size 2 its begins keep
    moving for more than 32 passes.
    """
    beta = np.array([541057.5])
    return WorldState(
        pos=np.array([[892.6, 953.0], [1844.6, 164.9]]),
        vel=np.array([[4974.7, 3682.4], [-2789.2, -4937.4]]),
        alpha=1.0 / beta,
        beta=beta,
    )


class TestPassBound:
    def test_close_pass_matches_oracle(self):
        got, want = run_both(close_pass_world(), [2000, 500], 2000, 5, 1, NO_STRAGGLER,
                             CommConfig(), 3)
        assert_matches_oracle(got, want)

    @pytest.mark.parametrize("seed", [2, 4, 6])
    def test_solves_past_32_passes_match_oracle(self, solved_widths, solve_passes, seed):
        got, want = run_both(crossing_world(), [1342], 1416, 3210, 2, NO_STRAGGLER,
                             CommConfig(noise_std_db=4.0), seed)
        assert max(solve_passes) > 32
        assert all(n <= cols for n, cols in zip(solve_passes, solved_widths))
        assert_matches_oracle(got, want)

    @pytest.mark.parametrize("guess", [1, 2, 3])
    def test_a_solve_takes_at_most_one_pass_per_column(
        self, monkeypatch, solved_widths, solve_passes, guess
    ):
        monkeypatch.setattr(simcore, "_guess_cols", lambda *args: guess)
        got, want = run_both(close_pass_world(), [2000, 500], 2000, 5, 1, NO_STRAGGLER,
                             CommConfig(), 3)
        assert solved_widths[0] == solve_passes[0] == guess  # the first solve stops at its width
        assert all(n <= cols for n, cols in zip(solve_passes, solved_widths))
        assert_matches_oracle(got, want)

    def test_capacity_underflow_raises(self):
        # the link's capacity underflows to 0 mid-stream, so a send time is infinite
        args = (crossing_world(), [1342], 2, 1416, 3210, factors_of(1, NO_STRAGGLER),
                RngStream(3).substream("task"), CommConfig(noise_std_db=4.0))
        with pytest.warns(RuntimeWarning):  # divide by zero, then inf - inf
            with pytest.raises(ValueError, match="task 0: a link's capacity fell to zero"):
                run_task(*args)


# ---------------------------------------------------------------- same bits as before


def four_array_send_time(bits, t, rel, gain, cfg):
    """The send time from separate x and y arrays rel = (rx, ry, rvx, rvy), as
    run_task computed it before the geometry was stacked."""
    rx, ry, rvx, rvy = rel
    dx = rvx * t
    dx += rx
    dx *= dx
    dy = rvy * t
    dy += ry
    dy *= dy
    dx += dy
    return bits / channel_capacity(dx, gain, cfg)


def sorted_guess_cols(arrival, sizes, valid, p):
    """The first solve width as taken before, from a stable sort of every slot."""
    arrival = np.where(valid, arrival, np.inf)
    order = arrival.argsort(axis=None, kind="stable")
    t_first = arrival.flat[order[sizes.ravel()[order].cumsum().searchsorted(p)]]
    return int((arrival <= t_first).sum(axis=1).max() * 1.02) + 4


def padded_layout(gen, b):
    """Random loads in run_task's padded layout at batch size b, with pass-1-like arrivals.

    Each row's arrivals increase, with ties across rows; padding holds
    values the guess must ignore.
    """
    loads = gen.integers(1, 60, gen.integers(1, 6))
    plans = [plan_batches(l, min(b, l)) for l in loads]
    sizes = np.zeros((len(loads), max(plan.count for plan in plans)), dtype=np.int64)
    for r, plan in enumerate(plans):
        sizes[r, : plan.count] = plan.batch_size
        sizes[r, plan.count - 1] = plan.last
    valid = sizes > 0
    arrival = np.where(valid, gen.integers(1, 4, sizes.shape).cumsum(axis=1) * 0.25,
                       gen.uniform(0.0, 1.0, sizes.shape))
    return loads, sizes, valid, arrival


class TestSameBitsAsBefore:
    @pytest.mark.parametrize("seed", range(8))
    def test_stacked_send_time_matches_four_arrays(self, seed):
        gen = np.random.default_rng(seed)
        cfg = CommConfig()
        a, c = 1 + seed % 5, 1 + 3 * seed
        rel = [gen.uniform(-50.0, 50.0, (a, 1)) for _ in range(2)]
        rel += [gen.uniform(-10.0, 10.0, (a, 1)) for _ in range(2)]
        rel[0][0], rel[2][0] = -0.0, -0.0  # signed zeros in rx and rvx
        rel[0][-1], rel[2][-1] = 0.0, -0.0
        r, rv = np.stack(rel[:2]), np.stack(rel[2:])
        gain = link_gain(gen.normal(0.0, 1.0, (a, c + 1)), cfg)
        bits = gen.integers(1, 50, (a, c)) * cfg.bits_per_element
        t = gen.uniform(0.0, 5.0, (a, c))
        # a pass of the fixed point, over (A, C) begin times
        got = _send_time(bits, _dist2(r, rv, t), gain[:, 1:], cfg)
        want = four_array_send_time(bits, t, rel, gain[:, 1:], cfg)
        assert got.tobytes() == want.tobytes()
        # the broadcast at t = 0.0, from r * r alone
        m_bits = 80 * cfg.bits_per_element
        rr = r * r
        got = _send_time(m_bits, rr[0] + rr[1], gain[:, :1], cfg)
        want = four_array_send_time(m_bits, 0.0, rel, gain[:, :1], cfg)
        assert got.tobytes() == want.tobytes()
        assert _dist2(r, rv, 0.0).tobytes() == (rr[0] + rr[1]).tobytes()

    @pytest.mark.parametrize("b", [1, 2, 5, 16])
    def test_selection_guess_never_below_the_sorted_one(self, b):
        gen = np.random.default_rng(b)
        for _ in range(200):
            loads, sizes, valid, arrival = padded_layout(gen, b)
            p = int(gen.integers(1, loads.sum() + 1))
            got = _guess_cols(arrival, valid, p, b, len(loads))
            want = sorted_guess_cols(arrival, sizes, valid, p)
            assert got == want if b == 1 else got >= want

    @pytest.mark.parametrize("enabled", [True, False])
    def test_factor_vector_and_gathers_for_each_victim(self, enabled):
        n = 5
        world, _ = sample_world(ScenarioConfig(n_workers=n), RngStream(2).substream("env"))
        for victim in range(n):
            factors = time_factors(n, victim, enabled, 7.5)
            want = np.array([8.5 if enabled and i == victim else 1.0 for i in range(n)])
            assert factors.dtype == np.float64 and factors.shape == (n,)
            assert factors.tobytes() == want.tobytes()
            assert not factors.flags.writeable
            # all loaded: the vector as given; otherwise a gather
            assert simcore._loaded(world, list(range(n)), factors)[-1] is factors
            for active in ([0, 2, 4], [0, 1, 3], [victim]):
                got = simcore._loaded(world, active, factors)[-1]
                assert got.tobytes() == want[active].tobytes()


# ---------------------------------------------------------------- properties

coords = st.floats(-100.0, 100.0)
speeds = st.floats(-10.0, 10.0)


@st.composite
def tasks(draw, max_workers=4):
    n = draw(st.integers(1, max_workers))
    p = draw(st.integers(1, 60))
    loads = draw(st.lists(st.integers(0, p), min_size=n, max_size=n))
    if not any(loads):
        loads[draw(st.integers(0, n - 1))] = draw(st.integers(1, p))
    beta = np.array(draw(st.lists(st.floats(1.0e3, 1.0e5), min_size=n, max_size=n)))
    # one row per node, the master first: x, y, vx, vy
    kin = np.array([[draw(coords), draw(coords), draw(speeds), draw(speeds)] for _ in range(n + 1)])
    return dict(
        world=WorldState(pos=kin[:, :2], vel=kin[:, 2:], alpha=1.0 / beta, beta=beta),
        loads=loads,
        p=p,
        m=draw(st.integers(1, 50)),
        batch_size=draw(st.one_of(st.just(p), st.integers(1, p))),  # p: one batch per worker
        straggler=(draw(st.booleans()), draw(st.integers(0, n - 1)), 10.0),
        cfg=CommConfig(noise_std_db=draw(st.sampled_from([0.0, 1.0, 4.0]))),
        seed=draw(st.integers(0, 2**32)),
    )


def simulate(task, p=None):
    p = task["p"] if p is None else p
    world = task["world"]
    rec, _ = run_task(world, task["loads"], task["batch_size"], p, task["m"],
                      factors_of(world.n_workers, task["straggler"]),
                      RngStream(task["seed"]).substream("task"), task["cfg"])
    return rec


def all_receipts(task):
    """Every receipt of the task: with p above the total load, nothing completes early."""
    return simulate(task, p=sum(task["loads"]) + 1).receipt_log


class TestProperties:
    @settings(max_examples=60, deadline=None)
    @given(tasks())
    def test_each_workers_arrivals_strictly_increase(self, task):
        log = all_receipts(task)
        assert sum(rows for _, rows, _ in log) == sum(task["loads"])
        for i in set(w for w, _, _ in log):
            times = [t for w, _, t in log if w == i]
            assert all(a < b for a, b in zip(times, times[1:]))

    @settings(max_examples=60, deadline=None)
    @given(tasks())
    def test_completion_is_first_arrival_reaching_p(self, task):
        log = all_receipts(task)
        assert log == tuple(sorted(log, key=lambda r: (r[2], r[0])))
        cum = np.cumsum([rows for _, rows, _ in log])
        rec = simulate(task)
        if rec.feasible:
            cut = int(np.searchsorted(cum, task["p"])) + 1
            assert rec.receipt_log == log[:cut]
        else:
            assert rec.receipt_log == log
        assert rec.t_complete == rec.receipt_log[-1][2]

    @settings(max_examples=60, deadline=None)
    @given(tasks())
    def test_kept_rows_are_the_rows_received(self, task):
        rec = simulate(task)
        kept = sum(rows for _, rows, _ in rec.receipt_log)
        assert kept == rec.rows_received_at_completion
        assert rec.feasible == (sum(task["loads"]) >= task["p"])
        if rec.feasible:
            assert kept >= task["p"]
        else:
            assert kept == sum(task["loads"])

    @settings(max_examples=60, deadline=None)
    @given(tasks(max_workers=1))
    def test_single_worker_single_batch_closed_form(self, task):
        task["batch_size"] = task["p"]
        task["loads"] = [max(task["loads"][0], 1)]
        world, cfg, l = task["world"], task["cfg"], task["loads"][0]
        wrng = RngStream(task["seed"]).substream("task").substream("worker", 0)
        omega = wrng.gen.normal(0.0, cfg.noise_std_db, 2) if cfg.noise_std_db > 0 else [0.0, 0.0]
        u = wrng.gen.random(1)[0]
        enabled, _, slowdown_factor = task["straggler"]
        slow = 1.0 + slowdown_factor if enabled else 1.0

        def distance_at(t):
            (mx, my), (wx, wy) = (world.pos + world.vel * t).tolist()
            return max(math.hypot(wx - mx, wy - my), cfg.min_distance_m)

        broadcast = task["m"] * cfg.bits_per_element / capacity(distance_at(0.0), omega[0], cfg)
        compute = (world.alpha[0] * l - (l / world.beta[0]) * math.log1p(-u)) * slow
        begin = broadcast + compute
        expected = begin + l * cfg.bits_per_element / capacity(distance_at(begin), omega[1], cfg)
        assert simulate(task).t_complete == pytest.approx(expected, rel=RTOL, abs=0.0)
