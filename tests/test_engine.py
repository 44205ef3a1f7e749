"""The vectorized fixed-point engine against the scalar oracle, plus properties.

run_task solves each worker's link recurrence as a fixed point over a
flat worker-major layout, one segment of slots per worker;
scalar_oracle.run_task_scalar walks the same recurrence batch by batch.
Both draw the same random numbers, so they agree up to floating-point
rounding: completion times to 1e-12 relative, and rows, feasibility and
kept receipts exactly.  A column is the k-th slot of every worker.
"""

import hashlib
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from macc import simcore
from macc.allocators import hcmm_alloc
from macc.config import ScenarioConfig, preset_scenario
from macc.envmodels import (CommConfig, channel_capacity, comp_time_with, link_gain,
                            time_factors)
from macc.experiments import sweep_batch
from macc.numerics import RngStream
from macc.simcore import (
    WorldState, _dist2, _scan, _segments, _send_time, episode_terms, run_task, sample_world,
)

from scalar_oracle import capacity, run_task_scalar

RTOL = 1.0e-12
NO_STRAGGLER = (False, 0, 10.0)  # the oracle's (enabled, victim, slowdown_factor)
DESK_P = preset_scenario("desk").p_rows


def terms_of(world, straggler):
    """run_task's episode terms of world under the oracle's straggler rule."""
    enabled, victim, slowdown_factor = straggler
    return episode_terms(world, time_factors(world.n_workers, victim, enabled, slowdown_factor))


def run_both(world, loads, p, m, batch_size, straggler, cfg, seed):
    args = (world, loads, batch_size, p, m)
    got, _ = run_task(*args, terms_of(world, straggler),
                      RngStream(seed).substream("task"), cfg)
    want = run_task_scalar(*args, straggler, RngStream(seed).substream("task"), cfg)
    return got, want


def assert_matches_oracle(got, want):
    assert got.t_complete == pytest.approx(want.t_complete, rel=RTOL, abs=0.0)
    assert got.feasible == want.feasible
    assert got.rows_received_at_completion == want.rows_received_at_completion
    log = got.receipt_log
    assert list(zip(log.workers.tolist(), log.rows.tolist())) == [r[:2] for r in want.receipt_log]
    np.testing.assert_allclose(
        log.arrivals, [r[2] for r in want.receipt_log], rtol=RTOL, atol=0.0
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
        assert got.receipt_log.workers.tolist() == [0, 1, 2, 3] * 10
        assert_matches_oracle(got, want)

    def test_zero_load_workers_and_infeasible_total(self):
        world, _ = sample_world(ScenarioConfig(n_workers=4), RngStream(5).substream("env"))
        # batches of 7 rows, then one batch per worker; an infeasible task keeps every batch
        for batch_size, batches in ((7, 5 + 6), (200, 2)):
            got, want = run_both(world, [0, 30, 0, 40], 200, 50, batch_size, NO_STRAGGLER,
                                 CommConfig(), 5)
            assert not got.feasible and got.rows_received_at_completion == 70
            assert len(got.receipt_log) == batches
            assert set(got.receipt_log.workers.tolist()) == {1, 3}
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

    @pytest.mark.parametrize("seed", range(2))
    def test_zero_load_one_batch_paper_episode(self, seed):
        # a scenario3 episode at b = p whose allocator zeroes worker j % N on task j and
        # gives the others p / 4 rows, or p / 5 on every third task, which is infeasible
        scenario = preset_scenario("scenario3")
        n, p = scenario.n_workers, scenario.p_rows
        scenario = replace(scenario, batch_size=p, straggler_enabled=True)
        worlds = []

        def rotating(world, states):
            j = len(worlds)
            worlds.append(world)
            return [0 if i == j % n else (p // 5 if j % 3 == 0 else p // 4) for i in range(n)]

        ep = simcore.run_episode(scenario, rotating, RngStream(seed))
        task_rng = RngStream(seed).substream("task")
        for j, (rec, world) in enumerate(zip(ep.tasks, worlds)):
            assert rec.loads[j % n] == 0 and rec.feasible == (j % 3 != 0)
            assert j % n not in rec.receipt_log.workers.tolist()
            want = run_task_scalar(world, rec.loads, p, p, scenario.m_cols,
                                   (True, ep.victim, scenario.straggler_slowdown),
                                   task_rng.substream(j), scenario.comm)
            assert_matches_oracle(rec, want)
        assert len(worlds) == scenario.k_tasks

    @pytest.mark.parametrize("seed", range(4))
    def test_compute_bound_victim_beside_busy_links(self, monkeypatch, seed):
        # at paper scale a row takes longer to send than to compute, but the
        # straggler victim computes 11 times slower, slower than it sends
        scenario = preset_scenario("scenario1")
        world, victim = sample_world(scenario, RngStream(seed).substream("env"))
        monkeypatch.setattr(simcore, "_first_extent", FIRST_EXTENTS["the counts"])
        scans = []
        scan = simcore._scan

        def recording(cpu, tau, starts, segments, test=True):
            # each worker's segment scanned alone: does its link stay busy?  Pass 1
            # starts at the counts, so it covers all 1,200 batches
            alone = [scan(cpu[seg], tau[seg], np.zeros(1, dtype=np.int64),
                          [slice(0, seg.stop - seg.start)])[2] for seg in segments]
            out = scan(cpu, tau, starts, segments, test)
            scans.append((test, out[2], alone))
            return out

        monkeypatch.setattr(simcore, "_scan", recording)
        got, want = run_both(world, [400] * 3, 600, scenario.m_cols, 1,
                             (True, victim, scenario.straggler_slowdown), CommConfig(), seed)
        (test, busy, alone), *later = scans
        assert test and not busy and alone == [i != victim for i in range(3)]
        # so every later pass takes the running maximum, untested
        assert later and not any(test for test, _, _ in later)
        assert_matches_oracle(got, want)

    def test_one_batch_tasks_plan_no_batches_and_derive_no_substream(self, monkeypatch):
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
        # two one-batch tasks plan nothing; a multi-batch task plans every worker at once.
        # Each worker's stream id is folded from the task's own (RngStream.substream_ids),
        # and re-keys the shared generator
        for loads, batch_size, plans in (([50, 60, 0, 70], 120, 0), ([50, 60, 0, 70], 70, 0),
                                         ([50, 60, 0, 70], 20, 1)):
            calls.update(plan_batches=0, substream=0)
            run_task(world, loads, batch_size, 120, 50, terms_of(world, (True, victim, 10.0)),
                     task_rng, CommConfig())
            assert calls["plan_batches"] == plans
            assert calls["substream"] == 0


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


def scenario1_world(far=None):
    """scenario1's world at seed 0; with far, worker 2 starts far metres from the
    master on its x axis and closes on it at 60 m/s.

    From 250 m the far worker's broadcast ends at 4.11 s, 0.56 s after its
    peers', 3.6 m from the master, which it passes at 4.17 s while its
    batches stream: they go out ever faster, faster than the first estimate
    of them.
    """
    world, _ = sample_world(preset_scenario("scenario1"), RngStream(0).substream("env"))
    if far is None:
        return world
    pos, vel = world.pos.copy(), world.vel.copy()
    pos[3] = pos[0] + [far, 0.0]
    vel[3] = vel[0] + [-60.0, 0.0]
    return WorldState(pos, vel, world.alpha, world.beta)


# world -> (t_complete.hex(), receipts, digest) of scenario1's task 3 at seed 0 at batch
# size 1, every worker loaded with p rows, recorded while pass 1 covered every batch
PINNED_PAPER_TASKS = {
    "every worker at p": (None, ("0x1.124cee972631bp+2", 6000, "c1b859e9d24dfda1")),
    "a far worker closing on two near ones": (250.0, ("0x1.18a1bc1358290p+2", 6000,
                                                      "bb3c7c0bfbd3a152")),
}


# (loads, straggler on, noise_std_db) -> (t_complete.hex(), receipts, digest) of scenario3's
# task 3 at seed 0 at batch size p, one batch per worker, recorded while each worker's draws
# went through a fresh_gen call and two row views.  The straggler victim is worker 3.
S3_UNIFORM = (2000,) * 5
PINNED_ONE_BATCH_PAPER_TASKS = {
    "uniform loads": ((S3_UNIFORM, False, 1.0),
                      ("0x1.20e3868754da3p+2", 5, "14aafff5f4bc14b1")),
    "HCMM loads": (((1020, 2845, 3203, 6755, 838), False, 1.0),
                   ("0x1.8b95ebefd2f4cp+2", 5, "c3a2a897047b2e20")),
    "a zero-load worker": (((2500, 2500, 0, 2500, 2500), False, 1.0),
                           ("0x1.2fe51b86c76dbp+2", 4, "15ff5f51d487c820")),
    "infeasible": (((3000, 0, 2000, 1000, 1500), False, 1.0),
                   ("0x1.1519e05e27405p+2", 4, "4bbbe4362dcc9b00")),
    "straggler victim loaded": ((S3_UNIFORM, True, 1.0),
                                ("0x1.311b3ba18370ap+2", 5, "ab16517055f1574d")),
    "noiseless": ((S3_UNIFORM, False, 0.0),
                  ("0x1.22678d9e9b73dp+2", 5, "62b2669924827b1f")),
}


def run_paper_task(far):
    """scenario1's task 3 at seed 0 at batch size 1, every worker at p rows."""
    scenario = preset_scenario("scenario1")
    world = scenario1_world(far)
    return run_task(world, (scenario.p_rows,) * 3, 1, scenario.p_rows,
                    scenario.m_cols, terms_of(world, NO_STRAGGLER),
                    RngStream(0).substream("task", 3), CommConfig())


def task_digest(rec, nxt):
    """The first 16 hex digits of the sha256 of the receipt log's workers, rows and
    arrivals and the next world's pos, in that order, as int64 and float64 bytes."""
    log = rec.receipt_log
    h = hashlib.sha256()
    for a, dtype in ((log.workers, np.int64), (log.rows, np.int64),
                     (log.arrivals, np.float64), (nxt.pos, np.float64)):
        assert a.dtype == dtype
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()[:16]


def assert_pinned(rec, nxt, pinned):
    t_hex, receipts, digest = pinned
    assert rec.t_complete.hex() == t_hex
    assert len(rec.receipt_log) == receipts
    assert task_digest(rec, nxt) == digest


class TestPinnedOutputs:
    """run_task's outputs bit for bit: a change to the engine's layout, draws,
    gathers or pass 1's extent must leave every task time, receipt and next
    world exactly as recorded (see task_digest)."""

    @pytest.mark.parametrize("case", PINNED_TASKS)
    def test_task_matches_recorded_outputs(self, case):
        (loads, batch_size, straggling, noise_std_db), pinned = PINNED_TASKS[case]
        scenario = preset_scenario("desk")
        world, victim = sample_world(scenario, RngStream(8).substream("env"))
        assert victim == 1  # the straggler case slows a loaded worker
        rec, nxt = run_task(world, loads, batch_size, scenario.p_rows, scenario.m_cols,
                            terms_of(world, (straggling, victim, 10.0)),
                            RngStream(8).substream("task", 3), CommConfig(noise_std_db=noise_std_db))
        assert_pinned(rec, nxt, pinned)

    @pytest.mark.parametrize("case", PINNED_PAPER_TASKS)
    def test_paper_scale_task_matches_recorded_outputs(self, case):
        far, pinned = PINNED_PAPER_TASKS[case]
        assert_pinned(*run_paper_task(far), pinned)

    @pytest.mark.parametrize("case", PINNED_ONE_BATCH_PAPER_TASKS)
    def test_paper_scale_one_batch_task_matches_recorded_outputs(self, case):
        (loads, straggling, noise_std_db), pinned = PINNED_ONE_BATCH_PAPER_TASKS[case]
        scenario = preset_scenario("scenario3")
        world, victim = sample_world(scenario, RngStream(0).substream("env"))
        assert victim == 3
        p = scenario.p_rows
        cfg = replace(scenario.comm, noise_std_db=noise_std_db)
        rec, nxt = run_task(world, loads, p, p, scenario.m_cols,
                            terms_of(world, (straggling, victim, scenario.straggler_slowdown)),
                            RngStream(0).substream("task", 3), cfg)
        assert rec.feasible == (case != "infeasible")
        assert_pinned(rec, nxt, pinned)

    def test_pinned_hcmm_loads_are_hcmm_s(self):
        world, _ = sample_world(preset_scenario("scenario3"), RngStream(0).substream("env"))
        loads = hcmm_alloc(10000, world.alpha, world.beta).loads
        assert tuple(int(round(v)) for v in loads) == PINNED_ONE_BATCH_PAPER_TASKS["HCMM loads"][0][0]


def paper_oracle(far):
    """The scalar oracle's record of run_paper_task's task."""
    scenario = preset_scenario("scenario1")
    return run_task_scalar(scenario1_world(far), (scenario.p_rows,) * 3, 1, scenario.p_rows,
                           scenario.m_cols, NO_STRAGGLER, RngStream(0).substream("task", 3),
                           CommConfig())


@pytest.fixture
def extents(monkeypatch):
    """Each _solve call run_task makes, in order: (the slots it solves of each worker
    it solves, the slots comp_time_with computed in it)."""
    calls = []
    solve, comp = simcore._solve, simcore.comp_time_with
    computed = []

    def counting_comp(rows, *args):
        computed.append(np.size(rows))
        return comp(rows, *args)

    def recording(draws, spans, profile, cfg):
        computed.clear()
        out = solve(draws, spans, profile, cfg)
        calls.append(([stop - start for start, stop in spans], sum(computed)))
        return out

    monkeypatch.setattr(simcore, "comp_time_with", counting_comp)
    monkeypatch.setattr(simcore, "_solve", recording)
    return calls


FIRST_EXTENTS = {
    "one batch": lambda profile, send, counts, b, k: [1] * len(counts),
    "the counts": lambda profile, send, counts, b, k: list(counts),
    "past the counts": lambda profile, send, counts, b, k: [2 * c + 5 for c in counts],
}


class TestPassOnePrefix:
    """Each worker's leading batches, computed and solved, then extended until every
    worker with unsolved batches has its last solved arrival at or after the
    completion T', give the records of a solve over every batch."""

    @pytest.mark.parametrize("first", FIRST_EXTENTS)
    @pytest.mark.parametrize("case", PINNED_PAPER_TASKS)
    def test_any_first_extent_gives_the_recorded_task(self, monkeypatch, first, case):
        monkeypatch.setattr(simcore, "_first_extent", FIRST_EXTENTS[first])
        far, pinned = PINNED_PAPER_TASKS[case]
        rec, nxt = run_paper_task(far)
        assert_pinned(rec, nxt, pinned)
        assert_matches_oracle(rec, paper_oracle(far))

    def test_estimate_leaves_most_batches_uncomputed(self, extents):
        rec, nxt = run_paper_task(None)
        assert_pinned(rec, nxt, PINNED_PAPER_TASKS["every worker at p"][1])
        # one pass 1 over about a third of the 18,000 batches, no extension
        ((widths, computed),) = extents
        assert len(widths) == 3 and computed == sum(widths) < 7_000

    @pytest.mark.parametrize("seed", range(4))
    def test_desk_layout_is_computed_in_part(self, extents, seed):
        # every worker at p at b = 1: 800 batches, a third of them or fewer computed
        scenario = preset_scenario("desk")
        n = scenario.n_workers
        world, _ = sample_world(scenario, RngStream(seed).substream("env"))
        got, want = run_both(world, [scenario.p_rows] * n, scenario.p_rows, scenario.m_cols,
                             1, NO_STRAGGLER, CommConfig(), seed)
        ((widths, computed),) = extents
        assert len(widths) == n and computed == sum(widths) < n * scenario.p_rows // 3
        assert_matches_oracle(got, want)

    def test_far_worker_from_270_m_is_extended_alone(self, extents, solved_widths):
        # the far worker's batches go out faster than estimated, so its last solved
        # arrival falls before T'; it alone is solved again, from its first batch
        rec, nxt = run_paper_task(270.0)
        assert rec.t_complete.hex() == "0x1.1b0825d11564ap+2"
        assert np.bincount(rec.receipt_log.workers).tolist() == [2425, 2587, 988]
        assert solved_widths == [[2530, 2681, 985], [998]]
        assert extents == [([2530, 2681, 985], 2530 + 2681 + 985), ([998], 998)]
        assert_matches_oracle(rec, paper_oracle(270.0))

    def test_an_extension_computes_the_short_workers_new_batches(self, monkeypatch, extents):
        # workers 0 and 1 computed in full, the far worker 2 from one batch on; each
        # re-solve computes the far worker's slots alone
        monkeypatch.setattr(simcore, "_first_extent",
                            lambda profile, send, counts, b, k: [*counts[:2], 1])
        rec, nxt = run_paper_task(250.0)
        assert_pinned(rec, nxt, PINNED_PAPER_TASKS["a far worker closing on two near ones"][1])
        (first, computed), *more = extents
        assert first == [6000, 6000, 1] and computed == 12_001
        assert more and all(len(w) == 1 and c == w[0] for w, c in more)
        widths = [1] + [w for (w,), _ in more]
        assert all(after > before for before, after in zip(widths, widths[1:]))

    @pytest.mark.parametrize("behind", range(3))
    @pytest.mark.parametrize("case", PINNED_PAPER_TASKS)
    def test_a_worker_one_batch_short_of_completion_is_extended(
        self, monkeypatch, solved_widths, behind, case
    ):
        # n: each worker's batches delivered by completion; worker `behind` is solved to
        # its n-th but one, the others past theirs, so T' falls after its last solved
        # arrival until it alone is extended, and each re-solve covers it alone
        far, pinned = PINNED_PAPER_TASKS[case]
        n = np.bincount(run_paper_task(far)[0].receipt_log.workers).tolist()
        first = [c - 1 if i == behind else c + 50 for i, c in enumerate(n)]
        monkeypatch.setattr(simcore, "_first_extent", lambda *args: first)
        solved_widths.clear()
        assert_pinned(*run_paper_task(far), pinned)
        solved, *more = solved_widths
        assert solved == first and more
        widths = [first[behind]] + [w for (w,) in more]
        assert all(after > before for before, after in zip(widths, widths[1:]))

    @pytest.mark.parametrize("seed", range(12))
    @pytest.mark.parametrize("batch", ["one", "quarter"])
    @pytest.mark.parametrize("first", ["estimate", "one batch"])
    def test_random_worlds_through_the_prefix(self, monkeypatch, seed, batch, first):
        # a feasible layout of any size starts from the estimate; from one batch each,
        # every worker goes on from a carried scan, among them the compute-bound
        # straggler victim's (odd seeds)
        if first == "one batch":
            monkeypatch.setattr(simcore, "_first_extent", FIRST_EXTENTS[first])
        n = 2 + seed % 4
        scenario = ScenarioConfig(n_workers=n, p_rows=120, m_cols=80, beta_range=(1.0e3, 1.0e5))
        world, victim = sample_world(scenario, RngStream(seed).substream("env"))
        b = {"one": 1, "quarter": scenario.p_rows // 4}[batch]
        loads = random_loads(seed, n, scenario.p_rows)
        got, want = run_both(world, loads, scenario.p_rows, scenario.m_cols, b,
                             (seed % 2 == 1, victim, 10.0), CommConfig(), seed)
        assert_matches_oracle(got, want)


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
    """The slots solved per worker in each link solve run_task makes, in order, as lists."""
    widths = []
    solve = simcore._fixed_point

    def recording(*args):
        segments = args[-2]
        widths.append([seg.stop - seg.start for seg in segments])
        return solve(*args)

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


def guessing(width):
    """A stand-in for _first_extent that solves every worker's first `width` slots first."""
    return lambda profile, send, counts, b, k: [min(c, width) for c in counts]


class TestTruncatedSolve:
    @pytest.mark.parametrize("seed", range(4))
    def test_one_column_guess_widens_to_the_oracle(self, monkeypatch, solved_widths, seed):
        monkeypatch.setattr(simcore, "_first_extent", guessing(1))
        world, _ = sample_world(ScenarioConfig(n_workers=3), RngStream(seed).substream("env"))
        got, want = run_both(world, [90, 70, 60], 120, 50, 1, NO_STRAGGLER, CommConfig(), seed)
        # solved slots short of p leave T' infinite, so every worker goes on: from one
        # arrival by 9 batches, from more to its count
        assert solved_widths == [[1] * 3, [10] * 3, [90, 70, 60]]
        assert_matches_oracle(got, want)

    def test_closing_worker_outruns_the_first_guess(self, solved_widths):
        got, want = run_both(closing_world(), [2000, 2000], 2000, 5, 1, NO_STRAGGLER,
                             CommConfig(), 3)
        delivered = int(np.count_nonzero(got.receipt_log.workers == 1))
        # the static worker 0's first solve stands; worker 1 alone is solved again
        assert len(solved_widths) == 2 and len(solved_widths[1]) == 1
        assert solved_widths[0][1] < delivered <= solved_widths[1][0]
        assert_matches_oracle(got, want)

    def test_infeasible_task_keeps_every_batch(self, solved_widths):
        world, _ = sample_world(ScenarioConfig(n_workers=3), RngStream(2).substream("env"))
        got, want = run_both(world, [40, 25, 0], 120, 50, 1, NO_STRAGGLER, CommConfig(), 2)
        assert solved_widths == [[40, 25]]
        assert not got.feasible and len(got.receipt_log) == 65
        assert_matches_oracle(got, want)

    def test_link_work_at_paper_scale(self, monkeypatch):
        # solving every batch evaluated the link at 2,808,105 distances here, solving every
        # worker out to the widest worker's guess at 1,925,835, pass 1 over every batch at
        # 1,498,435, a pass 1 apart from the solve, over each worker's leading batches,
        # at 1,421,462, and one extend-and-solve loop that solved every worker again at
        # 1,409,878; re-solving only the extended workers evaluates 1,365,473, the 90 of
        # its estimates among them
        evaluated = []
        vector_capacity = simcore.channel_capacity

        def counting(d2, gain, cfg):
            evaluated.append(np.size(d2))
            return vector_capacity(d2, gain, cfg)

        monkeypatch.setattr(simcore, "channel_capacity", counting)
        (rec,) = sweep_batch(preset_scenario("scenario1"), "hcmm", [1], 1, 0)[1]
        assert sum(evaluated) <= 1_365_473
        assert rec.total_time == 217.6616366530215

    def test_pass_one_finds_every_link_busy_at_paper_scale(self, monkeypatch):
        # the traffic _scan's busy path is for: at scenario1 a row takes longer to
        # send than to compute, so no worker's link idles after its first batch
        pass_one = []
        batched, scan = simcore._batched, simcore._scan

        def task(*args):
            pass_one.append(None)
            return batched(*args)

        def scanning(*args):
            out = scan(*args)
            if pass_one[-1] is None:
                pass_one[-1] = out[2]
            return out

        monkeypatch.setattr(simcore, "_batched", task)
        monkeypatch.setattr(simcore, "_scan", scanning)
        sweep_batch(preset_scenario("scenario1"), "hcmm", [1], 1, 0)
        assert pass_one == [True] * preset_scenario("scenario1").k_tasks

    def test_solves_at_paper_scale_as_recorded(self, solved_widths, solve_passes):
        # one solve per task but two, which extend once; solving each worker out to
        # the widest worker's guess took 300 solves of 902,166 columns, 3 slots each,
        # widths from a separate pass 1 301 solves of 1,833,805 slots, and re-solves
        # of every worker 302 solves of 1,850,475 slots
        for seed in range(10):
            sweep_batch(preset_scenario("scenario1"), "hcmm", [1], 1, seed)
        assert len(solved_widths) == 302 and sum(map(sum, solved_widths)) == 1_839_849
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
        assert all(n <= max(widths) for n, widths in zip(solve_passes, solved_widths))
        assert_matches_oracle(got, want)

    @pytest.mark.parametrize("guess", [1, 2, 3])
    def test_a_solve_takes_at_most_one_pass_per_column(
        self, monkeypatch, solved_widths, solve_passes, guess
    ):
        monkeypatch.setattr(simcore, "_first_extent", guessing(guess))
        got, want = run_both(close_pass_world(), [2000, 500], 2000, 5, 1, NO_STRAGGLER,
                             CommConfig(), 3)
        # the first solve stops at its width
        assert solved_widths[0] == [guess, guess] and solve_passes[0] == guess
        assert all(n <= max(widths) for n, widths in zip(solve_passes, solved_widths))
        assert_matches_oracle(got, want)

    def test_capacity_underflow_raises(self):
        # the link's capacity underflows to 0 mid-stream, so a send time is infinite
        world = crossing_world()
        args = (world, [1342], 2, 1416, 3210, terms_of(world, NO_STRAGGLER),
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


def flat_layout(loads, b):
    """Loads in run_task's flat layout at batch size b.

    Returns (sizes, counts), counts the batches per worker.
    """
    counts = np.array([-(-int(l) // b) for l in loads])
    sizes = np.full(counts.sum(), b, dtype=np.int64)
    sizes[counts.cumsum() - 1] = [l - (c - 1) * b for l, c in zip(loads, counts.tolist())]
    return sizes, counts


def padded_scan(cpu, tau):
    """The scan of the padded (workers x batches) layout, as run_task computed it before."""
    arrival = tau.cumsum(axis=1)
    gap = arrival - tau
    np.subtract(cpu, gap, out=gap)
    arrival += np.fmax.accumulate(gap, axis=1, out=gap)
    settled = cpu.copy()
    np.maximum(cpu[:, 1:], arrival[:, :-1], out=settled[:, 1:])
    return arrival, settled


def scan_matches_padded_scan(cpu, tau, counts):
    """Check _scan against padded_scan byte for byte, with and without its busy test.

    Returns the busy that _scan found when it tested for it; untested, it
    always takes the running maximum.
    """
    starts, segments = _segments(np.asarray(counts))
    padded = [np.zeros((len(counts), max(counts))) for _ in range(2)]
    for row, seg in enumerate(segments):
        for a, flat in zip(padded, (cpu, tau)):
            a[row, : seg.stop - seg.start] = flat[seg]
    want = padded_scan(*padded)
    found = []
    for test in (True, False):
        *got, busy = _scan(cpu, tau, starts, segments, test)
        for flat, square in zip(got, want):
            for row, seg in enumerate(segments):
                assert flat[seg].tobytes() == square[row, : seg.stop - seg.start].tobytes()
        found.append(busy)
    assert found[1] is False
    return found[0]


def one_batch_as_before(world, loads, p, m, factors, rng, cfg):
    """A one-batch task with every term derived in the task, from the world and the time
    factors, as run_task did before it took an episode's terms and checked loads: the
    receipt arrays, the completion time, the rows received and the next pos and clock."""
    act = np.array([i for i, l in enumerate(loads) if l > 0])
    omega, us = np.zeros((act.size, 2)), np.empty(act.size)
    for k, i in enumerate(act.tolist()):  # worker i's substream: two normals, then a uniform
        gen = rng.substream("worker", i).gen
        if cfg.noise_std_db > 0:
            omega[k] = cfg.noise_std_db * gen.standard_normal(2)
        us[k] = gen.random(1)[0]
    gain = link_gain(omega, cfg)
    r = (world.pos[act + 1] - world.pos[0]).T
    rv = (world.vel[act + 1] - world.vel[0]).T
    alpha, beta, f = world.alpha[act], world.beta[act], factors[act]
    sizes = np.array(loads)[act]
    arrival = sizes * (alpha * f - f / beta * np.log1p(-us))
    arrival += simcore._broadcast_time(m, r, gain[:, 0], cfg)
    arrival += _send_time(sizes * cfg.bits_per_element, _dist2(r, rv, arrival), gain[:, 1], cfg)
    order, received, n_kept = simcore._reach(arrival, sizes, p)
    kept = order[:min(n_kept, act.size)]
    t = float(arrival[kept[-1]])
    return ((act[kept], sizes[kept], arrival[kept]), t, int(received[kept.size - 1]),
            world.pos + world.vel * t, world.clock + t)


# scenario3 at seed 0, whose straggler victim is worker 3: (loads, straggler on, noise_std_db)
ONE_BATCH_EPISODES = {
    "straggler victim loaded": (S3_UNIFORM, True, 1.0),
    "straggler victim idle": ((2500, 2500, 2500, 0, 2500), True, 1.0),
    "a zero-load worker": ((2500, 2500, 0, 2500, 2500), False, 1.0),
    "infeasible": ((3000, 0, 2000, 1000, 1500), True, 1.0),
    "noiseless": (S3_UNIFORM, True, 0.0),
}


class TestSameBitsAsBefore:
    @pytest.mark.parametrize("checked", [True, False], ids=["checked once", "raw"])
    @pytest.mark.parametrize("case", ONE_BATCH_EPISODES)
    def test_one_batch_tasks_from_episode_terms_match_per_task_terms(self, case, checked):
        # five tasks in a row from one world: the terms taken at the first hold for the
        # worlds the tasks move it to, and loads checked once serve every task
        loads, straggling, noise_std_db = ONE_BATCH_EPISODES[case]
        scenario = preset_scenario("scenario3")
        world, victim = sample_world(scenario, RngStream(0).substream("env"))
        assert victim == 3
        p = scenario.p_rows
        cfg = replace(scenario.comm, noise_std_db=noise_std_db)
        factors = time_factors(5, victim, straggling, scenario.straggler_slowdown)
        terms = episode_terms(world, factors)
        given = simcore.check_loads(loads, 5, p) if checked else loads
        task_rng = RngStream(0).substream("task")
        for j in range(5):
            rec, nxt = run_task(world, given, p, p, scenario.m_cols, terms,
                                task_rng.substream(j), cfg, index=j)
            receipts, t, rows, pos, clock = one_batch_as_before(
                world, loads, p, scenario.m_cols, factors, task_rng.substream(j), cfg)
            log = rec.receipt_log
            for got, want in zip((log.workers, log.rows, log.arrivals), receipts):
                assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
            assert (rec.t_complete, rec.rows_received_at_completion) == (t, rows)
            assert (rec.index, rec.loads, rec.feasible) == (j, loads, case != "infeasible")
            assert (nxt.pos.tobytes(), nxt.clock) == (pos.tobytes(), clock)
            world = nxt

    @pytest.mark.parametrize("per_task", [False, True], ids=["baseline", "rotating"])
    @pytest.mark.parametrize("case", ONE_BATCH_EPISODES)
    def test_one_batch_episode_matches_per_task_draws(self, case, per_task):
        # a scenario3 episode at b = p draws every task's noise before task 0.  A baseline's
        # loads serve every task; a per-task allocator moves them, so its zero load moves
        # from worker to worker
        loads, straggling, noise_std_db = ONE_BATCH_EPISODES[case]
        scenario = preset_scenario("scenario3")
        p, n = scenario.p_rows, scenario.n_workers
        scenario = replace(scenario, batch_size=p, straggler_enabled=straggling,
                           comm=replace(scenario.comm, noise_std_db=noise_std_db))
        worlds, given = [], []

        def allocator(world, states):
            worlds.append(world)
            given.append(tuple(np.roll(loads, len(worlds) - 1).tolist()) if per_task else loads)
            return given[-1]

        allocator.per_episode = not per_task
        ep = simcore.run_episode(scenario, allocator, RngStream(0))
        assert ep.victim == 3 and len(worlds) == (scenario.k_tasks if per_task else 1)
        factors = time_factors(n, ep.victim, straggling, scenario.straggler_slowdown)
        world, task_rng = worlds[0], RngStream(0).substream("task")
        for j, rec in enumerate(ep.tasks):
            want = given[j] if per_task else loads
            receipts, t, rows, pos, clock = one_batch_as_before(
                world, want, p, scenario.m_cols, factors, task_rng.substream(j), scenario.comm)
            log = rec.receipt_log
            for got, exp in zip((log.workers, log.rows, log.arrivals), receipts):
                assert got.dtype == exp.dtype and got.tobytes() == exp.tobytes()
            assert (rec.t_complete, rec.rows_received_at_completion) == (t, rows)
            assert (rec.loads, rec.feasible) == (want, case != "infeasible")
            assert rec.dispatch_time == world.clock
            world = world._replace(pos=pos, clock=clock)
            if per_task and j + 1 < len(worlds):
                assert worlds[j + 1].pos.tobytes() == pos.tobytes()

    @pytest.mark.parametrize("seed", range(3))
    def test_one_batch_episode_same_loads_per_episode_or_per_task(self, monkeypatch, seed):
        # scenario3 at b = p, the straggler victim loaded and one worker idle: loads checked
        # once for the episode and the same loads returned raw on each task give equal
        # records and next worlds
        scenario = preset_scenario("scenario3")
        p, n = scenario.p_rows, scenario.n_workers
        scenario = replace(scenario, batch_size=p, straggler_enabled=True)
        victim = sample_world(scenario, RngStream(seed).substream("env"))[1]
        idle = (victim + 1) % n
        loads = tuple(0 if i == idle else p // (n - 1) for i in range(n))
        run = simcore.run_task
        runs = []

        def recording(*args, **kwargs):
            rec, nxt = run(*args, **kwargs)
            runs[-1].append((nxt.pos.tobytes(), nxt.clock))
            return rec, nxt

        monkeypatch.setattr(simcore, "run_task", recording)
        episodes = []
        for per_episode in (True, False):
            def allocator(world, states):
                return loads

            allocator.per_episode = per_episode
            runs.append([])
            episodes.append(simcore.run_episode(scenario, allocator, RngStream(seed)))
        once, each = episodes
        assert once.victim == victim and loads[victim] > 0
        assert once.tasks == each.tasks and once.rewards == each.rewards
        assert once.total_time == each.total_time
        assert runs[0] == runs[1] and len(runs[0]) == scenario.k_tasks
        assert all(rec.feasible and idle not in rec.receipt_log.workers.tolist()
                   for rec in once.tasks)

    @pytest.mark.parametrize("batch_size", [1, 10, 50])
    def test_multi_batch_episode_matches_tasks_run_alone(self, batch_size):
        # an episode below batch size p hands each task its row of the workers' stream ids;
        # a task run alone derives them from its stream, with the same records and worlds
        scenario = replace(preset_scenario("desk"), batch_size=batch_size,
                           straggler_enabled=True)
        worlds = []

        def rotating(world, states):
            worlds.append(world)
            return [0 if i == len(worlds) % 4 else 50 + 20 * i for i in range(4)]

        ep = simcore.run_episode(scenario, rotating, RngStream(2))
        terms = terms_of(worlds[0], (True, ep.victim, scenario.straggler_slowdown))
        task_rng = RngStream(2).substream("task")
        for j, (rec, world) in enumerate(zip(ep.tasks, worlds)):
            alone, nxt = run_task(world, rec.loads, batch_size, scenario.p_rows,
                                  scenario.m_cols, terms, task_rng.substream(j), scenario.comm,
                                  index=j)
            assert alone == rec
            if j + 1 < len(worlds):
                assert (nxt.pos.tobytes(), nxt.clock) == (worlds[j + 1].pos.tobytes(),
                                                          worlds[j + 1].clock)

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

    @pytest.mark.parametrize("loads", [[9, 3, 12], [2, 30], [30, 1], [40], [1, 1, 1]])
    @pytest.mark.parametrize("seed", range(4))
    def test_segment_scan_matches_the_padded_scan(self, loads, seed):
        # batch size 4: a load of at most 4 rows is one batch, a segment of one slot
        gen = np.random.default_rng(seed)
        sizes, counts = flat_layout(loads, 4)
        cpu = np.concatenate([gen.uniform(0.0, 2.0, c).cumsum() for c in counts])
        tau = gen.uniform(0.0, 1.0, sizes.size) * sizes
        scan_matches_padded_scan(cpu, tau, counts)

    def test_busy_links_skip_the_running_maximum(self):
        # each send time far above each compute step: every gap falls along its segment
        gen = np.random.default_rng(0)
        counts = [5, 9, 3]
        cpu = np.concatenate([3.0 + gen.uniform(0.0, 0.01, c).cumsum() for c in counts])
        tau = gen.uniform(1.0, 2.0, sum(counts))
        assert scan_matches_padded_scan(cpu, tau, counts)

    def test_compute_bound_segment_keeps_the_running_maximum(self):
        # the middle worker computes slower than it sends, so its gaps rise
        gen = np.random.default_rng(1)
        counts = [6, 7, 4]
        steps, sends = [0.01, 1.0, 0.01], [1.0, 1.0e-3, 1.0]
        cpu = np.concatenate([2.0 + gen.uniform(0.0, s, c).cumsum()
                              for c, s in zip(counts, steps)])
        tau = np.concatenate([gen.uniform(s, 2 * s, c) for c, s in zip(counts, sends)])
        assert not scan_matches_padded_scan(cpu, tau, counts)

    def test_later_gap_equal_to_the_first_is_busy(self):
        # dyadic times, so every gap of the first worker is exactly 1.0
        counts = [4, 3]
        tau = np.array([0.5, 0.25, 0.5, 0.75, 2.0, 2.0, 2.0])
        cpu = np.array([1.0, 1.5, 1.75, 2.25, 1.0, 1.5, 2.0])
        _, segments = _segments(counts)
        gap = cpu - (np.concatenate([tau[seg].cumsum() for seg in segments]) - tau)
        assert gap[:4].tolist() == [1.0] * 4 and (gap[4:] <= gap[4]).all()
        assert scan_matches_padded_scan(cpu, tau, counts)
        cpu[2] = np.nextafter(cpu[2], 2.0)  # one ulp above it is not busy
        assert not scan_matches_padded_scan(cpu, tau, counts)

    def test_non_finite_send_time_keeps_the_running_maximum(self):
        # busy links but for one infinite send time: inf - inf makes its gap NaN
        gen = np.random.default_rng(2)
        counts = [5, 4, 6]
        cpu = np.concatenate([3.0 + gen.uniform(0.0, 0.01, c).cumsum() for c in counts])
        tau = gen.uniform(1.0, 2.0, sum(counts))
        assert scan_matches_padded_scan(cpu, tau, counts)
        tau[5 + 2] = np.inf  # the middle worker's third batch
        with np.errstate(invalid="ignore"):
            assert not scan_matches_padded_scan(cpu, tau, counts)

    @pytest.mark.parametrize("n", [1, 2, 3, 7, 1000])
    @pytest.mark.parametrize("seed", range(4))
    def test_split_normal_draws_match_one_draw(self, n, seed):
        # a worker's broadcast shadowing, then its n batches', then its n uniforms
        workers = RngStream(seed).substream("task", seed).substream("worker")
        for i in range(3):
            gen = workers.substream(i).fresh_gen()
            head, shadows, us = np.empty(1), np.empty(n), np.empty(n)
            gen.standard_normal(out=head)
            gen.standard_normal(out=shadows)
            gen.random(out=us)
            gen = workers.substream(i).fresh_gen()
            assert np.concatenate([head, shadows]).tobytes() == gen.standard_normal(n + 1).tobytes()
            assert us.tobytes() == gen.random(n).tobytes()

    @pytest.mark.parametrize("noise_std_db", [1.0, 0.0])
    @pytest.mark.parametrize("seed", range(4))
    def test_one_batch_draws_match_each_workers_substream(self, seed, noise_std_db):
        # an episode's (task, worker) streams, each two normals, then a uniform, as the
        # link gain of the scaled shadowing and the uniform; and what a task reads of
        # them, the broadcast's and the batch's gains and the compute time per row
        cfg = CommConfig(noise_std_db=noise_std_db)
        tasks = RngStream(seed).substream("task")
        gain, us = simcore.one_batch_noise(tasks, simcore.worker_ids(tasks, 5, k=3), cfg)
        assert gain.shape == (3, 5, 2) and us.shape == (3, 5)
        assert not gain.flags.writeable and not us.flags.writeable
        world, victim = sample_world(ScenarioConfig(n_workers=5), RngStream(seed).substream("env"))
        terms = terms_of(world, (True, victim, 10.0))
        rows = simcore.one_batch_terms(gain, us, terms)
        for a in rows:
            assert a.shape == (3, 5) and a.flags.c_contiguous and not a.flags.writeable
        head, send, per_row = rows
        loads = [60, 0, 70, 40, 30]  # worker 1 idle
        for j in range(3):
            for i in range(5):
                gen = tasks.substream(j, "worker", i).gen
                omega = noise_std_db * gen.standard_normal(2) if noise_std_db > 0 else np.zeros(2)
                want = link_gain(omega, cfg)
                assert gain[j, i].tobytes() == want.tobytes()
                assert (head[j, i], send[j, i]) == tuple(want.tolist())
                u = gen.random(1)
                assert us[j, i:i + 1].tobytes() == u.tobytes()
                # the time per row is comp_time_with of one row, so the loads' times are
                floor, tail = terms.floor[i:i + 1], terms.tail[i:i + 1]
                assert per_row[j, i:i + 1].tobytes() == comp_time_with(1.0, u, floor,
                                                                       tail).tobytes()
                rows_i = np.array([float(loads[i])])
                assert (rows_i * per_row[j, i:i + 1]).tobytes() == comp_time_with(
                    rows_i, u, floor, tail).tobytes()
            # a task alone draws its own row, from its stream's substreams ("worker", i)
            task = tasks.substream(j)
            alone = simcore.one_batch_noise(task, simcore.worker_ids(task, 5), cfg)
            assert alone[0].tobytes() == gain[j].tobytes()
            assert alone[1].tobytes() == us[j].tobytes()
            for a, b in zip(simcore.one_batch_terms(*alone, terms), rows):
                assert a.shape == (5,) and a.tobytes() == b[j].tobytes()
            # so a task run without noise records what its episode row gives, bit for bit
            drawn, nxt = run_task(world, loads, DESK_P, DESK_P, 50, terms, tasks.substream(j),
                                  cfg, index=j)
            given, given_nxt = run_task(world, loads, DESK_P, DESK_P, 50, terms, None, cfg,
                                        index=j, noise=(head[j], send[j], per_row[j]))
            assert drawn.t_complete.hex() == given.t_complete.hex()
            assert task_digest(drawn, nxt) == task_digest(given, given_nxt)
            assert drawn.rows_received_at_completion == given.rows_received_at_completion
            assert 1 not in drawn.receipt_log.workers.tolist()
            # a task handed its row of the episode's worker ids, as one in an episode below
            # batch size p is, keys its draws from that row, not from its stream
            grid = simcore.worker_ids(tasks, 5, k=3)
            keyed = run_task(world, loads, DESK_P, DESK_P, 50, terms, task, cfg, index=j,
                             ids=grid[j])
            assert task_digest(*keyed) == task_digest(drawn, nxt)
            other = (j + 1) % 3
            keyed = run_task(world, loads, DESK_P, DESK_P, 50, terms, task, cfg, index=j,
                             ids=grid[other])
            assert task_digest(*keyed) == task_digest(*run_task(
                world, loads, DESK_P, DESK_P, 50, terms, None, cfg, index=j,
                noise=(head[other], send[other], per_row[other])))

    @pytest.mark.parametrize("noise_std_db", [1.0, 0.0])
    @pytest.mark.parametrize("seed", range(4))
    def test_batched_draws_match_each_workers_substream(self, seed, noise_std_db):
        # a worker's broadcast normal, then its batches' normals, then their uniforms
        task = RngStream(seed).substream("task", seed)
        widths = (3, 1, 5)
        heads = np.zeros((3, 1))
        shadows, uniforms = [np.zeros(w) for w in widths], [np.empty(w) for w in widths]
        ids = simcore.worker_ids(task, 5)[[0, 2, 4]]
        simcore._batched_noise(task, ids.tolist(), heads, shadows, uniforms,
                               CommConfig(noise_std_db=noise_std_db))
        for k, (i, w) in enumerate(zip([0, 2, 4], widths)):
            gen = task.substream("worker", i).gen
            if noise_std_db > 0:
                normals = gen.standard_normal(w + 1)
                assert heads[k].tobytes() == normals[:1].tobytes()
                assert shadows[k].tobytes() == normals[1:].tobytes()
            assert uniforms[k].tobytes() == gen.random(w).tobytes()
        if noise_std_db == 0:
            assert not heads.any() and not any(s.any() for s in shadows)

    @pytest.mark.parametrize("seed", range(4))
    def test_worker_ids_of_an_episode_are_each_tasks(self, seed):
        # row j of an episode's grid is task j's own workers' ids, which a task run
        # alone derives from its stream
        tasks = RngStream(seed).substream("task")
        grid = simcore.worker_ids(tasks, 4, k=6)
        assert grid.shape == (6, 4) and grid.dtype == np.uint64
        for j in range(6):
            want = [tasks.substream(j, "worker", i).stream for i in range(4)]
            assert grid[j].tolist() == want
            assert simcore.worker_ids(tasks.substream(j), 4).tolist() == want

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
            terms = episode_terms(world, factors)
            # the coefficients of comp_time, and the velocities relative to the master
            assert terms.floor.tobytes() == (world.alpha * want).tobytes()
            assert terms.tail.tobytes() == (want / world.beta).tobytes()
            assert terms.rv.tobytes() == (world.vel[1:] - world.vel[0]).T.tobytes()
            assert not any(a.flags.writeable for a in terms)
            # all loaded: the terms' own arrays; otherwise a gather
            _, _, rv, floor, tail = simcore._loaded(world, range(n), terms, terms.floor,
                                                    terms.tail)
            assert rv is terms.rv and floor is terms.floor and tail is terms.tail
            for active in ([0, 2, 4], [0, 1, 3], [victim]):
                _, _, rv, floor, tail = simcore._loaded(world, active, terms, terms.floor,
                                                        terms.tail)
                assert rv.tobytes() == (world.vel[np.add(active, 1)] - world.vel[0]).T.tobytes()
                assert floor.tobytes() == terms.floor[active].tobytes()
                assert tail.tobytes() == (want[active] / world.beta[active]).tobytes()


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
                      terms_of(world, task["straggler"]),
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
        assert int(log.rows.sum()) == sum(task["loads"])
        for i in np.unique(log.workers):
            assert np.all(np.diff(log.arrivals[log.workers == i]) > 0)

    @settings(max_examples=60, deadline=None)
    @given(tasks())
    def test_completion_is_first_arrival_reaching_p(self, task):
        log = all_receipts(task)
        # in (arrival, worker) order: a stable sort on that key leaves it in place
        assert np.array_equal(np.lexsort((log.workers, log.arrivals)), np.arange(len(log)))
        cum = np.cumsum(log.rows)
        rec = simulate(task)
        if rec.feasible:
            cut = int(np.searchsorted(cum, task["p"])) + 1
            assert rec.receipt_log == log[:cut]
        else:
            assert rec.receipt_log == log
        assert rec.t_complete == rec.receipt_log.arrivals[-1]

    @settings(max_examples=60, deadline=None)
    @given(tasks())
    def test_kept_rows_are_the_rows_received(self, task):
        rec = simulate(task)
        kept = int(rec.receipt_log.rows.sum())
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
