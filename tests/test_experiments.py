import math
import tracemalloc
from dataclasses import fields, replace

import numpy as np
import pytest

from macc import experiments, marl, simcore
from macc.config import ConfigError, ScenarioConfig, preset_scenario
from macc.numerics import RngStream
from macc.experiments import (
    METRICS_COLUMNS,
    compare_schemes,
    evaluate_scheme,
    make_allocator,
    metrics_rows,
    run_digest,
    summarize,
    sweep_batch,
    total_times,
    write_csv,
    write_curve_csv,
    write_episodes_jsonl,
    write_metrics_csv,
)
from macc.simcore import EpisodeRecord, ReceiptLog, TaskRecord
from test_simcore import episode_fields

TINY = ScenarioConfig(name="tiny", n_workers=2, p_rows=8, m_cols=6, k_tasks=2,
                      beta_range=(1.0e3, 2.0e3), batch_size=3)


def capture_episodes(monkeypatch):
    """The list that each record run_episode returns to experiments is appended to.

    The drivers keep copies with no receipt logs or states; these are the records as run.
    """
    captured, run = [], experiments.run_episode

    def capturing(*args, **kwargs):
        rec = run(*args, **kwargs)
        captured.append(rec)
        return rec

    monkeypatch.setattr(experiments, "run_episode", capturing)
    return captured


class TestAllocatorFactory:
    def test_batch_size_per_scheme(self, monkeypatch):
        # a baseline runs at batch size p, one batch per worker; marl at the scenario's
        seen = []
        run = experiments.run_episode
        monkeypatch.setattr(experiments, "run_episode",
                            lambda scenario, *args, **kwargs: seen.append(scenario.batch_size)
                            or run(scenario, *args, **kwargs))
        agents = marl.make_agents(2, RngStream(0), hidden=(4,))
        for scheme in ("uniform", "hcmm", "marl"):
            evaluate_scheme(TINY, scheme, 1, seed=0, agents=agents)
        assert seen == [TINY.p_rows, TINY.p_rows, 3]

    def test_unknown_scheme(self):
        with pytest.raises(ValueError):
            make_allocator("greedy", TINY)

    def test_marl_needs_agents(self):
        with pytest.raises(ValueError):
            make_allocator("marl", TINY)

    @pytest.mark.parametrize("scheme, name", [("hcmm", "hcmm_alloc"),
                                              ("load-balanced", "load_balanced_alloc")])
    def test_profile_based_loads_computed_once_per_episode(self, monkeypatch, scheme, name):
        calls = []
        solve = getattr(experiments, name)
        monkeypatch.setattr(experiments, name,
                            lambda p, alpha, beta: calls.append(1) or solve(p, alpha, beta))
        records = evaluate_scheme(TINY, scheme, 3, seed=3)
        assert len(calls) == 3  # one per episode, not one per task
        for rec in records:
            betas = np.array(rec.betas)
            want = solve(TINY.p_rows, 1.0 / betas, betas)
            if scheme == "hcmm":
                want = want.loads  # HcmmSolution; load-balanced returns the tuple
            assert all(task.loads == want for task in rec.tasks)


class TestEvaluateScheme:
    def test_episode_count_and_feasibility(self):
        records = evaluate_scheme(TINY, "uniform", 4, seed=3)
        assert len(records) == 4
        assert all(r.infeasible_count == 0 for r in records)

    def test_baselines_cover_p_exactly_or_more(self):
        for scheme in ("uniform", "load-balanced", "hcmm"):
            records = evaluate_scheme(TINY, scheme, 3, seed=3)
            for rec in records:
                for task in rec.tasks:
                    assert sum(task.loads) >= TINY.p_rows

    def test_schemes_see_identical_environments(self):
        uni = evaluate_scheme(TINY, "uniform", 4, seed=3)
        hc = evaluate_scheme(TINY, "hcmm", 4, seed=3)
        for a, b in zip(uni, hc):
            assert a.betas == b.betas
            assert a.victim == b.victim

    def test_rerun_is_identical(self):
        a = total_times(evaluate_scheme(TINY, "hcmm", 3, seed=5))
        b = total_times(evaluate_scheme(TINY, "hcmm", 3, seed=5))
        np.testing.assert_array_equal(a, b)

    def test_seed_changes_the_draw(self):
        a = total_times(evaluate_scheme(TINY, "uniform", 3, seed=5))
        b = total_times(evaluate_scheme(TINY, "uniform", 3, seed=6))
        assert not np.array_equal(a, b)

    def test_straggler_toggle_is_paired_and_slower(self):
        off = evaluate_scheme(replace(TINY, straggler_enabled=False), "uniform", 4, seed=7)
        on = evaluate_scheme(replace(TINY, straggler_enabled=True), "uniform", 4, seed=7)
        for a, b in zip(off, on):
            assert a.betas == b.betas
            assert b.total_time > a.total_time


class TestSummaries:
    def test_summarize_matches_direct_formulas(self):
        records = evaluate_scheme(TINY, "uniform", 5, seed=8)
        t = total_times(records)
        mean, std, half = summarize(records)
        assert mean == pytest.approx(t.mean())
        assert std == pytest.approx(t.std(ddof=1))
        # Student-t critical value at 4 degrees of freedom
        assert half == pytest.approx(2.7764451 * t.std(ddof=1) / np.sqrt(5))

    def test_halfwidth_uses_student_t_at_twenty_episodes(self):
        records = evaluate_scheme(TINY, "uniform", 20, seed=8)
        _, std, half = summarize(records)
        assert half == pytest.approx(2.0930241 * std / np.sqrt(20))

    @pytest.mark.parametrize("df, want", [(31, 2.0395), (50, 2.0086), (100, 1.9840),
                                          (1000, 1.9623)])
    def test_t_quantile_between_table_anchors(self, df, want):
        assert experiments._t_quantile_975(df) == pytest.approx(want, abs=2e-4)

    def test_single_record_has_no_spread(self):
        # one episode cannot estimate a spread, so a CI of +-0 would overstate it
        records = evaluate_scheme(TINY, "uniform", 1, seed=8)
        mean, std, half = summarize(records)
        assert mean == records[0].total_time
        assert math.isnan(std) and math.isnan(half)

    def test_metrics_rows_schema(self):
        records = evaluate_scheme(TINY, "hcmm", 2, seed=9)
        rows = metrics_rows(TINY, "hcmm", 9, records)
        assert len(rows) == 2
        assert len(rows[0]) == len(METRICS_COLUMNS)
        scenario, scheme, seed, episode, total, mean_task, infeasible = rows[0]
        assert (scenario, scheme, seed, episode) == ("tiny", "hcmm", 9, 0)
        assert mean_task == total / TINY.k_tasks
        assert infeasible == 0


class TestCompare:
    def test_one_scheme_is_evaluate_scheme(self, monkeypatch):
        # evaluate_scheme is a one-scheme comparison (the CLI's compare asks for two or
        # more); its records are those of each episode run on its own, one batch per worker
        captured = capture_episodes(monkeypatch)
        one = compare_schemes(TINY, ["hcmm"], 3, seed=1)
        ran = list(captured)
        assert list(one) == ["hcmm"]
        assert one["hcmm"] == evaluate_scheme(TINY, "hcmm", 3, seed=1)
        scenario = replace(TINY, batch_size=TINY.p_rows)
        allocator = make_allocator("hcmm", scenario)
        own = [simcore.run_episode(scenario, allocator, RngStream(1).substream("episode", e))
               for e in range(3)]
        assert [episode_fields(r) for r in ran] == [episode_fields(r) for r in own]

    def test_duplicate_schemes_rejected(self):
        with pytest.raises(ConfigError, match="duplicate schemes"):
            compare_schemes(TINY, ["hcmm", "hcmm"], 2, seed=1)

    def test_results_keyed_by_scheme(self):
        results = compare_schemes(TINY, ["uniform", "hcmm"], 3, seed=1)
        assert set(results) == {"uniform", "hcmm"}
        assert all(len(v) == 3 for v in results.values())

    def test_pairing_across_schemes(self):
        results = compare_schemes(TINY, ["uniform", "load-balanced", "hcmm"], 3, seed=2)
        betas = [tuple(r.betas for r in recs) for recs in results.values()]
        assert betas[0] == betas[1] == betas[2]


class TestSharedEnvs:
    """compare_schemes derives each episode's env once; each scheme's records stay its own."""

    DESK = preset_scenario("desk")

    def counted_envs(self, monkeypatch):
        derived = []
        derive = simcore.episode_env
        monkeypatch.setattr(experiments, "episode_env",
                            lambda *args: derived.append(args) or derive(*args))
        return derived

    def test_each_baseline_records_what_it_records_alone(self, monkeypatch):
        derived = self.counted_envs(monkeypatch)
        captured = capture_episodes(monkeypatch)
        schemes = ["uniform", "load-balanced", "hcmm"]
        results = compare_schemes(self.DESK, schemes, 3, seed=2, straggler=True)
        shared = list(captured)  # the schemes' episodes in order, as run
        assert len(derived) == 3  # one env per episode, for all three schemes
        on = replace(self.DESK, straggler_enabled=True)
        for s, scheme in enumerate(schemes):
            captured.clear()
            alone = evaluate_scheme(on, scheme, 3, seed=2)
            assert results[scheme] == alone
            assert [episode_fields(r) for r in shared[3 * s:3 * s + 3]] == [
                episode_fields(r) for r in captured]
        assert all(r.straggler_enabled for recs in results.values() for r in recs)

    @pytest.mark.parametrize("batch_size, envs", [(200, 2), (400, 2), (1, 4)])
    def test_marl_shares_the_baselines_envs_at_one_batch_per_worker(self, monkeypatch,
                                                                    batch_size, envs):
        # at batch size p_rows or more marl runs the baselines' scenario, and below it its own
        derived = self.counted_envs(monkeypatch)
        captured = capture_episodes(monkeypatch)
        agents = marl.make_agents(4, RngStream(0), hidden=(8,))
        scenario = replace(self.DESK, batch_size=batch_size, straggler_enabled=True)
        results = compare_schemes(scenario, ["uniform", "hcmm", "marl"], 2, seed=2,
                                  agents=agents)
        shared = list(captured)  # the schemes' episodes in order, as run
        assert len(derived) == envs
        for s, (scheme, records) in enumerate(results.items()):
            captured.clear()
            alone = evaluate_scheme(scenario, scheme, 2, seed=2, agents=agents)
            assert records == alone
            assert [episode_fields(r) for r in shared[2 * s:2 * s + 2]] == [
                episode_fields(r) for r in captured]
        # marl run at the scenario's own batch size, above p_rows, records the same
        allocator = make_allocator("marl", scenario, agents=agents)
        own = [simcore.run_episode(scenario, allocator, RngStream(2).substream("episode", e))
               for e in range(2)]
        assert [episode_fields(r) for r in shared[4:]] == [episode_fields(r) for r in own]


class TestKeptRecords:
    """The drivers keep each episode's record without its receipt logs and states."""

    AGENTS = marl.make_agents(TINY.n_workers, RngStream(0), hidden=(4,))

    # each run, and how many marl episodes it runs last
    RUNS = {
        "evaluate-hcmm": (lambda: evaluate_scheme(TINY, "hcmm", 3, seed=1), 0),
        "compare-b1": (lambda: compare_schemes(
            replace(TINY, batch_size=1), ["uniform", "marl"], 2, seed=1,
            agents=TestKeptRecords.AGENTS), 2),
        "compare-bp": (lambda: compare_schemes(
            replace(TINY, batch_size=TINY.p_rows), ["hcmm", "marl"], 2, seed=1,
            agents=TestKeptRecords.AGENTS), 2),
        "sweep-uniform": (lambda: sweep_batch(TINY, "uniform", [1, TINY.p_rows], 2, seed=1), 0),
    }

    @pytest.mark.parametrize("run", RUNS)
    def test_kept_records_drop_logs_and_states_alone(self, monkeypatch, run):
        captured = capture_episodes(monkeypatch)
        out = self.RUNS[run][0]()
        kept = out if isinstance(out, list) else [r for recs in out.values() for r in recs]
        assert len(kept) == len(captured) > 0
        for rec, ran in zip(kept, captured):
            assert rec.states == ()
            assert len(rec.tasks) == len(ran.tasks) == TINY.k_tasks
            for f in fields(EpisodeRecord):
                if f.name not in ("tasks", "states"):
                    assert getattr(rec, f.name) == getattr(ran, f.name), f.name
            for task, ran_task in zip(rec.tasks, ran.tasks):
                assert task.receipt_log is None
                for f in fields(TaskRecord):
                    if f.name != "receipt_log":
                        assert getattr(task, f.name) == getattr(ran_task, f.name), f.name

    @pytest.mark.parametrize("run", RUNS)
    def test_records_as_run_keep_their_logs_and_states(self, monkeypatch, run):
        captured = capture_episodes(monkeypatch)
        execute, marl_episodes = self.RUNS[run]
        execute()
        for ran in captured:
            assert all(type(t.receipt_log) is ReceiptLog for t in ran.tasks)
            assert sum(len(t.receipt_log) for t in ran.tasks) > 0
        # marl reads states; the baselines' per-episode allocators do not
        baselines = len(captured) - marl_episodes
        assert [len(ran.states) for ran in captured] == [0] * baselines + [TINY.k_tasks] * marl_episodes

    def test_a_paper_scale_evaluation_holds_little_once_it_returns(self):
        # b = 1 scenario1 marl, 30 tasks per episode: the logs came to about 4 MB an episode
        scenario = preset_scenario("scenario1")
        agents = marl.make_agents(scenario.n_workers, RngStream(0))
        tracemalloc.start()
        try:
            records = evaluate_scheme(scenario, "marl", 3, 0, agents=agents)
            held, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(records) == 3
        assert held < 1 << 20


class TestStragglerKeyword:
    def test_compare_straggler_is_the_replaced_scenario(self):
        given = compare_schemes(TINY, ["uniform", "hcmm"], 2, seed=3, straggler=True)
        replaced = compare_schemes(replace(TINY, straggler_enabled=True), ["uniform", "hcmm"],
                                   2, seed=3)
        assert given == replaced
        assert all(r.straggler_enabled for recs in given.values() for r in recs)


class TestSweep:
    def test_full_width_batch_matches_single_shot(self):
        sweep = sweep_batch(TINY, "uniform", [TINY.p_rows], 3, seed=4)
        single = evaluate_scheme(TINY, "uniform", 3, seed=4)  # a baseline's one batch per worker
        np.testing.assert_array_equal(total_times(sweep[TINY.p_rows]), total_times(single))

    def test_each_batch_size_is_written_into_the_scenario(self, monkeypatch):
        # a baseline keeps each swept batch size, unlike evaluate_scheme's one batch per worker
        seen = []
        run = experiments.run_episode
        monkeypatch.setattr(experiments, "run_episode",
                            lambda scenario, *args, **kwargs: seen.append(scenario.batch_size)
                            or run(scenario, *args, **kwargs))
        sweep_batch(TINY, "uniform", [1, 4], 2, seed=4)
        assert seen == [1, 1, 4, 4]

    def test_keys_are_batch_sizes(self):
        sweep = sweep_batch(TINY, "uniform", [1, 4, 8], 2, seed=4)
        assert sorted(sweep) == [1, 4, 8]

    def test_invalid_batch_size(self):
        with pytest.raises(ValueError):
            sweep_batch(TINY, "uniform", [0, 4], 2, seed=4)

    def test_duplicate_batch_sizes_rejected(self):
        with pytest.raises(ConfigError, match="duplicate batch sizes"):
            sweep_batch(TINY, "uniform", [4, 1, 4], 2, seed=4)


class TestCsvOutput:
    def test_metadata_line_and_byte_stability(self, tmp_path):
        records = evaluate_scheme(TINY, "uniform", 3, seed=10)
        digest = run_digest(TINY)
        p1 = tmp_path / "a.csv"
        p2 = tmp_path / "b.csv"
        write_metrics_csv(str(p1), TINY, "uniform", 10, records, digest)
        write_metrics_csv(str(p2), TINY, "uniform", 10, records, digest)
        assert p1.read_bytes() == p2.read_bytes()
        lines = p1.read_text().splitlines()
        assert lines[0] == f"# config={digest} seed=10"
        assert lines[1] == ",".join(METRICS_COLUMNS)
        assert len(lines) == 2 + 3

    def test_float_cells_round_trip(self, tmp_path):
        path = tmp_path / "c.csv"
        value = 0.1 + 0.2  # repr must preserve the exact double
        write_csv(str(path), ("x",), [(value,)], "d", 0)
        cell = path.read_text().splitlines()[2]
        assert float(cell) == value

    def test_curve_csv_rows(self, tmp_path):
        path = tmp_path / "curve.csv"
        write_curve_csv(str(path), [-5.0, -4.0, -3.5], "d", 1)
        lines = path.read_text().splitlines()
        assert lines[1] == "iteration,mean_total_reward"
        assert len(lines) == 2 + 3
        assert lines[2].startswith("0,")

    def test_episodes_jsonl(self, tmp_path):
        records = evaluate_scheme(TINY, "uniform", 2, seed=11)
        path = tmp_path / "eps.jsonl"
        write_episodes_jsonl(str(path), records)
        lines = path.read_text().splitlines()
        assert len(lines) == 2
        write_episodes_jsonl(str(path), records)
        assert path.read_text().splitlines() == lines
