"""tools/replay_tasks.py: a recording replays through two checkouts with equal records."""

import importlib.util
import json
import os
import pickle

import pytest

from macc import simcore
from macc.allocators import uniform_alloc
from macc.config import preset_scenario
from macc.envmodels import CommConfig, time_factors
from macc.numerics import RngStream

TOOL = os.path.join(os.path.dirname(__file__), os.pardir, "tools", "replay_tasks.py")
SRC = os.path.join(os.path.dirname(__file__), os.pardir, "src")


@pytest.fixture
def tool():
    spec = importlib.util.spec_from_file_location("replay_tasks", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_records_an_iteration_and_replays_it(tool, tmp_path, capsys):
    path = str(tmp_path / "calls.pkl")
    run_task = simcore.run_task
    tool.main(["record", path, "--preset", "desk", "--seed", "3", "--iterations", "1", "2"])
    assert simcore.run_task is run_task
    with open(path, "rb") as fh:
        calls = pickle.load(fh)
    assert len(calls) == 50  # the default 10 episodes of desk's 5 tasks, in iteration 1 alone
    # tasks of several batches per worker draw their own noise, in run_task, keyed by their
    # row of the workers' stream ids their episode derived from its "task" stream; the
    # episodes of iteration 1 are training episodes 10..19
    assert all(batch_size < p for _, _, _, batch_size, p, *_ in calls)
    episodes = [RngStream(3).substream("episode", e, "task") for e in range(10, 20)]
    assert [drawn for *_, drawn in calls] == [(t.seed, t.stream, 5) for t in episodes
                                              for _ in range(5)]
    want = [t.substream(j) for t in episodes for j in range(5)]
    assert [stream for *_, stream, _, _, _ in calls] == [(t.seed, t.stream) for t in want]
    tool.main(["time", path, SRC, SRC, "--pairs", "2"])
    *rounds, last = capsys.readouterr().out.strip().splitlines()
    summary = json.loads(last)
    assert summary["calls"] == 50 and [len(s) for s in summary["seconds"]] == [2, 2]
    # each time scaled by the host speed taken next to it in its replay process
    assert [len(s) for s in summary["scaled_seconds"]] == [2, 2]
    assert all(s > 0.0 for side in summary["scaled_seconds"] for s in side)
    assert summary["scaled_ratio"] == summary["scaled_medians"][1] / summary["scaled_medians"][0]
    # each side's minor page faults over its timed replay, one count per round, printed
    # next to its time
    assert [len(f) for f in summary["faults"]] == [2, 2]
    assert all(type(f) is int and f >= 0 for side in summary["faults"] for f in side)
    assert rounds[-1].endswith(f"{summary['faults'][1][1]} faults")


def test_different_records_stop_the_replay(tool, tmp_path, monkeypatch):
    path = str(tmp_path / "calls.pkl")
    tool.main(["record", path, "--preset", "desk", "--seed", "3", "--iterations", "0", "1"])
    other = tmp_path / "other"
    (other / "macc").mkdir(parents=True)
    for name in os.listdir(os.path.join(SRC, "macc")):
        if name.endswith(".py"):
            with open(os.path.join(SRC, "macc", name), encoding="utf-8") as fh:
                text = fh.read()
            if name == "simcore.py":  # every completion a little later
                text = text.replace("    t_done = float(receipt_log.arrivals[-1])",
                                    "    t_done = float(receipt_log.arrivals[-1]) * 1.5")
            (other / "macc" / name).write_text(text, encoding="utf-8")
    with pytest.raises(SystemExit, match="round 0: the two sides returned different records"):
        tool.main(["time", path, SRC, str(other), "--pairs", "1"])


def test_records_one_batch_training_at_batch_size_p(tool, tmp_path, capsys):
    path = str(tmp_path / "calls.pkl")
    tool.main(["record", path, "--preset", "desk", "--seed", "3", "--iterations", "0", "1",
               "--batch-size", "p"])
    with open(path, "rb") as fh:
        calls = pickle.load(fh)
    assert len(calls) == 50
    assert {(batch_size, p) for _, _, _, batch_size, p, *_ in calls} == {(200, 200)}
    # a policy's loads are checked in each task, not once per episode, and each task's
    # noise comes drawn by its one-batch episode
    assert not any(checked for _, _, checked, *_ in calls)
    # the episodes of iteration 0 are training episodes 0..9
    episodes = [RngStream(3).substream("episode", e, "task") for e in range(10)]
    assert [drawn for *_, drawn in calls] == [(t.seed, t.stream, 5) for t in episodes
                                              for _ in range(5)]
    tool.main(["time", path, SRC, SRC, "--pairs", "1"])
    assert json.loads(capsys.readouterr().out.strip().splitlines()[-1])["calls"] == 50


def test_records_a_comparison_as_compare_runs_it(tool, tmp_path, capsys):
    path = str(tmp_path / "calls.pkl")
    run_task = simcore.run_task
    tool.main(["record", path, "--preset", "desk", "--seed", "3", "--compare", "uniform,hcmm",
               "--episodes", "2", "--straggler"])
    assert simcore.run_task is run_task
    with open(path, "rb") as fh:
        calls = pickle.load(fh)
    assert len(calls) == 2 * 2 * 5  # two schemes, two episodes, desk's five tasks each
    # baselines send one batch per worker, with loads checked once per episode, and the
    # straggler victim is slowed: the recorded time factors, which the episode's terms are
    # derived from, hold one factor above 1
    assert all(batch_size == p == 200 for _, _, _, batch_size, p, *_ in calls)
    assert all(checked for _, _, checked, *_ in calls)
    assert all(factors.shape == (4,) and factors.max() > 1.0 for *_, factors, _, _, _, _ in calls)
    assert [loads for _, loads, *_ in calls[:10]] == [uniform_alloc(200, 4)] * 10
    # each episode drew its tasks' noise from its "task" stream, and each call keeps its
    # task's own, substream(j) of that
    episodes = [RngStream(3).substream("episode", e, "task") for e in range(2)] * 2
    assert [drawn for *_, drawn in calls] == [(t.seed, t.stream, 5) for t in episodes
                                              for _ in range(5)]
    want = [t.substream(j) for t in episodes for j in range(5)]
    assert [stream for *_, stream, _, _, _ in calls] == [(t.seed, t.stream) for t in want]
    tool.main(["time", path, SRC, SRC, "--pairs", "1"])
    assert json.loads(capsys.readouterr().out.strip().splitlines()[-1])["calls"] == 20



def test_a_task_drawing_its_own_noise_is_recorded_without_an_episode_draw(tool, tmp_path):
    # a one-batch task in an episode below batch size p draws its own row, through
    # one_batch_noise without k, which the recorder does not take for an episode's draw
    path = str(tmp_path / "calls.pkl")
    world, _ = simcore.sample_world(preset_scenario("desk"), RngStream(3).substream("env"))
    task = RngStream(3).substream("task", 0)
    with tool._recorder(path, "one task"):
        terms = simcore.episode_terms(world, time_factors(4, 0, False, 1.0))
        simcore.run_task(world, (50,) * 4, 50, 200, 50, terms, task, CommConfig())
    with open(path, "rb") as fh:
        calls = pickle.load(fh)
    assert len(calls) == 1
    assert calls[0][-4] == (task.seed, task.stream) and calls[0][-1] is None


def test_a_package_before_per_row_times_replays_through_its_own_contract(tool, tmp_path,
                                                                         monkeypatch):
    # a macc without simcore.one_batch_terms takes a one-batch task's noise as its rows of
    # one_batch_noise's (gain, us) and derives a multi-batch task's stream ids itself: it
    # replays a comparison and a training iteration with the records of this one
    calls = []
    for name, extra in (("compare", ["--compare", "uniform,hcmm", "--episodes", "2"]),
                        ("train", ["--iterations", "0", "1"])):
        path = str(tmp_path / f"{name}.pkl")
        tool.main(["record", path, "--preset", "desk", "--seed", "3", *extra])
        with open(path, "rb") as fh:
            calls += pickle.load(fh)
    assert {batch_size >= p for _, _, _, batch_size, p, *_ in calls} == {True, False}
    assert all(drawn is not None for *_, drawn in calls)
    spent, scaled, digest = tool._replay(calls, tool._calibrate().Speed())
    assert spent > 0.0 and scaled > 0.0
    terms_of, run_task = simcore.one_batch_terms, simcore.run_task
    given = []

    def before(world, loads, batch_size, p, m, terms, rng, cfg, index=0, noise=None):
        given.append(noise is not None)
        if noise is not None:
            gain, us = noise
            assert gain.shape == (4, 2) and us.shape == (4,)
            noise = terms_of(gain, us, terms)
        return run_task(world, loads, batch_size, p, m, terms, rng, cfg, index, noise)

    monkeypatch.delattr(simcore, "one_batch_terms")
    monkeypatch.setattr(simcore, "run_task", before)
    assert tool._replay(calls, tool._calibrate().Speed())[2] == digest
    assert given == [batch_size >= p for _, _, _, batch_size, p, *_ in calls]
