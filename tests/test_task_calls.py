"""The run_task calls that training and comparisons make rerun alone with equal records.

run_task is a pure function of its inputs: each call is caught with its
inputs and outputs, then run again on its own, out of order, and must give
the same record and next world bit for bit.  The calls' streams, ids and
noise rows are those their episode derived (simcore.episode_env).
"""

import dataclasses

import numpy as np
import pytest

from macc import experiments, marl, simcore
from macc.allocators import split_rows
from macc.config import TrainConfig, preset_scenario
from macc.envmodels import CommConfig, time_factors
from macc.numerics import RngStream


class _Done(Exception):
    """Raised from train's progress callback once the caught iterations are over."""


def _catching(monkeypatch):
    """Catch every simcore.run_task call from now on: a list of (args, kwargs, outputs)."""
    calls, run_task = [], simcore.run_task

    def catching(*args, **kwargs):
        out = run_task(*args, **kwargs)
        calls.append((args, kwargs, out))
        return out

    monkeypatch.setattr(simcore, "run_task", catching)
    return calls


def _train_calls(monkeypatch, first, stop, batch_size=None, seed=3):
    """The run_task calls of desk training iterations [first, stop) at seed."""
    scenario = preset_scenario("desk")
    if batch_size is not None:
        scenario = dataclasses.replace(scenario, batch_size=batch_size)
    iteration, calls = [0], _catching(monkeypatch)
    starts = []

    def progress(it, _):
        iteration[0] = it + 1
        starts.append(len(calls))
        if iteration[0] >= stop:
            raise _Done

    with pytest.raises(_Done):
        marl.train(scenario, TrainConfig(), RngStream(seed), progress=progress)
    monkeypatch.undo()
    return calls[starts[first - 1] if first else 0:]


def _same_task(a, b):
    (rec_a, world_a), (rec_b, world_b) = a, b
    assert rec_a == rec_b
    assert all(np.array_equal(x, y) for x, y in zip(world_a[:4], world_b[:4]))
    assert world_a.clock == world_b.clock


def _rerun_alone(calls):
    """Run each call again, last first, from copies of its world and loads."""
    for args, kwargs, out in reversed(calls):
        world, loads, *rest = args
        world = simcore.WorldState(*[np.array(a) for a in world[:4]], world.clock)
        loads = loads if type(loads) is simcore.Loads else tuple(loads)
        _same_task(simcore.run_task(world, loads, *rest, **kwargs), out)


def test_training_tasks_rerun_alone_with_equal_records(monkeypatch):
    calls = _train_calls(monkeypatch, 1, 2)
    assert len(calls) == 50  # the default 10 episodes of desk's 5 tasks, in iteration 1 alone
    assert all(args[2] < args[3] for args, _, _ in calls)  # several batches per worker
    _rerun_alone(calls)


def test_training_tasks_draw_from_their_episodes_task_stream(monkeypatch):
    # a multi-batch task draws from substream(j) of its episode's "task" stream, and gets its
    # row of the (K, N) worker ids the episode derived from it; the episodes of iteration 1
    # are training episodes 10..19
    calls = _train_calls(monkeypatch, 1, 2)
    episodes = [RngStream(3).substream("episode", e, "task") for e in range(10, 20)]
    want = [(t, j) for t in episodes for j in range(5)]
    assert len(calls) == len(want)
    for (args, kwargs, _), (tasks, j) in zip(calls, want):
        rng = args[6]
        assert (rng.seed, rng.stream) == (tasks.substream(j).seed, tasks.substream(j).stream)
        assert kwargs["index"] == j and kwargs["noise"] is None
        assert np.array_equal(kwargs["ids"], simcore.worker_ids(tasks, 4, 5)[j])


def test_another_ids_row_changes_a_training_task(monkeypatch):
    # the ids row keys a multi-batch task's draws, so rerunning equal is not vacuous
    (args, kwargs, out), (_, later, _) = _train_calls(monkeypatch, 0, 1)[:2]
    rec, _ = simcore.run_task(*args, **{**kwargs, "ids": later["ids"]})
    assert rec.receipt_log != out[0].receipt_log


def test_one_batch_training_tasks_take_their_episodes_rows(monkeypatch):
    # at batch size p each task is handed its row of the episode's one_batch_terms and reads
    # no stream; a policy's loads come raw and are checked in each task
    calls = _train_calls(monkeypatch, 0, 1, batch_size=200)
    assert len(calls) == 50
    cfg = CommConfig()
    for e in range(10):
        tasks = RngStream(3).substream("episode", e, "task")
        for j, (args, kwargs, out) in enumerate(calls[5 * e:5 * e + 5]):
            world, loads, batch_size, p, m, terms, rng, _ = args
            assert (batch_size, p, rng) == (200, 200, None)
            assert type(loads) is not simcore.Loads
            rows = simcore.one_batch_terms(tasks, simcore.worker_ids(tasks, 4, 5), cfg, terms)
            assert all(np.array_equal(given, row[j])
                       for given, row in zip(kwargs["noise"], rows))
            # run alone from its own stream, with no row, the task draws the same noise
            _same_task(simcore.run_task(world, loads, batch_size, p, m, terms,
                                        tasks.substream(j), cfg, index=j), out)
    _rerun_alone(calls)


def test_compare_tasks_of_each_scheme_share_their_episodes_draws(monkeypatch):
    scenario = preset_scenario("desk")
    calls = _catching(monkeypatch)
    experiments.compare_schemes(scenario, ["uniform", "hcmm"], 2, 3, straggler=True)
    monkeypatch.undo()
    assert len(calls) == 2 * 2 * 5  # two schemes, two episodes, desk's five tasks each
    # baselines send one batch per worker, with loads checked once per episode
    assert all(args[2] == args[3] == 200 for args, _, _ in calls)
    assert all(type(args[1]) is simcore.Loads for args, _, _ in calls)
    assert [args[1].loads for args, _, _ in calls[:10]] == [split_rows(200, np.ones(4))] * 10
    # the straggler victim is slowed: one worker's compute floor above what it is unslowed
    for args, _, _ in calls[::5]:
        world, terms = args[0], args[5]
        plain = simcore.episode_terms(world, time_factors(4, 0, False, 1.0))
        assert np.sum(terms.floor > plain.floor) == 1
    # both schemes' task j of an episode got that episode's terms and noise rows, the same
    # arrays, which the read-only env lends
    for uniform, hcmm in zip(calls[:10], calls[10:]):
        assert uniform[0][5] is hcmm[0][5]
        assert all(a.base is b.base is not None
                   and np.array_equal(a, b) for a, b in zip(uniform[1]["noise"], hcmm[1]["noise"]))
    _rerun_alone(calls)


def test_a_lone_one_batch_task_below_batch_size_p_draws_its_own_row():
    # a task whose loads all fit one batch below batch size p, run alone, keys its draws
    # from its own stream: as when handed its worker ids, or its one_batch_terms row
    world, _ = simcore.sample_world(preset_scenario("desk"), RngStream(3).substream("env"))
    task, cfg = RngStream(3).substream("task", 0), CommConfig()
    terms = simcore.episode_terms(world, time_factors(4, 0, False, 1.0))
    alone = simcore.run_task(world, (50,) * 4, 50, 200, 50, terms, task, cfg)
    other = RngStream(3).substream("task", 1)
    assert simcore.run_task(world, (50,) * 4, 50, 200, 50, terms, other,
                            cfg)[0].receipt_log != alone[0].receipt_log
    # given ids, another stream of the same seed draws task 0's row
    ids = simcore.worker_ids(task, 4)
    _same_task(simcore.run_task(world, (50,) * 4, 50, 200, 50, terms, other, cfg, ids=ids), alone)
    noise = simcore.one_batch_terms(task, ids, cfg, terms)
    _same_task(simcore.run_task(world, (50,) * 4, 50, 200, 50, terms, None, cfg, noise=noise),
               alone)
