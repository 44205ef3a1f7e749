"""The benchmark's own output checks still accept what the engine returns,
and the names of macc it reads still resolve."""

import importlib
import os
import subprocess
import sys

import pytest

from macc import marl, simcore
from macc.config import preset_scenario
from macc.numerics import RngStream

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_perfbench_selftest_passes():
    done = subprocess.run(
        [sys.executable, os.path.join("perfbench", "selftest.py")],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stdout + done.stderr
    assert done.stdout.rstrip().endswith("0 failure(s)")


def test_perfbench_checkpoint_round_trip_check(tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(os.path.join(ROOT, "perfbench"))
    workloads = importlib.import_module("workloads")
    scenario = preset_scenario("desk")
    agents = marl.make_agents(scenario.n_workers, RngStream(0))
    path = str(tmp_path / "checkpoint.json")  # the name perfbench's train workloads write
    marl.save_checkpoint(path, agents, scenario)
    assert workloads._checkpoint_matches(path, agents)
    agents[-1].target_critic.biases[-1][0] += 1.0
    assert not workloads._checkpoint_matches(path, agents)


@pytest.mark.parametrize("workload", ["train-desk", "train-scenario1", "compare-scenario3"])
def test_setup_probe_prints_seconds_and_scale(workload, tmp_path):
    # run.py --trace 0 times each workload's set-up with this probe, which calls marl.state_dim
    done = subprocess.run(
        [sys.executable, os.path.join("perfbench", "setup_probe.py"), workload, "0", str(tmp_path)],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stdout + done.stderr
    seconds, scale = map(float, done.stdout.split())
    assert seconds > 0 and scale > 0


def test_tracer_wraps_its_targets_and_restores_them(monkeypatch):
    monkeypatch.syspath_prepend(os.path.join(ROOT, "perfbench"))
    tracer = importlib.import_module("tracer")
    with tracer.Tracer() as traced:
        assert marl.build_state.__wrapped__ is simcore.build_state
    assert traced.restored()
    assert marl.build_state is simcore.build_state and marl.state_dim is simcore.state_dim
