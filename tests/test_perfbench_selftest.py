"""The benchmark's own output checks still accept what the engine returns."""

import importlib
import os
import subprocess
import sys

from macc import marl
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
