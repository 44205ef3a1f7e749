"""Self-test of the benchmark's own checks: each must reject a perturbed output.

    python3 perfbench/selftest.py

Exits non-zero if any check accepts an output it should reject, rejects
one it should accept, or if the tracer leaves a wrapper behind.
"""

import dataclasses
import json
import math
import os
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from run import THREAD_ENV  # noqa: E402

os.environ.update(THREAD_ENV)

from macc import experiments, simcore  # noqa: E402
from macc.config import TrainConfig, preset_scenario  # noqa: E402
from macc.numerics import RngStream  # noqa: E402

from checks import REL_TOL, episode_problems, mismatches  # noqa: E402
from tracer import TARGETS, Tracer  # noqa: E402
from workloads import WORKLOADS, UnitResult, check_reference  # noqa: E402

FAILURES = []


def expect(label, ok):
    print(f"{'PASS' if ok else 'FAIL'}  {label}")
    if not ok:
        FAILURES.append(label)


def scaled(values, i, factor):
    out = list(values)
    out[i] = out[i] * factor
    return out


def test_reference_tolerance():
    ref = json.loads((HERE / "reference.json").read_text(encoding="utf-8"))
    for name, entries in ref["workloads"].items():
        wl = WORKLOADS[name]
        cfg = TrainConfig(**wl.train)
        for key, want in entries.items():
            i = len(want) // 2
            expect(f"{name} {key}: reference accepts itself", not mismatches(key, want, want))
            expect(f"{name} {key}: last-bit rounding is accepted",
                   not mismatches(key, scaled(want, i, 1.0 + 1.0e-13), want))
            expect(f"{name} {key}: entry {i} perturbed by 1e-6 is rejected",
                   [j for j, _ in mismatches(key, scaled(want, i, 1.0 + 1.0e-6), want)] == [i])
            expect(f"{name} {key}: a short output is rejected",
                   bool(mismatches(key, want[:-1], want)))

            # The same perturbation, through the path a run takes, fails one operation.
            got = dict(entries)
            got[key] = scaled(want, i, 1.0 + 100 * REL_TOL)
            result = UnitResult(ops=cfg.max_iterations if wl.kind == "train" else len(want),
                                failed_ops=set(), problems=[],
                                curve=got.get("curve", []), totals=got["episode_totals"])
            check_reference(wl, result, entries, cfg)
            per_op = cfg.episodes_per_iteration if key == "episode_totals" and wl.kind == "train" else 1
            expect(f"{name} {key}: the run marks operation {i // per_op} failed",
                   result.failed_ops == {i // per_op})


def test_episode_invariants():
    scenario = preset_scenario("desk")
    allocator = experiments.make_allocator("hcmm", scenario)
    rec = simcore.run_episode(scenario, allocator, RngStream(5).substream("episode", 0))
    p = scenario.p_rows
    expect("a simulated episode passes", episode_problems(rec, p) == [])

    task = rec.tasks[1]
    bad = {
        "episode total off by 1e-9": dataclasses.replace(rec, total_time=rec.total_time * (1 + 1e-9)),
        "non-finite reward": dataclasses.replace(rec, rewards=(math.nan, *rec.rewards[1:])),
        "completion after the last kept arrival": dataclasses.replace(
            rec, tasks=(rec.tasks[0], dataclasses.replace(task, t_complete=task.t_complete * 1.001),
                        *rec.tasks[2:])),
        "kept rows short of p": dataclasses.replace(
            rec, tasks=(rec.tasks[0], dataclasses.replace(task, receipt_log=task.receipt_log[-1:]),
                        *rec.tasks[2:])),
    }
    for label, broken in bad.items():
        expect(f"invariant check rejects: {label}", bool(episode_problems(broken, p)))


def test_tracer_restores():
    before = {(id(o), a): o.__dict__[a] for _, o, a, _, _ in TARGETS}
    with Tracer() as tracer:
        patched = all(o.__dict__[a] is not before[(id(o), a)] for _, o, a, _, _ in TARGETS)
    after = {(id(o), a): o.__dict__[a] for _, o, a, _, _ in TARGETS}
    expect("tracer wraps every target", patched)
    expect("tracer restores every target", after == before and tracer.restored())


def main():
    test_reference_tolerance()
    test_episode_invariants()
    test_tracer_restores()
    print(f"{len(FAILURES)} failure(s)")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
