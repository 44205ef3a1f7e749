"""Write reference.json: the environment-only outputs of a unit at the recorded seed.

    python3 perfbench/record_reference.py [seed]

Run it only when a change is meant to alter simulated outputs; the run
checks every later result at this seed against the file, at a relative
tolerance of checks.REL_TOL.
"""

import json
import os
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from run import THREAD_ENV  # noqa: E402

os.environ.update(THREAD_ENV)

from macc import config  # noqa: E402

from workloads import WORKLOADS, reference_entries, run_unit, write_ini  # noqa: E402


def main(seed=0):
    out = {"seed": seed, "workloads": {}}
    for name, wl in WORKLOADS.items():
        workdir = HERE / "out" / "reference" / name
        result = run_unit(wl, seed, workdir)
        if result.failed_ops:
            raise SystemExit(f"{name}: unit failed its checks: {result.problems[:3]}")
        _, train_cfg = config.load_config(write_ini(wl, seed, workdir))
        out["workloads"][name] = reference_entries(wl, result, train_cfg)
    (HERE / "reference.json").write_text(json.dumps(out, indent=1) + "\n", encoding="utf-8")


if __name__ == "__main__":
    main(int(sys.argv[1]) if len(sys.argv) > 1 else 0)
