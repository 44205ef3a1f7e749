"""Time one set-up of a workload in a fresh interpreter.

Set-up is everything before the first iteration or episode: importing
macc, writing and parsing the INI, and building the agents and the replay
buffer (training) or the scheme allocators (compare).  Prints the seconds
and the host-speed scale that calibrate.py measures right after them.

    python3 perfbench/setup_probe.py <workload> <seed> <workdir>
"""

import time

_t0 = time.perf_counter()

import os  # noqa: E402
import sys  # noqa: E402

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

from macc import config, experiments, marl  # noqa: E402
from macc.numerics import RngStream  # noqa: E402

from workloads import WORKLOADS, write_ini  # noqa: E402


def main(name, seed, workdir):
    wl = WORKLOADS[name]
    scenario, train_cfg = config.load_config(write_ini(wl, seed, workdir))
    rng = RngStream(seed)
    if wl.kind == "train":
        n = scenario.n_workers
        marl.make_agents(
            n, rng.substream("init"), lr=train_cfg.learning_rate, optimizer=train_cfg.optimizer
        )
        marl.ReplayBuffer(train_cfg.replay_capacity, n, marl.state_dim(n))
    else:
        for scheme in wl.schemes:
            experiments.make_allocator(scheme, scenario)
    elapsed = time.perf_counter() - _t0
    from calibrate import scale_now  # after the clock stops: not part of set-up

    print(repr(elapsed), repr(scale_now()))


if __name__ == "__main__":
    main(sys.argv[1], int(sys.argv[2]), sys.argv[3])
