"""Print the sha256 of every file the macc CLI writes, for each seed given.

Runs ``macc.cli.main`` in this process, into a temporary directory, and
prints one line per output file: seed, run, file name and sha256.  Two
checkouts whose printouts are equal wrote byte-identical outputs, so a
change that must keep every output is checked with one diff, each
printout made with PYTHONPATH pointing at that checkout's src:

    PYTHONPATH=../parent/src python tools/output_digest.py 0 1 2 > before.txt
    PYTHONPATH=src python tools/output_digest.py 0 1 2 > after.txt
    diff before.txt after.txt

The runs, for each seed:

* train-desk: ``macc train`` at the desk preset, 4 episodes per iteration,
  minibatch 256, 100 iterations (perfbench's train-desk unit);
* train-desk-one-batch: the same at batch_size 200, p_rows, so every
  worker sends its load as one batch (the one-batch protocol);
* train-desk-small-ring: train-desk with a replay buffer of 703
  transitions, which wraps in the middle of an episode;
* train-scenario1: ``macc train`` at scenario1 for one iteration;
* train-scenario3-one-batch: ``macc train`` at scenario3 at batch_size
  p_rows for two iterations: a paper-scale policy's loads, zero loads
  among them, on one-batch tasks;
* evaluate-<scheme>: ``macc evaluate`` of uniform, load-balanced and hcmm
  at scenario3 with the straggler on, 20 episodes each;
* evaluate-<scheme>-straggler-off: the same with the straggler off;
* evaluate-marl: ``macc evaluate`` at desk from train-desk's checkpoint;
* evaluate-marl-one-batch: the same at batch_size 200, from
  train-desk-one-batch's checkpoint;
* evaluate-marl-scenario3-one-batch: ``macc evaluate`` at scenario3 at
  batch_size p_rows, from train-scenario3-one-batch's checkpoint;
* compare: ``macc compare`` of the three baselines at scenario3 with the
  straggler on, 20 episodes;
* sweep-batch: ``macc sweep-batch`` of hcmm at desk over batch sizes 1, 50
  and 200, where 200 is at least every load, so each worker sends one batch;
* sweep-batch-scenario1: ``macc sweep-batch`` of hcmm at scenario1 over batch
  sizes 1 and 10, 3 episodes: paper-scale tasks of many batches per worker;
* sweep-batch-uniform-one-batch: ``macc sweep-batch`` of uniform at desk at
  batch size 50, each of its loads: one-batch tasks in an episode whose
  batch size is below p, so they hold no drawn row and the general solver
  runs them at one batch per worker.

So every CLI command is covered.

The CLI's own messages name the temporary directory, so they are
dropped; the path of the macc package imported goes to stderr.
"""

import argparse
import contextlib
import hashlib
import io
import os
import sys
import tempfile

import macc
from macc import cli
from macc.config import preset_scenario

DESK_INI = """\
[scenario]
preset = desk
[train]
episodes_per_iteration = 4
minibatch = 256
max_iterations = 100
"""
DESK_ONE_BATCH_INI = DESK_INI.replace("preset = desk\n", "preset = desk\nbatch_size = 200\n")
DESK_SMALL_RING_INI = DESK_INI + "replay_capacity = 703\n"
SCENARIO1_INI = "[scenario]\npreset = scenario1\n[train]\nmax_iterations = 1\n"
SCENARIO3_INI = "[scenario]\npreset = scenario3\n"
SCENARIO3_ONE_BATCH_INI = (f"[scenario]\npreset = scenario3\n"
                           f"batch_size = {preset_scenario('scenario3').p_rows}\n"
                           "[train]\nmax_iterations = 2\n")
BASELINES = ("uniform", "load-balanced", "hcmm")


def runs(root):
    """Write the runs' INI files under root; return each run's (name, CLI arguments) in order."""
    configs = {}
    for name, text in (("desk", DESK_INI), ("desk-one-batch", DESK_ONE_BATCH_INI),
                       ("desk-small-ring", DESK_SMALL_RING_INI),
                       ("scenario1", SCENARIO1_INI), ("scenario3", SCENARIO3_INI),
                       ("scenario3-one-batch", SCENARIO3_ONE_BATCH_INI)):
        configs[name] = os.path.join(root, f"{name}.ini")
        with open(configs[name], "w", encoding="utf-8") as fh:
            fh.write(text)
    checkpoint = os.path.join(root, "train-desk", "checkpoint.bin")
    one_batch_checkpoint = os.path.join(root, "train-desk-one-batch", "checkpoint.bin")
    scenario3_checkpoint = os.path.join(root, "train-scenario3-one-batch", "checkpoint.bin")
    return [
        ("train-desk", ["train", "--config", configs["desk"]]),
        ("train-desk-one-batch", ["train", "--config", configs["desk-one-batch"]]),
        ("train-desk-small-ring", ["train", "--config", configs["desk-small-ring"]]),
        ("train-scenario1", ["train", "--config", configs["scenario1"]]),
        ("train-scenario3-one-batch", ["train", "--config", configs["scenario3-one-batch"]]),
        *((f"evaluate-{scheme}", ["evaluate", "--config", configs["scenario3"],
                                  "--scheme", scheme, "--straggler", "on"])
          for scheme in BASELINES),
        *((f"evaluate-{scheme}-straggler-off", ["evaluate", "--config", configs["scenario3"],
                                                "--scheme", scheme, "--straggler", "off"])
          for scheme in BASELINES),
        ("evaluate-marl", ["evaluate", "--config", configs["desk"], "--scheme", "marl",
                           "--checkpoint", checkpoint]),
        ("evaluate-marl-one-batch", ["evaluate", "--config", configs["desk-one-batch"],
                                     "--scheme", "marl", "--checkpoint", one_batch_checkpoint]),
        ("evaluate-marl-scenario3-one-batch", ["evaluate", "--config",
                                               configs["scenario3-one-batch"], "--scheme", "marl",
                                               "--checkpoint", scenario3_checkpoint]),
        ("compare", ["compare", "--config", configs["scenario3"], "--scheme", ",".join(BASELINES),
                     "--straggler", "on", "--episodes", "20"]),
        ("sweep-batch", ["sweep-batch", "--config", configs["desk"], "--scheme", "hcmm",
                         "--batch-sizes", "1,50,200", "--episodes", "20"]),
        ("sweep-batch-scenario1", ["sweep-batch", "--config", configs["scenario1"],
                                   "--scheme", "hcmm", "--batch-sizes", "1,10",
                                   "--episodes", "3"]),
        ("sweep-batch-uniform-one-batch", ["sweep-batch", "--config", configs["desk"],
                                           "--scheme", "uniform", "--batch-sizes", "50",
                                           "--episodes", "20"]),
    ]


def digest_lines(seed):
    """One "seed run file sha256" line per output file of the runs at seed."""
    lines = []
    with tempfile.TemporaryDirectory() as root:
        for name, argv in runs(root):
            out = os.path.join(root, name)
            with contextlib.redirect_stdout(io.StringIO()):
                code = cli.main([*argv, "--seed", str(seed), "--out", out])
            if code != 0:
                raise SystemExit(f"{name} at seed {seed} exited with {code}")
            for fname in sorted(os.listdir(out)):
                with open(os.path.join(out, fname), "rb") as fh:
                    lines.append(f"{seed} {name} {fname} {hashlib.sha256(fh.read()).hexdigest()}")
    return lines


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("seeds", nargs="*", type=int, default=[0], help="scenario seeds (default 0)")
    args = parser.parse_args(argv)
    print(f"macc from {os.path.dirname(macc.__file__)}", file=sys.stderr)
    for seed in args.seeds:
        print("\n".join(digest_lines(seed)), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
