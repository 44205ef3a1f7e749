"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload train-desk --seed 0 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 0 --seconds 30 --trace 0

Run from the root of a checkout; the program is imported from ./src.  With
--trace 0 the run repeats its workload's unit on the inputs of --seed, a
fixed number of times unless --seconds runs out first (at least twice), and
reports the end-to-end metrics named in BENCHMARK.json, with times scaled to
a reference host speed (calibrate.py).  With --trace 1 it
runs the unit twice, untraced and traced, checks that both simulated the
same thing, and reports the per-layer metrics.  The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics"}.  Other lines give the same
numbers for people, the run record and the work counters.
"""

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_REPEATS = 9
MIN_REPEATS = 2
WORKLOAD_NAMES = ("train-desk", "train-scenario1", "compare-scenario3")

# One process, one BLAS thread: the host has two CPUs, and threading the
# 64-wide network products only adds noise.
THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=(*WORKLOAD_NAMES, "all"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        ap.error("--seed must be >= 0 and --seconds > 0")
    return args


def main(argv=None):
    args = parse_args(argv)
    if not (ROOT / "src" / "macc" / "__init__.py").is_file():
        print(f"error: no macc sources under {ROOT / 'src'}; run from a full checkout",
              file=sys.stderr)
        return 2
    os.environ.update(THREAD_ENV)
    if args.workload == "all":
        return run_all(args)
    sys.path.insert(0, str(ROOT / "src"))
    return run_one(args)


def run_all(args):
    """Each workload in its own process, one after another."""
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=False)
        sys.stdout.write(proc.stdout)
        if proc.returncode != 0:
            print(f"error: {name} exited with {proc.returncode}", file=sys.stderr)
            return proc.returncode
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        summary["correct"] &= result["correct"]
        summary["attempted"] += result["attempted"]
        summary["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            summary["metrics"][f"{name}/{metric}"] = value
    print(json.dumps(summary, sort_keys=True))
    return 0


def run_one(args):
    import record
    from tracer import Tracer
    from workloads import WORKLOADS, run_unit

    wl = WORKLOADS[args.workload]
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    workdir = HERE / "out" / wl.name
    reference = load_reference(wl.name, args.seed)
    run_record = record.run_record(ROOT, wl.name, args.seed, args.trace)

    if args.trace == 0:
        setup = [probe_setup(wl.name, args.seed, workdir) for _ in range(SETUP_REPEATS)]
        units = []
        deadline = time.perf_counter() + args.seconds
        longest = 0.0
        while len(units) < MIN_REPEATS or (
            len(units) < wl.repeats and time.perf_counter() + longest <= deadline
        ):
            t = time.perf_counter()
            units.append(run_unit(wl, args.seed, workdir / "unit", None if units else reference,
                                  calibrate=True))
            longest = max(longest, time.perf_counter() - t)
            if len(units) == 1:
                peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        for u in units[1:]:
            if u.outputs() != units[0].outputs():
                u.failed_ops.update(range(u.ops))
                u.problems.append("a repeat simulated other outputs than the first unit")
        values, extra = end_to_end(units, setup, peak_rss_mb)
        wanted = spec["end_to_end"]
        counters = [u.counters for u in units]
    else:
        untraced = run_unit(wl, args.seed, workdir / "untraced", reference)
        tracer = Tracer()
        traced = run_unit(wl, args.seed, workdir / "traced", None, tracer=tracer)
        units = [untraced, traced]
        if not tracer.restored():
            traced.failed_ops.update(range(traced.ops))
            traced.problems.append("a traced attribute was not restored")
        if traced.outputs() != untraced.outputs():
            traced.failed_ops.update(range(traced.ops))
            traced.problems.append("traced and untraced runs simulated different outputs")
        values, extra = per_layer(tracer, traced, untraced), {}
        wanted = spec["per_layer"]
        counters = [untraced.counters, traced.counters]

    attempted = sum(u.ops for u in units)
    failed = sum(len(u.failed_ops) for u in units)
    problems = [p for u in units for p in u.problems]
    for p in problems[:20]:
        print(f"check failed: {p}", file=sys.stderr)
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}

    print(f"{wl.name}  seed={args.seed}  trace={args.trace}  units={len(units)}  "
          f"unit wall_s={[round(u.wall_s, 4) for u in units]}  "
          f"scaled={[round(sum(u.parts), 4) for u in units]}")
    for name, m in metrics.items():
        print(f"  {name:<40} {m['value']:>16.6g} {m['unit']}")
    for name, (value, unit) in extra.items():
        print(f"  {name:<40} {value:>16.6g} {unit}")
    print(f"  {'error_share':<40} {failed / attempted:>16.6g} ratio  ({failed}/{attempted})")
    print("counters " + json.dumps(counters, sort_keys=True))
    print("record " + json.dumps(run_record, sort_keys=True))
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    save_result(workdir.parent / "results", wl.name, args, run_record, result, counters, problems)
    print(json.dumps(result, sort_keys=True))
    return 0


def probe_setup(name, seed, workdir):
    cmd = [sys.executable, str(HERE / "setup_probe.py"), name, str(seed), str(workdir / "setup")]
    out = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=True).stdout
    raw_s, scale = (float(x) for x in out.strip().splitlines()[-1].split())
    return raw_s * scale


def end_to_end(units, setup, peak_rss_mb):
    """Values of the end-to-end metrics from identical repeats of one unit.

    Each part of the unit (a task, the rest of an episode, the rest of an
    iteration, the writers) comes scaled to the reference host speed by the
    kernel runs around it (calibrate.py), and counts with its median over
    the repeats.  The host's speed changes by up to 2x for seconds or
    minutes at a time; scaling takes that out, and the median takes out
    what a single part met besides.
    """
    first = next((u for u in units if u.parts), None)
    timed = [u for u in units if first is not None and u.part_ops == first.part_ops]
    medians = [statistics.median(column) for column in zip(*(u.parts for u in timed))]
    per_op = {}
    for t, op in zip(medians, first.part_ops if first else []):
        if op is not None:
            per_op[op] = per_op.get(op, 0.0) + t
    ops = list(per_op.values())
    wall = sum(medians)
    values = {
        "setup_s": statistics.median(setup),
        "wall_s": wall,
        "tasks_per_s": first.tasks / wall if wall > 0 else 0.0,
        "op_s.p50": statistics.median(ops) if ops else 0.0,
        "peak_rss_mb": peak_rss_mb,
    }
    extra = {"repeats": (len(timed), "count"), "ops": (len(ops), "count"),
             "wall_s.unscaled": (statistics.median(u.wall_s for u in timed), "s")}
    if len(ops) >= 100:  # a p90 needs at least ten samples beyond it
        extra["op_s.p90"] = (statistics.quantiles(ops, n=10)[8], "s")
    return values, extra


SPAN_FIELDS = ("calls", "busy_s", "self_s", "rows", "bytes")
UPDATE_SPANS = ("marl.critic_update", "marl.actor_update", "marl.polyak_update",
                "marl.replay_sample")


def per_layer(tracer, traced, untraced):
    """Values of the per-layer metrics from the traced unit."""
    stats = tracer.stats

    def busy(name):
        return stats[name].busy_s if name in stats else 0.0

    iterations = len(traced.curve)
    update_s = sum(busy(n) for n in UPDATE_SPANS)
    values = {f"simcore.{k}": v for k, v in traced.counters.items()}
    values.update({
        "marl.update_s": update_s / iterations if iterations else 0.0,
        "marl.collect_s": (sum(traced.op_times) - update_s) / iterations if iterations else 0.0,
        "marl.checkpoint_bytes": stats["marl.save_checkpoint"].bytes,
        "trace.overhead_ratio": traced.wall_s / untraced.wall_s if untraced.wall_s else 0.0,
    })
    for name, stat in stats.items():
        for f in SPAN_FIELDS:
            values[f"{name}.{f}"] = getattr(stat, f)
    return values


def load_reference(name, seed):
    path = HERE / "reference.json"
    ref = json.loads(path.read_text(encoding="utf-8"))
    return ref["workloads"].get(name) if ref["seed"] == seed else None


def save_result(outdir, name, args, run_record, result, counters, problems):
    outdir.mkdir(parents=True, exist_ok=True)
    path = outdir / f"{name}-seed{args.seed}-trace{args.trace}.json"
    payload = {"record": run_record, "result": result, "counters": counters,
               "problems": problems}
    path.write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n", encoding="utf-8")


if __name__ == "__main__":
    sys.exit(main())
