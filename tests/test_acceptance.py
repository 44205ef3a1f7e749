"""End-to-end acceptance checks for the whole package.

Each criterion is a plain function that prints a single PASS line (visible
under `pytest -s` or by running this file directly, which also prints FAIL
lines instead of raising).  The heavyweight checks (training runs and the
scheme comparison) take about a minute combined.
"""

import contextlib
import io
import math
import os
import tempfile
import time
from dataclasses import replace

import numpy as np

from macc import experiments, marl
from macc.allocators import solve_hcmm_lambda
from macc.cli import main as cli_main
from macc.coding import decode, encode, generate_encoding_matrix
from macc.config import TrainConfig, preset_scenario
from macc.envmodels import CommConfig, channel_capacity, comp_time, link_gain
from macc.marl import _critic_input, make_agents
from macc.nets import Mlp
from macc.numerics import RngStream, mat_vec

# one-sided 95% Student t critical value at 19 degrees of freedom
T_CRIT_95_DF19 = 1.7291

# 1e4 * log2(1 + 10^-2.4 / 1.1e-12) evaluated exactly; reads 3.18e5
# at three significant figures
HAND_CAPACITY_D1 = 317530.0618756737

TRAIN_CFG = TrainConfig(max_iterations=300, episodes_per_iteration=4, minibatch=256)


def criterion_01_coded_round_trip():
    start = time.perf_counter()
    rng = RngStream(1001)
    worst = 0.0
    for case in range(50):
        gen = rng.substream("case", case).gen
        p = int(gen.integers(2, 51))
        m = int(gen.integers(1, 101))
        n = int(gen.integers(1, 6))
        g = generate_encoding_matrix(p, n, rng.substream("code", case))
        a = gen.standard_normal((p, m))
        x = gen.standard_normal(m)
        a_hat = encode(g, a)

        loads = gen.integers(0, p + 1, n)
        if loads.sum() < p:
            loads[int(gen.integers(n))] = p
        assigned = np.concatenate(
            [np.arange(i * p, i * p + l) for i, l in enumerate(loads) if l > 0]
        )
        order = gen.permutation(assigned)
        extra = int(gen.integers(0, min(5, len(order) - p) + 1))
        idx = order[: p + extra]

        recovered = decode(g[idx, :], mat_vec(a_hat[idx, :], x))
        truth = mat_vec(a, x)
        rel = np.linalg.norm(recovered - truth) / np.linalg.norm(truth)
        worst = max(worst, rel)
        assert rel < 1e-8, f"case {case}: relative error {rel:.3e}"
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0, f"took {elapsed:.1f}s"
    print(f"criterion 01 coded round-trip exactness: PASS "
          f"(worst rel err {worst:.2e}; {elapsed:.2f}s)")


def criterion_02_hcmm_solver():
    start = time.perf_counter()
    gen = RngStream(1002).gen
    worst_eq = 0.0
    for _ in range(100):
        beta = float(gen.uniform(1.0e4, 1.0e5))
        lam = solve_hcmm_lambda(1.0 / beta, beta)
        z = beta * lam
        # defining equation in log form: z = alpha beta + ln(1 + z)
        rel = abs(z - 1.0 - math.log1p(z)) / z
        worst_eq = max(worst_eq, rel)
        assert rel < 1e-9, f"equation residual {rel:.3e}"
        assert abs(z - 2.1462) < 1e-3, f"beta lambda {z} off the alpha beta = 1 root"
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0, f"took {elapsed:.1f}s"
    print(f"criterion 02 hcmm solver: PASS "
          f"(worst eq residual {worst_eq:.2e}; {elapsed:.2f}s)")


def criterion_03_shifted_exponential_sampler():
    start = time.perf_counter()
    rng = RngStream(1003)
    n = 100_000
    draws = comp_time(100, rng.gen.random(n), 1.0e-4, 1.0e4)
    expected = 1.0e-4 * 100 + 100 / 1.0e4  # alpha l + l / beta = 0.02
    se = (100 / 1.0e4) / math.sqrt(n)
    assert abs(draws.mean() - expected) < 3 * se, (
        f"mean {draws.mean():.6f} vs {expected} (se {se:.2e})"
    )
    cdf_at_mean = float(np.mean(draws <= expected))
    assert abs(cdf_at_mean - 0.632) < 0.01, f"cdf at mean {cdf_at_mean:.4f}"
    elapsed = time.perf_counter() - start
    assert elapsed < 2.0, f"took {elapsed:.1f}s"
    print(f"criterion 03 shifted-exponential sampler: PASS "
          f"(mean {draws.mean():.6f}, cdf {cdf_at_mean:.4f}; {elapsed:.2f}s)")


def criterion_04_channel_model():
    start = time.perf_counter()
    cfg = CommConfig()
    gain = link_gain(0.0, cfg)
    caps = [channel_capacity(d * d, gain, cfg) for d in (1, 2, 5, 10, 50, 100)]
    assert all(a > b for a, b in zip(caps, caps[1:])), f"not decreasing: {caps}"
    rel = abs(caps[0] - HAND_CAPACITY_D1) / HAND_CAPACITY_D1
    assert rel < 1e-9, f"d=1 capacity {caps[0]} vs hand value (rel {rel:.2e})"
    assert f"{caps[0]:.2e}" == "3.18e+05"
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0, f"took {elapsed:.1f}s"
    print(f"criterion 04 channel model: PASS "
          f"(C(1m) = {caps[0]:.6f} bits/s; {elapsed:.2f}s)")


def _fd_check(arrays, analytic, objective, rtol=1e-4, atol=1e-8, eps=1e-6):
    for arr, g in zip(arrays, analytic):
        it = np.nditer(arr, flags=["multi_index"])
        for _ in it:
            idx = it.multi_index
            keep = arr[idx]
            arr[idx] = keep + eps
            up = objective()
            arr[idx] = keep - eps
            down = objective()
            arr[idx] = keep
            num = (up - down) / (2 * eps)
            assert abs(g[idx] - num) <= atol + rtol * abs(num), (
                f"grad {g[idx]:.6e} vs fd {num:.6e} at {idx}"
            )


def criterion_05_gradient_fidelity():
    start = time.perf_counter()
    # ten critic-style MSE losses on random small linear-output networks
    for k in range(10):
        gen = RngStream(1005).substream("critic", k).gen
        d_in = int(gen.integers(3, 6))
        hidden = tuple(int(h) for h in gen.integers(3, 7, int(gen.integers(1, 3))))
        net = Mlp(d_in, hidden, 1, "linear", RngStream(1005).substream("net", k))
        x = gen.normal(0, 1, (4, d_in))
        y = gen.normal(0, 1, 4)

        q, cache = net.forward_cache(x)
        grads = net.backward(cache, (2.0 / 4) * (q[:, 0] - y)[:, None])
        _fd_check([net.flat], [grads],
                  lambda: float(np.mean((net.forward(x)[:, 0] - y) ** 2)))

    # ten actor objectives differentiated through the frozen critic
    for k in range(10):
        agents = make_agents(2, RngStream(1005).substream("agents", k),
                             hidden=(3,), optimizer="sgd", lr=1.0)
        gen = RngStream(1005).substream("batch", k).gen
        batch = {
            "states": gen.normal(0, 1, (4, 2, 8)),
            "actions": gen.random((4, 2)),
            "rewards": gen.normal(0, 1, 4),
            "next_states": gen.normal(0, 1, (4, 2, 8)),
            "dones": np.zeros(4),
        }
        nets = agents[0]
        before = [q.copy() for q in nets.actor.params()]
        marl.actor_update(agents, 0, batch)
        analytic = [after - b for after, b in zip(nets.actor.params(), before)]
        for arr, b in zip(nets.actor.params(), before):
            arr[...] = b

        def objective():
            a0 = nets.actor.forward(batch["states"][:, 0, :])[:, 0]
            acts = batch["actions"].copy()
            acts[:, 0] = a0
            return float(np.mean(nets.critic.forward(_critic_input(batch["states"], acts))))

        _fd_check(nets.actor.params(), analytic, objective)

    elapsed = time.perf_counter() - start
    assert elapsed < 10.0, f"took {elapsed:.1f}s"
    print(f"criterion 05 gradient fidelity: PASS (20 networks; {elapsed:.2f}s)")


def criterion_06_training_improvement():
    start = time.perf_counter()
    scenario = preset_scenario("desk", n_workers=2)
    gains = []
    for seed in (7, 8, 9):
        _, curve = marl.train(scenario, TRAIN_CFG, RngStream(seed))
        k = len(curve) // 10
        first = float(np.mean(curve[:k]))
        final = float(np.mean(curve[-k:]))
        assert final > first, f"seed {seed}: final 10% {final:.2f} <= first 10% {first:.2f}"
        gains.append((seed, first, final))
    elapsed = time.perf_counter() - start
    assert elapsed < 600.0, f"took {elapsed:.1f}s"
    detail = ", ".join(f"seed {s}: {a:.1f} -> {b:.1f}" for s, a, b in gains)
    print(f"criterion 06 training improvement: PASS ({detail}; {elapsed:.1f}s)")


def criterion_07_batch_size_trend():
    start = time.perf_counter()
    scenario = preset_scenario("desk")
    batches = [1, scenario.p_rows // 4, scenario.p_rows]
    for straggler in (False, True):
        sweep = experiments.sweep_batch(
            replace(scenario, straggler_enabled=straggler), "hcmm", batches, 20, seed=42
        )
        means = [experiments.summarize(sweep[b])[0] for b in batches]
        assert means[0] <= means[1] <= means[2], (
            f"straggler={straggler}: means {means} not non-decreasing in b"
        )
    elapsed = time.perf_counter() - start
    assert elapsed < 120.0, f"took {elapsed:.1f}s"
    print(f"criterion 07 batch-size trend: PASS "
          f"(b={batches}, both straggler settings; {elapsed:.1f}s)")


def criterion_08_comparative_trend():
    start = time.perf_counter()
    scenario = preset_scenario("desk")
    agents, _ = marl.train(scenario, TRAIN_CFG, RngStream(11))

    with_straggler = experiments.compare_schemes(
        scenario, ["uniform", "load-balanced", "hcmm", "marl"], 20, seed=42,
        agents=agents, straggler=True,
    )
    means_on = {s: experiments.summarize(r)[0] for s, r in with_straggler.items()}

    diff = (experiments.total_times(with_straggler["uniform"])
            - experiments.total_times(with_straggler["marl"]))
    t_stat = diff.mean() / (diff.std(ddof=1) / math.sqrt(len(diff)))
    assert t_stat > T_CRIT_95_DF19, (
        f"marl not below uniform with 95% paired confidence (t = {t_stat:.3f})"
    )
    assert means_on["hcmm"] < means_on["uniform"], f"means {means_on}"
    assert means_on["hcmm"] < means_on["load-balanced"], f"means {means_on}"

    without = experiments.compare_schemes(
        scenario, ["uniform", "load-balanced", "hcmm"], 20, seed=42,
        agents=None, straggler=False,
    )
    means_off = {s: experiments.summarize(r)[0] for s, r in without.items()}
    assert means_off["uniform"] < means_off["hcmm"], f"means {means_off}"
    assert means_off["load-balanced"] < means_off["hcmm"], f"means {means_off}"

    elapsed = time.perf_counter() - start
    assert elapsed < 900.0, f"took {elapsed:.1f}s"
    print(f"criterion 08 comparative trend: PASS "
          f"(straggler: marl {means_on['marl']:.3f} < uniform {means_on['uniform']:.3f}, "
          f"t = {t_stat:.2f}; hcmm {means_on['hcmm']:.3f} beats uncoded; "
          f"no straggler: hcmm {means_off['hcmm']:.3f} loses; {elapsed:.1f}s)")


ACCEPT_INI = """\
[scenario]
preset = desk
seed = 9

[train]
max_iterations = 2
episodes_per_iteration = 2
minibatch = 8
warmup_iterations = 1
"""

_COMMAND_RUNS = (
    ("train", []),
    ("evaluate", ["--scheme", "hcmm", "--episodes", "5"]),
    ("compare", ["--episodes", "5"]),
    ("sweep-batch", ["--scheme", "hcmm", "--episodes", "3", "--batch-sizes", "1,200"]),
)


def criterion_09_determinism():
    start = time.perf_counter()
    with tempfile.TemporaryDirectory() as tmp:
        ini = os.path.join(tmp, "run.ini")
        with open(ini, "w", encoding="utf-8") as fh:
            fh.write(ACCEPT_INI)
        for command, extra in _COMMAND_RUNS:
            dirs = [os.path.join(tmp, f"{command}-{i}") for i in (0, 1)]
            for out in dirs:
                with contextlib.redirect_stdout(io.StringIO()):
                    code = cli_main([command, "--config", ini, "--out", out, *extra])
                assert code == 0, f"{command} exited {code}"
            names = sorted(os.listdir(dirs[0]))
            assert names == sorted(os.listdir(dirs[1]))
            for name in names:
                with open(os.path.join(dirs[0], name), "rb") as fh:
                    first = fh.read()
                with open(os.path.join(dirs[1], name), "rb") as fh:
                    second = fh.read()
                assert first == second, f"{command}: {name} differs between reruns"
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0, f"took {elapsed:.1f}s"
    print(f"criterion 09 determinism: PASS "
          f"(all four commands byte-identical on rerun; {elapsed:.1f}s)")


def criterion_10_feasibility_accounting():
    start = time.perf_counter()
    scenario = preset_scenario("desk")
    for scheme in ("uniform", "load-balanced", "hcmm"):
        records = experiments.evaluate_scheme(
            replace(scenario, straggler_enabled=True), scheme, 20, seed=42
        )
        bad = sum(r.infeasible_count for r in records)
        assert bad == 0, f"{scheme} produced {bad} infeasible tasks"

    # cripple the actors so every allocation is all-zero
    agents = make_agents(scenario.n_workers, RngStream(0))
    for nets in agents:
        nets.actor.biases[-1][:] = -1.0e3  # sigmoid underflows to exactly 0
    records = experiments.evaluate_scheme(
        replace(scenario, straggler_enabled=True), "marl", 3, seed=42, agents=agents
    )
    for rec in records:
        assert rec.infeasible_count == scenario.k_tasks
        for task, r in zip(rec.tasks, rec.rewards):
            assert task.loads == (0,) * scenario.n_workers
            assert r == -task.t_complete - 200.0, f"reward {r} vs -T - 200"
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0, f"took {elapsed:.1f}s"
    print(f"criterion 10 feasibility accounting: PASS (baselines clean, "
          f"all-zero policy penalized exactly; {elapsed:.1f}s)")


def test_criterion_01_coded_round_trip():
    criterion_01_coded_round_trip()


def test_criterion_02_hcmm_solver():
    criterion_02_hcmm_solver()


def test_criterion_03_shifted_exponential_sampler():
    criterion_03_shifted_exponential_sampler()


def test_criterion_04_channel_model():
    criterion_04_channel_model()


def test_criterion_05_gradient_fidelity():
    criterion_05_gradient_fidelity()


def test_criterion_06_training_improvement():
    criterion_06_training_improvement()


def test_criterion_07_batch_size_trend():
    criterion_07_batch_size_trend()


def test_criterion_08_comparative_trend():
    criterion_08_comparative_trend()


def test_criterion_09_determinism():
    criterion_09_determinism()


def test_criterion_10_feasibility_accounting():
    criterion_10_feasibility_accounting()


_ALL = (
    criterion_01_coded_round_trip,
    criterion_02_hcmm_solver,
    criterion_03_shifted_exponential_sampler,
    criterion_04_channel_model,
    criterion_05_gradient_fidelity,
    criterion_06_training_improvement,
    criterion_07_batch_size_trend,
    criterion_08_comparative_trend,
    criterion_09_determinism,
    criterion_10_feasibility_accounting,
)


if __name__ == "__main__":
    import sys

    failures = 0
    for fn in _ALL:
        try:
            fn()
        except Exception as err:  # report every criterion even after a failure
            failures += 1
            label = fn.__name__.replace("criterion_", "criterion ").replace("_", " ")
            print(f"{label}: FAIL ({err})")
    sys.exit(1 if failures else 0)
