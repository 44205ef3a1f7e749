import dataclasses
import json
import math

import numpy as np
import pytest

from macc import marl
from macc.config import ConfigError, ScenarioConfig, TrainConfig
from macc.marl import (
    NETS,
    ReplayBuffer,
    _critic_input,
    actor_update,
    critic_update,
    load_checkpoint,
    make_agents,
    normalize_states,
    policy_allocator,
    polyak_update,
    save_checkpoint,
    state_dim,
    state_scales,
    td_target,
    train,
)
from macc.numerics import RngStream
from macc.simcore import WorldState, build_state, sample_world

TINY = ScenarioConfig(name="tiny", n_workers=2, p_rows=8, m_cols=6, k_tasks=2,
                      beta_range=(1.0e3, 2.0e3), batch_size=3)


def two_worker_world():
    return WorldState(
        pos=np.array([[0.0, 0.0], [3.0, 4.0], [6.0, 8.0]]),
        vel=np.array([[0.5, -0.5], [1.0, 2.0], [-1.0, 0.0]]),
        alpha=np.full(2, 1e-3),
        beta=np.full(2, 1e3),
    )


class TestStates:
    def test_scales_from_ranges(self):
        d_scale, v_scale = state_scales(TINY)
        assert d_scale == pytest.approx(100.0 * math.sqrt(2.0))
        assert v_scale == 10.0

    def test_normalization_splits_columns(self):
        world = two_worker_world()
        raw = build_state(world)
        norm = normalize_states(raw, 2, (2.0, 4.0))
        np.testing.assert_allclose(norm[0, :2], raw[0, :2] / 2.0)
        np.testing.assert_allclose(norm[0, 2:], raw[0, 2:] / 4.0)
        assert raw[0, 0] == 5.0  # input untouched


class TestAgents:
    def test_network_shapes(self):
        agents = make_agents(3, RngStream(0))
        sdim = state_dim(3)
        for nets in agents:
            assert nets.actor.dims == [sdim, 64, 64, 64, 1]
            assert nets.critic.dims == [3 * sdim + 3, 64, 64, 64, 1]
            assert nets.actor.out_act == "sigmoid"
            assert nets.critic.out_act == "linear"

    def test_targets_start_equal_and_detached(self):
        agents = make_agents(2, RngStream(0), hidden=(4,))
        nets = agents[0]
        for tp, pp in zip(nets.target_actor.params(), nets.actor.params()):
            np.testing.assert_array_equal(tp, pp)
        nets.actor.weights[0][0, 0] += 1.0
        assert nets.target_actor.weights[0][0, 0] != nets.actor.weights[0][0, 0]

    def test_agents_differ_but_seeding_reproduces(self):
        a = make_agents(2, RngStream(5), hidden=(4,))
        b = make_agents(2, RngStream(5), hidden=(4,))
        assert not np.array_equal(a[0].actor.weights[0], a[1].actor.weights[0])
        np.testing.assert_array_equal(a[1].critic.weights[0], b[1].critic.weights[0])


def assign(mlp, values):
    """Overwrite every parameter array of mlp in place, in params() order."""
    for arr, value in zip(mlp.params(), values):
        arr[...] = value


def q_values(nets, states, actions):
    """Q(s, a) of one agent's critic over a batch of joint states and actions."""
    return nets.critic.forward(_critic_input(states, actions))[:, 0]


def sum_critic(mlp):
    """Overwrite a one-hidden-unit critic so Q(x) exactly equals sum(x) (for sum(x) > -100)."""
    assign(mlp, (1.0, 100.0, 1.0, -100.0))


def constant_half_actor(mlp):
    """Zero every layer: ReLU(0) hidden, sigmoid(0) = 0.5 out."""
    assign(mlp, [0.0] * len(mlp.params()))


def make_batch(n, sdim, size, seed):
    gen = RngStream(seed).gen
    return {
        "states": gen.normal(0, 1, (size, n, sdim)),
        "actions": gen.random((size, n)),
        "rewards": gen.normal(0, 1, size),
        "next_states": gen.normal(0, 1, (size, n, sdim)),
        "dones": (gen.random(size) < 0.3).astype(float),
    }


class TestTdTarget:
    def test_hand_computed_bootstrap(self):
        agents = make_agents(2, RngStream(0), hidden=(1,))
        for nets in agents:
            constant_half_actor(nets.target_actor)
        sum_critic(agents[0].target_critic)
        batch = {
            "next_states": np.ones((2, 2, 8)),
            "rewards": np.array([1.0, 2.0]),
            "dones": np.array([0.0, 1.0]),
        }
        # Q'(s', a') = 16 ones + two 0.5 actions = 17
        y = td_target(agents, 0, batch, gamma=0.95)
        np.testing.assert_allclose(y, [1.0 + 0.95 * 17.0, 2.0], rtol=1e-12)

    def test_gamma_zero_returns_rewards(self):
        agents = make_agents(2, RngStream(0), hidden=(4,))
        batch = make_batch(2, 8, 6, seed=9)
        np.testing.assert_allclose(td_target(agents, 0, batch, gamma=0.0),
                                   batch["rewards"])

    def test_terminal_rows_ignore_bootstrap(self):
        agents = make_agents(2, RngStream(0), hidden=(4,))
        batch = make_batch(2, 8, 6, seed=9)
        batch["dones"] = np.ones(6)
        np.testing.assert_allclose(td_target(agents, 0, batch, gamma=0.95),
                                   batch["rewards"])


class TestCriticUpdate:
    def test_returns_pre_step_mse(self):
        agents = make_agents(2, RngStream(1), hidden=(4,))
        batch = make_batch(2, 8, 8, seed=10)
        y = td_target(agents, 0, batch, gamma=0.95)
        q = q_values(agents[0], batch["states"], batch["actions"])
        expected = float(np.mean((q - y) ** 2))
        assert critic_update(agents, 0, batch, gamma=0.95) == expected

    def test_descends_on_a_fixed_batch(self):
        agents = make_agents(2, RngStream(1), hidden=(8, 8), lr=0.01)
        batch = make_batch(2, 8, 16, seed=11)
        first = critic_update(agents, 0, batch, gamma=0.95)
        for _ in range(300):
            last = critic_update(agents, 0, batch, gamma=0.95)
        assert last < 0.05 * first


class TestActorUpdate:
    def test_flat_critic_leaves_actor_unchanged(self):
        agents = make_agents(2, RngStream(2), hidden=(4,), optimizer="sgd")
        assign(agents[0].critic, [0.0] * len(agents[0].critic.params()))
        before = [q.copy() for q in agents[0].actor.params()]
        actor_update(agents, 0, make_batch(2, 8, 6, seed=12))
        for b, a in zip(before, agents[0].actor.params()):
            np.testing.assert_array_equal(b, a)

    def test_ascends_crafted_critic(self):
        # Q = a_0 exactly, so the update must raise agent 0's mean action
        agents = make_agents(2, RngStream(3), hidden=(1,), optimizer="sgd", lr=0.5)
        w0 = np.zeros((18, 1))
        w0[16, 0] = 1.0  # the a_0 column of the critic input
        assign(agents[0].critic, (w0, 100.0, 1.0, -100.0))
        batch = make_batch(2, 8, 12, seed=13)
        s0 = batch["states"][:, 0, :]
        before = agents[0].actor.forward(s0).mean()
        q_seen = actor_update(agents, 0, batch)
        after = agents[0].actor.forward(s0).mean()
        assert after > before
        assert q_seen == pytest.approx(before, rel=1e-12)

    def test_gradient_matches_finite_differences(self):
        agents = make_agents(2, RngStream(4), hidden=(3,), optimizer="sgd", lr=1.0)
        batch = make_batch(2, 8, 4, seed=14)
        nets = agents[0]
        start = [q.copy() for q in nets.actor.params()]

        def objective():
            a0 = nets.actor.forward(batch["states"][:, 0, :])[:, 0]
            actions = batch["actions"].copy()
            actions[:, 0] = a0
            return float(np.mean(q_values(nets, batch["states"], actions)))

        actor_update(agents, 0, batch)
        analytic = [after - b for after, b in zip(nets.actor.params(), start)]
        assign(nets.actor, start)

        eps = 1e-6
        for arr, g in zip(nets.actor.params(), analytic):
            it = np.nditer(arr, flags=["multi_index"])
            for _ in it:
                idx = it.multi_index
                keep = arr[idx]
                arr[idx] = keep + eps
                up = objective()
                arr[idx] = keep - eps
                down = objective()
                arr[idx] = keep
                np.testing.assert_allclose(g[idx], (up - down) / (2 * eps),
                                           rtol=1e-4, atol=1e-8)


class TestPolyak:
    def test_elementwise_average(self):
        agents = make_agents(1, RngStream(5), hidden=(4,))
        nets = agents[0]
        nets.actor.weights[0] += 0.3  # separate primary from target
        t_before = [q.copy() for q in nets.target_actor.params()]
        p_now = [q.copy() for q in nets.actor.params()]
        polyak_update(nets, tau=0.9)
        for t0, p, t1 in zip(t_before, p_now, nets.target_actor.params()):
            np.testing.assert_allclose(t1, 0.9 * t0 + 0.1 * p, rtol=1e-14)

    def test_equal_nets_are_a_fixed_point(self):
        agents = make_agents(1, RngStream(5), hidden=(4,))
        nets = agents[0]
        before = [q.copy() for q in nets.target_critic.params()]
        polyak_update(nets, tau=0.99)
        for b, a in zip(before, nets.target_critic.params()):
            np.testing.assert_allclose(a, b, rtol=1e-14)

    def test_targets_converge_geometrically(self):
        agents = make_agents(1, RngStream(6), hidden=(4,))
        nets = agents[0]
        nets.actor.weights[0] += 1.0
        for _ in range(500):
            polyak_update(nets, tau=0.9)
        gap = max(np.abs(t - p).max()
                  for t, p in zip(nets.target_actor.params(), nets.actor.params()))
        assert gap < 1e-12

    def test_tau_validated(self):
        agents = make_agents(1, RngStream(5), hidden=(4,))
        with pytest.raises(ValueError):
            polyak_update(agents[0], tau=1.0)


class TestReplayBuffer:
    def test_ring_overwrites_oldest(self):
        buf = ReplayBuffer(3, 1, 2)
        for r in range(5):
            buf.push(np.full((1, 2), r), np.array([r]), float(r),
                     np.zeros((1, 2)), done=False)
        assert buf.size == 3
        assert sorted(buf.rewards.tolist()) == [2.0, 3.0, 4.0]

    def test_sample_only_returns_stored_rows(self):
        buf = ReplayBuffer(10, 1, 2)
        for r in range(4):
            buf.push(np.zeros((1, 2)), np.array([0.0]), float(r),
                     np.zeros((1, 2)), done=(r == 3))
        batch = buf.sample(64, RngStream(7))
        assert set(batch["rewards"].tolist()) <= {0.0, 1.0, 2.0, 3.0}
        assert batch["states"].shape == (64, 1, 2)
        assert set(batch["dones"].tolist()) <= {0.0, 1.0}

    def test_sampling_reproducible(self):
        buf = ReplayBuffer(10, 1, 2)
        for r in range(6):
            buf.push(np.zeros((1, 2)), np.array([0.0]), float(r),
                     np.zeros((1, 2)), done=False)
        a = buf.sample(8, RngStream(8))["rewards"]
        b = buf.sample(8, RngStream(8))["rewards"]
        np.testing.assert_array_equal(a, b)

    @pytest.mark.parametrize("capacity", [10**13, 2**62])  # refused by the allocator, by numpy
    def test_unallocatable_capacity_names_the_key_and_bytes(self, capacity):
        wanted = capacity * (2 * 4 * 14 + 4 + 2) * 8
        with pytest.raises(ConfigError, match=rf"train\.replay_capacity: .* needs {wanted} bytes"):
            ReplayBuffer(capacity, 4, 14)

    def test_empty_buffer_raises(self):
        with pytest.raises(ValueError):
            ReplayBuffer(4, 1, 2).sample(1, RngStream(0))


class TestPolicyAllocator:
    def test_deterministic_without_noise(self):
        agents = make_agents(2, RngStream(9), hidden=(4,))
        world, _ = sample_world(TINY, RngStream(10).substream("env"))
        states = build_state(world)
        allocate = policy_allocator(agents, TINY)
        first = allocate(world, states)
        second = allocate(world, states)
        np.testing.assert_array_equal(first, second)
        assert all(0 <= l <= TINY.p_rows for l in first)

    def test_noise_perturbs_and_stays_in_range(self):
        agents = make_agents(2, RngStream(9), hidden=(4,))
        world, _ = sample_world(TINY, RngStream(10).substream("env"))
        states = build_state(world)
        clean = policy_allocator(agents, TINY)(world, states)
        noisy_alloc = policy_allocator(agents, TINY, noise_rng=RngStream(11),
                                       noise_std=3.0)
        noisy = noisy_alloc(world, states)
        assert not np.array_equal(noisy, clean)
        for _ in range(20):
            loads = noisy_alloc(world, states)
            assert all(0 <= l <= TINY.p_rows for l in loads)

    def test_each_agent_reads_its_own_state_row(self):
        agents = make_agents(2, RngStream(9), hidden=(4,))
        world, _ = sample_world(TINY, RngStream(10).substream("env"))
        states = build_state(world)
        loads = policy_allocator(agents, TINY)(world, states)
        norm = normalize_states(states, 2, state_scales(TINY))
        for i in range(2):
            assert loads[i] == TINY.p_rows * agents[i].actor.forward(norm[i:i + 1])[0, 0]

    def test_evaluates_the_actors_as_built(self):
        agents = make_agents(2, RngStream(9), hidden=(4,))
        world, _ = sample_world(TINY, RngStream(10).substream("env"))
        states = build_state(world)
        allocate = policy_allocator(agents, TINY)
        before = allocate(world, states)
        agents[0].actor.biases[-1][0] += 5.0
        np.testing.assert_array_equal(allocate(world, states), before)
        assert policy_allocator(agents, TINY)(world, states)[0] > before[0]


SHORT_TRAIN = TrainConfig(max_iterations=3, episodes_per_iteration=2,
                          minibatch=4, warmup_iterations=1, replay_capacity=64)


class TestTrain:
    def test_zero_iterations(self):
        agents, curve = train(TINY, TrainConfig(max_iterations=0), RngStream(12))
        assert curve == []
        assert len(agents) == 2

    def test_curve_length_and_determinism(self):
        _, c1 = train(TINY, SHORT_TRAIN, RngStream(13))
        _, c2 = train(TINY, SHORT_TRAIN, RngStream(13))
        assert len(c1) == 3
        assert c1 == c2

    def test_updates_change_networks(self):
        fresh = make_agents(2, RngStream(13).substream("init"))
        trained, _ = train(TINY, SHORT_TRAIN, RngStream(13))
        moved = any(
            not np.array_equal(f, t)
            for f, t in zip(fresh[0].critic.params(), trained[0].critic.params())
        )
        assert moved

    def test_warmup_freezes_actors(self):
        cfg = TrainConfig(max_iterations=2, episodes_per_iteration=2,
                          minibatch=4, warmup_iterations=10, replay_capacity=64)
        fresh = make_agents(2, RngStream(14).substream("init"))
        trained, _ = train(TINY, cfg, RngStream(14))
        for f, t in zip(fresh[0].actor.params(), trained[0].actor.params()):
            np.testing.assert_array_equal(f, t)

    def test_progress_callback(self):
        seen = []
        train(TINY, SHORT_TRAIN, RngStream(15),
              progress=lambda it, val: seen.append((it, val)))
        assert [it for it, _ in seen] == [0, 1, 2]


    @pytest.mark.parametrize("update", ["critic", "actor"])
    def test_non_finite_update_names_iteration_and_agent(self, monkeypatch, update):
        make = marl.make_agents

        def nan_critic(*args, **kwargs):
            agents = make(*args, **kwargs)
            agents[1].critic.params()[0][0, 0] = math.nan
            return agents

        if update == "critic":
            monkeypatch.setattr(marl, "make_agents", nan_critic)
            want = r"^iteration 0, agent 1: critic TD loss is nan$"
        else:  # a finite critic, so only the actor's Q is forced off
            monkeypatch.setattr(marl, "actor_update", lambda *args: math.inf)
            want = r"^iteration 1, agent 0: actor mean Q is inf$"
        with pytest.raises(ValueError, match=want):
            train(TINY, SHORT_TRAIN, RngStream(16))

    def test_non_finite_actor_output_names_iteration_task_and_agent(self, monkeypatch):
        make = marl.make_agents

        def nan_actor(*args, **kwargs):
            agents = make(*args, **kwargs)
            agents[1].actor.params()[0][0, 0] = math.nan
            return agents

        monkeypatch.setattr(marl, "make_agents", nan_actor)
        with pytest.raises(ValueError, match=r"^iteration 0, task 0, agent 1: actor output is nan$"):
            train(TINY, SHORT_TRAIN, RngStream(16))


def rewrite_header(path, **changes):
    head, _, body = path.read_bytes().partition(b"\n")
    header = json.loads(head)
    header.update(changes)
    path.write_bytes(json.dumps(header).encode() + b"\n" + body)


class TestCheckpoint:
    @pytest.fixture
    def saved(self, tmp_path):
        agents, _ = train(TINY, SHORT_TRAIN, RngStream(16))
        path = tmp_path / "ckpt.bin"
        save_checkpoint(str(path), agents, TINY)
        return agents, path

    def test_round_trip(self, saved):
        agents, path = saved
        loaded = load_checkpoint(str(path))
        assert len(loaded) == 2
        x = RngStream(17).gen.normal(0, 1, (1, state_dim(2)))
        for a, b in zip(agents, loaded):
            np.testing.assert_array_equal(a.actor.forward(x), b.actor.forward(x))
            for name in NETS:
                assert getattr(a, name).dims == getattr(b, name).dims
                assert getattr(a, name).out_act == getattr(b, name).out_act
                for pa, pb in zip(getattr(a, name).params(), getattr(b, name).params()):
                    assert pb.dtype == np.float64 and pb.flags.writeable
                    np.testing.assert_array_equal(pa, pb)

    def test_layout_is_header_line_then_raw_float64(self, saved):
        agents, path = saved
        head, _, body = path.read_bytes().partition(b"\n")
        header = json.loads(head)
        assert header["format"] == "macc-checkpoint-2"
        assert (header["n_workers"], header["p_rows"]) == (2, TINY.p_rows)
        nets = [getattr(a, k) for a in agents for k in NETS]
        assert header["nets"] == [{"dims": n.dims, "out_act": n.out_act} for n in nets]
        assert body == b"".join(q.astype("<f8").tobytes() for n in nets for q in n.params())

    def test_unknown_format_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"format": "other", "agents": []}))
        with pytest.raises(ValueError):
            load_checkpoint(str(path))

    def test_json_checkpoint_rejected(self, tmp_path):
        path = tmp_path / "old.json"
        path.write_text(json.dumps({"format": "macc-checkpoint-1", "n_workers": 2,
                                    "p_rows": 8, "agents": []}))
        with pytest.raises(ConfigError, match="not a valid macc-checkpoint-2 file: "
                                              "its format is 'macc-checkpoint-1'"):
            load_checkpoint(str(path))

    def test_truncated_rejected(self, saved):
        _, path = saved
        path.write_bytes(path.read_bytes()[:-8])
        with pytest.raises(ConfigError, match="truncated"):
            load_checkpoint(str(path))

    def test_trailing_bytes_rejected(self, saved):
        _, path = saved
        path.write_bytes(path.read_bytes() + b"\0" * 8)
        with pytest.raises(ConfigError, match="trailing bytes"):
            load_checkpoint(str(path))

    def test_worker_count_mismatch_in_header_rejected(self, saved):
        _, path = saved
        rewrite_header(path, n_workers=3)
        with pytest.raises(ConfigError, match="lists 8 networks for 3 workers"):
            load_checkpoint(str(path))

    def test_parameter_count_mismatch_in_header_rejected(self, saved):
        _, path = saved
        header = json.loads(path.read_bytes().partition(b"\n")[0])
        header["nets"][0]["dims"][1] += 1
        rewrite_header(path, nets=header["nets"])
        with pytest.raises(ConfigError, match="truncated"):
            load_checkpoint(str(path))

    def test_agents_with_other_layers_rejected(self, tmp_path):
        wide = make_agents(2, RngStream(18), hidden=(64, 64, 64))
        narrow = make_agents(2, RngStream(19), hidden=(32,))
        path = tmp_path / "spliced.bin"
        save_checkpoint(str(path), [wide[0], narrow[1]], TINY)
        want = (r"not a valid macc-checkpoint-2 file: agent 1's actor has dims \[8, 32, 1\] "
                r"and out_act 'sigmoid', agent 0's has dims \[8, 64, 64, 64, 1\]")
        with pytest.raises(ConfigError, match=want):
            load_checkpoint(str(path))

    def test_scenario_mismatch_rejected(self, saved):
        _, path = saved
        load_checkpoint(str(path), TINY)
        with pytest.raises(ConfigError, match="trained at p_rows = 8, scenario has p_rows = 9"):
            load_checkpoint(str(path), dataclasses.replace(TINY, p_rows=9))
        with pytest.raises(ConfigError, match="checkpoint has 2 agents, scenario has 3 workers"):
            load_checkpoint(str(path), dataclasses.replace(TINY, n_workers=3))
