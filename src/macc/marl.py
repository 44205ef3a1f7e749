"""MADDPG trainer for the load-allocation MDP of simcore.run_episode.

Each worker is an agent. simcore.build_state gives its raw state
[d_i, d_-i, v_i, v_-i, v_m] (dimension 3N+2) and simcore.reward the
shared reward r = -T_j - c 1[sum(l) < p]; this module scales the states
for the networks and learns the actions.  The action is the load l_i in
[0, p], handled internally in normalized [0, 1] form.

Training follows MADDPG: per agent an actor, a centralized critic over the
joint state and action, and Polyak-averaged target copies of both.
Critics descend the TD error against r + gamma Q'(s', pi'(s')); actors
ascend the critic through the chain rule, which needs only the critic's
input gradient (Mlp.input_grad) and the actor's parameter gradient
(Mlp.backward).  Optimizer steps and Polyak averaging act on each
network's flat parameter vector.  Exploration adds Gaussian noise to the
pre-scaling action, with the noise level decaying linearly over training.
Each actor reads only its own state, so the policy allocator evaluates all
N actors in one stacked pass per task, on copies of their parameters taken
when the allocator is built (once per episode in train).

A checkpoint file is one JSON header line (format, n_workers, p_rows and
each network's dims and out_act) followed by each network's parameter
vector as little-endian float64, network by network in NETS order.  Every
agent's networks share agent 0's dims and out_act.
"""

import json
import math
from dataclasses import dataclass

import numpy as np

from . import simcore
from .config import ConfigError
from .nets import Mlp, make_optimizer, param_count
from .simcore import build_state  # noqa: F401  perfbench/tracer.py times it as marl.build_state

HIDDEN = (64, 64, 64)
CHECKPOINT_FORMAT = "macc-checkpoint-2"
NETS = ("actor", "critic", "target_actor", "target_critic")  # AgentNets' networks, in order


def state_dim(n_workers):
    return 3 * n_workers + 2


def state_scales(scenario):
    """Fixed normalization scales (distance, velocity) from the scenario ranges."""
    half = 0.5 * (scenario.pos_range[1] - scenario.pos_range[0])
    dist_scale = half * math.sqrt(2.0)
    vel_scale = max(abs(scenario.vel_range[0]), abs(scenario.vel_range[1]))
    return (dist_scale if dist_scale > 0 else 1.0, vel_scale if vel_scale > 0 else 1.0)


def normalize_states(states, n_workers, scales):
    """Scale raw states for the networks: distances and velocities to O(1)."""
    out = np.asarray(states, dtype=np.float64).copy()
    d_scale, v_scale = scales
    out[..., :n_workers] /= d_scale
    out[..., n_workers:] /= v_scale
    return out


@dataclass
class AgentNets:
    actor: Mlp
    critic: Mlp
    target_actor: Mlp
    target_critic: Mlp
    actor_opt: object
    critic_opt: object


def make_agents(n_workers, rng, lr=0.01, optimizer="adam", hidden=HIDDEN):
    """Fresh actor/critic pairs with target copies initialized equal."""
    sdim = state_dim(n_workers)
    agents = []
    for i in range(n_workers):
        arng = rng.substream("agent", i)
        actor = Mlp(sdim, hidden, 1, "sigmoid", arng.substream("actor"))
        critic = Mlp(n_workers * sdim + n_workers, hidden, 1, "linear", arng.substream("critic"))
        agents.append(
            AgentNets(
                actor=actor,
                critic=critic,
                target_actor=actor.clone(),
                target_critic=critic.clone(),
                actor_opt=make_optimizer(optimizer, actor.flat, lr),
                critic_opt=make_optimizer(optimizer, critic.flat, lr),
            )
        )
    return agents


def _critic_input(states, actions):
    """Critic rows [s_1 .. s_N, a_1 .. a_N] from (B, N, D) states and (B, N) actions."""
    states = np.asarray(states, dtype=np.float64)
    actions = np.asarray(actions, dtype=np.float64)
    flat = states.reshape(states.shape[0], -1)
    return np.concatenate([flat, actions], axis=1)


def td_target(agents, i, batch, gamma):
    """Bootstrap targets r + gamma Q'_i(s', pi'(s')) from the target networks."""
    ns = batch["next_states"]
    next_actions = np.column_stack(
        [agents[k].target_actor.forward(ns[:, k, :])[:, 0] for k in range(len(agents))]
    )
    q_next = agents[i].target_critic.forward(_critic_input(ns, next_actions))[:, 0]
    return batch["rewards"] + gamma * (1.0 - batch["dones"]) * q_next


def critic_update(agents, i, batch, gamma):
    """One descent step on the mean squared TD error; returns the pre-step loss."""
    nets = agents[i]
    y = td_target(agents, i, batch, gamma)
    x = _critic_input(batch["states"], batch["actions"])
    q, cache = nets.critic.forward_cache(x)
    err = q[:, 0] - y
    loss = float(np.mean(err * err))
    grad_q = (2.0 / err.shape[0]) * err[:, None]
    nets.critic_opt.step(nets.critic.flat, nets.critic.backward(cache, grad_q))
    return loss


def actor_update(agents, i, batch):
    """One ascent step on mean Q_i(s, a) with a_i replayed through the actor.

    The gradient is the chain composition d pi / d theta times d Q / d a_i;
    other agents' actions come from the batch.  Returns the pre-step mean Q.
    """
    nets = agents[i]
    s_i = batch["states"][:, i, :]
    a_i, a_cache = nets.actor.forward_cache(s_i)
    actions = batch["actions"].copy()
    actions[:, i] = a_i[:, 0]
    x = _critic_input(batch["states"], actions)
    q, q_cache = nets.critic.forward_cache(x)
    n_batch = q.shape[0]
    grad_x = nets.critic.input_grad(q_cache, np.full((n_batch, 1), 1.0 / n_batch))
    sdim = batch["states"].shape[1] * batch["states"].shape[2]
    grad_a = grad_x[:, sdim + i]
    nets.actor_opt.step(nets.actor.flat, -nets.actor.backward(a_cache, grad_a[:, None]))
    return float(q.mean())


def polyak_update(nets, tau):
    """Targets track the primaries: theta' <- tau theta' + (1 - tau) theta."""
    if not 0.0 < tau < 1.0:
        raise ValueError(f"tau must be in (0, 1), got {tau}")
    for target, primary in (
        (nets.target_actor, nets.actor),
        (nets.target_critic, nets.critic),
    ):
        target.flat *= tau
        target.flat += (1.0 - tau) * primary.flat


class ReplayBuffer:
    """Fixed-capacity ring of transitions with uniform with-replacement sampling."""

    def __init__(self, capacity, n_workers, sdim):
        """Allocate the ring; a capacity whose arrays cannot be allocated is a ConfigError.

        It names train.replay_capacity and the bytes the arrays ask for.
        """
        self.capacity = int(capacity)
        if self.capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        try:
            self.states = np.zeros((self.capacity, n_workers, sdim))
            self.actions = np.zeros((self.capacity, n_workers))
            self.rewards = np.zeros(self.capacity)
            self.next_states = np.zeros((self.capacity, n_workers, sdim))
            self.dones = np.zeros(self.capacity)
        except (MemoryError, ValueError):  # numpy raises ValueError for sizes past its index range
            wanted = self.capacity * (2 * n_workers * sdim + n_workers + 2) * 8
            raise ConfigError(
                f"train.replay_capacity: a buffer of {self.capacity} transitions needs "
                f"{wanted} bytes, which cannot be allocated"
            ) from None
        self.size = 0
        self.cursor = 0

    def push(self, s, a, r, s_next, done):
        c = self.cursor
        self.states[c] = s
        self.actions[c] = a
        self.rewards[c] = r
        self.next_states[c] = s_next
        self.dones[c] = 1.0 if done else 0.0
        self.cursor = (c + 1) % self.capacity
        self.size = min(self.size + 1, self.capacity)

    def sample(self, n, rng):
        if self.size < 1:
            raise ValueError("cannot sample from an empty replay buffer")
        idx = rng.gen.integers(0, self.size, size=n)
        return {
            "states": self.states[idx],
            "actions": self.actions[idx],
            "rewards": self.rewards[idx],
            "next_states": self.next_states[idx],
            "dones": self.dones[idx],
        }


def policy_allocator(agents, scenario, noise_rng=None, noise_std=0.0):
    """Allocator closure for run_episode: raw joint states -> raw loads p a_i.

    The closure evaluates the actors as they were when it was built: it
    stacks copies of their parameters once (Mlp.stack) and makes one pass
    over all agents per task, each agent reading its own state row.  Build
    a new allocator after the actors change.  With noise_rng set,
    exploration noise is added to each pre-scaling action and the result
    clipped back to [0, 1].  run_episode rounds the loads to integers.
    """
    scales = state_scales(scenario)
    n = scenario.n_workers
    p = scenario.p_rows
    actors = Mlp.stack([a.actor for a in agents])

    def allocate(world, states):
        norm = normalize_states(states, n, scales)
        acts = actors.forward(norm[:, None, :])[:, 0, 0]
        if noise_rng is not None and noise_std > 0:
            acts = acts + noise_rng.gen.normal(0.0, noise_std, n)
            acts = np.clip(acts, 0.0, 1.0)
        return p * acts

    return allocate


def train(scenario, cfg, rng, progress=None):
    """MADDPG training loop; returns (agents, learning curve).

    Per iteration: collect episodes with the current actors plus
    exploration noise, store per-task transitions, then for each agent draw
    an independent mini-batch and apply critic_update, actor_update and
    polyak_update.  The curve holds one mean total episode reward per
    iteration (rewards are shared, so averaging over agents is the
    identity).  A TD loss, mean Q or actor output that is not finite raises
    ValueError naming the iteration and the agent (and the task, for an
    actor output): the networks have diverged.

    Actors stay frozen for the first cfg.warmup_iterations iterations while
    the critics learn the feasibility cliff.  The reward has a local
    optimum at the all-zero allocation (inside the infeasible region,
    doing less work finishes sooner), and an actor driven by an untrained
    critic walks into it and saturates there; the warm-up is meant to let
    the critics see both sides of the cliff before the actors move.  It
    does not reliably do so: at scenario3 with the default TrainConfig,
    training ends at all-zero loads at seeds 0 and 1, and only 0.73% of
    the warm-up tasks at seed 0 are infeasible.  ROADMAP direction 2 is
    to find why and to make such a collapse loud.

    The replay buffer of cfg.replay_capacity is allocated before the first
    episode, so a capacity too large to allocate fails at once.
    """
    n = scenario.n_workers
    sdim = state_dim(n)
    scales = state_scales(scenario)
    agents = make_agents(
        n, rng.substream("init"), lr=cfg.learning_rate, optimizer=cfg.optimizer
    )
    buffer = ReplayBuffer(cfg.replay_capacity, n, sdim)
    curve = []
    episode_counter = 0

    for it in range(cfg.max_iterations):
        if cfg.max_iterations > 1:
            frac = it / (cfg.max_iterations - 1)
        else:
            frac = 0.0
        noise_std = cfg.noise_start + (cfg.noise_end - cfg.noise_start) * frac

        totals = []
        for _ in range(cfg.episodes_per_iteration):
            g = episode_counter
            episode_counter += 1
            allocator = policy_allocator(
                agents, scenario, noise_rng=rng.substream("noise", g), noise_std=noise_std
            )
            try:
                rec = simcore.run_episode(scenario, allocator, rng.substream("episode", g),
                                          penalty=cfg.penalty)
            except simcore.NonFiniteLoadError as err:
                # a load is p clip(actor output + noise), so only a NaN output is not finite
                raise ValueError(f"iteration {it}, task {err.task}, agent {err.worker}: "
                                 f"actor output is {err.loads[err.worker]}") from err
            k = scenario.k_tasks
            norm_states = normalize_states(np.stack(rec.states), n, scales)
            norm_actions = np.array([t.loads for t in rec.tasks], dtype=np.float64) / scenario.p_rows
            for j in range(k):
                done = j == k - 1
                s_next = norm_states[j + 1] if not done else np.zeros_like(norm_states[j])
                buffer.push(norm_states[j], norm_actions[j], rec.rewards[j], s_next, done)
            totals.append(sum(rec.rewards))
        curve.append(float(np.mean(totals)))

        if buffer.size >= cfg.minibatch:
            for i in range(n):
                batch = buffer.sample(cfg.minibatch, rng.substream("batch", it, i))
                loss = critic_update(agents, i, batch, cfg.gamma)
                if not math.isfinite(loss):
                    raise ValueError(f"iteration {it}, agent {i}: critic TD loss is {loss}")
                if it >= cfg.warmup_iterations:
                    q = actor_update(agents, i, batch)
                    if not math.isfinite(q):
                        raise ValueError(f"iteration {it}, agent {i}: actor mean Q is {q}")
            for i in range(n):
                polyak_update(agents[i], cfg.tau)

        if progress is not None:
            progress(it, curve[-1])

    return agents, curve


def save_checkpoint(path, agents, scenario):
    """Write every agent's networks, without optimizer state, as one checkpoint file."""
    nets = [getattr(a, k) for a in agents for k in NETS]
    header = {
        "format": CHECKPOINT_FORMAT,
        "n_workers": len(agents),
        "p_rows": scenario.p_rows,
        "nets": [{"dims": net.dims, "out_act": net.out_act} for net in nets],
    }
    with open(path, "wb") as fh:
        fh.write(json.dumps(header, sort_keys=True, separators=(",", ":")).encode() + b"\n")
        for net in nets:
            fh.write(net.flat.astype("<f8").tobytes())


def load_checkpoint(path, scenario=None):
    """Rebuild AgentNets, without optimizers, from a checkpoint file.

    Raises ConfigError naming the cause for another format, a malformed
    header, agents whose networks differ in dims or out_act from agent 0's
    (the policy evaluates all actors in one stacked pass) or a parameter
    block of another length than the header's networks take, and, with a
    scenario given, for another n_workers or p_rows.
    """
    with open(path, "rb") as fh:
        head, _, body = fh.read().partition(b"\n")
    try:
        header = json.loads(head)
        if header["format"] != CHECKPOINT_FORMAT:
            raise ValueError(f"its format is {header['format']!r}")
        n, p = int(header["n_workers"]), int(header["p_rows"])
        specs = [(net["dims"], net["out_act"]) for net in header["nets"]]
        if len(specs) != len(NETS) * n:
            raise ValueError(f"the header lists {len(specs)} networks for {n} workers")
        sizes = [param_count(dims) for dims, _ in specs]
        if len(body) != 8 * sum(sizes):
            cause = "truncated" if len(body) < 8 * sum(sizes) else "trailing bytes"
            raise ValueError(f"{cause}: the header's networks take {8 * sum(sizes)} bytes "
                             f"of parameters, the file holds {len(body)}")
        for k, (dims, out_act) in enumerate(specs):
            agent, j = divmod(k, len(NETS))
            if (dims, out_act) != specs[j]:
                raise ValueError(f"agent {agent}'s {NETS[j]} has dims {dims} and out_act "
                                 f"{out_act!r}, agent 0's has dims {specs[j][0]} and out_act "
                                 f"{specs[j][1]!r}")
        blocks = np.split(np.frombuffer(body, "<f8"), np.cumsum(sizes)[:-1])
        nets = [Mlp.from_params(dims, out_act, [block])
                for (dims, out_act), block in zip(specs, blocks)]
    except (KeyError, TypeError, ValueError) as err:
        raise ConfigError(f"{path}: not a valid {CHECKPOINT_FORMAT} file: {err}") from None
    if scenario is not None and n != scenario.n_workers:
        raise ConfigError(f"checkpoint has {n} agents, scenario has {scenario.n_workers} workers")
    if scenario is not None and p != scenario.p_rows:
        raise ConfigError(f"checkpoint was trained at p_rows = {p}, scenario has p_rows = {scenario.p_rows}")
    return [AgentNets(*nets[k:k + len(NETS)], None, None) for k in range(0, len(nets), len(NETS))]
