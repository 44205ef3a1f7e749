"""MADDPG trainer for the load-allocation MDP of simcore.run_episode.

Each worker is an agent. simcore.build_state gives its observation
[d_i, d_-i, v_i, v_-i, v_m] (dimension 3N+2), already scaled to O(1) for
the networks, and simcore.reward the shared reward
r = -T_j - c 1[sum(l) < p]; this module learns the actions.  The action is
the load l_i in [0, p], handled internally in normalized [0, 1] form.

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

A checkpoint file is one JSON header line followed by every agent's
parameters.  Every agent has the same networks, so the header states each
network role once: format, n_workers, p_rows and one dims and out_act per
role, in NETS order.  The body is agent by agent, each network's parameter
vector in NETS order, as little-endian float64.  load_checkpoint is the
one check that a policy fits a scenario.
"""

import json
import math
from dataclasses import dataclass

import numpy as np

from . import simcore
from .config import ConfigError
from .nets import Mlp, make_optimizer, param_count
from .simcore import build_state  # noqa: F401  perfbench/tracer.py times it as marl.build_state
from .simcore import state_dim

HIDDEN = (64, 64, 64)
CHECKPOINT_FORMAT = "macc-checkpoint-3"
NETS = ("actor", "critic", "target_actor", "target_critic")  # AgentNets' networks, in order


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
    """Fixed-capacity ring of transitions with uniform with-replacement sampling.

    The ring keeps each observation once: a transition's next state is
    the observation in the slot after it, or zeros when it ends its
    episode (done 1).  push writes whole episodes in ring order, so no
    kept transition's successor is overwritten before the transition
    itself, and the newest transition ends an episode: the next state
    read from the following slot is always the one the transition had.
    """

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
            self.dones = np.zeros(self.capacity)
        except (MemoryError, ValueError):  # numpy raises ValueError for sizes past its index range
            wanted = self.capacity * (n_workers * sdim + n_workers + 2) * 8
            raise ConfigError(
                f"train.replay_capacity: a buffer of {self.capacity} transitions needs "
                f"{wanted} bytes, which cannot be allocated"
            ) from None
        self.size = 0
        self.cursor = 0

    def push(self, states, actions, rewards):
        """Store one episode's K transitions, as K single writes in task order would.

        states holds the episode's (K, N, sdim) observations, actions its
        (K, N) normalized loads and rewards its K rewards; the last
        transition has done 1, the others done 0.  Each array takes the
        episode in at most two slice writes, the second where the ring
        wraps to its start; when K exceeds the capacity, only the last
        capacity transitions are written, which are the ones K single
        writes would leave.
        """
        k = len(rewards)
        keep = min(k, self.capacity)
        skip = k - keep
        dones = np.zeros(keep)
        dones[-1] = 1.0
        episode = (
            (self.states, states[skip:]),
            (self.actions, actions[skip:]),
            (self.rewards, rewards[skip:]),
            (self.dones, dones),
        )
        start = (self.cursor + skip) % self.capacity
        head = min(keep, self.capacity - start)  # rows written before the ring wraps
        for ring, rows in episode:
            ring[start:start + head] = rows[:head]
            if head < keep:
                ring[:keep - head] = rows[head:]
        self.cursor = (self.cursor + k) % self.capacity
        self.size = min(self.size + k, self.capacity)

    def sample(self, n, rng):
        """n transitions drawn uniformly with replacement from the stored ones.

        Each next state is read from the slot after its transition and
        zeroed where the transition ends its episode.  rng is the
        minibatch's own stream, which makes its one draw at once, so it
        draws through rng.fresh_gen(): no Generator is built.
        """
        if self.size < 1:
            raise ValueError("cannot sample from an empty replay buffer")
        idx = rng.fresh_gen().integers(0, self.size, size=n)
        dones = self.dones[idx]
        next_states = self.states[(idx + 1) % self.capacity]
        next_states[dones == 1.0] = 0.0
        return {
            "states": self.states[idx],
            "actions": self.actions[idx],
            "rewards": self.rewards[idx],
            "next_states": next_states,
            "dones": dones,
        }


def policy_allocator(agents, scenario, noise_rng=None, noise_std=0.0):
    """Allocator closure for run_episode: joint observation -> raw loads p a_i.

    states is run_episode's observation, already scaled by the episode
    scenario's state_scales, and goes to the actors as given.  The closure
    evaluates the actors as they were when it was built: it stacks copies
    of their parameters once (Mlp.stack) and makes one pass over all
    agents per task, each agent reading its own state row.  Build a new
    allocator after the actors change.  With noise_rng set,
    exploration noise is added to each pre-scaling action and the result
    clipped back to [0, 1].  The closure returns the raw loads as a list
    of Python floats, so run_episode checks and rounds them to integers
    as floats, not as numpy scalars.
    """
    n = scenario.n_workers
    p = scenario.p_rows
    actors = Mlp.stack([a.actor for a in agents])

    def allocate(world, states):
        acts = actors.forward(states[:, None, :])[:, 0, 0]
        if noise_rng is not None and noise_std > 0:
            acts = acts + noise_rng.gen.normal(0.0, noise_std, n)
            acts = np.clip(acts, 0.0, 1.0)
        return (p * acts).tolist()

    return allocate


def train(scenario, cfg, rng, progress=None):
    """MADDPG training loop; returns (agents, learning curve).

    Per iteration: collect episodes with the current actors plus
    exploration noise, store each episode's transitions with one
    ReplayBuffer.push, then for each agent draw an independent mini-batch
    and apply critic_update, actor_update and polyak_update.  The curve
    holds one mean total episode reward per iteration (rewards are shared,
    so averaging over agents is the identity).  A TD loss, mean Q or actor
    output that is not finite raises ValueError naming the iteration and
    the agent (and the task, for an actor output): the networks have
    diverged.

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
    episode, so a capacity too large to allocate fails at once.  Training
    holds one episode's record at a time: each is dropped once its states,
    loads and rewards are in the buffer.
    """
    n = scenario.n_workers
    sdim = state_dim(n)
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
            norm_actions = np.array([t.loads for t in rec.tasks], dtype=np.float64) / scenario.p_rows
            buffer.push(np.stack(rec.states), norm_actions, rec.rewards)
            totals.append(sum(rec.rewards))
            del rec  # so the next episode's receipt logs are not held beside this one's
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
    """Write every agent's networks, without optimizer state, as one checkpoint file.

    The header states agent 0's networks, which every agent shares.
    """
    first = [getattr(agents[0], k) for k in NETS]
    header = {
        "format": CHECKPOINT_FORMAT,
        "n_workers": len(agents),
        "p_rows": scenario.p_rows,
        "nets": [{"dims": net.dims, "out_act": net.out_act} for net in first],
    }
    with open(path, "wb") as fh:
        fh.write(json.dumps(header, sort_keys=True, separators=(",", ":")).encode() + b"\n")
        for agent in agents:
            for k in NETS:
                fh.write(getattr(agent, k).flat.astype("<f8").tobytes())


def load_checkpoint(path, scenario=None):
    """Rebuild AgentNets, without optimizers, from a checkpoint file.

    This is the one check that a policy fits a scenario.  Raises
    ConfigError naming the cause for another format, a malformed header, a
    header whose networks do not take the input widths its n_workers gives
    (state_dim(n) for an actor, n (state_dim(n) + 1) for a critic) or do
    not give one output, a body
    of another length than n_workers agents of the header's networks take,
    and, with a scenario given, for another n_workers or p_rows.
    """
    with open(path, "rb") as fh:
        head, _, body = fh.read().partition(b"\n")
    try:
        header = json.loads(head)
        if header["format"] != CHECKPOINT_FORMAT:
            raise ValueError(f"its format is {header['format']!r}")
        n, p = int(header["n_workers"]), int(header["p_rows"])
        specs = [(net["dims"], net["out_act"]) for net in header["nets"]]
        if len(specs) != len(NETS):
            raise ValueError(f"the header lists {len(specs)} networks, not one per role {NETS}")
        sdim = state_dim(n)
        for role, (dims, _) in zip(NETS, specs):
            width = sdim if role.endswith("actor") else n * (sdim + 1)
            if dims[0] != width or dims[-1] != 1:
                raise ValueError(f"its {role} has dims {dims}: {n} workers need {width} inputs "
                                 f"and 1 output")
        sizes = [param_count(dims) for dims, _ in specs] * n
        if len(body) != 8 * sum(sizes):
            cause = "truncated" if len(body) < 8 * sum(sizes) else "trailing bytes"
            raise ValueError(f"{cause}: {n} agents of the header's networks take "
                             f"{8 * sum(sizes)} bytes of parameters, the file holds {len(body)}")
        blocks = np.split(np.frombuffer(body, "<f8"), np.cumsum(sizes)[:-1])
        nets = [Mlp.from_params(dims, out_act, [block])
                for (dims, out_act), block in zip(specs * n, blocks)]
    except (IndexError, KeyError, TypeError, ValueError) as err:
        raise ConfigError(f"{path}: not a valid {CHECKPOINT_FORMAT} file: {err}") from None
    if scenario is not None and n != scenario.n_workers:
        raise ConfigError(f"checkpoint has {n} agents, scenario has {scenario.n_workers} workers")
    if scenario is not None and p != scenario.p_rows:
        raise ConfigError(f"checkpoint was trained at p_rows = {p}, scenario has p_rows = {scenario.p_rows}")
    return [AgentNets(*nets[k:k + len(NETS)], None, None) for k in range(0, len(nets), len(NETS))]
