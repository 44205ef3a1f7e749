"""Outside-in tracing of the macc modules.

The tracer replaces module and class attributes with timing wrappers and
puts the originals back afterwards.  It wraps the name each caller
resolves at call time: ``experiments`` imports ``run_episode`` and
``hcmm_alloc`` by name, and ``simcore`` imports ``channel_capacity``,
``plan_batches`` and ``advance`` by name, so those are patched in the
importing module, not where they are defined.  Methods are patched on
their class, so every instance sees the wrapper.

Two kinds of wrapper:

* a span keeps a stack, so its self time is its duration minus the time
  of the spans and leaves called inside it;
* a leaf (``channel_capacity``, ``advance``: one call per simulated batch)
  only adds its count and busy time to an aggregate, and its duration to
  the enclosing span's child time.  Per-call spans would hold millions of
  records at paper scale.

Spans are aggregated by name in memory; nothing is written while tracing.
"""

import os
import time

import numpy as np

from macc import allocators, config, experiments, marl, nets, numerics, simcore

_clock = time.perf_counter


class Stat:
    """Aggregate of one traced name: calls, inclusive and self seconds, extras."""

    __slots__ = ("calls", "busy_s", "self_s", "rows", "bytes")

    def __init__(self):
        self.calls = 0
        self.busy_s = 0.0
        self.self_s = 0.0
        self.rows = 0
        self.bytes = 0


def _input_rows(args):
    x = args[1]  # Mlp.forward_cache(self, x)
    return 1 if np.ndim(x) == 1 else int(np.shape(x)[0])


def _cache_rows(args):
    acts, _ = args[1]  # Mlp.backward(self, cache, grad_out)
    return int(acts[0].shape[0])


def _file_bytes(args):
    return os.path.getsize(args[0])  # write_csv(path, ...), save_checkpoint(path, ...)


# (metric name, owner, attribute, kind, extra measurement)
# kind is "span" or "leaf"; the extra is (stat field, function of the call args),
# evaluated after the call returns.
TARGETS = (
    ("numerics.substream", numerics.RngStream, "substream", "span", None),
    ("coding.plan_batches", simcore, "plan_batches", "span", None),
    ("envmodels.channel_capacity", simcore, "channel_capacity", "leaf", None),
    ("envmodels.advance", simcore, "advance", "leaf", None),
    ("simcore.run_task", simcore, "run_task", "span", None),
    ("simcore.run_episode", simcore, "run_episode", "span", None),
    ("simcore.run_episode", experiments, "run_episode", "span", None),
    ("allocators.hcmm_alloc", experiments, "hcmm_alloc", "span", None),
    ("allocators.solve_hcmm_lambda", allocators, "solve_hcmm_lambda", "span", None),
    ("allocators.load_balanced_alloc", experiments, "load_balanced_alloc", "span", None),
    ("marl.build_state", marl, "build_state", "span", None),
    ("marl.critic_update", marl, "critic_update", "span", None),
    ("marl.td_target", marl, "td_target", "span", None),
    ("marl.actor_update", marl, "actor_update", "span", None),
    ("marl.polyak_update", marl, "polyak_update", "span", None),
    ("marl.replay_push", marl.ReplayBuffer, "push", "span", None),
    ("marl.replay_sample", marl.ReplayBuffer, "sample", "span", None),
    ("marl.save_checkpoint", marl, "save_checkpoint", "span", ("bytes", _file_bytes)),
    ("nets.forward", nets.Mlp, "forward_cache", "span", ("rows", _input_rows)),
    ("nets.backward", nets.Mlp, "backward", "span", ("rows", _cache_rows)),
    ("nets.adam_step", nets.Adam, "step", "span", None),
    ("experiments.write_csv", experiments, "write_csv", "span", ("bytes", _file_bytes)),
    ("config.load_config", config, "load_config", "span", None),
)


class Tracer:
    """Installs the wrappers in TARGETS on enter and restores them on exit."""

    def __init__(self):
        self.stats = {}
        self._stack = [[0.0]]  # per open span: seconds spent in its children
        self._saved = []

    def stat(self, name):
        if name not in self.stats:
            self.stats[name] = Stat()
        return self.stats[name]

    def span(self, name, fn, extra=None):
        stat = self.stat(name)
        stack = self._stack

        def traced(*args, **kwargs):
            frame = [0.0]
            stack.append(frame)
            t0 = _clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dur = _clock() - t0
                stack.pop()
                stack[-1][0] += dur
                stat.calls += 1
                stat.busy_s += dur
                stat.self_s += dur - frame[0]
                if extra is not None:
                    field, measure = extra
                    setattr(stat, field, getattr(stat, field) + measure(args))

        traced.__wrapped__ = fn
        return traced

    def leaf(self, name, fn):
        stat = self.stat(name)
        stack = self._stack

        def traced(*args):
            t0 = _clock()
            out = fn(*args)
            dur = _clock() - t0
            stack[-1][0] += dur
            stat.calls += 1
            stat.busy_s += dur
            stat.self_s += dur
            return out

        traced.__wrapped__ = fn
        return traced

    def _patch(self, owner, attr, wrapper):
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapper)

    def __enter__(self):
        for name, owner, attr, kind, extra in TARGETS:
            fn = getattr(owner, attr)
            wrapper = self.leaf(name, fn) if kind == "leaf" else self.span(name, fn, extra)
            self._patch(owner, attr, wrapper)

        # The allocator closure that train() builds each episode is the
        # policy's per-task entry point; wrap every closure it returns.
        make = marl.policy_allocator

        def policy_allocator(*args, **kwargs):
            return self.span("marl.allocate", make(*args, **kwargs))

        policy_allocator.__wrapped__ = make

        self.stat("marl.allocate")
        self._patch(marl, "policy_allocator", policy_allocator)
        return self

    def __exit__(self, *exc):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)
        return False

    def restored(self):
        """True when every patched attribute holds its original again."""
        patched = [(owner, attr) for _, owner, attr, _, _ in TARGETS]
        patched.append((marl, "policy_allocator"))
        return not self._saved and all(
            not hasattr(getattr(owner, attr), "__wrapped__") for owner, attr in patched
        )
