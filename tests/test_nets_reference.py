"""macc.nets against the per-array reference in per_array_nets.py, bit for bit.

The stacked actor pass, the flat optimizer steps and the split of
backward into backward and input_grad only regroup the same arithmetic,
so each must give exactly the reference's bits.
"""

import math

import numpy as np
import pytest

import per_array_nets as ref
from macc.marl import make_agents, state_dim
from macc.nets import Adam, Mlp, Sgd
from macc.numerics import RngStream


def flat(arrays):
    return np.concatenate([a.ravel() for a in arrays])


@pytest.mark.parametrize("n", [3, 4, 5])
@pytest.mark.parametrize("rows", [1, 256])
def test_stacked_actor_pass_equals_per_agent_forward(n, rows):
    actors = [a.actor for a in make_agents(n, RngStream(30 + n))]
    x = RngStream(40 + n).gen.normal(0, 1, (n, rows, state_dim(n)))
    stacked = Mlp.stack(actors).forward(x)
    assert stacked.shape == (n, rows, 1)
    for i, actor in enumerate(actors):
        want, _ = ref.forward_cache(actor.weights, actor.biases, "sigmoid", x[i])
        np.testing.assert_array_equal(stacked[i], want)


def test_nan_in_one_agent_reaches_only_its_output():
    actors = [a.actor for a in make_agents(4, RngStream(34))]
    actors[2].weights[1][3, 5] = math.nan
    x = RngStream(44).gen.normal(0, 1, (4, 1, state_dim(4)))
    out = Mlp.stack(actors).forward(x)[:, 0, 0]
    assert np.isnan(out[2])
    for i in (0, 1, 3):
        want, _ = ref.forward_cache(actors[i].weights, actors[i].biases, "sigmoid", x[i])
        assert out[i] == want[0, 0]


@pytest.mark.parametrize("kind", ["adam", "sgd"])
def test_flat_optimizer_equals_per_array_steps(kind):
    net = Mlp(14, (64, 64, 64), 1, "linear", RngStream(50))
    arrays = [q.copy() for q in net.params()]
    make = {"adam": (Adam, ref.Adam), "sgd": (Sgd, ref.Sgd)}[kind]
    opt, ref_opt = make[0](net.flat, 0.01), make[1](arrays, 0.01)
    gen = RngStream(51).gen
    for _ in range(20):
        grads = [gen.normal(0, 1, q.shape) for q in arrays]
        opt.step(net.flat, flat(grads))
        ref_opt.step(arrays, grads)
        np.testing.assert_array_equal(net.flat, flat(arrays))


@pytest.mark.parametrize("out_act,in_dim", [("sigmoid", 14), ("linear", 60)])
@pytest.mark.parametrize("rows", [1, 7, 256])
def test_backward_and_input_grad_equal_the_single_backward(out_act, in_dim, rows):
    net = Mlp(in_dim, (64, 64, 64), 1, out_act, RngStream(60))
    gen = RngStream(61).gen
    x = gen.normal(0, 1, (rows, in_dim))
    grad_out = gen.normal(0, 1, (rows, 1))
    _, cache = net.forward_cache(x)
    _, ref_cache = ref.forward_cache(net.weights, net.biases, out_act, x)
    want_params, want_input = ref.backward(net.weights, out_act, ref_cache, grad_out)
    np.testing.assert_array_equal(net.backward(cache, grad_out), flat(want_params))
    np.testing.assert_array_equal(net.input_grad(cache, grad_out), want_input)


def test_stacked_backward_and_input_grad_equal_per_net():
    nets = [Mlp(14, (64, 64, 64), 1, "sigmoid", RngStream(70 + k)) for k in range(3)]
    gen = RngStream(73).gen
    x = gen.normal(0, 1, (3, 7, 14))
    grad_out = gen.normal(0, 1, (3, 7, 1))
    stacked = Mlp.stack(nets)
    _, cache = stacked.forward_cache(x)
    grads, grad_in = stacked.backward(cache, grad_out), stacked.input_grad(cache, grad_out)
    assert grads.shape == stacked.flat.shape
    for k, net in enumerate(nets):
        _, ref_cache = ref.forward_cache(net.weights, net.biases, "sigmoid", x[k])
        want_params, want_input = ref.backward(net.weights, "sigmoid", ref_cache, grad_out[k])
        np.testing.assert_array_equal(grads[k], flat(want_params))
        np.testing.assert_array_equal(grad_in[k], want_input)
