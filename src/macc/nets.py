"""Fully connected networks with manual backprop, plus SGD and Adam.

Everything the trainer needs and nothing more: four dense layers (three
hidden ReLU layers of 64 units by default), sigmoid or linear output,
uniform initialization in [-1/sqrt(fan_in), +1/sqrt(fan_in)], and exact
analytic gradients (checked against finite differences in the tests).
Inputs are 2-D, one row per sample.  Clones and checkpoint loading build
networks from given arrays through Mlp.from_params.
"""

import numpy as np


def _sigmoid(z):
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def _check_layers(dims, out_act):
    if out_act not in ("sigmoid", "linear"):
        raise ValueError(f"unknown output activation '{out_act}'")
    dims = [int(d) for d in dims]
    if any(d < 1 for d in dims):
        raise ValueError(f"layer dimensions must be positive, got {dims}")
    return dims


class Mlp:
    """Dense network: len(hidden) ReLU layers plus one output layer.

    out_act is "sigmoid" or "linear".  Parameters live in self.weights and
    self.biases (index 0 nearest the input).
    """

    def __init__(self, in_dim, hidden, out_dim, out_act, rng):
        self.dims = dims = _check_layers([in_dim, *hidden, out_dim], out_act)
        self.out_act = out_act
        self.weights = []
        self.biases = []
        for fan_in, fan_out in zip(dims[:-1], dims[1:]):
            bound = 1.0 / np.sqrt(fan_in)
            self.weights.append(rng.gen.uniform(-bound, bound, (fan_in, fan_out)))
            self.biases.append(rng.gen.uniform(-bound, bound, fan_out))

    @classmethod
    def from_params(cls, dims, out_act, params):
        """Network with the given dims and out_act holding copies of params (params() order)."""
        net = object.__new__(cls)
        net.dims = _check_layers(dims, out_act)
        net.out_act = out_act
        net.weights = [np.array(w, dtype=np.float64) for w in params[0::2]]
        net.biases = [np.array(b, dtype=np.float64) for b in params[1::2]]
        return net

    def params(self):
        """Flat list of parameter arrays, weights and biases interleaved."""
        out = []
        for w, b in zip(self.weights, self.biases):
            out.append(w)
            out.append(b)
        return out

    def forward(self, x):
        y, _ = self.forward_cache(x)
        return y

    def forward_cache(self, x):
        """Forward pass over a (rows, in_dim) input, keeping activations for backward().

        Returns (output, cache): the output has shape (rows, out_dim), and
        the cache is (each layer's input, the output).
        """
        h = np.asarray(x, dtype=np.float64)
        if h.ndim != 2 or h.shape[1] != self.dims[0]:
            raise ValueError(f"expected input of shape (rows, {self.dims[0]}), got {h.shape}")
        ins = []
        last = len(self.weights) - 1
        for i, (w, b) in enumerate(zip(self.weights, self.biases)):
            ins.append(h)
            z = h @ w + b
            if i < last:
                h = np.maximum(z, 0.0)
            elif self.out_act == "sigmoid":
                h = _sigmoid(z)
            else:
                h = z
        return h, (ins, h)

    def backward(self, cache, grad_out):
        """Backprop grad_out (d loss / d output) through the cache of forward_cache.

        Returns (param_grads, grad_input) with param_grads matching
        params() order.
        """
        ins, y = cache
        g = np.asarray(grad_out, dtype=np.float64)
        if g.shape != y.shape:
            raise ValueError(f"gradient shape {g.shape} does not match output {y.shape}")

        if self.out_act == "sigmoid":
            g = g * y * (1.0 - y)
        w_grads = [None] * len(self.weights)
        b_grads = [None] * len(self.weights)
        for i in range(len(self.weights) - 1, -1, -1):
            w_grads[i] = ins[i].T @ g
            b_grads[i] = g.sum(axis=0)
            g = g @ self.weights[i].T
            if i > 0:
                g = g * (ins[i] > 0.0)
        grads = []
        for wg, bg in zip(w_grads, b_grads):
            grads.append(wg)
            grads.append(bg)
        return grads, g

    def clone(self):
        """Deep copy with identical parameters (used for target networks)."""
        return Mlp.from_params(self.dims, self.out_act, self.params())


class Sgd:
    """Plain gradient descent on a params() list."""

    def __init__(self, params, lr):
        self.lr = lr

    def step(self, params, grads):
        for p, g in zip(params, grads):
            p -= self.lr * g


class Adam:
    """Adaptive moment estimation with the standard coefficients."""

    def __init__(self, params, lr, beta1=0.9, beta2=0.999, eps=1.0e-8):
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.t = 0
        self.m = [np.zeros_like(p) for p in params]
        self.v = [np.zeros_like(p) for p in params]

    def step(self, params, grads):
        self.t += 1
        b1t = 1.0 - self.beta1 ** self.t
        b2t = 1.0 - self.beta2 ** self.t
        for p, g, m, v in zip(params, grads, self.m, self.v):
            m *= self.beta1
            m += (1.0 - self.beta1) * g
            v *= self.beta2
            v += (1.0 - self.beta2) * g * g
            p -= self.lr * (m / b1t) / (np.sqrt(v / b2t) + self.eps)


def make_optimizer(kind, params, lr):
    if kind == "adam":
        return Adam(params, lr)
    if kind == "sgd":
        return Sgd(params, lr)
    raise ValueError(f"unknown optimizer '{kind}'")
