"""Fully connected networks with manual backprop, plus SGD and Adam.

Everything the trainer needs and nothing more: four dense layers (three
hidden ReLU layers of 64 units by default), sigmoid or linear output,
uniform initialization in [-1/sqrt(fan_in), +1/sqrt(fan_in)], and exact
analytic gradients (checked against finite differences in the tests).
Inputs are 2-D, one row per sample.

Each network holds all its parameters in one float64 vector, `flat`:
layer by layer from the input, each weight matrix in row-major order
followed by its bias.  `weights`, `biases` and `params()` are views into
it, so writing to them writes to the vector.  Gradients come back as a
vector of the same layout, and the optimizers and Polyak averaging step
the whole vector at once.  `backward` gives the parameter gradient and
`input_grad` the gradient with respect to the input; each caller asks
for the one it uses.

Mlp.stack builds a network whose vector carries a leading axis, one row
per stacked network, from copies of their parameters.  The same
forward_cache evaluates it on a (networks, rows, in_dim) input, with one
matmul per layer for all of them.

The policy evaluates a few rows per call, once per task, so forward_cache
keeps its fixed cost low: each bias's row view is built once, when the
network takes its vector, and the sigmoid is one exp(-|z|) and a select
over the whole output, with no boolean-mask gathers or scatters.
"""

import numpy as np


def _sigmoid(z):
    """1 / (1 + exp(-z)) as 1 / (1 + e) for z >= 0 and e / (1 + e) below, e = exp(-|z|).

    exp(-|z|) never overflows, and each branch gives the bits of its own
    masked formula: exp(-|z|) is exp(-z) at z >= 0 and exp(z) below.
    """
    e = np.exp(-np.abs(z))
    return np.where(z >= 0, 1.0, e) / (1.0 + e)


def _check_layers(dims, out_act):
    if out_act not in ("sigmoid", "linear"):
        raise ValueError(f"unknown output activation '{out_act}'")
    dims = [int(d) for d in dims]
    if any(d < 1 for d in dims):
        raise ValueError(f"layer dimensions must be positive, got {dims}")
    return dims


def param_count(dims):
    """Length of the parameter vector of a network with these layer dims."""
    return sum((fan_in + 1) * fan_out for fan_in, fan_out in zip(dims[:-1], dims[1:]))


def _split(flat, dims):
    """Views of a (..., param_count) vector: each weight (..., fan_in, fan_out), then its bias (..., fan_out)."""
    lead = flat.shape[:-1]
    views = []
    k = 0
    for fan_in, fan_out in zip(dims[:-1], dims[1:]):
        views.append(flat[..., k:k + fan_in * fan_out].reshape(*lead, fan_in, fan_out))
        k += fan_in * fan_out
        views.append(flat[..., k:k + fan_out])
        k += fan_out
    return views


def _mT(a):
    return a.swapaxes(-1, -2)  # ndarray.mT, which numpy < 2.0 lacks


class Mlp:
    """Dense network: len(hidden) ReLU layers plus one output layer.

    out_act is "sigmoid" or "linear".  Parameters live in the vector
    self.flat; self.weights and self.biases (index 0 nearest the input)
    are views into it.
    """

    def __init__(self, in_dim, hidden, out_dim, out_act, rng):
        dims = _check_layers([in_dim, *hidden, out_dim], out_act)
        self._hold(dims, out_act, np.empty(param_count(dims)))
        for w, b in zip(self.weights, self.biases):
            bound = 1.0 / np.sqrt(w.shape[0])
            w[...] = rng.gen.uniform(-bound, bound, w.shape)
            b[...] = rng.gen.uniform(-bound, bound, b.shape)

    def _hold(self, dims, out_act, flat):
        self.dims = dims
        self.out_act = out_act
        self.flat = flat
        views = _split(flat, dims)
        self.weights = views[0::2]
        self.biases = views[1::2]
        self._bias_rows = [b[..., None, :] for b in self.biases]  # forward_cache adds these

    @classmethod
    def _of(cls, dims, out_act, flat):
        net = object.__new__(cls)
        net._hold(dims, out_act, flat)
        return net

    @classmethod
    def from_params(cls, dims, out_act, params):
        """Network with the given dims and out_act holding a float64 copy of params.

        params are arrays whose raveled concatenation is the parameter
        vector: the params() list, or the vector itself as one array.
        """
        dims = _check_layers(dims, out_act)
        flat = np.concatenate([np.ravel(q) for q in params]).astype(np.float64)
        if flat.shape != (param_count(dims),):
            raise ValueError(f"layers {dims} take {param_count(dims)} parameters, got {flat.size}")
        return cls._of(dims, out_act, flat)

    @classmethod
    def stack(cls, nets):
        """One network evaluating every net side by side, from copies of their parameters.

        The nets must share dims and out_act.  The result's vector has shape
        (len(nets), param_count), its weights (len(nets), fan_in, fan_out),
        and it takes (len(nets), rows, in_dim) inputs.
        """
        first = nets[0]
        for k, net in enumerate(nets):
            if net.dims != first.dims or net.out_act != first.out_act:
                raise ValueError(f"net {k} has layers {net.dims} ({net.out_act}), "
                                 f"net 0 has {first.dims} ({first.out_act})")
        return cls._of(first.dims, first.out_act, np.stack([net.flat for net in nets]))

    def params(self):
        """Views of the parameters, weights and biases interleaved from the input."""
        return _split(self.flat, self.dims)

    def forward(self, x):
        y, _ = self.forward_cache(x)
        return y

    def forward_cache(self, x):
        """Forward pass over a (rows, in_dim) input, keeping activations for backward().

        A stacked network takes (networks, rows, in_dim).  Returns (output,
        cache): the output has shape (..., rows, out_dim), and the cache is
        (each layer's input, the output).
        """
        h = np.asarray(x, dtype=np.float64)
        lead = self.flat.shape[:-1]
        if h.ndim != len(lead) + 2 or h.shape[:-2] != lead or h.shape[-1] != self.dims[0]:
            want = ", ".join([*map(str, lead), "rows", str(self.dims[0])])
            raise ValueError(f"expected input of shape ({want}), got {h.shape}")
        ins = []
        last = len(self.weights) - 1
        for i, (w, b) in enumerate(zip(self.weights, self._bias_rows)):
            ins.append(h)
            z = h @ w
            z += b
            if i < last:
                h = np.maximum(z, 0.0, out=z)
            elif self.out_act == "sigmoid":
                h = _sigmoid(z)
            else:
                h = z
        return h, (ins, h)

    def _output_delta(self, y, grad_out):
        """grad_out (d loss / d output) taken back through the output activation."""
        g = np.asarray(grad_out, dtype=np.float64)
        if g.shape != y.shape:
            raise ValueError(f"gradient shape {g.shape} does not match output {y.shape}")
        if self.out_act == "sigmoid":
            g = g * y * (1.0 - y)
        return g

    def backward(self, cache, grad_out):
        """Parameter gradient of grad_out (d loss / d output) through the cache of forward_cache.

        Returns a vector laid out like self.flat.
        """
        ins, y = cache
        g = self._output_delta(y, grad_out)
        grads = np.empty_like(self.flat)
        views = _split(grads, self.dims)
        for i in range(len(self.weights) - 1, -1, -1):
            np.matmul(_mT(ins[i]), g, out=views[2 * i])
            g.sum(axis=-2, out=views[2 * i + 1])
            if i > 0:
                g = g @ _mT(self.weights[i])
                np.multiply(g, ins[i] > 0.0, out=g)
        return grads

    def input_grad(self, cache, grad_out):
        """Gradient of grad_out (d loss / d output) with respect to the input of forward_cache."""
        ins, y = cache
        g = self._output_delta(y, grad_out)
        for i in range(len(self.weights) - 1, -1, -1):
            g = g @ _mT(self.weights[i])
            if i > 0:
                np.multiply(g, ins[i] > 0.0, out=g)
        return g

    def clone(self):
        """Deep copy with identical parameters (used for target networks)."""
        return Mlp._of(self.dims, self.out_act, self.flat.copy())


class Sgd:
    """Plain gradient descent on a parameter vector."""

    def __init__(self, flat, lr):
        self.lr = lr

    def step(self, flat, grad):
        flat -= self.lr * grad


class Adam:
    """Adaptive moment estimation with the standard coefficients, on a parameter vector."""

    def __init__(self, flat, lr, beta1=0.9, beta2=0.999, eps=1.0e-8):
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.t = 0
        self.m = np.zeros_like(flat)
        self.v = np.zeros_like(flat)

    def step(self, flat, grad):
        self.t += 1
        b1t = 1.0 - self.beta1 ** self.t
        b2t = 1.0 - self.beta2 ** self.t
        m, v = self.m, self.v
        m *= self.beta1
        m += (1.0 - self.beta1) * grad
        v *= self.beta2
        v += (1.0 - self.beta2) * grad * grad
        flat -= self.lr * (m / b1t) / (np.sqrt(v / b2t) + self.eps)


def make_optimizer(kind, flat, lr):
    if kind == "adam":
        return Adam(flat, lr)
    if kind == "sgd":
        return Sgd(flat, lr)
    raise ValueError(f"unknown optimizer '{kind}'")
