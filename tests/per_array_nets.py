"""Per-array network code, kept as the reference for macc.nets.

Before networks held one flat parameter vector, each layer's weight and
bias were separate arrays: forward ran one network on one 2-D input,
backward returned both the parameter gradients (one array per parameter,
in params() order) and the input gradient, and Adam and SGD stepped each
array in turn.  These are those functions, unchanged in their
arithmetic, so test_nets_reference.py can require macc.nets' stacked,
flat and split code to give the same bits.
"""

import numpy as np

from macc.nets import _sigmoid


def forward_cache(weights, biases, out_act, x):
    h = np.asarray(x, dtype=np.float64)
    ins = []
    last = len(weights) - 1
    for i, (w, b) in enumerate(zip(weights, biases)):
        ins.append(h)
        z = h @ w + b
        if i < last:
            h = np.maximum(z, 0.0)
        elif out_act == "sigmoid":
            h = _sigmoid(z)
        else:
            h = z
    return h, (ins, h)


def backward(weights, out_act, cache, grad_out):
    """(param_grads in params() order, grad_input)."""
    ins, y = cache
    g = np.asarray(grad_out, dtype=np.float64)
    if out_act == "sigmoid":
        g = g * y * (1.0 - y)
    w_grads = [None] * len(weights)
    b_grads = [None] * len(weights)
    for i in range(len(weights) - 1, -1, -1):
        w_grads[i] = ins[i].T @ g
        b_grads[i] = g.sum(axis=0)
        g = g @ weights[i].T
        if i > 0:
            g = g * (ins[i] > 0.0)
    grads = []
    for wg, bg in zip(w_grads, b_grads):
        grads.append(wg)
        grads.append(bg)
    return grads, g


class Sgd:
    def __init__(self, params, lr):
        self.lr = lr

    def step(self, params, grads):
        for p, g in zip(params, grads):
            p -= self.lr * g


class Adam:
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
