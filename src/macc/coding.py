"""Gaussian encoding of the task matrix, batch partitioning, and decoding.

The task owner encodes A (p x m) as A_hat = G A where G is a tall Gaussian
matrix.  Any p rows of G are full rank with probability 1, so the product
A x is recoverable by least squares from any p encoded result rows,
whichever workers they came from.

One G of N p rows is generated per run; worker i owns the block of
rows [i p, (i+1) p) and a load of l rows means the first l rows of that
block.  This fixed superset is equivalent to re-encoding with q = sum(l)
rows per task and avoids repeating the encoding cost.

The engine (simcore.run_task) needs only p, the payload length m and the
loads: it simulates when rows arrive, never their values, so it draws no
G.  plan_batches is the one function it calls here, once per task in
which some worker sends more than one batch, on all the loaded workers'
loads at once.  Which rows a receipt carries follows from the block
layout above: worker i's k-th receipt continues its block where the
previous one stopped.
"""

import math

import numpy as np

from .numerics import as_matrix, as_vector

COND_CAP = 1.0e12  # the largest cond(G^T G) = cond(G)^2 that decode trusts


class InsufficientRowsError(ValueError):
    """Fewer than p encoded rows received: the task result is undecodable."""


class SingularSystemError(ValueError):
    """The received rows are too ill-conditioned to decode from.

    Carries the condition estimate of the normal-equation matrix in
    ``condition``.
    """

    def __init__(self, condition):
        self.condition = condition
        super().__init__(
            "least-squares system is numerically singular "
            f"(cond(G^T G) ~ {condition:.3e})"
        )


def generate_encoding_matrix(p, n_workers, rng):
    """Draw the (N p, p) i.i.d. standard Gaussian encoding matrix G."""
    p = int(p)
    n_workers = int(n_workers)
    if p < 1 or n_workers < 1:
        raise ValueError(f"dimensions must be positive, got p={p}, n_workers={n_workers}")
    return rng.gen.standard_normal((n_workers * p, p))


def encode(g, a):
    """A_hat = G A, for the encoding matrix g of generate_encoding_matrix."""
    a = as_matrix(a)
    if a.shape[0] != g.shape[1]:
        raise ValueError(f"dimension mismatch: A has {a.shape[0]} rows, code expects {g.shape[1]}")
    return g @ a


def plan_batches(loads, batch_size):
    """Partition each load of l rows into w = ceil(l / b) batches.

    Returns (counts, last) as int64 arrays, one entry per load: the w of
    each, and the rows of its last batch, l - (w - 1) b.  Every other
    batch has b rows, and a b above l gives one batch of l rows.  A load
    past int64 raises OverflowError.
    """
    loads = np.asarray(loads, dtype=np.int64)
    if batch_size < 1 or (loads < 1).any():
        raise ValueError(f"loads and batch size must be >= 1, got loads {loads.tolist()} "
                         f"and batch size {batch_size}")
    counts = -(-loads // batch_size)
    return counts, loads - (counts - 1) * batch_size


def decode(g_received, y_received):
    """Recover A x from >= p received encoded rows by least squares.

    g_received holds the encoding rows matching y_received in order.  The
    system is consistent by construction, so the least-squares solution
    (G^T G)^{-1} G^T y is exact up to floating error.  It is computed by
    an SVD-based routine, not the normal equations, and the singular
    values it returns give cond(G^T G) = cond(G)^2, which must not exceed
    COND_CAP, otherwise SingularSystemError is raised.
    """
    g = as_matrix(g_received)
    y = as_vector(y_received)
    q, p = g.shape
    if y.shape[0] != q:
        raise ValueError(f"dimension mismatch: G is {g.shape}, y has length {y.shape[0]}")
    if q < p:
        raise InsufficientRowsError(f"received {q} rows, need at least {p} to decode")
    z, _, _, s = np.linalg.lstsq(g, y, rcond=None)
    cond_g = float(s[0]) / float(s[-1]) if s[-1] > 0 else math.inf
    if cond_g * cond_g > COND_CAP:
        raise SingularSystemError(cond_g * cond_g)
    return z
