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
G.  plan_batches is the one function it calls here.  Which rows a receipt
carries follows from the block layout above: worker i's k-th receipt
continues its block where the previous one stopped.
"""

from dataclasses import dataclass

from .numerics import as_matrix, as_vector, least_squares_solve


class InsufficientRowsError(ValueError):
    """Fewer than p encoded rows received: the task result is undecodable."""


@dataclass(frozen=True)
class BatchPlan:
    """Split of a load into count batches: count - 1 of batch_size rows, then last."""

    count: int
    batch_size: int
    last: int


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


def plan_batches(load, batch_size):
    """Partition a load of l rows into w = ceil(l / b) batches.

    All batches have b rows except possibly the last, which has
    l - (w - 1) b.
    """
    load = int(load)
    batch_size = int(batch_size)
    if load < 1 or batch_size < 1:
        raise ValueError(f"load and batch size must be >= 1, got ({load}, {batch_size})")
    w = -(-load // batch_size)
    return BatchPlan(count=w, batch_size=batch_size, last=load - (w - 1) * batch_size)


def decode(g_received, y_received):
    """Recover A x from >= p received encoded rows by least squares.

    g_received holds the encoding rows matching y_received in order.  The
    system is consistent by construction, so the least-squares solution is
    exact up to floating error.
    """
    g_received = as_matrix(g_received)
    y_received = as_vector(y_received)
    q, p = g_received.shape
    if q < p:
        raise InsufficientRowsError(f"received {q} rows, need at least {p} to decode")
    return least_squares_solve(g_received, y_received)

