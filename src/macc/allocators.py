"""Baseline load allocation schemes.

Three baselines: uniform (equal split of exactly p rows), load-balanced
(split of exactly p rows proportional to beta / (alpha beta + 1)), and HCMM
(per-worker loads p / (h lambda_i) with redundancy, lambda_i solving
e^(beta lambda) = e^(alpha beta) (beta lambda + 1)).  The trained policy's
allocator is marl.policy_allocator; simcore.run_episode turns every
allocator's output into integer loads.
"""

import math
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class HcmmSolution:
    lam: tuple
    h: float
    loads: tuple


def uniform_alloc(p, n_workers):
    """Split exactly p rows as evenly as possible (first p mod N get one extra); a tuple."""
    if n_workers < 1:
        raise ValueError(f"need at least one worker, got {n_workers}")
    base, extra = divmod(int(p), int(n_workers))
    return tuple(base + 1 if i < extra else base for i in range(n_workers))


def load_balanced_alloc(p, alpha, beta):
    """Split exactly p rows proportionally to w_i = beta_i / (alpha_i beta_i + 1).

    alpha and beta are the workers' compute profiles (sequences or arrays).
    Real-valued shares are rounded by largest remainder so the sum stays
    exactly p.  Returns the loads as a tuple of ints.
    """
    beta = np.asarray(beta)
    w = beta / (np.asarray(alpha) * beta + 1.0)
    shares = p * w / w.sum()
    loads = np.floor(shares).astype(int)
    short = int(p - loads.sum())
    order = np.argsort(-(shares - loads), kind="stable")
    for i in order[:short]:
        loads[i] += 1
    return tuple(int(l) for l in loads)


def solve_hcmm_lambda(alpha, beta, tol=1.0e-12):
    """Positive solution lambda of e^(beta lambda) = e^(alpha beta) (beta lambda + 1).

    alpha and beta are one worker's compute profile, as plain numbers.

    Solved by bisection in the substituted variable z = beta lambda on
    g(z) = z - alpha beta - ln(1 + z), which is negative at 0+ and grows
    without bound; the bracket is doubled until g flips sign.
    """
    ab = alpha * beta

    def g(z):
        return z - ab - math.log1p(z)

    hi = max(2.0 * ab, 1.0)
    while g(hi) <= 0.0:
        hi *= 2.0
        if hi > 1.0e18:
            raise ArithmeticError(f"failed to bracket the HCMM root for alpha beta = {ab}")
    lo = 0.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        gm = g(mid)
        if abs(gm) <= tol:
            return mid / beta
        if gm < 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi) / beta


def hcmm_alloc(p, alpha, beta):
    """HCMM loads: l_i = ceil(p / (h lambda_i)), capped at p.

    alpha and beta are the workers' compute profiles (sequences or arrays).
    They are read as Python floats once, so the bisection steps on floats,
    not numpy scalars, with the same bits: lam and h are floats.
    h = sum_i beta_i / (1 + beta_i lambda_i).  Each term of h is below
    1 / lambda_i, so sum_i p / (h lambda_i) > p and the ceilings (or a load
    capped at p) cover p.  Returns an HcmmSolution; the loads are in
    .loads.
    """
    alpha = np.asarray(alpha, dtype=float).tolist()
    beta = np.asarray(beta, dtype=float).tolist()
    lam = [solve_hcmm_lambda(a, b) for a, b in zip(alpha, beta)]
    h = sum(b / (1.0 + b * l) for b, l in zip(beta, lam))
    loads = [min(int(math.ceil(p / (h * l))), int(p)) for l in lam]
    return HcmmSolution(lam=tuple(lam), h=h, loads=tuple(loads))

