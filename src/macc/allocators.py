"""Baseline load allocation schemes.

Three baselines: uniform (equal split of exactly p rows), load-balanced
(split of exactly p rows proportional to beta / (alpha beta + 1)), and HCMM
(per-worker loads p / (h lambda_i) with redundancy, lambda_i solving
e^(beta lambda) = e^(alpha beta) (beta lambda + 1)).  split_rows is the one
exact-p split: uniform is split_rows of equal weights and load-balanced
split_rows of its weights.  HCMM's loads are ceilings that cover p with
redundancy, so they do not go through it, by design.  The trained
policy's allocator is marl.policy_allocator; simcore.run_episode turns
every allocator's output into integer loads.
"""

import math
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class HcmmSolution:
    lam: tuple
    h: float
    loads: tuple


def split_rows(p, weights):
    """Split exactly p rows in proportion to the weights; a tuple of ints.

    Worker i's share is p w_i / sum(w); each gets its share's floor, and the
    rows left over go one each by descending remainder, ties to the lower
    index.  A weight that is negative or not finite, an empty weight vector,
    weights whose sum is zero or overflows, and p outside [0, 2^53), where
    float64 shares stop holding every integer, are a ValueError naming them.
    """
    w = np.asarray(weights, dtype=float)
    if w.size == 0:
        raise ValueError("split_rows: need at least one worker, got no weights")
    bad = np.flatnonzero(~((w >= 0.0) & (w < math.inf)))  # NaN fails both
    if bad.size:
        i = int(bad[0])
        raise ValueError(f"split_rows: worker {i}'s weight must be finite and >= 0, got {w[i]}")
    total = w.sum()
    if not 0.0 < total < math.inf:
        raise ValueError(f"split_rows: the {w.size} workers' weights sum to {total}, "
                         "not to a positive finite number")
    if not 0 <= p < 2**53:
        raise ValueError(f"split_rows: p = {p} rows is outside [0, 2^53), where float64 "
                         "shares hold every integer")
    shares = p * w / total
    loads = np.floor(shares).astype(int)
    short = int(p - loads.sum())
    if not 0 <= short <= w.size:  # p w_i overflowed: a weight near float64's largest
        raise ValueError(f"split_rows: {p} rows in shares of weights summing to {total} "
                         f"do not round to exactly {p}")
    loads[np.argsort(-(shares - loads), kind="stable")[:short]] += 1
    return tuple(int(l) for l in loads)


def load_balanced_alloc(p, alpha, beta):
    """split_rows of p with weights w_i = beta_i / (alpha_i beta_i + 1).

    alpha and beta are the workers' compute profiles (sequences or arrays).
    A profile whose weight is not finite and non-negative is split_rows's
    ValueError naming the worker.
    """
    beta = np.asarray(beta)
    with np.errstate(invalid="ignore", divide="ignore"):  # a bad weight is split_rows's error
        w = beta / (np.asarray(alpha) * beta + 1.0)
    return split_rows(p, w)


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
    .loads.  A profile with alpha or beta not finite, alpha < 0 or beta <= 0
    is a ValueError naming the worker.
    """
    alpha = np.asarray(alpha, dtype=float).tolist()
    beta = np.asarray(beta, dtype=float).tolist()
    for i, (a, b) in enumerate(zip(alpha, beta)):
        if not (0.0 <= a < math.inf and 0.0 < b < math.inf):
            raise ValueError(f"hcmm_alloc: worker {i}'s profile needs finite alpha >= 0 and "
                             f"beta > 0, got alpha = {a}, beta = {b}")
    lam = [solve_hcmm_lambda(a, b) for a, b in zip(alpha, beta)]
    h = sum(b / (1.0 + b * l) for b, l in zip(beta, lam))
    loads = [min(int(math.ceil(p / (h * l))), int(p)) for l in lam]
    return HcmmSolution(lam=tuple(lam), h=h, loads=tuple(loads))

