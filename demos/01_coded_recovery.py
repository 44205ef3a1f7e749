"""
Coded matrix-vector multiplication: recover A x from any p encoded rows
=======================================================================

The master never ships A itself.  It ships G A, where G is a tall random
Gaussian matrix with N p rows; worker i owns the block of p rows starting
at i p.  Whichever p encoded results come back first pin down A x through
least squares, so slow workers only cost redundancy, not correctness.
"""

import numpy as np

from macc.coding import InsufficientRowsError, decode, encode, generate_encoding_matrix
from macc.numerics import RngStream, mat_vec

rng = RngStream(2024)

# ----------------------------------------------------------------------
# 1. Encode a small computation
# ----------------------------------------------------------------------
p, m, n_workers = 20, 12, 3
a = rng.substream("a").gen.standard_normal((p, m))
x = rng.substream("x").gen.standard_normal(m)

g = generate_encoding_matrix(p, n_workers, rng.substream("code"))
a_hat = encode(g, a)
print(f"A is {p} x {m}; G is {g.shape[0]} x {g.shape[1]} "
      f"({n_workers} workers, one p-row block each)")

# ----------------------------------------------------------------------
# 2. Scatter the rows and take whichever p arrive first
# ----------------------------------------------------------------------
# every worker computes its whole block here; arrival order is random
order = rng.substream("arrivals").gen.permutation(g.shape[0])
first_p = order[:p]
print(f"first {p} arrivals come from rows {sorted(first_p.tolist())[:8]} ...")

y = mat_vec(a_hat[first_p, :], x)   # what the workers send back
recovered = decode(g[first_p, :], y)
truth = mat_vec(a, x)
err = np.linalg.norm(recovered - truth) / np.linalg.norm(truth)
print(f"relative recovery error from the first {p} rows: {err:.2e}")

# ----------------------------------------------------------------------
# 3. More rows only help; fewer rows are refused
# ----------------------------------------------------------------------
extra = order[: p + 7]
recovered = decode(g[extra, :], mat_vec(a_hat[extra, :], x))
err = np.linalg.norm(recovered - truth) / np.linalg.norm(truth)
print(f"with {p + 7} rows (overdetermined): {err:.2e}")

try:
    decode(g[order[: p - 1], :], mat_vec(a_hat[order[: p - 1], :], x))
except InsufficientRowsError as e:
    print(f"with {p - 1} rows: refused ({e})")

# ----------------------------------------------------------------------
# 4. The same holds for every contiguous worker prefix
# ----------------------------------------------------------------------
# a worker that computed only l rows contributes rows [i p, i p + l)
for load in (7, 13, 20):
    idx = np.concatenate([np.arange(i * p, i * p + load) for i in range(n_workers)])
    if len(idx) < p:
        print(f"load {load} per worker: {len(idx)} rows, not decodable")
        continue
    rec = decode(g[idx, :], mat_vec(a_hat[idx, :], x))
    err = np.linalg.norm(rec - truth) / np.linalg.norm(truth)
    print(f"load {load} per worker ({len(idx)} rows): error {err:.2e}")
