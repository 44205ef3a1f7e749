import math

import numpy as np
import pytest

from macc.coding import (
    BatchPlan,
    InsufficientRowsError,
    SingularSystemError,
    decode,
    encode,
    generate_encoding_matrix,
    plan_batches,
)
from macc.numerics import RngStream, mat_vec


class TestGenerateEncodingMatrix:
    def test_smallest_case(self):
        g = generate_encoding_matrix(1, 1, RngStream(0))
        assert g.shape == (1, 1)
        assert g[0, 0] != 0.0

    def test_any_p_rows_full_rank(self):
        g = generate_encoding_matrix(4, 3, RngStream(1))
        assert g.shape == (12, 4)
        gen = np.random.default_rng(0)
        for _ in range(100):
            rows = gen.choice(12, size=4, replace=False)
            assert np.linalg.matrix_rank(g[rows, :]) == 4

    def test_same_seed_identical(self):
        a = generate_encoding_matrix(5, 2, RngStream(7))
        b = generate_encoding_matrix(5, 2, RngStream(7))
        assert np.array_equal(a, b)

    def test_rejects_bad_dimensions(self):
        with pytest.raises(ValueError):
            generate_encoding_matrix(0, 3, RngStream(0))
        with pytest.raises(ValueError):
            generate_encoding_matrix(3, 0, RngStream(0))


class TestEncode:
    def test_replication_code(self):
        a = np.arange(6.0).reshape(3, 2)
        out = encode(np.vstack([np.eye(3), np.eye(3)]), a)
        assert np.array_equal(out, np.vstack([a, a]))

    def test_zero_row_annihilates(self):
        g = np.ones((2, 2))
        g[1, :] = 0.0
        out = encode(g, np.ones((2, 3)))
        assert np.array_equal(out[1], np.zeros(3))

    def test_matches_triple_loop(self):
        gen = np.random.default_rng(3)
        g = gen.normal(0, 1, (6, 3))
        a = gen.normal(0, 1, (3, 2))
        out = encode(g, a)
        slow = np.zeros((6, 2))
        for i in range(6):
            for j in range(2):
                for k in range(3):
                    slow[i, j] += g[i, k] * a[k, j]
        assert np.max(np.abs(out - slow)) < 1e-12

    def test_dimension_mismatch_rejected(self):
        g = generate_encoding_matrix(3, 2, RngStream(0))
        with pytest.raises(ValueError):
            encode(g, np.ones((4, 2)))


class TestPlanBatches:
    def test_last_batch_remainder(self):
        plan = plan_batches(10, 3)
        assert (plan.count, plan.batch_size, plan.last) == (4, 3, 1)

    def test_single_batch(self):
        assert plan_batches(6, 6) == BatchPlan(count=1, batch_size=6, last=6)

    def test_batch_larger_than_load(self):
        plan = plan_batches(1, 100)
        assert (plan.count, plan.last) == (1, 1)

    def test_sizes_sum_and_bound(self):
        gen = np.random.default_rng(11)
        for _ in range(50):
            load = int(gen.integers(1, 500))
            b = int(gen.integers(1, 60))
            plan = plan_batches(load, b)
            assert (plan.count - 1) * plan.batch_size + plan.last == load
            assert 1 <= plan.last <= b
            assert plan.batch_size == b
            assert plan.count == -(-load // b)

    def test_rejects_non_positive(self):
        with pytest.raises(ValueError):
            plan_batches(0, 3)
        with pytest.raises(ValueError):
            plan_batches(3, 0)


class TestDecode:
    def test_identity_subset_exact(self):
        gen = np.random.default_rng(2)
        a = gen.normal(0, 1, (4, 3))
        x = gen.normal(0, 1, 3)
        y = mat_vec(a, x)
        out = decode(np.eye(4), y)
        assert np.max(np.abs(out - y)) < 1e-12

    def test_three_rows_from_two_workers(self):
        rng = RngStream(4)
        g = generate_encoding_matrix(3, 2, rng)
        gen = np.random.default_rng(4)
        a = gen.normal(0, 1, (3, 5))
        x = gen.normal(0, 1, 5)
        a_hat = encode(g, a)
        rows = [0, 1, 3]  # two rows of worker 0, one of worker 1
        y = mat_vec(a_hat[rows, :], x)
        out = decode(g[rows, :], y)
        truth = mat_vec(a, x)
        assert np.linalg.norm(out - truth) / np.linalg.norm(truth) < 1e-9

    def test_redundant_rows_consistent(self):
        rng = RngStream(5)
        g = generate_encoding_matrix(4, 2, rng)
        gen = np.random.default_rng(5)
        a = gen.normal(0, 1, (4, 3))
        x = gen.normal(0, 1, 3)
        a_hat = encode(g, a)
        rows = [0, 1, 2, 3, 4, 5]  # q = p + 2
        y = mat_vec(a_hat[rows, :], x)
        out = decode(g[rows, :], y)
        truth = mat_vec(a, x)
        assert np.linalg.norm(out - truth) / np.linalg.norm(truth) < 1e-9

    def test_insufficient_rows_rejected(self):
        with pytest.raises(InsufficientRowsError):
            decode(np.ones((2, 3)), np.ones(2))


class TestDecodeSolve:
    """decode's least-squares solve and its conditioning check on small systems."""

    def test_identity_returns_y(self):
        y = np.array([2.0, -1.0, 3.0])
        assert np.allclose(decode(np.eye(3), y), y, atol=1e-14)

    def test_overdetermined_consistent_mean(self):
        z = decode([[1.0], [1.0]], [1.0, 3.0])
        assert abs(z[0] - 2.0) < 1e-12

    def test_recovers_planted_solution(self):
        gen = np.random.default_rng(5)
        g = gen.normal(0, 1, (5, 3))
        z_true = gen.normal(0, 1, 3)
        z = decode(g, g @ z_true)
        assert np.max(np.abs(z - z_true)) / np.max(np.abs(z_true)) < 1e-10

    def test_recovery_up_to_200_by_50(self):
        for seed in range(10):
            gen = np.random.default_rng(100 + seed)
            q = int(gen.integers(60, 201))
            p = int(gen.integers(5, 51))
            g = gen.normal(0, 1, (q, p))
            z_true = gen.normal(0, 1, p)
            z = decode(g, g @ z_true)
            rel = np.linalg.norm(z - z_true) / np.linalg.norm(z_true)
            assert rel < 1e-9

    def test_underdetermined_rejected(self):
        with pytest.raises(ValueError):
            decode(np.ones((2, 3)), np.ones(2))

    def test_rank_deficient_raises_with_condition(self):
        g = np.ones((4, 2))  # both columns identical
        with pytest.raises(SingularSystemError) as err:
            decode(g, np.ones(4))
        assert err.value.condition > 1e12

    def test_zero_singular_value_is_infinite_condition(self):
        # an exact zero singular value, with no division warning on the way
        with pytest.raises(SingularSystemError) as err:
            decode(np.zeros((3, 2)), np.zeros(3))
        assert err.value.condition == math.inf

    def test_y_of_another_length_rejected(self):
        with pytest.raises(ValueError, match="G is \\(3, 2\\), y has length 2"):
            decode(np.ones((3, 2)), np.ones(2))


class TestRoundTrip:
    def test_fifty_random_instances(self):
        gen = np.random.default_rng(99)
        for trial in range(50):
            p = int(gen.integers(2, 51))
            m = int(gen.integers(1, 101))
            n = int(gen.integers(1, 6))
            rng = RngStream(1000 + trial)
            g = generate_encoding_matrix(p, n, rng)
            a = gen.normal(0, 1, (p, m))
            x = gen.normal(0, 1, m)
            a_hat = encode(g, a)
            # random feasible allocation
            while True:
                loads = gen.integers(0, p + 1, n)
                if loads.sum() >= p:
                    break
            # worker i's load is the first loads[i] rows of its block [i p, (i+1) p);
            # receipts in a random worker order, decoded from the first p rows
            rows = [i * p + k for i in gen.permutation(n) for k in range(loads[i])][:p]
            out = decode(g[rows, :], mat_vec(a_hat[rows, :], x))
            truth = mat_vec(a, x)
            rel = np.linalg.norm(out - truth) / np.linalg.norm(truth)
            assert rel < 1e-8, f"trial {trial}: relative error {rel}"
