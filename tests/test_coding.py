import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from macc.coding import (
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
    def test_array_form_below_at_and_above_the_batch_size(self):
        # one batch of a load at or below b; a short last batch when b does not divide it
        counts, last = plan_batches([3, 5, 7, 10, 15], 5)
        assert counts.dtype == last.dtype == np.int64
        assert counts.tolist() == [1, 1, 2, 2, 3]
        assert last.tolist() == [3, 5, 2, 5, 5]

    def test_batch_size_one_sends_one_row_per_batch(self):
        counts, last = plan_batches(np.array([1, 4, 9]), 1)
        assert counts.tolist() == [1, 4, 9]
        assert last.tolist() == [1, 1, 1]

    def test_sizes_sum_and_bound(self):
        gen = np.random.default_rng(11)
        for _ in range(50):
            loads = gen.integers(1, 500, int(gen.integers(1, 6)))
            b = int(gen.integers(1, 60))
            counts, last = plan_batches(loads, b)
            assert ((counts - 1) * b + last == loads).all()
            assert ((1 <= last) & (last <= b)).all()

    @given(st.lists(st.integers(1, 2**63 - 1), min_size=1, max_size=6),
           st.integers(1, 2**63 - 1))
    def test_counts_are_the_ceiling_of_python_ints(self, loads, b):
        counts, last = plan_batches(loads, b)
        want = [math.ceil(Fraction(l, b)) for l in loads]  # exact, unlike l / b
        assert counts.tolist() == want
        assert last.tolist() == [l - (w - 1) * b for l, w in zip(loads, want)]

    def test_rejects_non_positive(self):
        with pytest.raises(ValueError, match=r"got loads \[0, 4\] and batch size 3"):
            plan_batches([0, 4], 3)
        with pytest.raises(ValueError, match=r"got loads \[3\] and batch size 0"):
            plan_batches([3], 0)
        with pytest.raises(ValueError, match=r"got loads \[-2\] and batch size -1"):
            plan_batches([-2], -1)

    def test_rejects_a_load_past_int64(self):
        with pytest.raises(OverflowError):
            plan_batches([2**63], 1)


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
