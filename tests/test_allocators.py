import math

import numpy as np
import pytest

from macc.allocators import (
    hcmm_alloc,
    load_balanced_alloc,
    solve_hcmm_lambda,
    split_rows,
)
from macc.numerics import RngStream

try:
    from hypothesis import given
    from hypothesis import strategies as st
except ImportError:  # a test extra: without it the seeded loop alone checks the split
    given = None

# root of z - 1 - ln(1 + z) = 0, i.e. lambda beta at alpha beta = 1,
# computed independently to 50 digits and frozen
Z_STAR_AB1 = 2.14619322062058


def uniform(p, n):
    """The uniform scheme's loads: split_rows of n equal weights."""
    return split_rows(p, np.ones(n))


def check_split(p, weights):
    """split_rows's contract: loads sum to p, each within 1 of its share, ties to the lower index."""
    loads = split_rows(p, weights)
    w = np.asarray(weights, dtype=float)
    assert len(loads) == len(w) and all(type(l) is int and l >= 0 for l in loads)
    assert sum(loads) == p
    shares = p * w / w.sum()
    assert all(abs(l - s) <= 1 for l, s in zip(loads, shares))
    assert all(l == 0 for l, wi in zip(loads, w) if wi == 0.0)
    for i in range(len(w)):
        for j in range(i + 1, len(w)):
            if w[i] == w[j]:
                assert loads[i] in (loads[j], loads[j] + 1)


class TestSplitRows:
    def test_properties_on_seeded_weights(self):
        gen = np.random.default_rng(46)
        for _ in range(400):
            n = int(gen.integers(1, 9))
            kind = gen.integers(3)
            if kind == 0:  # random
                w = gen.uniform(0.0, 10.0, n)
            elif kind == 1:  # tied: a few distinct values
                w = gen.choice([0.5, 1.0, 3.0], n)
            else:  # zero-including
                w = np.where(gen.random(n) < 0.4, 0.0, gen.uniform(1e-3, 1e3, n))
                w[gen.integers(n)] = 1.0
            check_split(int(gen.integers(0, 10**6)), w)

    if given is not None:
        @given(st.integers(0, 10**9),
               st.lists(st.sampled_from([0.0, 0.5, 1.0, 3.0]) | st.floats(1e-6, 1e6),
                        min_size=1, max_size=8).filter(lambda w: sum(w) > 0))
        def test_properties_on_drawn_weights(self, p, w):
            check_split(p, w)

    def test_single_worker_takes_every_row(self):
        for p in (0, 1, 7, 10**6):
            assert split_rows(p, [2.5]) == (p,)

    def test_equal_weights_give_the_divmod_rule(self):
        def divmod_rule(p, n):  # the first p mod n workers take one row more
            base, extra = divmod(p, n)
            return tuple(base + 1 if i < extra else base for i in range(n))

        for p in range(1, 301):
            for n in range(1, 9):
                assert uniform(p, n) == divmod_rule(p, n)

    def test_ties_go_to_the_lower_index(self):
        assert split_rows(7, [1.0, 2.0, 1.0, 2.0]) == (1, 3, 1, 2)
        assert split_rows(1, [0.0, 1.0, 1.0]) == (0, 1, 0)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, -1.0])
    def test_a_bad_weight_is_named(self, bad):
        with pytest.raises(ValueError, match=rf"worker 2's weight must be finite and >= 0, got {bad}$"):
            split_rows(10, [1.0, 1.0, bad])

    @pytest.mark.parametrize("weights, total", [(np.zeros(3), "0.0"), ([1e308, 1e308, 1.0], "inf")])
    def test_weights_summing_to_zero_or_past_float64_are_refused(self, weights, total):
        with np.errstate(over="ignore"), pytest.raises(  # numpy warns of the sum's overflow
                ValueError, match=rf"the 3 workers' weights sum to {total}, not to a "):
            split_rows(10, weights)

    @pytest.mark.parametrize("p", [-1, 2**53, 2**63])
    def test_p_outside_float64s_integers_is_refused(self, p):
        with pytest.raises(ValueError, match=rf"p = {p} rows is outside \[0, 2\^53\)"):
            split_rows(p, np.ones(4))
        assert sum(split_rows(2**53 - 1, np.ones(4))) == 2**53 - 1


class TestUniform:
    def test_even_split(self):
        assert uniform(12, 4) == (3, 3, 3, 3)

    def test_remainder_goes_to_first_workers(self):
        assert uniform(11, 4) == (3, 3, 3, 2)
        assert uniform(10, 4) == (3, 3, 2, 2)

    def test_fewer_rows_than_workers(self):
        assert uniform(2, 4) == (1, 1, 0, 0)

    def test_sum_is_exactly_p(self):
        for p in range(1, 40):
            for n in range(1, 7):
                assert sum(uniform(p, n)) == p

    def test_no_workers_rejected(self):
        with pytest.raises(ValueError, match="need at least one worker"):
            uniform(10, 0)


class TestLoadBalanced:
    def test_identical_workers_match_uniform(self):
        assert load_balanced_alloc(100, [1e-4] * 4, [1e4] * 4) == (25, 25, 25, 25)

    def test_proportional_to_speed(self):
        # w = beta / (alpha beta + 1); alpha = 1/beta gives w = beta / 2
        loads = load_balanced_alloc(110, [1e-3, 1e-4], [1e3, 1e4])
        assert loads == (10, 100)

    def test_largest_remainder_rounding(self):
        # shares 33.33.. / 66.66..: the bigger remainder gets the spare row
        loads = load_balanced_alloc(100, [1e-3, 5e-4], [1e3, 2e3])
        assert sum(loads) == 100
        assert loads == (33, 67)

    def test_sum_is_exactly_p_randomized(self):
        rng = RngStream(5)
        for _ in range(50):
            n = int(rng.gen.integers(1, 7))
            betas = rng.gen.uniform(1e3, 1e5, n)
            p = int(rng.gen.integers(1, 5000))
            loads = load_balanced_alloc(p, 1.0 / betas, betas)
            assert sum(loads) == p
            assert all(l >= 0 for l in loads)

    @pytest.mark.parametrize("alpha, beta, weight", [
        ([1e-4, math.nan], [1e4, 1e4], "nan"),  # alpha NaN
        ([1e-4, 1e-4], [1e4, math.inf], "nan"),  # beta / (alpha beta + 1) = inf / inf
    ])
    def test_a_bad_profile_is_named(self, alpha, beta, weight):
        with pytest.raises(ValueError, match=rf"worker 1's weight must be finite and >= 0, "
                                             rf"got {weight}$"):
            load_balanced_alloc(100, alpha, beta)

    def test_all_zero_betas_are_refused(self):
        with pytest.raises(ValueError, match="weights sum to 0.0"):
            load_balanced_alloc(100, [1e-4, 1e-4], [0.0, 0.0])


class TestHcmmLambda:
    def test_alpha_beta_one_root(self):
        lam = solve_hcmm_lambda(1e-4, 1e4)
        assert lam * 1e4 == pytest.approx(Z_STAR_AB1, rel=1e-10)

    def test_root_satisfies_original_equation(self):
        rng = RngStream(6)
        for _ in range(30):
            beta = float(rng.gen.uniform(1e3, 1e5))
            alpha = float(rng.gen.uniform(0.2, 3.0)) / beta
            lam = solve_hcmm_lambda(alpha, beta)
            assert lam > 0
            # e^(beta lam) = e^(alpha beta) (beta lam + 1)
            lhs = beta * lam
            rhs = alpha * beta + math.log1p(beta * lam)
            assert lhs == pytest.approx(rhs, abs=1e-9)

    def test_scale_invariance_in_beta(self):
        # z = beta lambda depends only on alpha beta
        a = solve_hcmm_lambda(2e-4, 1e4)
        b = solve_hcmm_lambda(2e-5, 1e5)
        assert a * 1e4 == pytest.approx(b * 1e5, rel=1e-9)

    def test_small_alpha_beta_root_stays_positive(self):
        lam = solve_hcmm_lambda(1e-9, 1e4)
        assert lam > 0


class TestHcmmAlloc:
    def test_frozen_three_worker_instance(self):
        # alpha_i = 1/beta_i with betas (1e4, 2e4, 4e4) at p = 6000:
        # identical z* = 2.14619..., h and the ceil loads frozen from an
        # independent evaluation of the formulas
        sol = hcmm_alloc(6000, [1e-4, 5e-5, 2.5e-5], [1e4, 2e4, 4e4])
        assert sol.h == pytest.approx(22249.11030295609, rel=1e-10)
        assert sol.loads == (1257, 2514, 5027)

    def test_redundancy_at_least_p(self):
        rng = RngStream(7)
        for _ in range(40):
            n = int(rng.gen.integers(2, 7))
            betas = rng.gen.uniform(1e4, 1e5, n)
            p = int(rng.gen.integers(100, 8000))
            sol = hcmm_alloc(p, 1.0 / betas, betas)
            assert sum(sol.loads) >= p
            assert all(0 < l <= p for l in sol.loads)

    def test_faster_worker_gets_more(self):
        sol = hcmm_alloc(1000, [1e-4, 2.5e-5], [1e4, 4e4])
        assert sol.loads[1] > sol.loads[0]

    def test_cap_at_p(self):
        # one worker so slow its share rounds above p on the fast one
        sol = hcmm_alloc(500, [1e-4], [1e4])
        assert sol.loads == (500,)

    def test_arrays_and_lists_give_equal_solutions_on_random_profiles(self):
        gen = np.random.default_rng(20)
        for _ in range(50):
            n = int(gen.integers(1, 7))
            beta = gen.uniform(1e3, 1e5, n)
            alpha = 1.0 / beta if gen.random() < 0.5 else gen.uniform(1e-6, 1e-3, n)
            p = int(gen.integers(1, 20000))
            arrays = hcmm_alloc(p, alpha, beta)
            lists = hcmm_alloc(p, alpha.tolist(), beta.tolist())
            assert arrays.lam == lists.lam and arrays.h == lists.h
            assert arrays.loads == lists.loads
            assert all(type(v) is float for v in (*arrays.lam, arrays.h))

    def test_arrays_and_sequences_agree(self):
        alpha, beta = [1e-4, 5e-5, 2.5e-5], [1e4, 2e4, 4e4]
        arrays = np.array(alpha), np.array(beta)
        assert hcmm_alloc(6000, *arrays) == hcmm_alloc(6000, alpha, beta)
        assert load_balanced_alloc(99, *arrays) == load_balanced_alloc(99, alpha, beta)

    @pytest.mark.parametrize("alpha, beta", [
        (math.nan, 1e4),
        (1e-4, math.inf),
        (1e-4, 0.0),
        (1e-4, -1e4),
        (-1e-4, 1e4),
    ])
    def test_a_bad_profile_is_named(self, alpha, beta):
        with pytest.raises(ValueError, match=rf"worker 1's profile needs finite alpha >= 0 and "
                                             rf"beta > 0, got alpha = {alpha}, beta = {beta}"):
            hcmm_alloc(100, [1e-4, alpha], [1e4, beta])
