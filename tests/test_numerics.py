import numpy as np
import pytest

from macc.numerics import (
    RngStream,
    _fold,
    _splitmix64,
    _token_to_u64,
    mat_vec,
)


class TestMatVec:
    def test_identity(self):
        out = mat_vec(np.eye(3), [1.0, 2.0, 3.0])
        assert np.array_equal(out, [1.0, 2.0, 3.0])

    def test_zero_matrix(self):
        out = mat_vec(np.zeros((2, 2)), [4.0, 5.0])
        assert np.array_equal(out, [0.0, 0.0])

    def test_hand_example(self):
        out = mat_vec([[1.0, 2.0], [3.0, 4.0]], [1.0, 1.0])
        assert np.array_equal(out, [3.0, 7.0])

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValueError):
            mat_vec(np.ones((2, 3)), np.ones(2))

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            mat_vec([[np.nan, 0.0], [0.0, 1.0]], [1.0, 1.0])

    def test_distributes_over_addition(self):
        for seed in range(20):
            gen = np.random.default_rng(seed)
            a = gen.uniform(-2, 2, (6, 4))
            x = gen.uniform(-2, 2, 4)
            y = gen.uniform(-2, 2, 4)
            lhs = mat_vec(a, x + y)
            rhs = mat_vec(a, x) + mat_vec(a, y)
            assert np.max(np.abs(lhs - rhs)) < 1e-12


SEED_STREAMS = [(0, 0), (2**64 - 1, 2**64 - 1), (0, 2**64 - 1), (2**64 - 1, 0), (42, 7), (2**63, 12345)]


# RngStream(12345, 6).substream(*tokens).stream, recorded before str digests were cached
PINNED_SUBSTREAMS = [
    (("worker",), 17068923001171963445),
    (("task",), 13493094811021954034),
    (("",), 14347371813274811528),
    (("é",), 15192072551294015452),
    ((0,), 13647215125184110592),
    ((7,), 10451216379200822465),
    ((-1,), 7790691224305936752),
    ((2**64 + 5,), 2092789425003139053),
    ((np.int64(7),), 10451216379200822465),
    ((np.int64(-3),), 1635312068028924514),
    ((np.uint8(200),), 7764880849542401124),
    (("task", 7, "worker", 3), 13387058899231560345),
]


# First random(3), normal(0, 2, 3) and integers(0, 2**40, 3) of RngStream(seed, stream).gen,
# recorded while gen still keyed Philox through an ISeedSequence subclass
PINNED_DRAWS = {
    (0, 0): (
        ["0x1.7a5d3204726c0p-7", "0x1.eeb1585ce5460p-3", "0x1.c8667a55d9028p-4"],
        ["0x1.346e5e799d961p+1", "-0x1.40566d93c8100p-4", "-0x1.09f1537b13e67p+0"],
        [1040736456126, 1084191303527, 279081054455],
    ),
    (2**64 - 1, 2**64 - 1): (
        ["0x1.b51b3039c7c2ep-2", "0x1.249d42d27f351p-1", "0x1.fb86be0331922p-1"],
        ["0x1.0c37e0127e2a9p+1", "-0x1.7fb7a5a9d0a95p-1", "-0x1.45b4a6cdf3c3ap-2"],
        [49038933141, 636110759378, 131531891194],
    ),
    (0, 2**64 - 1): (
        ["0x1.cb59c228b8cfcp-2", "0x1.9b6fae109d4aep-1", "0x1.ebfb0efbeb3dep-2"],
        ["-0x1.2f7015789a470p+1", "-0x1.5761333cc28b0p-1", "0x1.1ea0816602b4cp+2"],
        [652426747782, 106527214126, 305729279778],
    ),
    (2**64 - 1, 0): (
        ["0x1.e1290e2c6ef2cp-3", "0x1.6f435abb5c260p-1", "0x1.a50baba7f4bfap-2"],
        ["0x1.41ecaa3154b2dp+2", "-0x1.eb269dd169fcfp+0", "0x1.6c3e206113ec3p-1"],
        [572169890328, 336637554414, 61282914805],
    ),
    (42, 7): (
        ["0x1.4c80c9e69d097p-1", "0x1.c50f2b350cd41p-1", "0x1.1b8303e01372dp-1"],
        ["0x1.8bac4ce9cb355p+0", "0x1.2ae1f163744c7p+0", "-0x1.07a6a4107b294p+0"],
        [132475389016, 286050960191, 240607193322],
    ),
    (2**63, 12345): (
        ["0x1.91850e461e13cp-2", "0x1.3984e32223edep-2", "0x1.8089e69da3535p-1"],
        ["0x1.33764f35cb615p+1", "0x1.23ac012fbcae1p+0", "0x1.9fbd033a0d82ep+1"],
        [705837738766, 424768216547, 870658697870],
    ),
}


# _fold(FOLD_BASE, (token,)) for int tokens, as _token_to_u64's generic dispatch gives them
FOLD_BASE = 0x0123456789ABCDEF
PINNED_FOLDS = [
    (0, 1547611027431991965),
    (7, 1769853632930943217),
    (-1, 8856491076634013318),
    (2**64 - 1, 8856491076634013318),
    (2**64 + 5, 5051360082704189550),
    (np.int64(3), 11190355524982671354),
]


class TestRngStream:
    def test_same_key_same_sequence(self):
        a = RngStream(42, 7).gen.random(16)
        b = RngStream(42, 7).gen.random(16)
        assert np.array_equal(a, b)

    @pytest.mark.parametrize("seed, stream", SEED_STREAMS)
    def test_generator_matches_philox_key(self, seed, stream):
        got = RngStream(seed, stream).gen
        want = np.random.Generator(np.random.Philox(key=(stream << 64) | seed))
        got_state, want_state = got.bit_generator.state, want.bit_generator.state
        for name in ("counter", "key"):
            assert np.array_equal(got_state["state"][name], want_state["state"][name])
        assert np.array_equal(got_state["buffer"], want_state["buffer"])
        assert got_state["buffer_pos"] == want_state["buffer_pos"]
        assert np.array_equal(got.normal(0.0, 2.0, 5), want.normal(0.0, 2.0, 5))
        assert np.array_equal(got.random(5), want.random(5))
        assert np.array_equal(got.integers(0, 2**40, 5), want.integers(0, 2**40, 5))

    @pytest.mark.parametrize("seed, stream", SEED_STREAMS)
    def test_generator_draws_pinned(self, seed, stream):
        gen = RngStream(seed, stream).gen
        uniform, normal, ints = PINNED_DRAWS[(seed, stream)]
        assert [float(v).hex() for v in gen.random(3)] == uniform
        assert [float(v).hex() for v in gen.normal(0, 2, 3)] == normal
        assert [int(v) for v in gen.integers(0, 2**40, 3)] == ints

    @pytest.mark.parametrize("seed, stream", SEED_STREAMS)
    def test_fresh_gen_draws_like_gen(self, seed, stream):
        got = RngStream(seed, stream).fresh_gen()
        want = RngStream(seed, stream).gen
        assert np.array_equal(got.normal(0.0, 2.0, 5), want.normal(0.0, 2.0, 5))
        assert np.array_equal(got.random(5), want.random(5))
        assert np.array_equal(got.integers(0, 1000, 5, dtype=np.int32),
                              want.integers(0, 1000, 5, dtype=np.int32))

    @pytest.mark.parametrize("tokens", [(3,), ("worker",), ("task", 7, "worker", 3), (2**64 + 5, "é")])
    @pytest.mark.parametrize("seed, stream", SEED_STREAMS)
    def test_fresh_gen_of_a_substream_draws_like_its_gen(self, seed, stream, tokens):
        want = RngStream(seed, stream).substream(*tokens).gen
        want = want.standard_normal(5), want.random(5), want.integers(0, 2**40, 5)
        got = RngStream(seed, stream).substream(*tokens).fresh_gen()
        got = got.standard_normal(5), got.random(5), got.integers(0, 2**40, 5)
        for a, b in zip(got, want):
            assert np.array_equal(a, b)

    def test_fresh_gen_drops_a_half_used_word(self):
        left = RngStream(5, 6).fresh_gen()
        left.integers(0, 1000, 3, dtype=np.int32)  # an odd number of 32-bit draws
        assert left.bit_generator.state["has_uint32"] == 1
        got = RngStream(42, 7).fresh_gen()
        assert got is left  # one generator, re-keyed
        assert got.bit_generator.state["has_uint32"] == 0
        want = RngStream(42, 7).gen
        assert np.array_equal(got.integers(0, 1000, 5, dtype=np.int32),
                              want.integers(0, 1000, 5, dtype=np.int32))
        assert np.array_equal(got.random(5), want.random(5))

    def test_fresh_gen_restarts_after_draws(self):
        # every call assigns one reused state dict; draws must not carry into the next call
        first = RngStream(9, 4).fresh_gen().random(1000)  # past many counter blocks
        RngStream(1, 2).fresh_gen().standard_normal(7)
        assert np.array_equal(RngStream(9, 4).fresh_gen().random(1000), first)
        assert np.array_equal(RngStream(9, 4).gen.random(1000), first)

    @pytest.mark.parametrize("indices", [np.arange(5), np.array([4, 0, 3, 0]),
                                         np.array([2**63 + 5, 2, 2**64 - 1], dtype=np.uint64)])
    @pytest.mark.parametrize("token", ["worker", 7, 2**63 + 11])
    @pytest.mark.parametrize("seed, stream", SEED_STREAMS)
    def test_fresh_gens_at_substream_ids_draw_like_each_substream(self, seed, stream, token,
                                                                  indices):
        # the engine's keying of its workers' streams: one array of ids, one re-key each
        root = RngStream(seed, stream)
        ids = root.substream_ids(token, indices).tolist()
        got = [(gen.standard_normal(3), gen.random(2), gen.integers(0, 1000, 3, dtype=np.int32))
               for gen in root.fresh_gens_at(ids)]
        assert len(got) == len(indices)
        for i, draws in zip(indices.tolist(), got):
            want = root.substream(token, i).gen
            want = want.standard_normal(3), want.random(2), want.integers(0, 1000, 3, dtype=np.int32)
            for a, b in zip(draws, want):
                assert np.array_equal(a, b)

    @pytest.mark.parametrize("index", [True, 1.0, "3"])
    def test_substream_ids_take_int_indices(self, index):
        # a worker index array of bools, floats or strs is refused, as a bool token is
        with pytest.raises(TypeError, match="substream array tokens must hold integers"):
            RngStream(0).substream_ids("worker", np.array([index]))

    def test_fresh_gens_at_yield_the_shared_generator(self):
        gens = RngStream(3, 4).fresh_gens_at([0, 1])
        assert next(gens) is RngStream(5, 6).fresh_gen() is next(gens)

    def test_fresh_gen_after_fresh_gens_at_draws_afresh(self):
        root = RngStream(42, 7)
        for gen in root.fresh_gens_at(root.substream_ids("worker", np.array([1, 0, 2])).tolist()):
            gen.integers(0, 1000, 3, dtype=np.int32)  # leaves half a 64-bit word behind
        got = RngStream(9, 4).fresh_gen()
        assert got.bit_generator.state["has_uint32"] == 0
        want = RngStream(9, 4).gen
        assert np.array_equal(got.integers(0, 1000, 5, dtype=np.int32),
                              want.integers(0, 1000, 5, dtype=np.int32))
        assert np.array_equal(got.random(1000), want.random(1000))

    def test_fresh_gens_at_draw_like_each_stream(self):
        root = RngStream(2**64 - 1, 5)
        ids = [0, 1, 2**63, 2**64 - 1, root.substream("worker").stream]
        got = [(gen.standard_normal(3), gen.random(2)) for gen in root.fresh_gens_at(ids)]
        for i, draws in zip(ids, got):
            want = RngStream(root.seed, i).gen
            for a, b in zip(draws, (want.standard_normal(3), want.random(2))):
                assert np.array_equal(a, b)

    def test_substream_keeps_64_bit_ids(self):
        child = RngStream(2**64 - 1, 2**64 - 1).substream(2**64 + 3, "x")
        assert type(child) is RngStream and child.seed == 2**64 - 1
        assert child.stream == _fold(2**64 - 1, (3, "x")) < 2**64
        assert np.array_equal(child.gen.random(4),
                              RngStream(child.seed, child.stream).gen.random(4))

    def test_different_seeds_differ(self):
        a = RngStream(1).gen.random(8)
        b = RngStream(2).gen.random(8)
        assert not np.array_equal(a, b)

    def test_substream_is_pure(self):
        root = RngStream(9)
        s1 = root.substream("env", 3)
        root.gen.random(100)  # consuming draws must not affect derivation
        s2 = root.substream("env", 3)
        assert s1.stream == s2.stream
        assert np.array_equal(s1.gen.random(8), s2.gen.random(8))

    def test_substream_token_order_matters(self):
        root = RngStream(9)
        assert root.substream("a", 1).stream != root.substream(1, "a").stream

    def test_substream_distinct_tokens(self):
        root = RngStream(9)
        streams = {root.substream("task", j).stream for j in range(100)}
        assert len(streams) == 100

    @pytest.mark.parametrize("tokens, stream", PINNED_SUBSTREAMS)
    def test_substream_ids_pinned(self, tokens, stream):
        root = RngStream(12345, 6)
        assert root.substream(*tokens).stream == stream
        assert root.substream(*tokens).stream == stream  # again, from the cached digests

    def test_substream_rejects_float_tokens(self):
        with pytest.raises(TypeError):
            RngStream(0).substream(1.5)

    @pytest.mark.parametrize("token", [True, False, np.True_])
    def test_substream_rejects_bool_tokens(self, token):
        # a bool is an int subclass, but would make True and 1 the same token
        with pytest.raises(TypeError, match="substream tokens must be int or str"):
            RngStream(0).substream("task", token)

    @pytest.mark.parametrize("token, stream", PINNED_FOLDS)
    def test_int_token_fold_pinned(self, token, stream):
        # a plain int skips _token_to_u64 inside _fold, with the same id
        assert _fold(FOLD_BASE, (token,)) == stream
        assert _splitmix64(FOLD_BASE ^ _token_to_u64(token)) == stream
        assert RngStream(0, FOLD_BASE).substream(token).stream == stream

    @pytest.mark.parametrize("token", [True, np.True_])
    def test_fold_rejects_bool_tokens(self, token):
        with pytest.raises(TypeError, match="substream tokens must be int or str"):
            _fold(FOLD_BASE, (token,))

    def test_substream_requires_tokens(self):
        with pytest.raises(ValueError):
            RngStream(0).substream()


# the int tokens at the ends of the 64-bit range, and the engine's str tokens
ARRAY_TOKENS = np.array([0, 1, 2**63, 2**64 - 1], dtype=np.uint64)


class TestArrayFold:
    @pytest.mark.parametrize("seed", range(4))
    def test_matches_the_int_fold_on_random_stream_ids(self, seed):
        gen = np.random.default_rng(seed)
        streams = gen.integers(0, 2**64, 8, dtype=np.uint64, endpoint=False).tolist()
        for stream in streams + [0, 2**64 - 1]:
            for tokens in ((ARRAY_TOKENS,), ("task", ARRAY_TOKENS), (ARRAY_TOKENS, "worker"),
                           ("worker", ARRAY_TOKENS, "task", 7)):
                got = RngStream(seed, stream).substream_ids(*tokens).tolist()
                array = next(i for i, t in enumerate(tokens) if isinstance(t, np.ndarray))
                want = []
                for v in ARRAY_TOKENS.tolist():
                    each = tokens[:array] + (v,) + tokens[array + 1:]
                    want.append(_fold(stream, each))
                    assert RngStream(seed, stream).substream(*each).stream == want[-1]
                assert got == want

    def test_grid_of_two_arrays_broadcasts(self):
        root = RngStream(1, 0xFEDCBA9876543210)
        tasks, workers = np.arange(30)[:, None], ARRAY_TOKENS
        ids = root.substream_ids("task", tasks, "worker", workers)
        assert ids.dtype == np.uint64 and ids.shape == (30, 4)
        for j in range(30):
            for k, i in enumerate(ARRAY_TOKENS.tolist()):
                assert int(ids[j, k]) == root.substream("task", j, "worker", i).stream

    def test_signed_entries_wrap_as_the_int_fold_masks(self):
        signed = np.array([-1, 0, 3, np.iinfo(np.int64).min], dtype=np.int64)
        got = RngStream(0, FOLD_BASE).substream_ids(signed).tolist()
        assert got == [_fold(FOLD_BASE, (v,)) for v in signed.tolist()]
        assert got[0] == _fold(FOLD_BASE, (2**64 - 1,))

    def test_rejects_non_integer_arrays(self):
        with pytest.raises(TypeError, match="substream array tokens must hold integers"):
            RngStream(0).substream_ids("worker", np.array([0.0, 1.0]))
        with pytest.raises(ValueError):
            RngStream(0).substream_ids()
