"""Seeded random streams, and the array checks coding and the demos use.

Every stochastic part of the package (environment, engine, trainer,
experiments) draws from the splittable RngStream, which gives each
stochastic event in the simulator its own reproducible substream.
as_matrix and as_vector coerce and check the dense float64 inputs of
coding's encode and decode; mat_vec is the product the demos and tests
feed it.

A stream draws through RngStream.gen, a Generator of its own that keeps
its place while other streams draw (an episode's exploration noise, drawn
task by task between the engine's draws), or through one process-wide
Generator re-keyed to the start of a stream, for a stream that makes all
its draws before any other stream draws.  RngStream.fresh_gens_at(ids)
re-keys it to the start of RngStream(seed, id) for each stream id in turn:
the engine's loop over its workers' streams, whose ids substream_ids folds
as one array, once per episode (simcore.worker_ids).  fresh_gen() is
its first Generator at the stream's own id: an episode's initial world
(simcore.sample_world) and a replay minibatch's indices
(marl.ReplayBuffer.sample).  Philox is counter-based, so both give the
same draws, and a re-key is only a write of the key into one reused
module-level state dict, whose assignment copies the values, so no
re-key builds a dict or an RngStream and no draw carries into the next.

A substream folds its tokens into the stream id one by one, left to
right, so substream(a).substream(b) is substream(a, b).  A plain int
token is taken as it is, modulo 2^64; a str token is its 8-byte blake2b
digest, computed once per distinct string and then cached, since the
engine derives substreams from the same few names on every task.
substream_ids folds an integer array token's entries at once, so one
call gives the ids of a whole grid of substreams.
"""

import functools
import hashlib

import numpy as np

_MASK64 = (1 << 64) - 1
_GAMMA, _MIX1, _MIX2 = map(np.uint64, (0x9E3779B97F4A7C15, 0xBF58476D1CE4E5B9, 0x94D049BB133111EB))
_new = object.__new__
_INT_TOKENS = (int, np.integer)  # a bool is an int too, and is refused


def as_matrix(a):
    """Coerce to a 2-d float64 array and check every entry is finite."""
    arr = np.asarray(a, dtype=np.float64)
    if arr.ndim != 2:
        raise ValueError(f"expected a 2-d matrix, got ndim={arr.ndim}")
    if arr.shape[0] < 1 or arr.shape[1] < 1:
        raise ValueError(f"matrix dimensions must be positive, got {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ValueError("matrix contains non-finite entries")
    return arr


def as_vector(x):
    """Coerce to a 1-d float64 array and check every entry is finite."""
    arr = np.asarray(x, dtype=np.float64)
    if arr.ndim != 1:
        raise ValueError(f"expected a 1-d vector, got ndim={arr.ndim}")
    if arr.size < 1:
        raise ValueError("vector must have positive length")
    if not np.all(np.isfinite(arr)):
        raise ValueError("vector contains non-finite entries")
    return arr


def mat_vec(a, x):
    """Product A x for A (p, m) and x (m,)."""
    a = as_matrix(a)
    x = as_vector(x)
    if a.shape[1] != x.shape[0]:
        raise ValueError(f"dimension mismatch: A is {a.shape}, x has length {x.shape[0]}")
    return a @ x


def _splitmix64(x):
    x = (x + 0x9E3779B97F4A7C15) & _MASK64
    z = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9 & _MASK64
    z = (z ^ (z >> 27)) * 0x94D049BB133111EB & _MASK64
    return z ^ (z >> 31)


@functools.lru_cache(maxsize=256)
def _str_to_u64(token):
    digest = hashlib.blake2b(token.encode("utf-8"), digest_size=8).digest()
    return int.from_bytes(digest, "little")


def _token_to_u64(token):
    if type(token) is not bool and isinstance(token, _INT_TOKENS):
        return int(token) & _MASK64
    if isinstance(token, str):
        return _str_to_u64(token)
    raise TypeError(f"substream tokens must be int or str, got {type(token).__name__}")


def _splitmix64_array(x):
    """_splitmix64 of each entry of the uint64 array x, as a new array."""
    z = x + _GAMMA
    z ^= z >> 30
    z *= _MIX1
    z ^= z >> 27
    z *= _MIX2
    z ^= z >> 31
    return z


def _fold(stream, tokens):
    """The stream id of substream(*tokens): each token folded in, left to right.

    A plain int token (a worker or task index) is masked here, without
    _token_to_u64's type dispatch; any other token goes through it.
    """
    for token in tokens:
        stream = _splitmix64(stream ^ (token & _MASK64 if type(token) is int
                                       else _token_to_u64(token)))
    return stream


@functools.cache
def _shared_gen():
    """The one Generator that RngStream.fresh_gens_at re-keys, built on first use."""
    return np.random.Generator(np.random.Philox(0))


# the Philox state fresh_gens_at assigns: zero counter, empty buffer; each
# re-key writes only its key, since assigning a state copies the values it reads
_FRESH_STATE = {
    "bit_generator": "Philox",
    "state": {"counter": (0, 0, 0, 0), "key": (0, 0)},
    "buffer": (0, 0, 0, 0),
    "buffer_pos": 4,
    "has_uint32": 0,
    "uinteger": 0,
}


class RngStream:
    """Counter-based random stream keyed by (seed, stream id).

    Identical (seed, stream) pairs reproduce identical draw sequences on any
    platform (Philox4x64 underneath).  ``substream`` derives an independent
    child stream from a path of tokens, so each (worker, task, batch) event
    in the simulator can own its noise without coordination:

        rng = RngStream(seed)
        env = rng.substream("env")
        w3 = rng.substream("task", 7, "worker", 3)

    Substream derivation is pure: it depends only on (seed, stream, tokens),
    never on how many draws were consumed.

    Draw through ``gen`` when the stream's draws interleave with another
    stream's, and through ``fresh_gen()`` or ``fresh_gens_at`` when the
    stream makes all of its draws before any other stream draws.
    """

    __slots__ = ("seed", "stream", "_gen")

    def __init__(self, seed, stream=0):
        self.seed = int(seed) & _MASK64
        self.stream = int(stream) & _MASK64
        self._gen = None

    @property
    def gen(self):
        """The stream's numpy Generator, built on first use.

        Many streams (an episode's, a task's) only ever derive substreams.
        The Philox key is the words (seed, stream).
        """
        if self._gen is None:
            key = (self.stream << 64) | self.seed
            self._gen = np.random.Generator(np.random.Philox(key=key))
        return self._gen

    def fresh_gen(self):
        """A Generator at the start of this stream, valid until the next re-key.

        The first Generator of ``fresh_gens_at((self.stream,))``: its draws
        equal those of a fresh ``gen``, but the next re-key, on any stream,
        moves it elsewhere.  Not thread-safe: see ``fresh_gens_at``.
        """
        return next(self.fresh_gens_at((self.stream,)))

    def fresh_gens_at(self, ids):
        """Yield, for each id of ids in turn, a Generator at the start of RngStream(seed, id).

        Each one is the same process-wide Generator, valid until the next is
        yielded, its Philox state assigned anew from one reused state dict:
        key (seed, id), zero counter, empty buffer.  No RngStream is built.
        ids are Python ints below 2^64.  Not thread-safe: every call re-keys
        the one Generator, so two threads must never draw through this or
        ``fresh_gen`` at once, or each reads the other's stream.
        """
        gen = _shared_gen()
        bits, state, words = gen.bit_generator, _FRESH_STATE, _FRESH_STATE["state"]
        seed = self.seed
        for stream in ids:
            words["key"] = (seed, stream)
            bits.state = state
            yield gen

    def substream_ids(self, *tokens):
        """The stream ids of substream(*tokens) over every combination of the array tokens.

        Each integer array among tokens stands for each of its entries: the
        ids are a uint64 array of the arrays' broadcast shape, and the id at
        an index is substream(*tokens) with each array replaced by its entry
        there, so substream_ids("task", js[:, None], "worker", workers) is
        the (K, N) grid of substream("task", j, "worker", i).  Tokens fold
        left to right as in _fold: as Python ints up to the first array,
        then in uint64 arithmetic, which wraps as the int fold masks; an
        array's entries are cast to uint64, a negative one wrapped too.
        """
        if not tokens:
            raise ValueError("substream_ids requires at least one token")
        stream = self.stream
        for token in tokens:
            if isinstance(token, np.ndarray):
                if token.dtype.kind not in "iu":
                    raise TypeError(f"substream array tokens must hold integers, got {token.dtype}")
                stream = _splitmix64_array(token.astype(np.uint64) ^ stream)
            elif isinstance(stream, np.ndarray):
                stream = _splitmix64_array(stream ^ _token_to_u64(token))
            else:
                stream = _fold(stream, (token,))
        return np.asarray(stream, dtype=np.uint64)

    def substream(self, *tokens):
        if not tokens:
            raise ValueError("substream requires at least one token")
        child = _new(RngStream)  # seed and the folded id are already 64-bit: no masking
        child.seed, child.stream, child._gen = self.seed, _fold(self.stream, tokens), None
        return child

    def __repr__(self):
        return f"RngStream(seed={self.seed}, stream={self.stream})"

