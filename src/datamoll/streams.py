"""Seeded, counter-based random streams.

All randomness in the package flows through Philox generators keyed by an
integer seed plus a tuple of integer tags.  Philox is counter-based, so a
stream does not depend on the order in which streams are created; per-image
draws stay reproducible under any batch parallelisation.

A key is ``(seed, *tags)``, each a non-negative integer (a Python or NumPy
integer; a float is a TypeError, a negative value a ValueError).  It keys the
``SeedSequence`` NumPy builds from the same tuple, word for word: the key's
uint32 words are each value's little-endian 32-bit words, one zero word for 0.

The hashing is an exact, vectorized port of ``SeedSequence``'s entropy mixing
and ``generate_state`` (O'Neill's ``seed_seq`` scheme), run on a matrix with
one row of key words per key.  :func:`keys` takes any value as an ``(N,)``
integer array and derives all N keys in one pass; each :class:`Key` holds its
row's Philox key, so ``stream(key)`` opens the generator without hashing
again.  ``stream(seed, *tags)`` and ``derive_seed(seed, *tags)`` are the
one-row case, and ``derive_seed`` also takes array values.

Keys must differ in a nonzero word: NumPy's ``SeedSequence`` ignores trailing
zero words in a key of up to four 32-bit words, so ``stream(5, 1, 0)`` is
``stream(5, 1)`` and the trainer's init stream ``stream(s, 0)`` is ``stream(s)``,
which ``synth.grating_dataset(seed=s)`` draws from (no command uses both).
"""

from __future__ import annotations

import operator
from functools import lru_cache

import numpy as np
from numpy.random.bit_generator import ISeedSequence

_MASK32 = 0xFFFF_FFFF

# SeedSequence's pool size and hash constants.
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)
_XSHIFT = np.uint32(16)


def _hash_constants(init: int, mult: int, count: int) -> tuple[list[int], list[int]]:
    """The constants of ``count`` successive hashes: hash k xors its value with
    h_k and multiplies it by h_(k+1), where h_0 = init and h_(k+1) = h_k * mult."""
    h = [init]
    for _ in range(count):
        h.append(h[-1] * mult & _MASK32)
    return h[:-1], h[1:]


@lru_cache(maxsize=16)
def _mixing_constants(length: int) -> tuple[np.ndarray, np.ndarray]:
    """The hash constants with which ``SeedSequence`` mixes a key of ``length``
    words into its pool, one read-only row of four per round of
    :func:`_pools`: the words that fill the pool, each pool word into the
    other three (the row's own column is unused), and each word beyond the
    pool."""
    consts = np.array(_hash_constants(_INIT_A, _MULT_A, _POOL_SIZE * length), dtype=np.uint32)
    table = np.zeros((2, 1 + length, _POOL_SIZE), dtype=np.uint32)
    table[:, 0] = consts[:, :_POOL_SIZE]
    for src in range(_POOL_SIZE):
        at = _POOL_SIZE + (_POOL_SIZE - 1) * src
        table[:, 1 + src, [i for i in range(_POOL_SIZE) if i != src]] = consts[:, at : at + 3]
    table[:, 1 + _POOL_SIZE :] = consts[:, _POOL_SIZE**2 :].reshape(2, -1, _POOL_SIZE)
    table.setflags(write=False)
    return table[0], table[1]


@lru_cache(maxsize=16)
def _state_constants(n_words: int) -> tuple[np.ndarray, np.ndarray]:
    """The hash constants of ``generate_state(n_words)``, read-only."""
    consts = np.array(_hash_constants(_INIT_B, _MULT_B, n_words), dtype=np.uint32)
    consts.setflags(write=False)
    return consts[0], consts[1]


def _hash(values: np.ndarray, xor: np.ndarray, mult: np.ndarray) -> np.ndarray:
    """``SeedSequence``'s ``hashmix`` of each value, with its constants."""
    values = (values ^ xor) * mult
    return values ^ (values >> _XSHIFT)


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """``SeedSequence``'s ``mix`` of two words, elementwise."""
    result = x * _MIX_MULT_L - y * _MIX_MULT_R
    return result ^ (result >> _XSHIFT)


def _pools(words: np.ndarray) -> np.ndarray:
    """``SeedSequence(row).pool`` for each row of an ``(N, L)`` uint32 matrix,
    ``L >= 4``.  Zero words that pad a row to four are exact: the pool hashes
    a zero word in their place."""
    xor, mult = _mixing_constants(words.shape[1])
    pool = _hash(words[:, :_POOL_SIZE], xor[0], mult[0])
    # Every pool word into every other one, so late words affect early ones.
    for src in range(_POOL_SIZE):
        mixed = _mix(pool, _hash(pool[:, src, None], xor[1 + src], mult[1 + src]))
        mixed[:, src] = pool[:, src]
        pool = mixed
    # Then each word beyond the pool into every pool word.
    for src in range(_POOL_SIZE, words.shape[1]):
        pool = _mix(pool, _hash(words[:, src, None], xor[1 + src], mult[1 + src]))
    return pool


def _generate_state(pools: np.ndarray, n_words: int) -> np.ndarray:
    """``generate_state(n_words)`` (uint32) for each row of an ``(N, 4)`` pool matrix."""
    xor, mult = _state_constants(n_words)
    return _hash(pools[:, np.arange(n_words) % _POOL_SIZE], xor, mult)


def _as_uint64(state: np.ndarray) -> np.ndarray:
    """Little-endian pairs of uint32 words as uint64s, as ``generate_state`` pairs them."""
    return np.ascontiguousarray(state, dtype="<u4").view("<u8").astype(np.uint64)


def _is_array(value) -> bool:
    return isinstance(value, np.ndarray) and value.ndim > 0


def _int_words(value) -> list[int]:
    """An integer key value's little-endian uint32 words, one zero word for 0."""
    value = operator.index(value)
    if value < 0:
        raise ValueError(f"stream key values must be non-negative, got {value}")
    words = []
    while value > _MASK32:
        words.append(value & _MASK32)
        value >>= 32
    words.append(value)
    return words


def _array_words(value: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The low and high uint32 words of each value of an ``(N,)`` integer array."""
    if value.ndim != 1:
        raise ValueError(f"stream key arrays must be one-dimensional, got shape {value.shape}")
    if not np.issubdtype(value.dtype, np.integer):
        raise TypeError(f"stream key arrays must hold integers, got dtype {value.dtype}")
    if value.min(initial=0) < 0:
        raise ValueError(f"stream key values must be non-negative, got {value.min()}")
    value = value.astype(np.uint64)
    return value.astype(np.uint32), (value >> np.uint64(32)).astype(np.uint32)


def _key_words(values: tuple) -> tuple[np.ndarray, np.ndarray]:
    """Each key row's uint32 words, left-aligned in a zero-padded ``(N, W)``
    matrix with ``W >= 4``, and each row's word count; N is 1 unless some
    value is an ``(N,)`` array."""
    lengths = {len(value) for value in values if _is_array(value)}
    if len(lengths) > 1:
        raise ValueError(f"stream key arrays must have one length, got {sorted(lengths)}")
    n = lengths.pop() if lengths else 1
    # One column per word; an array value's high word is a word of the key
    # only in the rows where it is nonzero.
    columns, present = [], []
    for value in values:
        if not _is_array(value):
            words = _int_words(value)
            columns += words
            present += [True] * len(words)
            continue
        low, high = _array_words(value)
        columns.append(low)
        present.append(True)
        if high.any():
            columns.append(high)
            present.append(high != 0)
    words = np.zeros((n, max(_POOL_SIZE, len(columns))), dtype=np.uint32)
    for i, column in enumerate(columns):
        words[:, i] = column
    if all(p is True for p in present):
        return words, np.full(n, len(columns))
    mask = np.column_stack([np.broadcast_to(p, n) for p in present])
    packed = np.zeros_like(words)
    rows, at = np.nonzero(mask)[0], (np.cumsum(mask, axis=1) - 1)[mask]
    packed[rows, at] = words[:, : len(columns)][mask]
    return packed, mask.sum(axis=1)


def _key_pools(values: tuple) -> np.ndarray:
    """``SeedSequence(row words).pool`` of every key row, an ``(N, 4)`` uint32 matrix."""
    words, lengths = _key_words(values)
    # Beyond the pool a trailing zero word changes the key, so rows longer
    # than four words are hashed with the rows of their own length.
    padded = np.maximum(lengths, _POOL_SIZE)
    pools = np.empty((len(words), _POOL_SIZE), dtype=np.uint32)
    for length in np.unique(padded):
        rows = padded == length
        pools[rows] = _pools(words[rows, :length])
    return pools


class Key(ISeedSequence):
    """One key's ``SeedSequence``, with its Philox key precomputed.

    ``pool`` is NumPy's ``SeedSequence(key words).pool``, and
    ``generate_state`` returns what that ``SeedSequence`` returns.
    ``philox_key`` is ``generate_state(2, np.uint64)``, the two words
    ``Philox(key)`` reads, so opening a stream on a key hashes nothing.
    """

    def __init__(self, pool: np.ndarray, philox_key: np.ndarray) -> None:
        self.pool = pool
        self.philox_key = philox_key

    def generate_state(self, n_words: int, dtype=np.uint32) -> np.ndarray:
        dtype = np.dtype(dtype)
        if dtype == np.uint64 and n_words <= 2:
            return self.philox_key[:n_words].copy()
        if dtype not in (np.uint32, np.uint64):
            raise ValueError("only support uint32 or uint64")
        state = _generate_state(self.pool[None], n_words * dtype.itemsize // 4)[0]
        return _as_uint64(state) if dtype == np.uint64 else state


def keys(seed, *tags) -> list[Key]:
    """One :class:`Key` per row of ``(seed, *tags)``, derived in one pass: each
    value is a non-negative integer, which keys every row, or an ``(N,)``
    integer array.  ``stream(keys(...)[i])`` is ``stream`` of row i's values."""
    pools = _key_pools((seed, *tags))
    philox_keys = _as_uint64(_generate_state(pools, 4))
    return [Key(pool, key) for pool, key in zip(pools, philox_keys)]


def stream(seed, *tags: int) -> np.random.Generator:
    """Return a fresh generator keyed by ``seed`` and optional integer tags,
    or by a :class:`Key` alone."""
    if not isinstance(seed, Key):
        if any(_is_array(value) for value in (seed, *tags)):
            raise TypeError("stream key values must be integers; keys() takes arrays")
        (seed,) = keys(seed, *tags)
    elif tags:
        raise TypeError("a Key takes no tags")
    return np.random.Generator(np.random.Philox(seed))


def derive_seed(seed, *tags) -> int | np.ndarray:
    """Return a 64-bit child seed for (seed, *tags): an int, or one uint64 per
    row when some value is an ``(N,)`` integer array."""
    values = (seed, *tags)
    child = _as_uint64(_generate_state(_key_pools(values), 2))[:, 0]
    return child if any(_is_array(value) for value in values) else int(child[0])
