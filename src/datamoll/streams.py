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
and of ``generate_state(2, np.uint64)``, the one request ``Philox`` makes
(O'Neill's ``seed_seq`` scheme), run on a matrix with one row of key words per
key.  :func:`keys` takes any value as an ``(N,)`` integer array of values
below ``2**32``, one key word each, and derives all N keys in one pass; each
:class:`Key` holds only its row's Philox key, so ``stream(key)`` opens the
generator without hashing again.  ``stream(seed, *tags)`` and
``derive_seed(seed, *tags)`` are the one-row case, and ``derive_seed`` also
takes array values: a child seed is word 0 of its key's Philox key.

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


@lru_cache(maxsize=16)
def _hash_constants(init: int, mult: int, count: int) -> tuple[np.ndarray, np.ndarray]:
    """The constants of ``count`` successive hashes, as two read-only uint32
    arrays: hash k xors its value with h_k and multiplies it by h_(k+1), where
    h_0 = init and h_(k+1) = h_k * mult."""
    h = [init]
    for _ in range(count):
        h.append(h[-1] * mult & _MASK32)
    consts = np.array([h[:-1], h[1:]], dtype=np.uint32)
    consts.setflags(write=False)
    return consts[0], consts[1]


# The hash constants of ``generate_state(2, np.uint64)``: its four uint32
# words hash the four pool words in order.  ``generate_state`` is
# prefix-stable, so word 0 of that state is ``generate_state(1, np.uint64)``.
_STATE_XOR, _STATE_MULT = _hash_constants(_INIT_B, _MULT_B, _POOL_SIZE)


def _hash(values: np.ndarray, xor: np.ndarray, mult: np.ndarray) -> np.ndarray:
    """``SeedSequence``'s ``hashmix`` of each value, with its constants."""
    values = (values ^ xor) * mult
    return values ^ (values >> _XSHIFT)


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """``SeedSequence``'s ``mix`` of two words, elementwise."""
    result = x * _MIX_MULT_L - y * _MIX_MULT_R
    return result ^ (result >> _XSHIFT)


def _philox_keys(values: tuple) -> np.ndarray:
    """``SeedSequence(row words).generate_state(2, np.uint64)`` of every key
    row, an ``(N, 2)`` uint64 matrix."""
    words = _key_words(values)
    # Mixing a key of L words into the pool takes 4 * L hash constants in
    # order: four for the words that fill the pool, three for each pool word
    # mixed into the other three, then four for each word beyond the pool.
    xor, mult = _hash_constants(_INIT_A, _MULT_A, _POOL_SIZE * words.shape[1])
    pool = _hash(words[:, :_POOL_SIZE], xor[:_POOL_SIZE], mult[:_POOL_SIZE])
    # Every pool word into the other three, so late words affect early ones.
    for src in range(_POOL_SIZE):
        dst = [i for i in range(_POOL_SIZE) if i != src]
        at = slice(_POOL_SIZE + 3 * src, _POOL_SIZE + 3 * (src + 1))
        pool[:, dst] = _mix(pool[:, dst], _hash(pool[:, src, None], xor[at], mult[at]))
    # Then each word beyond the pool into every pool word.
    for src in range(_POOL_SIZE, words.shape[1]):
        at = slice(_POOL_SIZE * src, _POOL_SIZE * (src + 1))
        pool = _mix(pool, _hash(words[:, src, None], xor[at], mult[at]))
    state = _hash(pool, _STATE_XOR, _STATE_MULT)
    # generate_state pairs its uint32 words little-endian into uint64s.
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


def _array_words(value: np.ndarray) -> np.ndarray:
    """An ``(N,)`` integer array of values in ``[0, 2**32)`` as one uint32 word each."""
    if value.ndim != 1:
        raise ValueError(f"stream key arrays must be one-dimensional, got shape {value.shape}")
    if not np.issubdtype(value.dtype, np.integer):
        raise TypeError(f"stream key arrays must hold integers, got dtype {value.dtype}")
    low, high = int(value.min(initial=0)), int(value.max(initial=0))
    if low < 0 or high > _MASK32:
        raise ValueError(f"stream key array values must lie in [0, 2**32), got {low} to {high}")
    return value.astype(np.uint32)


def _key_words(values: tuple) -> np.ndarray:
    """Each key row's uint32 words, zero-padded to at least four (the pool
    hashes a zero word in place of a missing one), in an ``(N, W)`` matrix;
    N is 1 unless some value is an ``(N,)`` array."""
    lengths = {len(value) for value in values if _is_array(value)}
    if len(lengths) > 1:
        raise ValueError(f"stream key arrays must have one length, got {sorted(lengths)}")
    n = lengths.pop() if lengths else 1
    columns = []
    for value in values:
        if _is_array(value):
            columns.append(_array_words(value))
        else:
            columns += _int_words(value)
    words = np.zeros((n, max(_POOL_SIZE, len(columns))), dtype=np.uint32)
    for i, column in enumerate(columns):
        words[:, i] = column
    return words


class Key(ISeedSequence):
    """One key's Philox key, ``SeedSequence(key words).generate_state(2,
    np.uint64)``: the only request ``Philox(key)`` makes, so opening a
    stream on a key hashes nothing.  Any other request is a ValueError."""

    def __init__(self, philox_key: np.ndarray) -> None:
        self.philox_key = philox_key

    def generate_state(self, n_words: int, dtype=np.uint32) -> np.ndarray:
        if n_words != 2 or np.dtype(dtype) != np.uint64:
            raise ValueError(f"a Key answers generate_state(2, np.uint64), not ({n_words}, {dtype})")
        return self.philox_key.copy()


def keys(seed, *tags) -> list[Key]:
    """One :class:`Key` per row of ``(seed, *tags)``, derived in one pass: each
    value is a non-negative integer, which keys every row, or an ``(N,)``
    integer array of values below ``2**32``.  ``stream(keys(...)[i])`` is
    ``stream`` of row i's values."""
    return [Key(key) for key in _philox_keys((seed, *tags))]


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
    row when some value is an ``(N,)`` integer array of values below ``2**32``."""
    values = (seed, *tags)
    child = _philox_keys(values)[:, 0]
    return child if any(_is_array(value) for value in values) else int(child[0])
