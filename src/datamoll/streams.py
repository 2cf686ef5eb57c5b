"""Seeded, counter-based random streams.

All randomness in the package flows through Philox generators keyed by an
integer seed plus a tuple of integer tags.  Philox is counter-based, so a
stream does not depend on the order in which streams are created; per-image
draws stay reproducible under any batch parallelisation.

A key is ``(seed, *tags)``, each a non-negative integer (a Python or NumPy
integer; a float, a string or an array is a TypeError, a negative value a
ValueError).  ``stream(seed, *tags)`` opens
``Generator(Philox(SeedSequence((seed, *tags))))`` and ``derive_seed(seed,
*tags)`` returns word 0 of that ``SeedSequence``'s 64-bit state, an int.

A mollified batch needs one key per image, ``(seed, i, 0)``.
:func:`row_keys` derives all of them in one pass, with an exact, vectorized
port of ``SeedSequence``'s entropy mixing and of ``generate_state(2,
np.uint64)``, the one request ``Philox`` makes (O'Neill's ``seed_seq``
scheme).  A seed below ``2**64`` and a row below ``2**32`` make a key of at
most four uint32 words, so each key fills ``SeedSequence``'s pool and nothing
more.  Each :class:`Key` holds only its row's Philox key, so ``stream(key)``
opens the generator without hashing again.

Keys must differ in a nonzero word: NumPy's ``SeedSequence`` ignores trailing
zero words in a key of up to four 32-bit words, so ``stream(5, 1, 0)`` is
``stream(5, 1)`` and the trainer's init stream ``stream(s, 0)`` is ``stream(s)``,
which ``synth.grating_dataset(seed=s)`` draws from (no command uses both).
"""

from __future__ import annotations

import operator

import numpy as np
from numpy.random.bit_generator import ISeedSequence

_MASK32 = 0xFFFF_FFFF

# SeedSequence's pool size and hash constants.
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)
_XSHIFT = np.uint32(16)


def _hash_constants(init: int, mult: int, count: int) -> tuple[np.ndarray, np.ndarray]:
    """The constants of ``count`` successive hashes, as two uint32 arrays:
    hash k xors its value with h_k and multiplies it by h_(k+1), where
    h_0 = init and h_(k+1) = h_k * mult."""
    h = [init]
    for _ in range(count):
        h.append(h[-1] * mult & _MASK32)
    return np.array(h[:-1], dtype=np.uint32), np.array(h[1:], dtype=np.uint32)


# Mixing four key words into the pool takes 16 hash constants in order: four
# for the words that fill the pool, then three for each pool word mixed into
# the other three.
_POOL_XOR, _POOL_MULT = _hash_constants(_INIT_A, _MULT_A, 4 * _POOL_SIZE)
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


def _philox_keys(words: np.ndarray) -> np.ndarray:
    """``SeedSequence(row words).generate_state(2, np.uint64)`` of every row
    of an ``(N, 4)`` uint32 matrix, an ``(N, 2)`` uint64 matrix; the pool
    hashes a zero word in place of a missing one, so a shorter key is its
    words padded with zeros."""
    pool = _hash(words, _POOL_XOR[:_POOL_SIZE], _POOL_MULT[:_POOL_SIZE])
    # Every pool word into the other three, so late words affect early ones.
    for src in range(_POOL_SIZE):
        dst = [i for i in range(_POOL_SIZE) if i != src]
        at = slice(_POOL_SIZE + 3 * src, _POOL_SIZE + 3 * (src + 1))
        pool[:, dst] = _mix(pool[:, dst], _hash(pool[:, src, None], _POOL_XOR[at], _POOL_MULT[at]))
    state = _hash(pool, _STATE_XOR, _STATE_MULT)
    # generate_state pairs its uint32 words little-endian into uint64s.
    return np.ascontiguousarray(state, dtype="<u4").view("<u8").astype(np.uint64)


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


def row_keys(seed, count) -> list[Key]:
    """The :class:`Key` of ``(seed, i, 0)`` for each ``i < count``, derived in
    one pass; ``stream(row_keys(seed, count)[i])`` is ``stream(seed, i, 0)``.
    ``seed`` must lie in ``[0, 2**64)`` and ``count`` in ``[0, 2**32]``."""
    seed, count = operator.index(seed), operator.index(count)
    if not 0 <= seed < 2**64:
        raise ValueError(f"row key seeds must lie in [0, 2**64), got {seed}")
    # Row numbers are one uint32 word each; checked before any allocation,
    # since a larger count would wrap the row column and repeat keys.
    if not 0 <= count <= 2**32:
        raise ValueError(f"row key counts must lie in [0, 2**32], got {count}")
    seed_words = [seed & _MASK32, seed >> 32] if seed > _MASK32 else [seed]
    words = np.zeros((count, _POOL_SIZE), dtype=np.uint32)
    words[:, : len(seed_words)] = seed_words
    words[:, len(seed_words)] = np.arange(count, dtype=np.uint32)
    return [Key(key) for key in _philox_keys(words)]


def _seed_sequence(seed, tags: tuple) -> np.random.SeedSequence:
    """NumPy's ``SeedSequence`` of ``(seed, *tags)``, each value checked."""
    key = [operator.index(value) for value in (seed, *tags)]
    if any(value < 0 for value in key):
        raise ValueError(f"stream key values must be non-negative, got {tuple(key)}")
    return np.random.SeedSequence(key)


def stream(seed, *tags: int) -> np.random.Generator:
    """Return a fresh generator keyed by ``seed`` and optional integer tags,
    or by a :class:`Key` alone."""
    if not isinstance(seed, Key):
        seed = _seed_sequence(seed, tags)
    elif tags:
        raise TypeError("a Key takes no tags")
    return np.random.Generator(np.random.Philox(seed))


def derive_seed(seed, *tags: int) -> int:
    """Return a 64-bit child seed for ``(seed, *tags)``."""
    return int(_seed_sequence(seed, tags).generate_state(1, np.uint64)[0])
