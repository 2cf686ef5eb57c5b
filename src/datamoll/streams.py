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

A mollified batch needs one stream per image and hashes none: row ``i`` of
seed ``s`` is keyed by the Philox key ``[s, i]`` itself, two uint64 words,
as in Salmon et al. 2011 ("Parallel random numbers: as easy as 1, 2, 3").
:func:`row_keys` builds a batch's keys in one pass, each a :class:`Key`, and
``stream(key)`` opens the row's generator.

Keys must differ in a nonzero word: NumPy's ``SeedSequence`` ignores trailing
zero words in a key of up to four 32-bit words, so ``stream(5, 1, 0)`` is
``stream(5, 1)`` and the trainer's init stream ``stream(s, 0)`` is ``stream(s)``,
which ``synth.grating_dataset(seed=s)`` draws from (no command uses both).
"""

from __future__ import annotations

import operator

import numpy as np
from numpy.random.bit_generator import ISeedSequence


# Philox's counter at the start of every stream.  Passed as an array, it
# skips NumPy's Python-level conversion of the default counter 0, which
# costs as much as the rest of opening a row's stream.
_ZERO_COUNTER = np.zeros(4, dtype=np.uint64)
_ZERO_COUNTER.setflags(write=False)


class Key(ISeedSequence):
    """A row's Philox key, the two read-only uint64 words ``[seed, row]``,
    handed to ``Philox`` as the answer to ``generate_state(2, np.uint64)``,
    the only request it makes; any other request is a ValueError."""

    def __init__(self, philox_key: np.ndarray) -> None:
        self.philox_key = philox_key

    def generate_state(self, n_words: int, dtype=np.uint32) -> np.ndarray:
        # Philox copies the words into its own state, so they go uncopied.
        if n_words != 2 or (dtype is not np.uint64 and np.dtype(dtype) != np.uint64):
            raise ValueError(f"a Key answers generate_state(2, np.uint64), not ({n_words}, {dtype})")
        return self.philox_key


def row_keys(seed, count) -> list[Key]:
    """The :class:`Key` ``[seed, i]`` of each row ``i < count``, built in one
    pass; ``stream(row_keys(seed, count)[i])`` draws what
    ``Generator(Philox(key=np.array([seed, i], dtype=np.uint64)))`` draws.
    ``seed`` must lie in ``[0, 2**64)``."""
    seed, count = operator.index(seed), operator.index(count)
    if not 0 <= seed < 2**64:
        raise ValueError(f"row key seeds must lie in [0, 2**64), got {seed}")
    keys = np.empty((count, 2), dtype=np.uint64)
    keys[:, 0] = seed
    keys[:, 1] = np.arange(count)
    keys.setflags(write=False)
    return [Key(key) for key in keys]


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
    return np.random.Generator(np.random.Philox(seed, counter=_ZERO_COUNTER))


def derive_seed(seed, *tags: int) -> int:
    """Return a 64-bit child seed for ``(seed, *tags)``."""
    return int(_seed_sequence(seed, tags).generate_state(1, np.uint64)[0])
