"""Seeded, counter-based random streams.

All randomness in the package flows through Philox generators keyed by an
integer seed plus a tuple of integer tags.  Philox is counter-based, so a
stream does not depend on the order in which streams are created; per-image
draws stay reproducible under any batch parallelisation.

A key is ``(seed, *tags)``, each a non-negative integer (a Python or NumPy
integer; a float is a TypeError, a negative value a ValueError).  It keys the
``SeedSequence`` NumPy builds from the same tuple, word for word.

Keys must differ in a nonzero word: NumPy's ``SeedSequence`` ignores trailing
zero words in a key of up to four 32-bit words, so ``stream(5, 1, 0)`` is
``stream(5, 1)`` and the trainer's init stream ``stream(s, 0)`` is ``stream(s)``,
which ``synth.grating_dataset(seed=s)`` draws from (no command uses both).
"""

from __future__ import annotations

import operator

import numpy as np

_MASK32 = 0xFFFF_FFFF


def _seed_sequence(seed: int, tags: tuple[int, ...]) -> np.random.SeedSequence:
    """``SeedSequence((seed, *tags))``, built from the uint32 words NumPy derives
    from that tuple: each value's little-endian 32-bit words, one zero word for 0.
    Given the tuple itself, NumPy coerces each value through several Python
    calls, about a third of the cost of a stream."""
    words = []
    for value in (seed, *tags):
        value = operator.index(value)
        if value < 0:
            raise ValueError(f"stream key values must be non-negative, got {value}")
        while value > _MASK32:
            words.append(value & _MASK32)
            value >>= 32
        words.append(value)
    return np.random.SeedSequence(np.array(words, dtype=np.uint32))


def stream(seed: int, *tags: int) -> np.random.Generator:
    """Return a fresh generator keyed by ``seed`` and optional integer tags."""
    return np.random.Generator(np.random.Philox(_seed_sequence(seed, tags)))


def derive_seed(seed: int, *tags: int) -> int:
    """Return a 64-bit child seed for (seed, *tags)."""
    return int(_seed_sequence(seed, tags).generate_state(1, np.uint64)[0])
