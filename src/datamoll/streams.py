"""Seeded, counter-based random streams.

All randomness in the package flows through Philox generators keyed by an
integer seed plus a tuple of integer tags.  Philox is counter-based, so a
stream does not depend on the order in which streams are created; per-image
draws stay reproducible under any batch parallelisation.

Keys must differ in a nonzero word: NumPy's ``SeedSequence`` ignores trailing
zero words in a key of up to four 32-bit words, so ``stream(5, 1, 0)`` is
``stream(5, 1)`` and the trainer's init stream ``stream(s, 0)`` is ``stream(s)``,
which ``synth.grating_dataset(seed=s)`` draws from (no command uses both).
"""

from __future__ import annotations

import numpy as np


def stream(seed: int, *tags: int) -> np.random.Generator:
    """Return a fresh generator keyed by ``seed`` and optional integer tags."""
    ss = np.random.SeedSequence((int(seed), *(int(t) for t in tags)))
    return np.random.Generator(np.random.Philox(ss))


def derive_seed(seed: int, *tags: int) -> int:
    """Return a 64-bit child seed for (seed, *tags)."""
    ss = np.random.SeedSequence((int(seed), *(int(t) for t in tags)))
    return int(ss.generate_state(1, np.uint64)[0])
