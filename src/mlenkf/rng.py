"""Keyed random streams for reproducible coupled sampling.

Every random draw in the library is tied to an :class:`RngKey`.  Distinct
key tuples give statistically independent streams and identical tuples
give identical streams.  A filter step opens one stream per purpose,
``(seed, purpose, realization, 0, step)``, and reads it in level order:
each level takes the next consecutive block, so the levels' draws are
disjoint, hence independent, and the particles of one level read
disjoint draws of their block.  One stream per step rather than one
per level and step keeps the cost of opening streams independent of the
number of levels.  That cost is mostly the ``SeedSequence`` hash of the
key, so each key's PCG64 seed words are memoized: every accuracy target
of a study reopens the same keys, and a reopened key only builds its
generator, which replays the stream from its start.

A batch of realizations runs as one ensemble, realization i's particles
in column block i of every level array; a single realization is the
batch of one.  Each realization opens and reads its own streams: a
:class:`ColumnBlocks` reader fills column block i of every draw from
realization i's stream, in the order and amounts that the realization
would read alone, so its draws do not depend on the batch it runs in.

Streams are consumed sequentially and numpy fills arrays in C order, so
two consumers that read different amounts from the same position see
the same draw prefix.  This is what lets a coarse solve share the first
N_{l-1} rows of its fine partner's block.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

__all__ = ["PURPOSES", "RngKey", "ColumnBlocks"]

PURPOSES = ("forward", "obs-perturbation", "truth", "data-noise")


@dataclass(frozen=True)
class RngKey:
    """Identifier of one pseudorandom stream.

    Parameters
    ----------
    seed : int
        Master seed of the experiment, up to 64 bits.
    purpose : str
        One of :data:`PURPOSES`; separates forward noise, observation
        perturbations, the synthetic truth path and the data noise.
    realization, level, step : int
        Coordinates of the consumer.  Unused coordinates stay 0; the
        filter steps leave ``level`` at 0 and read the levels as blocks
        of one stream.
    """

    seed: int
    purpose: str
    realization: int = 0
    level: int = 0
    step: int = 0

    def __post_init__(self):
        if self.purpose not in PURPOSES:
            raise ValueError(f"unknown purpose {self.purpose!r}")
        for name in ("seed", "realization", "level", "step"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be nonnegative")

    def generator(self):
        """Fresh ``numpy.random.Generator`` for this key.

        Draw for draw the stream of ``np.random.default_rng(seq)``, with
        ``seq`` the key's ``SeedSequence``, whose seed words are memoized.
        """
        return np.random.Generator(np.random.PCG64(_seed_words_type()(_seed_words(self))))


# A study opens 2 R n_steps filter keys and 2 n_steps data keys, and every
# accuracy target reopens the filter keys.  The bound keeps the memo under
# 4 MB (keys included); a study with more keys evicts each before it is
# reopened and pays one hash an open, as it would without the memo.
@functools.lru_cache(maxsize=2 ** 13)
def _seed_words(key):
    """The 4 uint64 words that ``PCG64`` draws from ``key``'s
    ``SeedSequence``, read-only, since every open of the key shares them."""
    seq = np.random.SeedSequence(
        entropy=key.seed,
        spawn_key=(
            PURPOSES.index(key.purpose),
            key.realization,
            key.level,
            0,  # fixed slot; removing it would change every seeded stream
            key.step,
        ),
    )
    words = seq.generate_state(4, np.uint64)
    words.flags.writeable = False
    return words


@functools.cache
def _seed_words_type():
    """Seed-sequence type that hands ``PCG64`` memoized words.

    Defined on first use, so that importing this module does not load
    ``numpy.random``.
    """
    from numpy.random.bit_generator import ISeedSequence

    class SeedWords(ISeedSequence):
        def __init__(self, words):
            self.words = words

        def generate_state(self, n_words, dtype=np.uint32):
            if n_words != 4 or np.dtype(dtype) != np.uint64:
                raise ValueError("holds the 4 uint64 words PCG64 draws only")
            return self.words

    return SeedWords


class ColumnBlocks:
    """Draws for a batch of realizations, one stream per column block.

    ``standard_normal((rows, B * M))`` fills columns ``i M .. (i+1) M``
    with the next ``rows x M`` normals of stream i, in C order, exactly
    as ``generators[i].standard_normal((rows, M))`` would.  Each block is
    drawn into its own contiguous slab, so one block (B = 1) returns the
    slab itself and B > 1 blocks cost one interleaving copy.
    """

    def __init__(self, generators):
        self.generators = tuple(generators)

    def standard_normal(self, size):
        rows, cols = size
        b = len(self.generators)
        if cols % b:
            raise ValueError(f"{cols} columns do not split into {b} blocks")
        out = np.empty((b, rows, cols // b))
        for g, block in zip(self.generators, out):
            g.standard_normal(out=block)
        return out.transpose(1, 0, 2).reshape(rows, cols)
