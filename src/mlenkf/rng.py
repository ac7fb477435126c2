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
N_{l-1} rows of its fine partner's block, and what lets one fill of a
block's whole step stream stand in for the step's reads of it, level by
level.  A step's draws depend only on the key and the level shapes,
never on the state, so a batch may fill the next step's streams while
this step computes: :class:`PrefetchedBlocks` reads column blocks, as
:class:`ColumnBlocks` does, from rows that a helper thread filled one
step ahead.  Keys are opened on the calling thread; the helper only
runs generators.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

__all__ = ["PURPOSES", "RngKey", "ColumnBlocks", "PrefetchedBlocks"]

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
    slab itself and B > 1 blocks cost one interleaving copy.  Every read
    returns a fresh array, which the caller may write into; so does
    :class:`PrefetchedBlocks`, the same contract over prefilled rows.
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


def _fill(generators, rows):
    # one call per block, each of which releases the GIL while it fills
    for g, row in zip(generators, rows):
        g.standard_normal(out=row)


class PrefetchedBlocks:
    """:class:`ColumnBlocks` reads over one purpose's step streams of a
    batch, each step's filled one step ahead by a helper.

    Every step reads ``length`` normals from each block's stream
    ``RngKey(seed, purpose, realizations[i], 0, step)``, the plan.  Row i
    of a (B, length) buffer holds them: ``submit(fn, *args)`` runs the
    fill of steps 1..``n_steps`` on the helper and returns its future, as
    ``Executor.submit`` does.  The fill of step 1 starts on construction,
    and the read that takes a step's last planned entry opens the next
    step's keys, on the calling thread, and submits their fill into the
    same buffer, so the helper draws while the rest of the step computes.

    A step calls :meth:`begin` and then reads through
    :meth:`standard_normal`, which copies each draw out into a fresh
    array.  A step that reads more than the plan raises at the read that
    overruns it, and one that reads less raises at the next
    :meth:`begin` or at :meth:`finish`, so a change in the order or the
    amount of the draws fails instead of shifting the streams.  An empty
    read, such as the coarse draw of a level without partners, reads
    nothing and checks nothing but its shape.
    """

    def __init__(self, seed, purpose, realizations, length, n_steps, submit):
        self._seed, self._purpose = seed, purpose
        self._realizations = tuple(realizations)
        self._rows = np.empty((len(self._realizations), length))
        self._last = n_steps
        self._submit = submit
        self._open = None  # the step that has begun reading
        self._load(1)

    def _load(self, step):
        generators = [RngKey(self._seed, self._purpose, r, 0, step).generator()
                      for r in self._realizations]
        self._filled = self._submit(_fill, generators, self._rows)
        self._step, self._pos = step, 0

    def _misread(self, where):
        return RuntimeError(
            f"the {self._purpose} draws stand at {self._pos} of step {self._step}'s "
            f"{self._rows.shape[1]} planned normals per block, not at {where}"
        )

    def begin(self, step):
        """The reader at the start of ``step``, whose draws it holds.

        Raises ``RuntimeError`` if the step before read less than its plan.
        """
        if (self._step, self._pos) != (step, 0):
            raise self._misread(f"the start of step {step}")
        self._open = step
        return self

    def finish(self):
        """Raise ``RuntimeError`` unless step ``n_steps`` read its whole plan."""
        if (self._step, self._pos) != (self._last, self._rows.shape[1]):
            raise self._misread(f"the end of step {self._last}")

    def standard_normal(self, size):
        rows, cols = size
        b, length = self._rows.shape
        if cols % b:
            raise ValueError(f"{cols} columns do not split into {b} blocks")
        m = cols // b
        out = np.empty((rows, b, m))
        if not out.size:
            return out.reshape(rows, cols)
        end = self._pos + rows * m
        if self._step != self._open or end > length:
            raise RuntimeError(
                f"step {self._open} reads more than its {length} planned "
                f"{self._purpose} normals per block"
            )
        self._filled.result()  # waits for the helper only on a step's first read
        np.copyto(out, self._rows[:, self._pos:end].reshape(b, rows, m).transpose(1, 0, 2))
        self._pos = end
        if end == length and self._step < self._last:
            self._load(self._step + 1)
        return out.reshape(rows, cols)
