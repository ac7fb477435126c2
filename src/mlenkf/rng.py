"""Keyed random streams for reproducible coupled sampling.

Every random draw in the library is tied to an :class:`RngKey`.  Distinct
key tuples give statistically independent streams and identical tuples
give identical streams.  A filter step opens one stream per purpose,
``(seed, purpose, realization, 0, step)``, and reads it in level order:
each level takes the next consecutive block, so the levels' draws are
disjoint, and so are the particles' within a level.  One stream per step
keeps the cost of opening streams independent of the number of levels.
That cost is mostly the ``SeedSequence`` hash of the key, so each key's
PCG64 seed words are memoized: every accuracy target of a study reopens
the same keys, and a reopened key only builds its generator.

A batch of realizations runs as one ensemble, realization i's particles
in column block i of every level array.  A :class:`StreamReader` fills
column block i of every draw from realization i's stream, in the order
and amounts that the realization would read alone, and checks each read
against the step's plan.  Streams are consumed sequentially and numpy
fills arrays in C order, so two consumers that read different amounts
from the same position see the same draw prefix: a coarse solve shares
the first N_{l-1} rows of its fine partner's block, and one fill of a
block's whole step stream stands in for the step's reads of it.  Those
fills depend only on the keys and the level shapes, so a :class:`Helper`
thread may run them ahead of the steps, across a target's batches; keys
are opened on the calling thread only.  A read hands out its draws where
they lie.
"""

from __future__ import annotations

import contextlib
import functools
from dataclasses import dataclass

import numpy as np

__all__ = ["PURPOSES", "RngKey", "StreamReader", "Helper"]

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
    """Seed-sequence type that hands ``PCG64`` memoized words, defined on
    first use so that importing this module does not load ``numpy.random``."""
    from numpy.random.bit_generator import ISeedSequence

    class SeedWords(ISeedSequence):
        def __init__(self, words):
            self.words = words

        def generate_state(self, n_words, dtype=np.uint32):
            if n_words != 4 or np.dtype(dtype) != np.uint64:
                raise ValueError("holds the 4 uint64 words PCG64 draws only")
            return self.words

    return SeedWords


# normals a helper's unit holds at least, so that its submit and handoff cost
# little beside its draw; a larger block stays a unit for both threads to share
UNIT_NORMALS = 2 ** 15


def _draw(generator, out):
    # the one draw site of both paths; numpy releases the GIL while it fills
    generator.standard_normal(out=out)


def _fill(draws):
    # one unit: each (generator, row) pair's whole step stream, in order
    for generator, out in draws:
        _draw(generator, out)


class Helper(contextlib.AbstractContextManager):
    """Step slots of a target's readers, and a thread that fills them.

    Step s of ``batches[k]``, whose blocks draw ``lengths[purpose]`` normals
    a step, is position g = k ``n_steps`` + s of each purpose.  Each unit,
    consecutive blocks of at least :data:`UNIT_NORMALS` normals or one larger
    block, is drawn whole by one thread into a slot that no read views.  A
    purpose keeps c slots, sized for the widest batch, and g fills slot
    g mod c; releasing g publishes g + c, also across a batch boundary.  A
    step of the widest batch that splits into two or more units keeps c = 2:
    the helper fills step s + 1 while s is read, and the reader claims what
    is left of s + 1 when it gets there.  A one-unit step is shared between
    the threads only across steps and keeps c = 3.  Leaving the ``with``
    block drops the unclaimed units and joins the thread.
    """

    def __init__(self, seed, batches, lengths, n_steps):
        from concurrent.futures import ThreadPoolExecutor  # loaded only with a spare CPU

        self._seed, self._n_steps, self._lengths = seed, n_steps, dict(lengths)
        self._batches = [tuple(batch) for batch in batches]
        width = max(map(len, self._batches))
        self._per = {p: -(-UNIT_NORMALS // n) for p, n in self._lengths.items()}  # blocks a unit
        self.slots = {p: np.empty((2 if width > self._per[p] else 3, width * n))
                      for p, n in self._lengths.items()}
        self._entered = dict.fromkeys(self._lengths, 0)  # readers, one a batch
        self._released = dict.fromkeys(self._lengths, 0)  # the last released position
        self._published = dict.fromkeys(self._lengths, 0)  # the last published position
        self._units = {p: [None] * len(rows) for p, rows in self.slots.items()}
        self._pool = ThreadPoolExecutor(max_workers=1)
        self._queue = []  # published units that may be unclaimed

    def __exit__(self, *exc):
        self._pool.shutdown(cancel_futures=True)

    def enter(self, purpose, blocks, length, n_steps):
        """Position before the first step of a new reader of ``blocks``, the
        target's next batch, once the batch before it is released."""
        k = self._entered[purpose]
        if (self._released[purpose], self._batches[k : k + 1], self._lengths[purpose],
                self._n_steps) != (k * n_steps, [blocks], length, n_steps):
            raise RuntimeError(f"a reader of {blocks} is not the {purpose} helper's next batch")
        self._entered[purpose] += 1
        self.release(purpose, k * n_steps)
        return k * n_steps

    def release(self, purpose, g):
        """Free position ``g``'s slot, and publish each position through
        g + c not yet published, c the purpose's slots, opening its keys on
        this thread."""
        self._released[purpose] = g
        n, per, slots = self._lengths[purpose], self._per[purpose], self.slots[purpose]
        c = len(slots)
        for h in range(self._published[purpose] + 1,
                       min(g + c, len(self._batches) * self._n_steps) + 1):
            k, s = divmod(h - 1, self._n_steps)
            batch = self._batches[k]
            rows = slots[h % c, : len(batch) * n].reshape(len(batch), n)
            draws = [(RngKey(self._seed, purpose, r, 0, s + 1).generator(), row)
                     for r, row in zip(batch, rows)]
            self._units[purpose][h % c] = rows, self.publish(
                [functools.partial(_fill, draws[i : i + per]) for i in range(0, len(draws), per)])
            self._published[purpose] = h

    def read(self, purpose, g):
        """Position ``g``'s (B, length) slot, once its units are filled."""
        rows, units = self._units[purpose][g % len(self._units[purpose])]
        self.wait(units)
        return rows

    def publish(self, fills):
        # each unit is [future, fill]; its future turns None when the caller claims it
        units = [[self._pool.submit(fill), fill] for fill in fills]
        self._queue = [u for u in self._queue if u[0] is not None and not u[0].done()] + units
        return units

    def _claim(self):
        # the first published unit that nobody has claimed, now the caller's
        return next((u for u in self._queue if u[0] is not None and u[0].cancel()), None)

    def wait(self, units):
        """Return once ``units`` are filled, raising a fill's error.  The caller
        fills each one nobody claimed, and while the thread fills one, the
        first published one nobody claimed; it blocks only if none is left."""
        for unit in units:
            while unit[0] is not None and not unit[0].done():
                job = unit if unit[0].cancel() else self._claim()
                if job is None:
                    break
                job[0] = None
                job[1]()
            if unit[0] is not None:
                unit[0].result()  # waits for the thread's fill and raises its error


class StreamReader:
    """One purpose's draws of a batch, read step by step against the plan.

    Each of the steps 1..``n_steps`` reads ``length`` normals from each
    block's stream ``RngKey(seed, purpose, realizations[i], 0, step)``.
    After :meth:`begin`, ``standard_normal((rows, B * M))`` returns a
    (rows, B, M) view whose ``[:, i]`` holds the next ``rows x M`` normals
    of stream i, in C order: of one (B, rows, M) draw without a ``helper``,
    else of the step's slot, valid until :meth:`release` or the next
    :meth:`begin`; a ``helper``'s batch must be its target's next.  A step
    that reads more than its plan raises ``RuntimeError`` at that read, one
    that reads less at the next :meth:`begin` or at :meth:`finish`, and so
    does any read, an empty one too, outside a begun, unreleased step.
    """

    def __init__(self, seed, purpose, realizations, length, n_steps, helper=None):
        self._seed, self._purpose, self._blocks = seed, purpose, tuple(realizations)
        self._length, self._n_steps, self._helper = length, n_steps, helper
        self._step, self._pos = 0, 0  # the reader stands at _pos of _step, 0 before any
        self._held = False  # whether _step's reads are valid, False once released
        if helper is not None:
            self._base = helper.enter(purpose, self._blocks, length, n_steps)

    def _misread(self, where):
        return RuntimeError(f"the {self._purpose} draws stand at {self._pos} of step "
                            f"{self._step}'s {self._length} planned normals per block, "
                            f"not at {where}")

    def begin(self):
        """The reader at the start of its next step; raises ``RuntimeError``
        unless the step before read its whole plan and the plan holds a next
        step."""
        if self._step and self._pos != self._length or self._step == self._n_steps:
            raise self._misread(f"the start of step {self._step + 1}")
        self.release()
        self._step, self._pos, self._held = self._step + 1, 0, True
        if self._helper is None:
            self._draws = [RngKey(self._seed, self._purpose, r, 0, self._step).generator()
                           for r in self._blocks]
        return self

    def release(self):
        """End the open step's reads; from here the helper may refill its slot."""
        if self._held and self._helper is not None:
            self._helper.release(self._purpose, self._base + self._step)
        self._held = False

    def finish(self):
        """Release the last step; raise ``RuntimeError`` unless it read all."""
        self.release()
        if (self._step, self._pos) != (self._n_steps, self._length):
            raise self._misread(f"the end of step {self._n_steps}")

    def standard_normal(self, size):
        if not self._held:
            raise RuntimeError(f"the {self._purpose} draws are read outside a begun, "
                               f"unreleased step")
        rows, cols = size
        b = len(self._blocks)
        if cols % b:
            raise ValueError(f"{cols} columns do not split into {b} blocks")
        m = cols // b
        start, end = self._pos, self._pos + rows * m
        if end > self._length:
            raise RuntimeError(f"step {self._step} reads more than its {self._length} "
                               f"planned {self._purpose} normals per block")
        if self._helper is None:
            out = np.empty((b, rows, m))
            _fill(zip(self._draws, out))
        else:
            if not start:
                self._filled = self._helper.read(self._purpose, self._base + self._step)
            out = self._filled[:, start:end].reshape(b, rows, m)
        self._pos = end
        return out.transpose(1, 0, 2)
