import contextlib
import threading
import time

import numpy as np
import pytest

from mlenkf import rng
from mlenkf.experiment import ExperimentConfig, run_experiment
from mlenkf.rng import PURPOSES, Helper, RngKey, StreamReader


def test_same_key_replays_identically():
    key = RngKey(123, "forward", realization=2, level=1, step=7)
    a = key.generator().standard_normal(64)
    b = RngKey(123, "forward", 2, 1, 7).generator().standard_normal(64)
    assert np.array_equal(a, b)


@pytest.mark.parametrize(
    "other",
    [
        RngKey(124, "forward", 2, 1, 7),
        RngKey(123, "obs-perturbation", 2, 1, 7),
        RngKey(123, "forward", 3, 1, 7),
        RngKey(123, "forward", 2, 0, 7),
        RngKey(123, "forward", 1, 2, 7),
        RngKey(123, "forward", 2, 1, 8),
    ],
)
def test_distinct_keys_give_distinct_streams(other):
    base = RngKey(123, "forward", 2, 1, 7)
    a = base.generator().standard_normal(32)
    b = other.generator().standard_normal(32)
    assert not np.array_equal(a, b)


@pytest.mark.parametrize("seed", [0, 20260823, 2 ** 63 + 5, 2 ** 64 - 1])
def test_memoized_streams_are_seed_sequence_streams(seed):
    # every stream is default_rng of the key's SeedSequence, draw for draw,
    # and a memo hit replays it from its start
    rng._seed_words.cache_clear()
    for p, purpose in enumerate(PURPOSES):
        for r in (0, 19, 10 ** 6):
            for step in (0, 1, 10):
                ref = np.random.default_rng(
                    np.random.SeedSequence(seed, spawn_key=(p, r, 0, 0, step)))
                want = [ref.standard_normal(7), ref.integers(0, 2 ** 62, 5), ref.random(3)]
                for _ in range(2):
                    g = RngKey(seed, purpose, r, 0, step).generator()
                    got = [g.standard_normal(7), g.integers(0, 2 ** 62, 5), g.random(3)]
                    for a, b in zip(got, want):
                        assert np.array_equal(a, b)
    assert rng._seed_words.cache_info().hits == len(PURPOSES) * 3 * 3


def test_memoized_seed_words_are_read_only():
    words = rng._seed_words(RngKey(5, "truth", 1, 0, 2))
    assert words.dtype == np.uint64 and words.shape == (4,)
    assert not words.flags.writeable
    with pytest.raises(ValueError):
        words[0] = 0


def test_every_target_of_a_study_reopens_the_memoized_keys():
    # data synthesis opens 2 keys a step and each target 2 a realization
    # and step: 6 + 24 misses, then the 2 later targets hit all 24 keys
    rng._seed_words.cache_clear()
    cfg = ExperimentConfig(example=1, eps_grid=(0.5, 0.25, 0.125), n_ref=16, n_steps=3,
                           realizations=4, jobs=1)
    run_experiment(cfg)
    info = rng._seed_words.cache_info()
    assert (info.hits, info.misses) == (48, 30)


def test_draw_prefix_is_batch_size_invariant():
    # a shorter batch from the same key is a prefix of a longer one; the
    # coarse/fine noise sharing in the coupled solver relies on this
    key = RngKey(9, "forward", 0, 3, 1)
    short = key.generator().standard_normal(10)
    long = key.generator().standard_normal(50)
    assert np.array_equal(short, long[:10])
    block = key.generator().standard_normal((5, 10))
    assert np.array_equal(block.ravel(), long)


def test_purpose_must_be_registered():
    assert "forward" in PURPOSES and "obs-perturbation" in PURPOSES
    with pytest.raises(ValueError):
        RngKey(1, "smoothing")


def test_indices_must_be_nonnegative():
    with pytest.raises(ValueError):
        RngKey(1, "forward", realization=-1)
    with pytest.raises(ValueError):
        RngKey(1, "forward", level=-1)
    with pytest.raises(ValueError):
        RngKey(1, "forward", step=-3)


def test_column_blocks_fill_block_i_from_stream_i():
    # three blocks, and one block, which reads exactly as its bare generator;
    # a read is a (rows, B, M) view of the reader's one step slot, whose
    # (B, length) rows hold the blocks' step streams, so a batch read writes
    # each normal once
    for realizations in ((4, 0, 9), (2,)):
        b = len(realizations)
        keys = [RngKey(7, "forward", r, 0, 1) for r in realizations]
        reader = StreamReader(7, "forward", realizations, 20, 1).begin()
        slot = reader._helper.slots["forward"]
        assert slot.shape == (1, b * 20) and slot.flags.c_contiguous
        solo = [k.generator() for k in keys]
        pos = 0
        for rows in (1, 3, 0):
            got = reader.standard_normal((rows, b * 5))
            want = np.stack([g.standard_normal((rows, 5)) for g in solo], axis=1)
            assert got.shape == (rows, b, 5) and np.array_equal(got, want)
            if rows:
                assert got.base is slot
                blocks = slot.reshape(b, 20)[:, pos : pos + rows * 5]
                assert np.array_equal(blocks.reshape(b, rows, 5).transpose(1, 0, 2), got)
            pos += rows * 5
    with pytest.raises(ValueError, match="blocks"):
        StreamReader(7, "forward", range(3), 4, 1).begin().standard_normal((2, 7))


def read_steps(reader, n_steps, reads, views=None):
    """Copies of each step's reads of ``reader``, (rows, columns) shapes in
    order; the reads themselves, valid until their step is released, are
    appended to ``views`` when given."""
    out = []
    for _ in range(n_steps):
        rng = reader.begin()
        step = [rng.standard_normal(shape) for shape in reads]
        out.append([r.copy() for r in step])
        if views is not None:
            views.extend(step)
    reader.finish()
    return out


# (rows, columns) reads of one step over three blocks: 2 x 4 + 0 + 1 x 2 +
# 3 x 1 normals per block, an empty read in the middle and one at the end
STEP_READS = ((2, 12), (0, 12), (1, 6), (3, 3), (0, 3))


def slow_helper_fill(monkeypatch, seconds):
    """Make every fill on the helper thread take ``seconds`` longer, so
    the calling thread fills most units itself."""
    draw = rng._draw

    def slow(generator, out):
        if threading.current_thread() is not threading.main_thread():
            time.sleep(seconds)
        draw(generator, out)

    monkeypatch.setattr(rng, "_draw", slow)


@pytest.mark.parametrize("realizations", [(4, 0, 9), (2,)])
def test_prefetched_blocks_read_as_column_blocks(monkeypatch, realizations):
    # the whole step streams filled on either thread, by the helper or by
    # the caller, read as the step's column-block draws on the calling
    # thread; each read is a view of the helper's slots, not a copy
    b = len(realizations)
    reads = tuple((rows, cols * b // 3) for rows, cols in STEP_READS)
    length = sum(rows * cols // b for rows, cols in reads)
    want = read_steps(StreamReader(5, "forward", realizations, length, 5), 5, reads)
    got = []
    for delay in (0, 0.005):
        if delay:
            slow_helper_fill(monkeypatch, delay)
        with Helper(5, [realizations], {"forward": length}, 5, True) as helper:
            views = []
            got.append(read_steps(
                StreamReader(5, "forward", realizations, length, 5, helper), 5, reads, views))
            slots = helper.slots["forward"]
            assert all(np.shares_memory(v, slots) for v in views if v.size)
    for run in (want, *got):
        for got_step, want_step in zip(run, want):
            for g, w in zip(got_step, want_step):
                assert g.shape == w.shape and np.array_equal(g, w)


# a step whose blocks make one helper unit, which keeps three slots, or
# a step of one unit a block, which keeps two
UNIT_CASES = [pytest.param(rng.UNIT_NORMALS, 3, id="one-unit"),
              pytest.param(1, 2, id="block-units")]


@pytest.mark.parametrize("unit_normals, slots", UNIT_CASES)
def test_helper_reads_keep_their_values_until_release(monkeypatch, unit_normals, slots):
    # a step's views of its slot hold while the helper fills the other
    # slots; only the release publishes the refill of the step's slot
    realizations = (4, 0, 9)
    reads = STEP_READS
    length = sum(rows * cols // 3 for rows, cols in reads)
    n_steps = slots + 3
    want = read_steps(StreamReader(5, "forward", realizations, length, n_steps), n_steps, reads)
    slow_helper_fill(monkeypatch, 0.002)
    monkeypatch.setattr(rng, "UNIT_NORMALS", unit_normals)
    with Helper(5, [realizations], {"forward": length}, n_steps, True) as helper:
        c = helper.slots["forward"].shape[0]
        assert c == slots
        published = []
        publish = helper.publish
        monkeypatch.setattr(helper, "publish", lambda fills: published.append(1) or publish(fills))
        reader = StreamReader(5, "forward", realizations, length, n_steps, helper)
        for step in range(1, n_steps + 1):
            before = len(published)
            assert before == c + min(step - 1, n_steps - c)
            reader.begin()
            views = [reader.standard_normal(shape) for shape in reads]
            assert len(published) == before  # the step read its whole plan
            while not all(u[0] is None or u[0].done() for u in helper._queue):
                time.sleep(0.001)  # the helper fills the steps after this one
            for v, w in zip(views, want[step - 1]):
                assert np.array_equal(v, w)
            reader.release()
            assert len(published) == before + (step + c <= n_steps)
            reader.release()  # a second release publishes nothing
            assert len(published) == before + (step + c <= n_steps)
        reader.finish()


def test_prefetched_blocks_raise_on_a_step_that_leaves_its_plan():
    # on a reader's own helper and on one with a thread, a helper for each reader
    check_plan(lambda length: StreamReader(5, "obs-perturbation", (0, 1), length, 2))
    with contextlib.ExitStack() as helpers:
        def helped(length):
            plan = {"obs-perturbation": length}
            helper = helpers.enter_context(Helper(5, [(0, 1)], plan, 2, True))
            return StreamReader(5, "obs-perturbation", (0, 1), length, 2, helper)

        check_plan(helped)


def check_plan(reader):
    """Misreads of readers ``reader(length)`` of two steps over two blocks."""
    # a read past the plan raises there, within the step and at its end
    with pytest.raises(RuntimeError, match="more than its 5 planned"):
        reader(5).begin().standard_normal((3, 4))
    over = reader(6)
    over.begin().standard_normal((3, 4))
    with pytest.raises(RuntimeError, match="step 1 reads more"):
        over.standard_normal((1, 2))
    # a step that reads less is caught when the next one begins, or at
    # the end of the last one
    short = reader(6)
    short.begin().standard_normal((2, 4))
    with pytest.raises(RuntimeError, match="at 4 of step 1's 6 planned"):
        short.begin()
    last = reader(4)
    last.begin().standard_normal((2, 4))
    last.begin().standard_normal((1, 4))
    with pytest.raises(RuntimeError, match="the end of step 2"):
        last.finish()
    # a step must begin once; the plan holds no step after the last
    with pytest.raises(RuntimeError, match="at 0 of step 1's 4 planned .* start of step 2"):
        reader(4).begin().begin()
    done = reader(4)
    for rows in (2, 2):
        done.begin().standard_normal((rows, 4))
    with pytest.raises(RuntimeError, match="at 4 of step 2's 4 planned .* start of step 3"):
        done.begin()
    # every read, an empty one too, is of a begun step that is not released;
    # the empty read after a step's last one (expeuler's coarse draw of an
    # EnKF step) still belongs to that step
    for rows in (1, 0):
        with pytest.raises(RuntimeError, match="outside a begun, unreleased step"):
            reader(4).standard_normal((rows, 2))
        released = reader(6)
        released.begin().standard_normal((1, 4))
        released.release()
        with pytest.raises(RuntimeError, match="outside a begun, unreleased step"):
            released.standard_normal((rows, 4))
    ended = reader(4)
    for _ in range(2):
        ended.begin().standard_normal((2, 4))
        assert ended.standard_normal((0, 4)).shape == (0, 2, 2)
    ended.finish()
    with pytest.raises(RuntimeError, match="outside a begun, unreleased step"):
        ended.standard_normal((0, 4))
    with pytest.raises(ValueError, match="blocks"):
        reader(4).begin().standard_normal((1, 3))


def read_whole_steps(reader, n_steps):
    """Each step's normals of ``reader``, read at once as one row a block."""
    reads = read_steps(reader, n_steps, [(1, reader._length * len(reader._blocks))])
    return np.stack([step[0] for step in reads])


@pytest.mark.parametrize("blocks, length, units", [
    # a deep ladder's 2^-5 target at B = 20: forward, then perturbation
    (20, 3078, [11, 9]), (20, 1583, [20]),
    # its finest target at B = 3, whose forward blocks stay units alone
    (3, 52554, [1, 1, 1]), (3, 25341, [2, 1]),
])
def test_helper_groups_small_blocks_into_units(monkeypatch, blocks, length, units):
    # a unit is a run of consecutive blocks of one step of at least
    # UNIT_NORMALS normals, its last one perhaps smaller, and a block of
    # that size is a unit alone; the reads stay those of the direct path
    realizations = range(3, 3 + blocks)
    want = read_whole_steps(StreamReader(5, "forward", realizations, length, 4), 4)
    slow_helper_fill(monkeypatch, 0.001)
    with Helper(5, [realizations], {"forward": length}, 4, True) as helper:
        published = []
        publish = helper.publish
        monkeypatch.setattr(helper, "publish", lambda fills: published.append(
            [len(fill.args[0]) for fill in fills]) or publish(fills))
        got = read_whole_steps(StreamReader(5, "forward", realizations, length, 4, helper), 4)
    assert published == [units] * 4
    assert np.array_equal(got, want)


@pytest.mark.parametrize("unit_normals, slots", UNIT_CASES)
def test_helper_fills_across_batch_boundaries(monkeypatch, unit_normals, slots):
    # batches of 4 and 3 blocks over five steps: releasing the first batch's
    # last c steps publishes the second's first c steps, c the helper's
    # slots, before the first batch finishes; the reads are those of the
    # direct path
    batches, n_steps, length = [range(4), range(4, 7)], 5, 10
    want = [read_whole_steps(StreamReader(5, "forward", b, length, n_steps), n_steps)
            for b in batches]
    slow_helper_fill(monkeypatch, 0.002)
    monkeypatch.setattr(rng, "UNIT_NORMALS", unit_normals)
    with Helper(5, batches, {"forward": length}, n_steps, True) as helper:
        c = helper.slots["forward"].shape[0]
        assert c == slots
        published = []
        publish = helper.publish
        monkeypatch.setattr(helper, "publish", lambda fills: published.append(1) or publish(fills))
        first = StreamReader(5, "forward", batches[0], length, n_steps, helper)
        # only the target's next batch gets a reader
        for wrong in (batches[1], range(1, 5)):
            with pytest.raises(RuntimeError, match="not the forward helper's next batch"):
                StreamReader(5, "forward", wrong, length, n_steps, helper)
        assert len(published) == c
        got = [[]]
        for step in range(1, n_steps + 1):
            got[0].append(first.begin().standard_normal((1, 4 * length)).copy())
            first.release()
            assert len(published) == min(step + c, 2 * n_steps)
        with pytest.raises(RuntimeError, match="not the forward helper's next batch"):
            StreamReader(5, "forward", batches[0], length, n_steps, helper)
        first.finish()
        got.append(read_whole_steps(
            StreamReader(5, "forward", batches[1], length, n_steps, helper), n_steps))
        assert len(published) == 2 * n_steps
        with pytest.raises(RuntimeError, match="not the forward helper's next batch"):
            StreamReader(5, "forward", batches[1], length, n_steps, helper)
    assert np.array_equal(np.stack(got[0]), want[0]) and np.array_equal(got[1], want[1])
