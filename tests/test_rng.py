import numpy as np
import pytest

from handoff import SCHEDULES, StandInPool
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


def key_streams(realizations, length, n_steps, purpose="forward"):
    """(n_steps, B, length) array of each block's whole step streams, drawn
    from the keys alone."""
    return np.array([[RngKey(5, purpose, r, 0, step).generator().standard_normal(length)
                      for r in realizations] for step in range(1, n_steps + 1)])


def helped_reader(realizations, length, n_steps, pool):
    """A forward reader of one batch through a helper filled by ``pool``."""
    helper = Helper(5, [realizations], {"forward": length}, n_steps, pool)
    return helper, StreamReader(5, "forward", realizations, length, n_steps, helper)


@pytest.mark.parametrize("realizations", [(4, 0, 9), (2,)])
def test_helper_reads_are_column_block_views(realizations):
    # the whole step streams, filled by the worker, by the reader or by
    # both, read as the step's column-block draws; each read is a view of
    # the helper's slots, not a copy
    b = len(realizations)
    reads = tuple((rows, cols * b // 3) for rows, cols in STEP_READS)
    length = sum(rows * cols // b for rows, cols in reads)
    want = read_steps(StreamReader(5, "forward", realizations, length, 5), 5, reads)
    for name, schedule in SCHEDULES.items():
        pool = StandInPool(schedule)
        helper, reader = helped_reader(realizations, length, 5, pool)
        views = []
        got = read_steps(reader, 5, reads, views)
        assert all(np.shares_memory(v, helper.slots["forward"]) for v in views if v.size)
        for got_step, want_step in zip(got, want):
            for g, w in zip(got_step, want_step):
                assert g.shape == w.shape and np.array_equal(g, w)
        assert set(pool.who()) == ({"worker", "reader"} if name == "mixed" else {name})


# a step whose blocks make one helper unit, which keeps three slots, or
# a step of one unit a block, which keeps two
UNIT_CASES = [pytest.param(rng.UNIT_NORMALS, 3, id="one-unit"),
              pytest.param(1, 2, id="block-units")]


@pytest.mark.parametrize("unit_normals, slots", UNIT_CASES)
def test_helper_reads_keep_their_values_until_release(monkeypatch, unit_normals, slots):
    # a step's views of its slot hold while the worker fills the other
    # slots; only the release publishes the refill of the step's slot
    realizations = (4, 0, 9)
    reads = STEP_READS
    length = sum(rows * cols // 3 for rows, cols in reads)
    n_steps = slots + 3
    want = read_steps(StreamReader(5, "forward", realizations, length, n_steps), n_steps, reads)
    monkeypatch.setattr(rng, "UNIT_NORMALS", unit_normals)
    pool = StandInPool()
    helper = Helper(5, [realizations], {"forward": length}, n_steps, pool)
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
        pool.fill(*pool.pending())  # the worker fills the steps after this one
        for v, w in zip(views, want[step - 1]):
            assert np.array_equal(v, w)
        reader.release()
        assert len(published) == before + (step + c <= n_steps)
        reader.release()  # a second release publishes nothing
        assert len(published) == before + (step + c <= n_steps)
    reader.finish()
    assert "worker" in pool.who() and "reader" in pool.who()


def test_the_worker_fills_a_step_before_its_read(monkeypatch):
    # (a) every unit the worker fills ahead is in its slot before the read,
    # which then claims and waits on nothing
    monkeypatch.setattr(rng, "UNIT_NORMALS", 1)  # a unit a block, so c = 2
    realizations, length, n_steps = (4, 0, 9), 10, 4
    want = key_streams(realizations, length, n_steps)
    pool = StandInPool()
    helper, reader = helped_reader(realizations, length, n_steps, pool)
    for step in range(1, n_steps + 1):
        pool.fill(*pool.pending())
        assert np.array_equal(helper.slots["forward"][step % 2].reshape(3, length), want[step - 1])
        seen = len(pool.log)
        got = reader.begin().standard_normal((1, 3 * length))
        assert pool.log[seen:] == [] and np.array_equal(got[0], want[step - 1])
    reader.finish()
    assert pool.who() == ["worker"] * 3 * n_steps


def test_the_reader_claims_and_fills_the_units_nobody_started(monkeypatch):
    # (b) a read claims and fills its own step's unstarted units in order,
    # and leaves the next step's, published already, to the worker
    monkeypatch.setattr(rng, "UNIT_NORMALS", 1)
    realizations, length, n_steps = (4, 0, 9), 10, 3
    want = key_streams(realizations, length, n_steps)
    pool = StandInPool()
    helper, reader = helped_reader(realizations, length, n_steps, pool)
    assert pool.pending() == list(range(6))  # steps 1 and 2
    for step in range(1, n_steps + 1):
        seen = len(pool.log)
        got = reader.begin().standard_normal((1, 3 * length))
        own = range(3 * step - 3, 3 * step)
        assert pool.log[seen:] == [("reader", i) for i in own]
        assert pool.pending() == list(range(3 * step, 3 * min(step + 1, n_steps)))
        assert np.array_equal(got[0], want[step - 1])
    reader.finish()
    assert pool.who() == ["reader"] * 3 * n_steps


@pytest.mark.parametrize("n_steps, started, log", [
    # one step of two units: the reader fills unit 1, then waits for unit 0
    pytest.param(1, 0, [("reader", 1), ("wait", 0), ("worker", 0)], id="next-unit"),
    # two steps of three: the reader fills its own step's other units and
    # the next step's, and waits for unit 0 once none is left
    pytest.param(2, 0, [("reader", i) for i in range(1, 6)] + [("wait", 0), ("worker", 0)],
                 id="next-step"),
    # the started unit is the step's last: the reader fills its own first
    pytest.param(2, 2, [("reader", i) for i in (0, 1, 3, 4, 5)] + [("wait", 2), ("worker", 2)],
                 id="last-unit"),
])
def test_a_reader_fills_the_next_unit_while_the_worker_fills_one(monkeypatch, n_steps,
                                                                 started, log):
    # (c) a read that finds one of its units being filled fills the next
    # published unit nobody claimed, then waits for the started one
    monkeypatch.setattr(rng, "UNIT_NORMALS", 1)
    realizations = (4, 0, 9)[: 2 if n_steps == 1 else 3]
    want = key_streams(realizations, 10, n_steps)
    pool = StandInPool()
    _, reader = helped_reader(realizations, 10, n_steps, pool)
    pool.start(started)
    got = reader.begin().standard_normal((1, len(realizations) * 10))
    assert pool.log == log and np.array_equal(got[0], want[0])


def test_a_fill_error_on_the_worker_is_raised_on_the_reader(monkeypatch):
    # (d) a unit whose fill raised on the worker, before the read or while
    # the reader waits on it, raises its error on the reader
    monkeypatch.setattr(rng, "UNIT_NORMALS", 1)
    draw = rng._draw

    def failing(generator, out):
        if pool.filling:  # the pool of the case below
            raise FloatingPointError("fill fails on the worker")
        draw(generator, out)

    monkeypatch.setattr(rng, "_draw", failing)
    for fail, log in (("fill", [("worker", 1), ("reader", 0)]),
                      ("start", [("reader", 0), ("wait", 1), ("worker", 1)])):
        pool = StandInPool()
        _, reader = helped_reader((4, 0), 10, 1, pool)
        getattr(pool, fail)(1)
        with pytest.raises(FloatingPointError, match="fill fails on the worker"):
            reader.begin().standard_normal((1, 20))
        assert pool.log == log


def test_readers_raise_on_a_step_that_leaves_its_plan():
    # on a reader's own helper and on one with a pool, a helper for each reader
    check_plan(lambda length: StreamReader(5, "obs-perturbation", (0, 1), length, 2))

    def helped(length):
        plan = {"obs-perturbation": length}
        helper = Helper(5, [(0, 1)], plan, 2, StandInPool(SCHEDULES["mixed"]))
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
    # that size is a unit alone; the reads stay those of a reader's own
    # helper, whoever fills the units
    realizations = range(3, 3 + blocks)
    want = read_whole_steps(StreamReader(5, "forward", realizations, length, 4), 4)
    pool = StandInPool(SCHEDULES["mixed"])
    helper = Helper(5, [realizations], {"forward": length}, 4, pool)
    published = []
    publish = helper.publish
    monkeypatch.setattr(helper, "publish", lambda fills: published.append(
        [len(fill.args[0]) for fill in fills]) or publish(fills))
    got = read_whole_steps(StreamReader(5, "forward", realizations, length, 4, helper), 4)
    assert published == [units] * 4
    assert np.array_equal(got, want)


@pytest.mark.parametrize("unit_normals, slots", UNIT_CASES)
def test_helper_fills_across_batch_boundaries(monkeypatch, unit_normals, slots):
    # (e) batches of 4 and 3 blocks over five steps: no unit of position
    # g + c, c the helper's slots, is submitted before the release of g,
    # and releasing the first batch's last c steps publishes the second's
    # first c steps before the first batch finishes; the reads are those
    # of the readers' own helpers, whoever fills the units
    batches, n_steps, length = [range(4), range(4, 7)], 5, 10
    want = [read_whole_steps(StreamReader(5, "forward", b, length, n_steps), n_steps)
            for b in batches]
    monkeypatch.setattr(rng, "UNIT_NORMALS", unit_normals)
    for schedule in SCHEDULES.values():
        pool = StandInPool(schedule)
        helper = Helper(5, batches, {"forward": length}, n_steps, pool)
        c = helper.slots["forward"].shape[0]
        assert c == slots
        published = []
        publish = helper.publish
        monkeypatch.setattr(helper, "publish",
                            lambda fills: published.append(len(fills)) or publish(fills))
        first = StreamReader(5, "forward", batches[0], length, n_steps, helper)
        # only the target's next batch gets a reader
        for wrong in (batches[1], range(1, 5)):
            with pytest.raises(RuntimeError, match="not the forward helper's next batch"):
                StreamReader(5, "forward", wrong, length, n_steps, helper)
        assert len(published) == c and len(pool.units) == sum(published)
        got = [[]]
        for step in range(1, n_steps + 1):
            got[0].append(first.begin().standard_normal((1, 4 * length)).copy())
            assert len(published) == min(step - 1 + c, 2 * n_steps)
            first.release()
            assert len(published) == min(step + c, 2 * n_steps)
            assert len(pool.units) == sum(published)
        with pytest.raises(RuntimeError, match="not the forward helper's next batch"):
            StreamReader(5, "forward", batches[0], length, n_steps, helper)
        first.finish()
        second = StreamReader(5, "forward", batches[1], length, n_steps, helper)
        for step in range(1, n_steps + 1):
            got.append(second.begin().standard_normal((1, 3 * length)).copy())
            assert len(published) == min(n_steps + step - 1 + c, 2 * n_steps)
        second.finish()
        assert len(published) == 2 * n_steps
        with pytest.raises(RuntimeError, match="not the forward helper's next batch"):
            StreamReader(5, "forward", batches[1], length, n_steps, helper)
        assert np.array_equal(np.stack(got[0]), want[0])
        assert np.array_equal(np.stack(got[1:]), want[1])
        assert all(pool.who())  # every unit filled, by the worker or the reader
