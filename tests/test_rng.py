import numpy as np
import pytest

from mlenkf.rng import ColumnBlocks, PURPOSES, RngKey


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
    # three blocks, and one block, which reads exactly as its bare generator
    for realizations in ((4, 0, 9), (2,)):
        keys = [RngKey(7, "forward", r, 0, 3) for r in realizations]
        reader = ColumnBlocks(k.generator() for k in keys)
        solo = [k.generator() for k in keys]
        for rows in (1, 3, 0):
            got = reader.standard_normal((rows, len(keys) * 5))
            want = np.hstack([g.standard_normal((rows, 5)) for g in solo])
            assert np.array_equal(got, want)
    with pytest.raises(ValueError, match="blocks"):
        ColumnBlocks(RngKey(7, "forward", r).generator() for r in range(3)).standard_normal((2, 7))
