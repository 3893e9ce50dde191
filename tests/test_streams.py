import numpy as np
import pytest

from subweibull import ParameterError, RandomStream
from subweibull.montecarlo import BOOTSTRAP_STREAM_BASE
from subweibull.streams import SHORT_ROW_WORDS, keyed_generators, uniform_block


def test_same_handle_same_sequence():
    a = RandomStream(12345, 7).uniforms(1000)
    b = RandomStream(12345, 7).uniforms(1000)
    assert np.array_equal(a, b)


def test_distinct_substreams_differ():
    a = RandomStream(12345, 0).uniforms(100)
    b = RandomStream(12345, 1).uniforms(100)
    assert not np.array_equal(a, b)


def test_distinct_seeds_differ():
    a = RandomStream(1, 0).uniforms(100)
    b = RandomStream(2, 0).uniforms(100)
    assert not np.array_equal(a, b)


def test_prefix_stability():
    # uniform j is a function of (seed, stream_index, j) alone
    long = RandomStream(9, 3).uniforms(500)
    short = RandomStream(9, 3).uniforms(120)
    assert np.array_equal(long[:120], short)


def test_uniforms_in_unit_interval():
    u = RandomStream(0, 0).uniforms(10_000)
    assert u.min() >= 0.0 and u.max() < 1.0


@pytest.mark.parametrize("bad", [-1, 2**64, 1.5, "x", True])
def test_rejects_bad_fields(bad):
    with pytest.raises(ParameterError):
        RandomStream(bad, 0)
    with pytest.raises(ParameterError):
        RandomStream(0, bad)


def test_rejects_bad_count():
    # counts must be integers >= 1; a float, a bool or a string is not truncated
    for bad in (0, -3, 2.5, 4.0, True, "4", None):
        with pytest.raises(ParameterError):
            RandomStream(0, 0).uniforms(bad)


# ---------------------------------------------------------------------------
# block fill: the Philox kernel for short rows, one re-keyed generator for long


@pytest.mark.parametrize(
    "count", [1, 3, 5, 17, SHORT_ROW_WORDS - 1, SHORT_ROW_WORDS, SHORT_ROW_WORDS + 1, 1000]
)
@pytest.mark.parametrize("start", [0, 9])
def test_uniform_block_matches_per_stream(start, count):
    block = uniform_block(424242, start, start + 6, count)
    assert block.shape == (6, count)
    for i in range(6):
        assert np.array_equal(block[i], RandomStream(424242, start + i).uniforms(count))


@pytest.mark.parametrize(
    "seed, start",
    [
        (2**64 - 1, 2**64 - 4),  # the last four streams of the largest seed
        (20_240_817, BOOTSTRAP_STREAM_BASE + 195),  # bootstrap substreams
    ],
)
def test_uniform_block_matches_at_large_indices(seed, start):
    for count in (5, SHORT_ROW_WORDS + 1):  # the Philox kernel, then the re-keyed generator
        block = uniform_block(seed, start, start + 4, count)
        for i in range(4):
            assert np.array_equal(block[i], RandomStream(seed, start + i).uniforms(count))


@pytest.mark.parametrize(
    "seed, start, stop, count",
    [
        (-1, 0, 1, 4),
        (2**64, 0, 1, 4),
        (1.5, 0, 1, 4),
        (True, 0, 1, 4),
        (0, -1, 1, 4),
        (0, 2**64 - 1, 2**64 + 1, 4),  # the last index is past 64 bits
        (0, 1.5, 3, 4),
        (0, 5, 5, 4),  # empty range
        (0, 5, 3, 4),
        (0, 0, 1, 0),
        (0, 0, 2, 2.7),
        (0, 0, 2, 4.0),
        (0, 0, 2, True),
        (0, 0, 2, "4"),
    ],
)
def test_uniform_block_rejects_bad_input(seed, start, stop, count):
    with pytest.raises(ParameterError):
        uniform_block(seed, start, stop, count)


@pytest.mark.parametrize("trials", [100, 1_000, 1_001, 20_000])
def test_keyed_generators_draw_each_streams_index_vector(trials):
    # an odd count leaves half a 64-bit word buffered, which re-keying drops
    seed, start = 20_240_817, BOOTSTRAP_STREAM_BASE + 3
    rows = [gen.integers(0, trials, trials) for gen in keyed_generators(seed, start, start + 5)]
    for r, row in enumerate(rows):
        fresh = RandomStream(seed, start + r).generator()
        assert np.array_equal(row, fresh.integers(0, trials, trials))


@pytest.mark.parametrize(
    "seed, start, stop",
    [(-1, 0, 1), (2**64, 0, 1), (1.5, 0, 1), (0, -1, 1), (0, 2**64 - 1, 2**64 + 1), (0, 5, 5)],
)
def test_keyed_generators_reject_bad_streams(seed, start, stop):
    with pytest.raises(ParameterError):
        next(keyed_generators(seed, start, stop))


# ---------------------------------------------------------------------------
# the kernel's bits do not depend on numpy's SIMD dispatch


SHORT_BLOCK = (20_240_817, 3, 4_003, 13)  # seed, start, stop, words per row


def _block_hex(seed, start, stop, count):
    from subweibull.streams import uniform_block

    return uniform_block(seed, start, stop, count).tobytes().hex()


def test_short_row_bits_do_not_depend_on_simd_dispatch(without_avx512):
    assert without_avx512(_block_hex, *SHORT_BLOCK) == _block_hex(*SHORT_BLOCK)
