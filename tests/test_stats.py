import sys
import tracemalloc
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import reference_bootstrap_ci
from listfair import stats
from listfair.stats import BLOCK, bootstrap_ci, nadaraya_watson, silverman_bandwidth
from listfair.streams import bounded, random_stream

finite_floats = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False)


def test_regression_recovers_constant():
    smoothed = nadaraya_watson(np.linspace(0, 1, 20), np.full(20, 0.37), np.linspace(0, 1, 7), 0.1)
    assert np.allclose(smoothed, 0.37)


def test_regression_interpolates_between_levels():
    x = np.array([0.0] * 10 + [1.0] * 10)
    y = np.array([0.0] * 10 + [1.0] * 10)
    smoothed = nadaraya_watson(x, y, [0.0, 0.5, 1.0], bandwidth=0.2)
    assert smoothed[0] < 0.05
    assert smoothed[1] == pytest.approx(0.5, abs=1e-6)
    assert smoothed[2] > 0.95


@given(
    st.lists(st.tuples(finite_floats, finite_floats), min_size=1, max_size=30),
    st.lists(finite_floats, min_size=1, max_size=10),
    # the tiny bandwidths overflow every exponent of most grid points
    st.one_of(st.floats(min_value=1e-3, max_value=1e3), st.sampled_from([1e-300, 5e-324])),
)
@example([(0.0, 0.0), (1.0, 1.0)], [0.5], 1e-300)
def test_regression_output_within_data_range(points, grid, bandwidth):
    x, y = zip(*points)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        smoothed = nadaraya_watson(x, y, grid, bandwidth)
    assert np.all(smoothed >= min(y) - 1e-9)
    assert np.all(smoothed <= max(y) + 1e-9)
    assert np.isfinite(smoothed).all()


@given(
    st.lists(st.tuples(finite_floats, finite_floats), min_size=2, max_size=20),
    st.integers(min_value=0, max_value=2**32),
)
def test_regression_invariant_under_point_permutation(points, seed):
    x, y = zip(*points)
    grid = np.linspace(min(x), max(x), 5)
    base = nadaraya_watson(x, y, grid, bandwidth=1.0)
    order = np.random.default_rng(seed).permutation(len(x))
    shuffled = nadaraya_watson(np.asarray(x)[order], np.asarray(y)[order], grid, bandwidth=1.0)
    assert np.allclose(base, shuffled, rtol=1e-9, atol=1e-9)


def test_regression_survives_distant_grid_points():
    # far from all data the weights underflow to zero without the
    # per-grid-point rescaling; the estimate must stay finite
    smoothed = nadaraya_watson([0.0, 1.0], [2.0, 4.0], [1e6], bandwidth=0.01)
    assert np.isfinite(smoothed[0])
    assert 2.0 <= smoothed[0] <= 4.0
    # where every exponent overflows, the estimate is its limit as the
    # bandwidth goes to 0: the mean y of the nearest points
    assert nadaraya_watson([0, 1], [0, 1], [0.5], 1e-300).tolist() == [0.5]
    x, y = [0.0, 1.0, 3.0, 3.0], [0.0, 1.0, 5.0, 6.0]
    assert nadaraya_watson(x, y, [0.4, 2.9, 1.0, 2.0], 1e-300).tolist() == [0.0, 5.5, 1.0, 4.0]
    # a row with a finite exponent gets the same bits beside overflowing rows
    wide = nadaraya_watson(x, y, [1.0 + 1e-300, 0.4], 1e-300)
    assert wide[0] == nadaraya_watson(x, y, [1.0 + 1e-300], 1e-300)[0]


@given(
    st.lists(st.tuples(finite_floats, finite_floats), min_size=1, max_size=12),
    st.lists(finite_floats, min_size=1, max_size=20),
    st.one_of(st.floats(min_value=1e-3, max_value=1e3), st.sampled_from([1e-300, 5e-324])),
    # BLOCK // len(x) grid points per block: from 1 up to more than the grid
    st.integers(min_value=1, max_value=40),
)
@example([(0.0, 0.0), (1.0, 1.0), (3.0, 5.0), (3.0, 6.0)], [0.4, 2.9, 1.0 + 1e-300, 2.0, 1e6], 1e-300, 4)
@example([(0.0, 2.0), (1.0, 4.0)], [1e6, 0.5, 0.25], 0.01, 2)
def test_regression_blocks_match_one_grid_point_at_a_time(points, grid, bandwidth, block):
    x, y = zip(*points)
    single = [nadaraya_watson(x, y, [g], bandwidth)[0] for g in grid]
    with mock.patch.object(stats, "BLOCK", block):
        blocked = nadaraya_watson(x, y, grid, bandwidth)
    assert blocked.tolist() == single


def test_regression_memory_is_bounded_by_blocks():
    # one (len(grid), len(x)) float matrix is 128 MB at n = 4000; a block of
    # BLOCK // n grid points holds BLOCK floats, 128 KB, per temporary
    x = np.arange(4000.0)
    tracemalloc.start()
    try:
        nadaraya_watson(x, np.sin(x), x, 50.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2_000_000


def test_xyseries_validation():
    # the x-y data series: 1-d, of equal length and finite; plain integer
    # lists are accepted as floats
    for x, y, message in [
        ([1.0, 2.0], [1.0], "1-d arrays, x and y of equal length"),
        ([[1.0]], [[1.0]], "1-d arrays"),
        ([np.nan], [1.0], "must be finite"),
        ([0.0], [np.inf], "must be finite"),
    ]:
        with pytest.raises(ValueError, match=message):
            nadaraya_watson(x, y, [0.0], 1.0)
    smoothed = nadaraya_watson([0, 1], [2, 3], [0, 1], 0.01)
    assert smoothed.dtype == np.float64
    assert np.allclose(smoothed, [2.0, 3.0])


def test_regression_validation():
    for x, y, grid, bandwidth, message in [
        ([0.0], [1.0], [[0.0]], 1.0, "1-d arrays"),
        ([0.0], [1.0], [np.nan], 1.0, "must be finite"),
        ([0.0], [1.0], [0.0], 0.0, "bandwidth must be positive"),
        ([], [], [0.0], 1.0, "at least one data point"),
    ]:
        with pytest.raises(ValueError, match=message):
            nadaraya_watson(x, y, grid, bandwidth)


def test_silverman_hand_value():
    xs = np.arange(1, 101, dtype=float)
    # 1.06 * 29.0115 * 100^(-0.2) = 12.2427
    assert silverman_bandwidth(xs) == pytest.approx(12.2427, abs=1e-3)


def test_silverman_needs_spread():
    with pytest.raises(ValueError):
        silverman_bandwidth([3.0, 3.0, 3.0])
    with pytest.raises(ValueError):
        silverman_bandwidth([1.0])


@pytest.mark.parametrize("xs", [[1.0, np.inf], [-np.inf, 1.0, 2.0], [np.nan, 1.0]], ids=["inf", "-inf", "nan"])
def test_silverman_rejects_values_that_are_not_finite(xs):
    # an infinity gave a NaN bandwidth with a RuntimeWarning, a NaN a NaN
    with pytest.raises(ValueError, match="^xs values must be finite$"):
        silverman_bandwidth(xs)


def test_bootstrap_deterministic_and_sane():
    values = np.concatenate([np.zeros(50), np.ones(50)])
    one = bootstrap_ci(values, rng=random_stream(17, 1))
    two = bootstrap_ci(values, rng=random_stream(17, 1))
    assert one == two
    lower, upper = one
    assert (type(lower), type(upper)) == (float, float)
    assert lower <= values.mean() <= upper


def test_bootstrap_constant_data_gives_point_interval():
    assert bootstrap_ci(np.full(30, 0.42), rng=random_stream(0)) == pytest.approx((0.42, 0.42))


@given(
    st.lists(finite_floats, min_size=2, max_size=40),
    st.integers(min_value=0, max_value=2**32),
)
@settings(max_examples=150)
def test_bootstrap_intervals_nest_across_levels(values, seed):
    intervals = [
        bootstrap_ci(values, level=level, resamples=200, rng=random_stream(seed, 5))
        for level in (0.5, 0.9, 0.99)
    ]
    for (tight_lower, tight_upper), (wide_lower, wide_upper) in zip(intervals, intervals[1:]):
        assert wide_lower <= tight_lower + 1e-12
        assert tight_upper <= wide_upper + 1e-12
    for lower, upper in intervals:
        assert lower <= upper


def test_bootstrap_validation():
    with pytest.raises(ValueError):
        bootstrap_ci([], rng=random_stream(0))
    with pytest.raises(ValueError):
        bootstrap_ci([1.0], level=0.0, rng=random_stream(0))
    with pytest.raises(ValueError):
        bootstrap_ci([1.0], level=1.0, rng=random_stream(0))
    with pytest.raises(ValueError):
        bootstrap_ci([1.0], resamples=0, rng=random_stream(0))


@pytest.mark.parametrize("values", [[np.inf, 1.0], [1.0, -np.inf], [np.nan, 1.0]], ids=["inf", "-inf", "nan"])
def test_bootstrap_rejects_values_that_are_not_finite(values):
    # an infinity warned in the quantile and a NaN gave a (nan, nan) interval
    with pytest.raises(ValueError, match="^bootstrap values must be finite$"):
        bootstrap_ci(values, rng=random_stream(0))


@pytest.mark.parametrize("values", [[1e308, 1e308], [-1e308, 0.0], [sys.float_info.max / 4 * 1.0000001, 1.0]],
                         ids=["two-1e308", "-1e308", "just-above-the-bound"])
def test_bootstrap_rejects_values_whose_sums_could_overflow(values):
    # two values of 1e308 gave (nan, nan) after two overflow warnings
    with pytest.raises(ValueError, match="^bootstrap values are too large: a sum of 2 of them could overflow$"):
        bootstrap_ci(np.array(values), rng=random_stream(1))


def test_bootstrap_accepts_values_at_the_overflow_bound():
    bound = sys.float_info.max / 2 / 3
    assert bootstrap_ci([bound, -bound, bound], rng=random_stream(1)) == (-bound, bound)


@pytest.mark.parametrize("bandwidth", [np.nan, np.inf, 0.0, -1.0])
def test_regression_rejects_a_bandwidth_that_is_not_finite_and_positive(bandwidth):
    # a NaN bandwidth gave [nan], an infinite one the plain mean of y
    with pytest.raises(ValueError, match=rf"^bandwidth must be positive and finite, got {bandwidth}$"):
        nadaraya_watson([0.0, 1.0], [1.0, 2.0], [0.5], bandwidth)


@st.composite
def bootstrap_shapes(draw):
    """A size below, at or above BLOCK, and a resample count spanning
    several blocks, mostly not a multiple of the block's row count."""
    size = draw(st.one_of(st.integers(1, 150), st.sampled_from([BLOCK - 1, BLOCK, BLOCK + 1])))
    resamples = draw(st.integers(1, max(1, 4 * BLOCK // size)))
    return size, resamples


@given(bootstrap_shapes(), st.integers(min_value=0, max_value=2**32))
@example((1, 2000), 0)
@example((1, BLOCK + 1), 1)
@example((100, 2001), 2)
@example((BLOCK + 1, 3), 3)
@settings(max_examples=60, deadline=None)
def test_bootstrap_matches_one_index_matrix(shape, seed):
    # block-wise resampling must draw exactly the indices of one
    # (resamples, size) matrix and the words that draw takes
    size, resamples = shape
    values = np.random.default_rng(seed).random(size)
    stream = random_stream(seed, 11)
    interval = bootstrap_ci(values, resamples=resamples, rng=stream)

    reference = np.random.Generator(random_stream(seed, 11))
    means = values[reference.integers(0, size, size=(resamples, size))].mean(axis=1)
    lower, upper = np.quantile(means, [(1.0 - 0.95) / 2.0, (1.0 + 0.95) / 2.0]).tolist()
    assert interval == (lower, upper)
    if size > 1:  # numpy draws no half for a bound of 1
        _same_words(stream, reference)


def _same_words(stream, generator):
    # the 128-bit state and increment, so the same words drawn; a spare
    # half is carried by the caller, not buffered in the stream
    assert stream.state["state"] == generator.bit_generator.state["state"]


# 3 * 2**30 rejects a quarter of the 32-bit words and 2**31 + 1 almost half
INDEX_SIZES = [1, 2, 3, 100, 3 * 2**30, 2**31 + 1, 2**32 - 1]


@pytest.mark.parametrize("size", INDEX_SIZES)
@pytest.mark.parametrize("buffered", [False, True], ids=["no-half", "buffered-half"])
@pytest.mark.parametrize("odd", [0, 1], ids=["even", "odd"])
@given(half=st.integers(0, 150), block=st.integers(1, 80), seed=st.integers(0, 2**32))
@settings(max_examples=25, deadline=None)
def test_index_blocks_match_integers(size, buffered, odd, half, block, seed):
    # bounded blocks, each taking the halves the last one left, must give
    # the indices and draw the words of one Generator.integers(0, size,
    # count) call; a buffered half is one left by an earlier draw
    count = 2 * half + odd
    ours, theirs = random_stream(seed, 7), np.random.Generator(random_stream(seed, 7))
    halves = ()
    if buffered:
        first, halves = bounded(ours, 100, 1)
        assert first == theirs.integers(0, 100) and len(halves) == 1
    blocks = []
    for start in range(0, count, block):
        indices, halves = bounded(ours, size, min(block, count - start), halves)
        assert len(indices) == min(block, count - start)
        blocks.append(indices)
    expected = theirs.integers(0, size, count)
    drawn = np.concatenate(blocks) if blocks else np.empty(0, np.intp)
    assert drawn.dtype == expected.dtype
    assert np.array_equal(drawn, expected)
    if size > 1:  # numpy draws no half for a bound of 1
        assert len(halves) == theirs.bit_generator.state["has_uint32"]
        _same_words(ours, theirs)


# PCG64 steps its 128-bit state by this multiplier, then outputs XSL-RR
PCG64_MULTIPLIER = (2549297995355413924 << 64) + 4865540595714422341


def _pcg64_about_to_output(stream, word: int) -> None:
    """Set a PCG64 ``stream``'s state so that its next 64-bit output is ``word``."""
    state = stream.state
    increment = state["state"]["inc"]
    high = state["state"]["state"] >> 64
    rotation = high >> 58
    xored = ((word << rotation) | (word >> (64 - rotation))) & (2**64 - 1)
    stepped = (high << 64) | (high ^ xored)
    previous = (stepped - increment) * pow(PCG64_MULTIPLIER, -1, 2**128) % 2**128
    state["state"]["state"] = previous
    state["has_uint32"] = 0
    stream.state = state


def _word_with_leftover(size: int, leftover: int) -> int:
    """A 32-bit word x whose product x * size has ``leftover`` as its low half."""
    twos = (size & -size).bit_length() - 1
    assert leftover % (1 << twos) == 0
    modulus = 1 << (32 - twos)
    return (leftover >> twos) * pow(size >> twos, -1, modulus) % modulus


@pytest.mark.parametrize("size", [3, 100, 3 * 2**30, 2**31 + 1, 2**32 - 1])
@pytest.mark.parametrize("rejected_half", ["low", "high"])
def test_index_blocks_at_the_rejection_boundary(size, rejected_half):
    # numpy redraws a word whose leftover is below (2**32 - size) % size;
    # put the largest rejected leftover and the smallest accepted one in
    # the two halves of the next 64-bit output
    threshold = (2**32 - size) % size
    rejected = _word_with_leftover(size, threshold - (size & -size))
    accepted = _word_with_leftover(size, threshold)
    low, high = (rejected, accepted) if rejected_half == "low" else (accepted, rejected)
    ours, theirs, probe = (random_stream(5) for _ in range(3))
    for stream in (ours, theirs, probe):
        _pcg64_about_to_output(stream, low | high << 32)
    assert int(probe.random_raw()) == low | high << 32
    # blocks of 4 and 2: the rejection makes the first block take a third
    # word, and the second block starts with the half it leaves, if any
    first, halves = bounded(ours, size, 4)
    second, halves = bounded(ours, size, 2, halves)
    drawn = np.concatenate([first, second])
    theirs = np.random.Generator(theirs)
    assert np.array_equal(drawn, theirs.integers(0, size, 6))
    assert drawn[0] == accepted * size >> 32
    assert len(halves) == theirs.bit_generator.state["has_uint32"]
    _same_words(ours, theirs)


@given(
    st.lists(finite_floats, min_size=1, max_size=300),
    st.floats(min_value=0.001, max_value=0.999),
    st.integers(1, 3000),
    st.integers(min_value=0, max_value=2**32),
)
@example([0.5] * 99, 0.95, 2001, 0)
@example([0.25, 1.0, 3.0], 0.9, 2000, 1)
@settings(max_examples=60, deadline=None)
def test_bootstrap_matches_the_reference_loop(values, level, resamples, seed):
    ours, theirs = random_stream(seed, 13), random_stream(seed, 13)
    interval = bootstrap_ci(values, level, resamples, rng=ours)
    assert interval == reference_bootstrap_ci(values, level, resamples, theirs)
    if len(values) > 1:
        assert ours.state["state"] == theirs.state["state"]


@given(finite_floats, st.floats(min_value=0.001, max_value=0.999), st.integers(min_value=0, max_value=2**32))
def test_bootstrap_of_one_value_is_that_value(value, level, seed):
    # a cell of one sample: every resample is that value
    assert bootstrap_ci([value], level, rng=random_stream(seed, 5)) == (value, value)


def _traced_peak(values, resamples: int) -> int:
    rng = random_stream(3)
    tracemalloc.start()
    try:
        bootstrap_ci(values, resamples=resamples, rng=rng)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_bootstrap_memory_is_bounded_by_blocks():
    values = np.random.default_rng(0).random(100)
    bootstrap_ci(values, rng=random_stream(3))  # lazy numpy imports happen here
    base = _traced_peak(values, 2000)
    assert base < 1_000_000
    # past the blocks, only the means and the copy np.quantile partitions
    # grow with the resample count: 16 bytes per resample
    assert _traced_peak(values, 50_000) - base <= 16 * (50_000 - 2000)


def test_bootstrap_keeps_at_most_four_blocks_alive():
    # the raw words, the fresh indices, the gather buffer and the means:
    # the previous block's indices are dropped before the next is drawn
    values = np.random.default_rng(0).random(100)
    bootstrap_ci(values, rng=random_stream(7, 100))
    rng = random_stream(7, 100)
    tracemalloc.start()
    try:
        bootstrap_ci(values, rng=rng)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 4 * BLOCK * 8
