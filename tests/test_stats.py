import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from listfair.sampling import RandomSource
from listfair.stats import (
    BLOCK,
    bootstrap_ci,
    nadaraya_watson,
    silverman_bandwidth,
)

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


def test_bootstrap_deterministic_and_sane():
    values = np.concatenate([np.zeros(50), np.ones(50)])
    one = bootstrap_ci(values, rng=RandomSource(17, 1))
    two = bootstrap_ci(values, rng=RandomSource(17, 1))
    assert one == two
    lower, upper = one
    assert (type(lower), type(upper)) == (float, float)
    assert lower <= values.mean() <= upper


def test_bootstrap_constant_data_gives_point_interval():
    assert bootstrap_ci(np.full(30, 0.42), rng=RandomSource(0)) == pytest.approx((0.42, 0.42))


@given(
    st.lists(finite_floats, min_size=2, max_size=40),
    st.integers(min_value=0, max_value=2**32),
)
@settings(max_examples=150)
def test_bootstrap_intervals_nest_across_levels(values, seed):
    intervals = [
        bootstrap_ci(values, level=level, resamples=200, rng=RandomSource(seed, 5))
        for level in (0.5, 0.9, 0.99)
    ]
    for (tight_lower, tight_upper), (wide_lower, wide_upper) in zip(intervals, intervals[1:]):
        assert wide_lower <= tight_lower + 1e-12
        assert tight_upper <= wide_upper + 1e-12
    for lower, upper in intervals:
        assert lower <= upper


def test_bootstrap_validation():
    with pytest.raises(ValueError):
        bootstrap_ci([], rng=RandomSource(0))
    with pytest.raises(ValueError):
        bootstrap_ci([1.0], level=0.0, rng=RandomSource(0))
    with pytest.raises(ValueError):
        bootstrap_ci([1.0], level=1.0, rng=RandomSource(0))
    with pytest.raises(ValueError):
        bootstrap_ci([1.0], resamples=0, rng=RandomSource(0))


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
    # (resamples, size) matrix and leave the generator where it would
    size, resamples = shape
    values = np.random.default_rng(seed).random(size)
    rng = RandomSource(seed, 11)
    interval = bootstrap_ci(values, resamples=resamples, rng=rng)

    reference = RandomSource(seed, 11).generator
    means = values[reference.integers(0, size, size=(resamples, size))].mean(axis=1)
    lower, upper = np.quantile(means, [(1.0 - 0.95) / 2.0, (1.0 + 0.95) / 2.0]).tolist()
    assert interval == (lower, upper)
    assert rng.generator.random() == reference.random()


def _traced_peak(values, resamples: int) -> int:
    rng = RandomSource(3)
    tracemalloc.start()
    try:
        bootstrap_ci(values, resamples=resamples, rng=rng)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_bootstrap_memory_is_bounded_by_blocks():
    values = np.random.default_rng(0).random(100)
    bootstrap_ci(values, rng=RandomSource(3))  # lazy numpy imports happen here
    base = _traced_peak(values, 2000)
    assert base < 1_000_000
    # past the blocks, only the means and the copy np.quantile partitions
    # grow with the resample count: 16 bytes per resample
    assert _traced_peak(values, 50_000) - base <= 16 * (50_000 - 2000)
