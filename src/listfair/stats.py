"""Kernel regression and bootstrap confidence intervals.

Where the measurement protocol leaves estimator details open, the
defaults follow common practice: Gaussian kernel, Silverman's
rule-of-thumb bandwidth, percentile bootstrap of the mean with 2000
resamples. Everything is deterministic given a seeded generator.

The bootstrap's resample indices are exactly the stream of
``Generator.integers(0, size)``, drawn 16 Ki at a time. On PCG64 they
come from raw 64-bit words, each split into its low then its high 32-bit
half, and numpy's Lemire step (Lemire, *Fast Random Integer Generation
in an Interval*, 2019): a word x gives the index (x * size) >> 32 unless
the low half of x * size falls below (2**32 - size) % size, when x is
redrawn. ``tests/test_stats.py`` checks both against ``integers``.
"""

from __future__ import annotations

import sys

import numpy as np
from numpy.random import PCG64

DEFAULT_RESAMPLES = 2000

# Indices resampled per block. A whole (resamples, size) index matrix is
# megabytes that a fresh process faults in and hands back to the OS on
# every call; blocks of this size are reused from the heap. Measured on
# percf in a fresh process with glibc 2.36: 16 Ki gives about 7k minor
# faults per run, 32 Ki sometimes gives 100k, when the heap top is trimmed.
BLOCK = 1 << 14


def _index_blocks(gen, size: int, count: int, block: int):
    """Yield the indices ``gen.integers(0, size, count)`` returns, in
    consecutive blocks of ``block`` (the last may be shorter), and leave
    ``gen`` in the state that call leaves it in.

    A block of an even count, drawn when the generator holds no buffered
    32-bit half, takes ``count // 2`` raw PCG64 words; any other block
    calls ``integers`` itself.
    """
    bitgen = gen.bit_generator
    fast = sys.byteorder == "little" and type(bitgen) is PCG64 and 1 < size < 2**32
    threshold = (2**32 - size) % size
    paired = fast and not bitgen.state["has_uint32"]
    for start in range(0, count, block):
        n = min(block, count - start)
        if not paired or n % 2:
            yield gen.integers(0, size, n)
            paired = fast and not bitgen.state["has_uint32"]
            continue
        product = np.multiply(bitgen.random_raw(n // 2).view(np.uint32), size, dtype=np.uint64)
        low = product.view(np.uint32)[::2]
        if threshold and low.min() < threshold:
            # rare (p ~ 3.6e-4 per block at size 100): keep the accepted
            # words and let integers draw the rest, as it would have
            kept = product[low >= threshold] >> 32
            yield np.concatenate([kept.view(np.intp), gen.integers(0, size, n - kept.size)])
            paired = not bitgen.state["has_uint32"]
            continue
        product >>= 32
        yield product.view(np.intp)


def nadaraya_watson(x, y, grid, bandwidth: float) -> np.ndarray:
    """Locally weighted mean of the points ``(x, y)`` at each grid point.

    Weights are Gaussian, exp(-((g - x_i) / bandwidth)^2 / 2). Every
    estimate is a convex combination of the observed y values, so it
    always lies within [min y, max y].
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    grid = np.asarray(grid, dtype=float)
    if x.ndim != 1 or x.shape != y.shape or grid.ndim != 1:
        raise ValueError("x, y and grid must be 1-d arrays, x and y of equal length")
    if not all(np.isfinite(values).all() for values in (x, y, grid)):
        raise ValueError("x, y and grid values must be finite")
    if bandwidth <= 0:
        raise ValueError("bandwidth must be positive")
    if len(x) == 0:
        raise ValueError("regression needs at least one data point")
    with np.errstate(over="ignore"):
        scaled = (grid[:, None] - x[None, :]) / bandwidth
        squared = 0.5 * scaled * scaled
        # where every exponent of a grid point overflowed, take the limit as
        # the bandwidth goes to 0: the mean y of the nearest points
        far = np.isinf(squared.min(axis=1))
        distance = np.abs(grid[far, None] - x[None, :])
        squared[far] = np.where(distance == distance.min(axis=1, keepdims=True), 0.0, np.inf)
    # shift per grid point so the nearest weight is exp(0); the estimate is
    # scale-free in the weights and this avoids all-zero underflow far from
    # the data
    squared -= squared.min(axis=1, keepdims=True)
    weights = np.exp(-squared)
    return (weights * y[None, :]).sum(axis=1) / weights.sum(axis=1)


def silverman_bandwidth(xs) -> float:
    """Rule-of-thumb bandwidth 1.06 * sd * n^(-1/5) (sd with ddof=1)."""
    xs = np.asarray(xs, dtype=float)
    if np.unique(xs).size < 2:
        raise ValueError("bandwidth rule needs at least two distinct values")
    return float(1.06 * xs.std(ddof=1) * len(xs) ** -0.2)


def bootstrap_ci(
    values,
    level: float = 0.95,
    resamples: int = DEFAULT_RESAMPLES,
    *,
    rng: np.random.Generator,
) -> tuple[float, float]:
    """Percentile bootstrap interval ``(lower, upper)`` for the mean of
    ``values``.

    Draws ``resamples`` resamples with replacement, takes each mean, and
    returns the (1 - level)/2 and (1 + level)/2 empirical quantiles. With
    a fixed rng the result is deterministic, and intervals at lower levels
    nest inside intervals at higher levels.
    """
    values = np.asarray(values, dtype=float)
    if values.size == 0:
        raise ValueError("bootstrap needs at least one value")
    if not 0.0 < level < 1.0:
        raise ValueError("level must lie in (0, 1)")
    if resamples < 1:
        raise ValueError("resamples must be >= 1")
    # consecutive (rows, size) draws give the same indices and leave the
    # generator in the same state as one (resamples, size) draw; an even
    # block keeps the raw-word fast path of _index_blocks
    size = values.size
    rows = max(1, BLOCK // size)
    rows += rows & size & 1
    blocks = _index_blocks(rng, size, resamples * size, rows * size)
    gathered = np.empty((min(rows, resamples), size))
    means = np.empty(resamples)
    for start, indices in zip(range(0, resamples, rows), blocks):
        stop = min(start + rows, resamples)
        # the indices are in range, so "wrap" changes none of them; it
        # spares the copy "raise" makes of out
        block = np.take(values, indices.reshape(stop - start, size), out=gathered[: stop - start], mode="wrap")
        np.add.reduce(block, axis=1, out=means[start:stop])
    means /= size  # the sums then one division: what mean(axis=1) does
    lower, upper = np.quantile(means, [(1.0 - level) / 2.0, (1.0 + level) / 2.0]).tolist()
    return lower, upper
