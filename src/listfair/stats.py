"""Kernel regression and bootstrap confidence intervals.

Where the measurement protocol leaves estimator details open, the
defaults follow common practice: Gaussian kernel, Silverman's
rule-of-thumb bandwidth, percentile bootstrap of the mean with 2000
resamples. Everything is deterministic given a seeded stream.
"""

from __future__ import annotations

import numpy as np

from listfair.streams import bounded

_DEFAULT_RESAMPLES = 2000

# Indices resampled per block. A whole (resamples, size) index matrix is
# megabytes that a fresh process faults in and hands back to the OS on
# every call; blocks of this size are reused from the heap. Measured on
# percf in a fresh process with glibc 2.36: 16 Ki gives about 7k minor
# faults per run, 32 Ki sometimes gives 100k, when the heap top is trimmed.
BLOCK = 1 << 14


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
    if not 0.0 < bandwidth < np.inf:  # false for NaN
        raise ValueError(f"bandwidth must be positive and finite, got {bandwidth}")
    if len(x) == 0:
        raise ValueError("regression needs at least one data point")
    # a block of grid points at a time, so that memory is bounded by BLOCK
    # and not by len(grid) * len(x); each row's arithmetic is its own
    rows = max(1, BLOCK // len(x))
    estimates = np.empty(len(grid))
    for start in range(0, len(grid), rows):
        block = grid[start : start + rows]
        with np.errstate(over="ignore"):
            scaled = (block[:, None] - x[None, :]) / bandwidth
            squared = 0.5 * scaled * scaled
            # where every exponent of a grid point overflowed, take the limit
            # as the bandwidth goes to 0: the mean y of the nearest points
            far = np.isinf(squared.min(axis=1))
            distance = np.abs(block[far, None] - x[None, :])
            squared[far] = np.where(distance == distance.min(axis=1, keepdims=True), 0.0, np.inf)
        # shift per grid point so the nearest weight is exp(0); the estimate
        # is scale-free in the weights and this avoids all-zero underflow far
        # from the data
        squared -= squared.min(axis=1, keepdims=True)
        weights = np.exp(-squared)
        estimates[start : start + rows] = (weights * y[None, :]).sum(axis=1) / weights.sum(axis=1)
    return estimates


def silverman_bandwidth(xs) -> float:
    """Rule-of-thumb bandwidth 1.06 * sd * n^(-1/5) (sd with ddof=1)."""
    xs = np.asarray(xs, dtype=float)
    if not np.isfinite(xs).all():
        raise ValueError("xs values must be finite")
    if np.unique(xs).size < 2:
        raise ValueError("bandwidth rule needs at least two distinct values")
    return float(1.06 * xs.std(ddof=1) * len(xs) ** -0.2)


def bootstrap_ci(
    values,
    level: float = 0.95,
    resamples: int = _DEFAULT_RESAMPLES,
    *,
    rng,
) -> tuple[float, float]:
    """Percentile bootstrap interval ``(lower, upper)`` for the mean of
    ``values``.

    Draws ``resamples`` resamples with replacement, their indices from the
    stream ``rng`` (:func:`~listfair.streams.random_stream`), takes each
    mean, and returns the (1 - level)/2 and (1 + level)/2 empirical
    quantiles. With a fixed stream the result is deterministic, and
    intervals at lower levels nest inside intervals at higher levels.
    """
    values = np.asarray(values, dtype=float)
    if values.size == 0:
        raise ValueError("bootstrap needs at least one value")
    largest = float(np.abs(values).max())
    if not np.isfinite(largest):
        raise ValueError("bootstrap values must be finite")
    # half the float maximum: a margin for rounding in the sums
    if largest > np.finfo(float).max / 2 / values.size:
        raise ValueError(f"bootstrap values are too large: a sum of {values.size} of them could overflow")
    if not 0.0 < level < 1.0:
        raise ValueError("level must lie in (0, 1)")
    if resamples < 1:
        raise ValueError("resamples must be >= 1")
    size = values.size
    rows = max(1, BLOCK // size)
    gathered = np.empty((min(rows, resamples), size))
    means = np.empty(resamples)
    halves = ()
    for start in range(0, resamples, rows):
        stop = min(start + rows, resamples)
        indices, halves = bounded(rng, size, (stop - start) * size, halves)
        # the indices are in range, so "wrap" changes none of them; it
        # spares the copy "raise" makes of out
        block = np.take(values, indices.reshape(stop - start, size), out=gathered[: stop - start], mode="wrap")
        del indices  # not kept alive while the next block is drawn
        np.add.reduce(block, axis=1, out=means[start:stop])
    means /= size  # the sums then one division: what mean(axis=1) does
    lower, upper = np.quantile(means, [(1.0 - level) / 2.0, (1.0 + level) / 2.0]).tolist()
    return lower, upper
