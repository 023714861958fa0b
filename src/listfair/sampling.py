"""Fisher-Yates shuffling and sample generation.

Samples are drawn WITH replacement: each position is an independent
draw from the name-frequency distribution, the same way a registry of
millions behaves when only a thousand rows are displayed. A sample is an
index array into a dataset's records, looked up in the tables over them
that the :class:`~listfair.dataset.NameDataset` keeps. A requested female
share makes the sample stratified; without one it is proportional.

:func:`draw_samples` draws a block of samples, one per
:func:`~listfair.streams.random_stream` stream, as the rows of one array;
``experiments._blocks`` draws a cell's samples ``max(1, stats.BLOCK // n)``
at a time. Each row is the sample its stream alone gives (:func:`draw_sample`
is the one-row case), and a stratified row is shuffled by
:func:`_permutations`, which computes the Fisher-Yates swap loop's exact
result with array operations. A uniform becomes a record by
:func:`_lookup`, which finds ``cdf.searchsorted(u, side="right")`` from the
draw table's guide table (Chen & Asau, "On generating random variates
from an empirical distribution", *AIIE Transactions* 6(2), 1974) with no
binary search. Sample files are read and written by
:mod:`listfair.dataset`.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

from listfair import MAX_SAMPLE_SIZE
from listfair.dataset import NameDataset
from listfair.errors import InfeasibleSampleError
from listfair.streams import bounded, uniforms

# perfbench/spans.py wraps read_sample_csv under this module's name; the
# import goes when the benchmark reads the stage timer (ROADMAP item 2)
from listfair.dataset import read_sample_csv  # noqa: F401


def _stratified_female_count(perc_fs: float, n: int) -> int:
    """Women in a stratified sample of ``n``: ``perc_fs * n`` rounded half
    up, computed exactly on the decimal the share is written as, so
    0.29 * 50 gives 15 although the float product is 14.4999..."""
    return math.floor(Fraction(str(perc_fs)) * n + Fraction(1, 2))


def _lookup(table: tuple[np.ndarray, np.ndarray], u: np.ndarray) -> np.ndarray:
    """``cdf.searchsorted(u, side="right")`` of ``table = (cdf, guide)``
    for an array ``u`` of uniforms in [0, 1).

    The guide table has M buckets, M a power of two, so ``floor(u * M)``
    is exact and ``guide[floor(u * M)]``, the search of the bucket's lower
    edge, is at most the search of u. Each lookup starts there and steps
    forward while the cdf entry is at most u; only the lookups still
    stepping are touched again.
    """
    cdf, guide = table
    shape, u = u.shape, u.ravel()
    found = (u * len(guide)).astype(np.intp)
    found[:] = guide[found]
    live = np.flatnonzero(cdf[found] <= u)
    while len(live):
        found[live] += 1
        live = live[cdf[found[live]] <= u[live]]
    return found.reshape(shape)


def _permutations(n: int, streams) -> np.ndarray:
    """One uniformly random permutation of ``range(n)`` per stream, as the
    rows of a ``(len(streams), n)`` intp array.

    Row r is the classic Fisher-Yates swap-down over ``streams[r]``: for
    i = n-1, ..., 1 it swaps positions i and j_i, with every j_i from one
    :func:`~listfair.streams.bounded` call with the bounds n, n-1, ..., 2.

    The swaps are not run one by one. Steps run from i = n-1 down, and
    step i fixes position i for good with the value that position j_i
    holds just before it. A position x <= i still holds its starting
    value x then, unless a step above i targeted it; if so, it holds what
    the nearest such step moved there, the value at that step's own
    position just before it. So, with j_0 = 0, the value W(x) at position
    x just before step x is W of the nearest step above x that targets x,
    or x if none does. Following these links to their end (pointer
    jumping: ``parent[parent]`` until nothing changes) gives every W at
    once, and position i ends with W of the nearest step above i that
    targets j_i, or with j_i if none does. One stable sort of the targets
    groups the steps that share one, in step order, for all rows.
    """
    rows = len(streams)
    size = rows * n
    # every position fits this type: 16 bits up to 2**16 positions
    index = np.min_scalar_type(max(size - 1, 0))
    targets = np.zeros((rows, n), dtype=index)
    bounds = np.arange(n, 1, -1, dtype=np.uint64)
    for row, stream in zip(targets, streams):
        row[:0:-1] = bounded(stream, bounds, len(bounds))[0]
    if size < 2:
        return targets.astype(np.intp)
    # number position i of row r as r*n + i, so one sort serves all rows
    offsets = np.arange(0, size, n, dtype=index)[:, None]
    targets += offsets
    targets = targets.ravel()
    # on keys of 16 bits or fewer a stable argsort is a radix sort; its
    # intp result indexes once, then only its narrow copy is kept
    order = targets.argsort(kind="stable")
    ordered = targets.take(order)
    steps = order.astype(index)
    del order
    same = ordered[1:] == ordered[:-1]
    # later[k]: the nearest step above steps[k] with its target, else 0;
    # step 0 is above no step, so it is never a later one
    later = np.zeros(size, dtype=index)
    np.multiply(steps[1:], same, out=later[:-1])
    # parent[x]: the nearest step above x that targets x, or x for a root.
    # A target's first step is x itself only when x targets itself, and
    # W(x) is read only where x's target lies below x, so x stays a root.
    first = np.ones(size, dtype=bool)
    np.logical_not(same, out=first[1:])
    parent = np.arange(size, dtype=index)
    parent[ordered.compress(first)] = steps.compress(first)
    root = np.empty_like(parent)
    while True:
        np.take(parent, parent, out=root)
        if np.array_equal(root, parent):
            break
        parent, root = root, parent
    # step i places what its target held: W of the nearest step above i
    # with that target, else the target's own starting value
    final = np.empty((rows, n), dtype=np.intp)
    final.ravel()[steps] = np.where(later > 0, parent.take(later), ordered)
    final -= offsets
    return final


def draw_samples(ds: NameDataset, n: int, streams, perc_fs: float | None = None) -> np.ndarray:
    """Record indices of one sample of ``n`` individuals per stream in
    ``streams``, as the rows of a ``(len(streams), n)`` array.

    Without ``perc_fs`` a sample is proportional: every position is drawn
    independently with probability proportional to record count over the
    whole dataset, so arrival order is already random. With ``perc_fs`` it
    is stratified: exactly :func:`_stratified_female_count` women are drawn
    from the female table of ``ds.strata`` and the rest from the male one,
    each weighting its gender's records by count and the other's by 0, then
    Fisher-Yates shuffled together (:func:`_permutations`).

    Each row is the sample its stream alone gives. A stream gives the
    uniforms that ``Generator.choice`` with the counts as ``p`` would
    draw, the female ones before the male ones, then the swap indices.
    """
    if n <= 0:
        raise ValueError("sample size n must be >= 1")
    if n >= MAX_SAMPLE_SIZE:
        raise ValueError(f"sample size n must be < 2**28, got {n}")
    if perc_fs is None:
        return _lookup(ds.cdf, uniforms(streams, n))
    if not 0.0 <= perc_fs <= 1.0:
        raise ValueError(f"perc_fs must lie in [0, 1], got {perc_fs}")
    n_f = _stratified_female_count(perc_fs, n)
    if n_f > 0 and not ds.female_count:
        raise InfeasibleSampleError(f"dataset {ds.id!r} has no female records but {n_f} women were requested")
    if n > n_f and ds.female_count == ds.total_count:
        raise InfeasibleSampleError(f"dataset {ds.id!r} has no male records but {n - n_f} men were requested")
    female, male = ds.strata
    doubles = uniforms(streams, n)
    drawn = np.concatenate([_lookup(female, doubles[:, :n_f]), _lookup(male, doubles[:, n_f:])], axis=1)
    del doubles  # 8 bytes a position: not live while the shuffle runs
    return np.take_along_axis(drawn, _permutations(n, streams), axis=1)


def draw_sample(ds: NameDataset, n: int, stream, perc_fs: float | None = None) -> np.ndarray:
    """Record indices of ``n`` individuals drawn from a dataset: the one
    row of :func:`draw_samples` with ``stream``."""
    return draw_samples(ds, n, [stream], perc_fs)[0]
