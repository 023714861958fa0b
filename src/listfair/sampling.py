"""Seeded randomness, Fisher-Yates shuffling, and sample generation.

Reproducibility contract: :func:`random_stream` returns a numpy
``Generator`` keyed by ``(seed, stream_index)``, which always yields the
same value sequence for the same key (the pinned generator is numpy's
PCG64 seeded through ``SeedSequence((seed, stream_index))``). Operations
consume the stream, so re-create the generator to replay a draw.
Experiment drivers give every sample its own stream index, which makes
runs independent of scheduling and safe to parallelize.

Samples are drawn WITH replacement: each position is an independent
draw from the name-frequency distribution, the same way a registry of
millions behaves when only a thousand rows are displayed. A sample is an
index array into a dataset's records, drawn from the tables the
:class:`~listfair.dataset.NameDataset` keeps. A requested female share
makes the sample stratified; without one it is proportional.

:func:`draw_samples` draws a block of samples, one per generator, as
the rows of one array; the experiments draw a cell's samples
``max(1, stats.BLOCK // n)`` at a time. Each row is the sample its
generator alone gives (:func:`draw_sample` is the one-row case), and a
stratified row is shuffled by :func:`permutations`, which computes the
Fisher-Yates swap loop's exact result with array operations.
Sample files are read and written by :mod:`listfair.dataset`.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

from listfair import MAX_SAMPLE_SIZE
from listfair.dataset import NameDataset
from listfair.errors import InfeasibleSampleError

# perfbench/spans.py wraps read_sample_csv under this module's name; the
# import goes when the benchmark reads the stage timer (ROADMAP item 2)
from listfair.dataset import read_sample_csv  # noqa: F401


def random_stream(seed: int, stream_index: int = 0) -> np.random.Generator:
    """The generator keyed by ``(seed, stream_index)``: PCG64 seeded
    through ``SeedSequence((seed, stream_index))``."""
    if seed < 0 or seed >= 2**64:
        raise ValueError("seed must be a 64-bit non-negative integer")
    if stream_index < 0:
        raise ValueError("stream_index must be non-negative")
    # np.random, not a module-level import: numpy loads numpy.random on
    # first use, so callers that only read sample files never load it
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence((seed, stream_index))))


def round_half_up(x) -> int:
    """Round to the nearest integer, with .5 going up; exact for a
    :class:`~fractions.Fraction`."""
    return math.floor(x + Fraction(1, 2))


def stratified_female_count(perc_fs: float, n: int) -> int:
    """Women in a stratified sample of ``n``: ``perc_fs * n`` rounded half
    up, computed exactly on the decimal the share is written as, so
    0.29 * 50 gives 15 although the float product is 14.4999..."""
    return round_half_up(Fraction(str(perc_fs)) * n)


def permutations(n: int, gens) -> np.ndarray:
    """One uniformly random permutation of ``range(n)`` per generator, as
    the rows of a ``(len(gens), n)`` intp array.

    Row r is the classic Fisher-Yates swap-down over ``gens[r]``: for
    i = n-1, ..., 1 it swaps positions i and j_i, with every j_i from one
    ``integers`` call with the bounds n, n-1, ..., 2. numpy draws each
    bounded integer of an array call exactly as a scalar call with that
    bound would, so rows and stream states match one call per swap.

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
    rows = len(gens)
    targets = np.zeros((rows, n), dtype=np.intp)
    bounds = np.arange(n, 1, -1)
    for row, gen in zip(targets, gens):
        row[:0:-1] = gen.integers(0, bounds)
    size = rows * n
    if size < 2:
        return targets
    # number position i of row r as r*n + i, so one sort serves all rows
    offsets = np.arange(0, size, n)[:, None]
    targets = (targets + offsets).ravel()
    # on keys of 16 bits or fewer a stable argsort is a radix sort
    steps = targets.astype(np.min_scalar_type(size - 1)).argsort(kind="stable")
    ordered = targets[steps]
    same = ordered[1:] == ordered[:-1]
    # later[k]: the nearest step above steps[k] with its target, else -1
    later = np.empty(size, dtype=np.intp)
    later[:-1] = np.where(same, steps[1:], -1)
    later[-1] = -1
    # parent[x]: the nearest step above x that targets x, or x for a root.
    # A target's first step is x itself only when x targets itself, and
    # W(x) is read only where x's target lies below x, so x stays a root.
    heads = np.flatnonzero(np.concatenate(([True], ~same)))
    parent = np.arange(size)
    parent[ordered[heads]] = steps[heads]
    while True:
        root = parent[parent]
        if np.array_equal(root, parent):
            break
        parent = root
    # step i places what its target held: W of the nearest step above i
    # with that target, else the target's own starting value
    final = np.empty(size, dtype=np.intp)
    final[steps] = np.where(later >= 0, parent[later], ordered)
    return final.reshape(rows, n) - offsets


def draw_samples(ds: NameDataset, n: int, rngs, perc_fs: float | None = None) -> np.ndarray:
    """Record indices of one sample of ``n`` individuals per generator in
    ``rngs``, as the rows of a ``(len(rngs), n)`` array.

    Without ``perc_fs`` a sample is proportional: every position is drawn
    independently with probability proportional to record count over the
    whole dataset, so arrival order is already random. With ``perc_fs`` it
    is stratified: exactly :func:`stratified_female_count` women are drawn
    from the female records and the rest from the male records (each side
    weighted by within-gender counts), then Fisher-Yates shuffled together
    (:func:`permutations`).

    Each row is the sample its generator alone gives. A generator draws the
    uniforms that ``Generator.choice`` with the counts as ``p`` would
    draw, the female ones before the male ones, then the swap indices,
    and its stream ends where drawing that one sample leaves it.
    """
    if n <= 0:
        raise ValueError("sample size n must be >= 1")
    if n >= MAX_SAMPLE_SIZE:
        raise ValueError(f"sample size n must be < 2**28, got {n}")
    uniforms = np.empty((len(rngs), n))
    if perc_fs is None:
        for row, rng in zip(uniforms, rngs):
            rng.random(out=row)
        return ds.cdf.searchsorted(uniforms, side="right")
    if not 0.0 <= perc_fs <= 1.0:
        raise ValueError(f"perc_fs must lie in [0, 1], got {perc_fs}")
    n_f = stratified_female_count(perc_fs, n)
    n_m = n - n_f
    (female, female_cdf), (male, male_cdf) = ds.strata
    if n_f > 0 and not len(female):
        raise InfeasibleSampleError(
            f"dataset {ds.id!r} has no female records but {n_f} women were requested"
        )
    if n_m > 0 and not len(male):
        raise InfeasibleSampleError(
            f"dataset {ds.id!r} has no male records but {n_m} men were requested"
        )
    for row, rng in zip(uniforms, rngs):
        rng.random(out=row[:n_f])
        rng.random(out=row[n_f:])
    drawn = np.concatenate(
        [
            female[female_cdf.searchsorted(uniforms[:, :n_f], side="right")],
            male[male_cdf.searchsorted(uniforms[:, n_f:], side="right")],
        ],
        axis=1,
    )
    return np.take_along_axis(drawn, permutations(n, rngs), axis=1)


def draw_sample(ds: NameDataset, n: int, rng: np.random.Generator, perc_fs: float | None = None) -> np.ndarray:
    """Record indices of ``n`` individuals drawn from a dataset: the one
    row of :func:`draw_samples` with the generator ``rng``."""
    return draw_samples(ds, n, [rng], perc_fs)[0]
