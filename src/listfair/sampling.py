"""Seeded randomness, Fisher-Yates shuffling, and sample generation.

Reproducibility contract: a :class:`RandomSource` is keyed by
``(seed, stream_index)`` and always yields the same value sequence for
the same key (the pinned generator is numpy's PCG64 seeded through
``SeedSequence((seed, stream_index))``). Operations consume the stream,
so re-create the source to replay a draw. Experiment drivers give every
sample its own stream index, which makes runs independent of scheduling
and safe to parallelize.

Samples are drawn WITH replacement: each position is an independent
draw from the name-frequency distribution, the same way a registry of
millions behaves when only a thousand rows are displayed. A sample is an
index array into a dataset's records, drawn from the tables the
:class:`~listfair.dataset.NameDataset` keeps. A requested female share
makes the sample stratified; without one it is proportional.
"""

from __future__ import annotations

import math
from fractions import Fraction
from pathlib import Path

import numpy as np

from listfair.dataset import (
    _MAX_COUNT_DIGITS,
    NameDataset,
    csv_rows,
    gender_letters,
    parse_list_row,
    write_rows,
)
from listfair.errors import DatasetFormatError, InfeasibleSampleError

SAMPLE_HEADER = ["position", "name", "gender"]

# sample sizes stay below this bound, the one ExperimentConfig puts on n
MAX_SAMPLE_SIZE = 2**28


class RandomSource:
    """Deterministic random stream keyed by (seed, stream_index)."""

    def __init__(self, seed: int, stream_index: int = 0):
        if seed < 0 or seed >= 2**64:
            raise ValueError("seed must be a 64-bit non-negative integer")
        if stream_index < 0:
            raise ValueError("stream_index must be non-negative")
        self.seed = seed
        self.stream_index = stream_index
        # np.random, not a module-level import: numpy loads numpy.random on
        # first use, so callers that only read sample files never load it
        self.generator = np.random.Generator(np.random.PCG64(np.random.SeedSequence((seed, stream_index))))

    def __repr__(self) -> str:
        return f"RandomSource(seed={self.seed}, stream_index={self.stream_index})"


def round_half_up(x) -> int:
    """Round to the nearest integer, with .5 going up; exact for a
    :class:`~fractions.Fraction`."""
    return math.floor(x + Fraction(1, 2))


def stratified_female_count(perc_fs: float, n: int) -> int:
    """Women in a stratified sample of ``n``: ``perc_fs * n`` rounded half
    up, computed exactly on the decimal the share is written as, so
    0.29 * 50 gives 15 although the float product is 14.4999..."""
    return round_half_up(Fraction(str(perc_fs)) * n)


def permutation(n: int, gen: np.random.Generator) -> list[int]:
    """Uniformly random permutation of ``range(n)``.

    Classic Fisher-Yates swap-down over an unbiased integer source, so
    every permutation is equally likely. All swap indices come from one
    ``integers`` call with the bounds n, n-1, ..., 2; numpy draws each
    bounded integer of an array call exactly as a scalar call with that
    bound would, so permutation and stream state match one call per swap.
    """
    perm = list(range(n))
    swaps = gen.integers(0, np.arange(n, 1, -1)).tolist()
    for i, j in zip(range(n - 1, 0, -1), swaps):
        perm[i], perm[j] = perm[j], perm[i]
    return perm


def _weighted_draw(cdf: np.ndarray, size: int, gen: np.random.Generator) -> np.ndarray:
    """``size`` indices drawn with replacement from the distribution whose
    cumulative probabilities are ``cdf``: the same indices and the same
    stream use as ``gen.choice(len(cdf), size, p=p)``, without checking
    and summing ``p`` on every call."""
    return cdf.searchsorted(gen.random(size), side="right")


def draw_sample(ds: NameDataset, n: int, rng: RandomSource, perc_fs: float | None = None) -> np.ndarray:
    """Record indices of ``n`` individuals drawn from a dataset.

    Without ``perc_fs`` the sample is proportional: every position is drawn
    independently with probability proportional to record count over the
    whole dataset, so arrival order is already random. With ``perc_fs`` it
    is stratified: exactly :func:`stratified_female_count` women are drawn
    from the female records and the rest from the male records (each side
    weighted by within-gender counts), then Fisher-Yates shuffled together.
    """
    if n <= 0:
        raise ValueError("sample size n must be >= 1")
    if n >= MAX_SAMPLE_SIZE:
        raise ValueError(f"sample size n must be < 2**28, got {n}")
    gen = rng.generator
    if perc_fs is None:
        return _weighted_draw(ds.cdf, n, gen)
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
    drawn = np.concatenate(
        [female[_weighted_draw(female_cdf, n_f, gen)], male[_weighted_draw(male_cdf, n_m, gen)]]
    )
    return drawn[permutation(n, gen)]


def dump_sample_csv(names, mask: np.ndarray, fh) -> None:
    """Write a list given as names and a female mask as
    ``position,name,gender`` rows (1-based)."""
    write_rows(fh, SAMPLE_HEADER, zip(range(1, len(names) + 1), names, gender_letters(mask)))


def read_sample_csv(path) -> tuple[tuple[str, ...], np.ndarray]:
    """Read a ``position,name,gender`` file back into its names and female
    mask.

    Positions must run 1..N in file order; any gap or reordering means
    the file was not produced by this pipeline and is rejected.
    """
    path = Path(path)
    rows: list[tuple[str, bool]] = []
    for line, (position_text, name, gender_text) in csv_rows(path, SAMPLE_HEADER, 3):
        expected = len(rows) + 1
        digits = position_text.strip()
        # a numeral too long for int() is reported by its length, like a count
        too_long = digits.isdecimal() and len(digits) > _MAX_COUNT_DIGITS
        if too_long or not digits.isdecimal() or int(digits) != expected:
            got = f"a {len(digits)}-digit number" if too_long else repr(position_text)
            raise DatasetFormatError(f"expected position {expected}, got {got}", path=path, line=line)
        rows.append(parse_list_row(name, gender_text, path, line))
    if not rows:
        raise DatasetFormatError("sample file has no rows", path=path)
    names, flags = zip(*rows)
    return names, np.array(flags)
