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
millions behaves when only a thousand rows are displayed.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

import numpy as np

from listfair.dataset import Gender, NameDataset
from listfair.errors import DatasetFormatError, InfeasibleSampleError

SAMPLE_HEADER = ["position", "name", "gender"]

PROPORTIONAL = "proportional"
STRATIFIED = "stratified"


class RandomSource:
    """Deterministic random stream keyed by (seed, stream_index)."""

    def __init__(self, seed: int, stream_index: int = 0):
        if seed < 0 or seed >= 2**64:
            raise ValueError("seed must be a 64-bit non-negative integer")
        if stream_index < 0:
            raise ValueError("stream_index must be non-negative")
        self.seed = seed
        self.stream_index = stream_index
        self.generator = np.random.Generator(
            np.random.PCG64(np.random.SeedSequence((seed, stream_index)))
        )

    def __repr__(self) -> str:
        return f"RandomSource(seed={self.seed}, stream_index={self.stream_index})"


@dataclass(frozen=True, slots=True)
class Individual:
    """One drawn person: a first name and a gender."""

    name: str
    gender: Gender


@dataclass(frozen=True)
class SampleProvenance:
    """Where a sample came from, enough to reproduce it exactly."""

    dataset_id: str
    seed: int
    stream_index: int
    mode: str


@dataclass(frozen=True)
class Sample:
    """A drawn multiset of individuals, in arrival order.

    ``perc_fs_requested`` is the stratified female share, or None when the
    draw was proportional.
    """

    individuals: tuple[Individual, ...]
    perc_fs_requested: float | None
    provenance: SampleProvenance

    @property
    def n(self) -> int:
        return len(self.individuals)


@dataclass(frozen=True)
class DatasetArrays:
    """A dataset as per-record arrays, the form the experiment hot path
    works on: a sample is an ``int`` index array into ``ds.records``.

    ``p`` holds the proportional draw probabilities; ``female`` and
    ``male`` are the record indices of each gender with their own
    within-gender probabilities. ``rank`` is the dense rank of each
    record's collation key (equal keys share a rank), or None when the
    arrays are only used for drawing.
    """

    id: str
    is_female: np.ndarray
    p: np.ndarray
    female: np.ndarray
    female_p: np.ndarray
    male: np.ndarray
    male_p: np.ndarray
    rank: np.ndarray | None = None


def _probabilities(counts: np.ndarray) -> np.ndarray:
    return counts / counts.sum()


def dataset_arrays(ds: NameDataset, rank: np.ndarray | None = None) -> DatasetArrays:
    records = ds.records
    is_female = np.fromiter(
        (r.gender is Gender.FEMALE for r in records), dtype=bool, count=len(records)
    )
    counts = np.fromiter((r.count for r in records), dtype=np.float64, count=len(records))
    female = np.flatnonzero(is_female)
    male = np.flatnonzero(~is_female)
    return DatasetArrays(
        ds.id,
        is_female,
        _probabilities(counts),
        female,
        _probabilities(counts[female]),
        male,
        _probabilities(counts[male]),
        rank,
    )


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


def fisher_yates(items, rng: RandomSource) -> list:
    """Return a uniformly random permutation of ``items``, fully
    determined by the state of ``rng`` (see :func:`permutation`)."""
    items = list(items)
    return [items[i] for i in permutation(len(items), rng.generator)]


def _weighted_draw(
    indices: np.ndarray, p: np.ndarray, size: int, gen: np.random.Generator
) -> np.ndarray:
    # a draw of size 0 consumes nothing from the stream
    if size == 0:
        return indices[:0]
    return indices[gen.choice(len(indices), size=size, replace=True, p=p)]


def draw_indices(
    arrays: DatasetArrays, n: int, gen: np.random.Generator, n_f: int | None = None
) -> np.ndarray:
    """Record indices of a sample of ``n``: proportional when ``n_f`` is
    None, else ``n_f`` women and ``n - n_f`` men, shuffled (see
    :func:`draw_sample`)."""
    if n_f is None:
        return gen.choice(len(arrays.p), size=n, replace=True, p=arrays.p)
    n_m = n - n_f
    if n_f > 0 and not len(arrays.female):
        raise InfeasibleSampleError(
            f"dataset {arrays.id!r} has no female records but {n_f} women were requested"
        )
    if n_m > 0 and not len(arrays.male):
        raise InfeasibleSampleError(
            f"dataset {arrays.id!r} has no male records but {n_m} men were requested"
        )
    drawn = np.concatenate(
        [
            _weighted_draw(arrays.female, arrays.female_p, n_f, gen),
            _weighted_draw(arrays.male, arrays.male_p, n_m, gen),
        ]
    )
    return drawn[permutation(n, gen)]


def draw_sample(
    ds: NameDataset,
    n: int,
    rng: RandomSource,
    mode: str = PROPORTIONAL,
    perc_fs: float | None = None,
) -> Sample:
    """Draw ``n`` individuals from ``ds``.

    Proportional mode draws every position independently with probability
    proportional to record count over the whole dataset; arrival order is
    already random. Stratified mode draws exactly
    :func:`stratified_female_count` women from the female records and the
    rest from the male records (each side weighted by within-gender
    counts), then Fisher-Yates shuffles the combined list.
    """
    if n <= 0:
        raise ValueError("sample size n must be >= 1")
    if mode == PROPORTIONAL:
        if perc_fs is not None:
            raise ValueError("perc_fs only applies to stratified mode")
        n_f = None
    elif mode == STRATIFIED:
        if perc_fs is None:
            raise ValueError("stratified mode needs perc_fs")
        if not 0.0 <= perc_fs <= 1.0:
            raise ValueError(f"perc_fs must lie in [0, 1], got {perc_fs}")
        n_f = stratified_female_count(perc_fs, n)
    else:
        raise ValueError(f"unknown sampling mode {mode!r}")
    indices = draw_indices(dataset_arrays(ds), n, rng.generator, n_f)
    records = ds.records
    individuals = tuple(Individual(records[i].name, records[i].gender) for i in indices.tolist())
    provenance = SampleProvenance(ds.id, rng.seed, rng.stream_index, mode)
    return Sample(individuals, perc_fs, provenance)


def dump_sample_csv(individuals, fh) -> None:
    """Write individuals as ``position,name,gender`` rows (1-based)."""
    writer = csv.writer(fh, lineterminator="\n")
    writer.writerow(SAMPLE_HEADER)
    for position, ind in enumerate(individuals, start=1):
        writer.writerow([position, ind.name, ind.gender.value])


def write_sample_csv(individuals, path) -> None:
    with Path(path).open("w", encoding="utf-8", newline="") as fh:
        dump_sample_csv(individuals, fh)


def read_sample_csv(path) -> tuple[Individual, ...]:
    """Read a ``position,name,gender`` file back into individuals.

    Positions must run 1..N in file order; any gap or reordering means
    the file was not produced by this pipeline and is rejected.
    """
    path = Path(path)
    individuals: list[Individual] = []
    with path.open(encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header != SAMPLE_HEADER:
            raise DatasetFormatError(
                f"expected header {','.join(SAMPLE_HEADER)!r}, got {header}",
                path=path,
                line=1,
            )
        for row in reader:
            if not row:
                continue
            line = reader.line_num
            if len(row) != 3:
                raise DatasetFormatError(
                    f"expected 3 fields, got {len(row)}", path=path, line=line
                )
            position_text, name, gender_text = row
            if not position_text.strip().isdigit() or int(position_text) != len(individuals) + 1:
                raise DatasetFormatError(
                    f"expected position {len(individuals) + 1}, got {position_text!r}",
                    path=path,
                    line=line,
                )
            if not name:
                raise DatasetFormatError("name must be non-empty", path=path, line=line)
            try:
                gender = Gender.parse(gender_text)
            except ValueError as exc:
                raise DatasetFormatError(str(exc), path=path, line=line) from None
            individuals.append(Individual(name, gender))
    if not individuals:
        raise DatasetFormatError("sample file has no rows", path=path)
    return tuple(individuals)
