"""Alphabetical ordering and pagination.

Collation is deliberately simple and locale-free: canonical decomposition,
combining marks stripped, upper-cased, compared by plain code point. That
captures the gross letter grouping real portals produce ("José" files
under JOSE) without locale tables; a portal with exotic collation rules
should pre-normalize its input instead.
"""

from __future__ import annotations

import csv
import math
import unicodedata
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from listfair.sampling import Individual, SampleProvenance

PAGE_HEADER = ["page", "position", "name", "gender"]

RANDOM = "random"
ALPHABETICAL = "alphabetical"


@lru_cache(maxsize=None)
def collation_key(name: str) -> str:
    """Case- and accent-insensitive sort key for a name."""
    if name.isascii():
        # ASCII is already in NFD and has no combining marks
        return name.upper()
    decomposed = unicodedata.normalize("NFD", name)
    stripped = "".join(ch for ch in decomposed if unicodedata.category(ch) != "Mn")
    return stripped.upper()


@dataclass(frozen=True)
class OrderedSample:
    """Individuals in a specific display order (random or alphabetical)."""

    individuals: tuple[Individual, ...]
    ordering: str
    source: SampleProvenance | None = None

    @property
    def n(self) -> int:
        return len(self.individuals)


def _provenance_of(obj) -> SampleProvenance | None:
    return getattr(obj, "provenance", None) or getattr(obj, "source", None)


def as_random_order(sample) -> OrderedSample:
    """Wrap a sample in its arrival order, which is already random."""
    return OrderedSample(tuple(sample.individuals), RANDOM, _provenance_of(sample))


def dense_rank(keys) -> np.ndarray:
    """Rank of each key among the distinct keys in sorted order; equal
    keys share a rank, so ranks compare exactly as the keys do."""
    rank_of = {key: r for r, key in enumerate(sorted(set(keys)))}
    return np.fromiter((rank_of[key] for key in keys), dtype=np.intp, count=len(keys))


def collation_ranks(names) -> np.ndarray:
    """Dense rank of each name's collation key.

    Built once per dataset, so it calls the uncached key function: the
    cache would otherwise keep an entry for every name of a large
    registry.
    """
    return dense_rank([collation_key.__wrapped__(name) for name in names])


def alphabetical_order(ranks: np.ndarray) -> np.ndarray:
    """Positions that put ``ranks`` in order; the sort is stable, so
    equal ranks keep their arrival order."""
    return np.argsort(ranks, kind="stable")


def sort_alphabetical(sample) -> OrderedSample:
    """Sort by collation key; the sort is stable, so equal keys keep
    their arrival order. Accepts a sample, an ordered sample, or any
    sequence of individuals."""
    individuals = tuple(getattr(sample, "individuals", sample))
    order = alphabetical_order(dense_rank([collation_key(ind.name) for ind in individuals]))
    ordered = tuple(individuals[i] for i in order.tolist())
    return OrderedSample(ordered, ALPHABETICAL, _provenance_of(sample))


@dataclass(frozen=True)
class Page:
    """One screen of a paginated list; ``index`` is 1-based."""

    index: int
    individuals: tuple[Individual, ...]
    k1: int


def paginate(ordered: OrderedSample, k1: int) -> list[Page]:
    """Split into ceil(N / k1) pages of ``k1`` rows (last page may be short)."""
    if k1 < 1:
        raise ValueError("page size k1 must be >= 1")
    individuals = ordered.individuals
    return [
        Page(p + 1, individuals[p * k1 : (p + 1) * k1], k1)
        for p in range(math.ceil(len(individuals) / k1))
    ]


def dump_pages_csv(pages, fh) -> None:
    """Write pages as ``page,position,name,gender`` rows; positions are
    global (1-based over the whole list), so concatenating pages
    reproduces it."""
    writer = csv.writer(fh, lineterminator="\n")
    writer.writerow(PAGE_HEADER)
    position = 0
    for page in pages:
        for ind in page.individuals:
            position += 1
            writer.writerow([page.index, position, ind.name, ind.gender.value])
