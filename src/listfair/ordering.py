"""Alphabetical ordering.

Collation is deliberately simple and locale-free: canonical decomposition,
combining marks stripped, upper-cased, compared by plain code point. That
captures the gross letter grouping real portals produce ("José" files
under JOSE) without locale tables; a portal with exotic collation rules
should pre-normalize its input instead.
"""

from __future__ import annotations

import unicodedata

import numpy as np


def collation_key(name: str) -> str:
    """Case- and accent-insensitive sort key for a name."""
    if name.isascii():
        # ASCII is already in NFD and has no combining marks
        return name.upper()
    decomposed = unicodedata.normalize("NFD", name)
    stripped = "".join(ch for ch in decomposed if unicodedata.category(ch) != "Mn")
    return stripped.upper()


def dense_rank(keys) -> np.ndarray:
    """Rank of each key among the distinct keys in sorted order; equal
    keys share a rank, so ranks compare exactly as the keys do."""
    rank_of = {key: r for r, key in enumerate(sorted(set(keys)))}
    return np.fromiter((rank_of[key] for key in keys), dtype=np.intp, count=len(keys))


def collation_ranks(names) -> np.ndarray:
    """Dense rank of each name's collation key."""
    return dense_rank([collation_key(name) for name in names])


def alphabetical_order(ranks: np.ndarray) -> np.ndarray:
    """Positions that put ``ranks`` in order; the sort is stable, so
    equal ranks keep their arrival order."""
    return np.argsort(ranks, kind="stable")


def sort_alphabetical(names) -> np.ndarray:
    """Positions that put ``names`` in collation order, equal keys in
    arrival order: ``names[i] for i in sort_alphabetical(names)`` is the
    sorted list."""
    return alphabetical_order(collation_ranks(names))
