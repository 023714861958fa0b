"""Alphabetical ordering.

Collation is deliberately simple and locale-free: canonical decomposition,
combining marks stripped, upper-cased, compared by plain code point. That
captures the gross letter grouping real portals produce ("José" files
under JOSE) without locale tables; a portal with exotic collation rules
should pre-normalize its input instead.
"""

from __future__ import annotations

import operator
import unicodedata

import numpy as np


def collation_key(name: str) -> str:
    """Case- and accent-insensitive sort key for a name."""
    decomposed = unicodedata.normalize("NFD", name)
    stripped = "".join(ch for ch in decomposed if unicodedata.category(ch) != "Mn")
    return stripped.upper()


def _dense_rank(keys) -> np.ndarray:
    """Rank of each key among the distinct keys in sorted order; equal
    keys share a rank, so ranks compare exactly as the keys do. The ranks
    have the narrowest unsigned dtype that holds them: a stable sort
    depends only on their order, and numpy sorts keys of 16 bits or
    fewer by radix."""
    order = sorted(range(len(keys)), key=keys.__getitem__)
    ordered = list(map(keys.__getitem__, order))
    # a key opens a new rank where it differs from the one before it
    steps = np.zeros(len(keys), dtype=np.intp)
    steps[1:] = np.fromiter(map(operator.ne, ordered[1:], ordered), dtype=bool)
    steps = steps.cumsum()
    ranks = np.empty(len(keys), dtype=np.min_scalar_type(steps[-1] if len(keys) else 0))
    ranks[order] = steps
    return ranks


def collation_ranks(names) -> np.ndarray:
    """Dense rank of each name's collation key."""
    # ASCII is already in NFD and has no combining marks: its key is upper()
    return _dense_rank([name.upper() if name.isascii() else collation_key(name) for name in names])


def alphabetical_order(ranks: np.ndarray) -> np.ndarray:
    """Positions that put ``ranks`` in order, along the last axis; the
    sort is stable, so equal ranks keep their arrival order."""
    return np.argsort(ranks, axis=-1, kind="stable")


def sort_alphabetical(names) -> np.ndarray:
    """Positions that put ``names`` in collation order, equal keys in
    arrival order: ``names[i] for i in sort_alphabetical(names)`` is the
    sorted list."""
    return alphabetical_order(collation_ranks(names))
