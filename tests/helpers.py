"""Shared test utilities and independent oracles.

The oracles here recompute curve and rND values from first principles
(plain Python loops, exhaustive enumeration) so the library's vectorized
implementations are checked against something written separately.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from listfair.dataset import Gender, NameDataset


def mask_from_pattern(pattern: str) -> np.ndarray:
    """Female mask of a gender string like ``"FMMF"``."""
    return np.array([ch == "F" for ch in pattern], dtype=bool)


def dataset_from_counts(rows, dataset_id="test") -> NameDataset:
    """A dataset from ``(name, "F" or "M", count)`` rows."""
    names, genders, counts = zip(*rows)
    return NameDataset.from_columns(
        dataset_id, names, [Gender(g) is Gender.FEMALE for g in genders], counts
    )


def oracle_curve(genders) -> list[float]:
    """Prefix female proportions, computed the slow obvious way."""
    values = []
    women = 0
    for k, g in enumerate(genders, start=1):
        if g == "F":
            women += 1
        values.append(women / k)
    return values


def oracle_checkpoints(n: int, step: int) -> list[int]:
    ks = list(range(step, n + 1, step))
    if n % step != 0:
        ks.append(n)
    return ks


def oracle_raw(genders, step: int = 10) -> float:
    """rND raw value from its definition, no shared code with the library."""
    n = len(genders)
    n_f = sum(1 for g in genders if g == "F")
    overall = n_f / n
    total = 0.0
    for k in oracle_checkpoints(n, step):
        women_k = sum(1 for g in genders[:k] if g == "F")
        total += (1.0 / math.log2(k)) * abs(women_k / k - overall)
    return total


def oracle_max_raw(n: int, n_f: int, step: int = 10) -> float:
    """Exhaustive maximum of raw rND over every arrangement of n_f women."""
    best = 0.0
    for positions in itertools.combinations(range(n), n_f):
        genders = ["M"] * n
        for p in positions:
            genders[p] = "F"
        best = max(best, oracle_raw(genders, step))
    return best


def chi_square_statistic(observed, expected) -> float:
    return sum((o - e) ** 2 / e for o, e in zip(observed, expected))
