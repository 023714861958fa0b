"""Shared test utilities and independent oracles.

The oracles here recompute curve and rND values from first principles
(plain Python loops, exhaustive enumeration) so the library's vectorized
implementations are checked against something written separately.
"""

from __future__ import annotations

import itertools
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

import listfair
from listfair.dataset import NameDataset
from listfair.sampling import stratified_female_count
from listfair.stats import BLOCK


def mask_from_pattern(pattern: str) -> np.ndarray:
    """Female mask of a gender string like ``"FMMF"``."""
    return np.array([ch == "F" for ch in pattern], dtype=bool)


def dataset_from_counts(rows, dataset_id="test") -> NameDataset:
    """A dataset from ``(name, "F" or "M", count)`` rows."""
    names, genders, counts = zip(*rows)
    return NameDataset.from_columns(dataset_id, names, [g == "F" for g in genders], counts)


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


def reference_bootstrap_ci(values, level: float, resamples: int, stream) -> tuple[float, float]:
    """``stats.bootstrap_ci`` as a plain loop: blocks of ``BLOCK // size``
    resamples drawn with numpy's ``Generator.integers`` over ``stream``,
    gathered by fancy indexing and averaged with ``mean``."""
    rng = np.random.Generator(stream)
    values = np.asarray(values, dtype=float)
    size = values.size
    rows = max(1, BLOCK // size)
    means = np.empty(resamples)
    for start in range(0, resamples, rows):
        stop = min(start + rows, resamples)
        indices = rng.integers(0, size, size=(stop - start, size))
        means[start:stop] = values[indices].mean(axis=1)
    lower, upper = np.quantile(means, [(1.0 - level) / 2.0, (1.0 + level) / 2.0]).tolist()
    return lower, upper


def reference_draw_sample(ds: NameDataset, n: int, stream, perc_fs: float | None = None) -> np.ndarray:
    """One sample as ``sampling.draw_samples`` draws each row, one sample
    at a time, with numpy's ``Generator`` over ``stream``: weighted draws
    by ``searchsorted`` into cdfs built here from ``ds.counts`` and
    ``ds.is_female``, as ``Generator.choice`` builds them from its ``p``,
    then, for a stratified sample, a Fisher-Yates shuffle that runs its
    swaps in a Python loop. None of the dataset's draw tables is read."""
    rng = np.random.Generator(stream)

    def draw(records: np.ndarray, size: int) -> np.ndarray:
        # a draw of size 0 reads no weights and draws no uniforms
        if not size:
            return records[:0]
        weights = ds.counts[records].astype(float)
        cdf = (weights / weights.sum()).cumsum()
        cdf /= cdf[-1]
        return records[cdf.searchsorted(rng.random(size), side="right")]

    if perc_fs is None:
        return draw(np.arange(len(ds.counts)), n)
    n_f = stratified_female_count(perc_fs, n)
    drawn = np.concatenate([draw(np.flatnonzero(ds.is_female), n_f), draw(np.flatnonzero(~ds.is_female), n - n_f)])
    perm = list(range(n))
    for i, j in zip(range(n - 1, 0, -1), rng.integers(0, np.arange(n, 1, -1)).tolist()):
        perm[i], perm[j] = perm[j], perm[i]
    return drawn[perm]


def run_python(args, command=(sys.executable,), **kwargs):
    # the child imports the same package as this process, installed or not
    src = str(Path(listfair.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [*command, *args],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
        **kwargs,
    )
