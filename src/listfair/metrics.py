"""Prefix-proportion curves, the rND metric, parity tests, page audits.

The central quantity is the female share of the first k positions of a
displayed list, ``Perc_f(k)``. rND (normalized discounted difference)
accumulates, at checkpoints k = step, 2*step, ..., the absolute gap
between that prefix share and the female share of the whole list,
discounting checkpoint k by 1/log2(k):

    raw = sum over checkpoints of |Perc_f(k) - Perc_f(N)| / log2(k)

The last checkpoint is N itself when N is not a multiple of the step, so
the whole list always closes the sum. ``raw / Z`` is the reported score;
0 is fairest, and with the theoretical normalizer the worst possible
arrangement of the same list scores 1.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from listfair.errors import SampleTooSmallError
from listfair.ordering import sort_alphabetical

THEORETICAL = "theoretical"
FIXED = "fixed"

PARITY_ALPHA = 0.05

AUDIT_HEADER = ["list_id", "size", "perc_fd", "k1", "perc_f", "flag"]
BELOW = "below"
AT_OR_ABOVE = "at_or_above"


def perc_f_curve(mask: np.ndarray) -> np.ndarray:
    """Female share of positions 1..k for every k, from the female mask
    of a list in display order; ``curve[k - 1]`` is ``Perc_f(k)``."""
    if len(mask) == 0:
        raise ValueError("curve needs at least one individual")
    return np.cumsum(mask) / np.arange(1, len(mask) + 1)


def rnd_checkpoints(n: int, step: int = 10) -> list[int]:
    """Checkpoint positions: step, 2*step, ..., plus N when N is not a
    multiple of the step. The step must be at least 2, since checkpoint
    k = 1 would be discounted by 1/log2(1)."""
    if step < 2:
        raise ValueError(f"step must be >= 2, got {step}")
    if n < step:
        raise SampleTooSmallError(
            f"list of size {n} is shorter than the first checkpoint (step={step})"
        )
    ks = list(range(step, n + 1, step))
    if n % step:
        ks.append(n)
    return ks


@lru_cache(maxsize=256)
def _discounted_checkpoints(n: int, step: int) -> tuple[np.ndarray, np.ndarray]:
    ks = rnd_checkpoints(n, step)
    # math.log2 per k, not np.log2: the two differ in the last bit for
    # some k, and raw values must not depend on the vector path
    discounts = np.array([1.0 / math.log2(k) for k in ks])
    ks = np.array(ks)
    ks.flags.writeable = False
    discounts.flags.writeable = False
    return ks, discounts


@dataclass(frozen=True)
class RndCheckpoint:
    k: int
    discount: float
    deviation: float
    term: float


def _rnd_terms(cumulative: np.ndarray, step: int):
    """Checkpoints, discounts, deviations and terms of rND from the
    running female count of a list."""
    n = len(cumulative)
    ks, discounts = _discounted_checkpoints(n, step)
    deviations = np.abs(cumulative[ks - 1] / ks - cumulative[-1] / n)
    return ks, discounts, deviations, discounts * deviations


def _sum_terms(terms: np.ndarray) -> float:
    # left to right like a Python loop; np.sum's pairwise summation would
    # change the last bits of raw
    return float(sum(terms.tolist()))


def rnd_raw_of_mask(mask: np.ndarray, step: int = 10) -> float:
    """Raw (unnormalized) discounted deviation sum of a list given as its
    female mask in display order."""
    return _sum_terms(_rnd_terms(np.cumsum(mask), step)[3])


def rnd_theoretical_normalizer(n: int, n_f: int, step: int = 10) -> float:
    """Largest raw value any arrangement of n_f women among n can reach.

    The maximum is attained by one of the two extreme arrangements (all
    women first or all women last), so only those two are evaluated. For
    the degenerate single-gender cases (n_f of 0 or n) every arrangement
    scores 0 and the normalizer is 0; callers report a normalized 0.
    """
    if not 0 <= n_f <= n:
        raise ValueError(f"n_f={n_f} outside 0..{n}")
    positions = np.arange(1, n + 1)
    women_first = np.minimum(positions, n_f)
    women_last = np.maximum(positions - (n - n_f), 0)
    raw_first = _sum_terms(_rnd_terms(women_first, step)[3])
    raw_last = _sum_terms(_rnd_terms(women_last, step)[3])
    return max(raw_first, raw_last)


@dataclass(frozen=True)
class RndReport:
    checkpoints: tuple[RndCheckpoint, ...]
    raw: float
    z: float
    mode: str
    normalized: float


def rnd(mask: np.ndarray, step: int = 10, z: float | None = None) -> RndReport:
    """Full rND report for one list, given as its female mask in display
    order.

    Without ``z``, Z is the theoretical worst-arrangement bound for this
    list's size and composition (mode "theoretical"); a given z must be
    finite and > 0 (mode "fixed"). A theoretical Z of zero (a
    single-gender list) reports a normalized 0 by convention.
    """
    terms = _rnd_terms(np.cumsum(mask), step)
    checkpoints = tuple(
        RndCheckpoint(k, discount, deviation, term)
        for k, discount, deviation, term in zip(*(a.tolist() for a in terms))
    )
    raw = _sum_terms(terms[3])
    if z is None:
        mode, z = THEORETICAL, rnd_theoretical_normalizer(len(mask), int(mask.sum()), step)
    elif z <= 0:
        raise ValueError("fixed normalizer needs z > 0")
    elif not math.isfinite(z):
        raise ValueError(f"fixed normalizer needs a finite z, got {z}")
    else:
        mode = FIXED
    normalized = 0.0 if z == 0 else raw / z
    return RndReport(checkpoints, raw, float(z), mode, float(normalized))


@dataclass(frozen=True)
class ParityReport:
    perc_f_sample: float
    perc_f_reference: float
    p_value: float
    passes: bool


def binomial_two_sided_p(k: int, n: int, p: float) -> float:
    """Exact two-sided binomial test p-value, as ``scipy.stats.binomtest``
    defines it: the probability of every count no more likely than ``k``
    under Binomial(n, p), with a relative slack of 1e-7 on "no more
    likely" so that rounding cannot split ties."""
    if k == p * n:
        return 1.0
    counts = np.arange(n + 1)
    if p in (0.0, 1.0):
        pmf = (counts == round(p * n)).astype(float)
    else:
        log_choose = np.array(
            [math.lgamma(n + 1) - math.lgamma(x + 1) - math.lgamma(n - x + 1) for x in range(n + 1)]
        )
        pmf = np.exp(log_choose + counts * math.log(p) + (n - counts) * math.log1p(-p))
    return min(1.0, float(pmf[pmf <= pmf[k] * (1 + 1e-7)].sum()))


def statistical_parity(mask: np.ndarray, reference: float) -> ParityReport:
    """Two-sided exact binomial test of a list's female count, given its
    female mask, against the reference female share; passes when
    p >= 0.05."""
    n = len(mask)
    if n == 0:
        raise ValueError("parity test needs at least one individual")
    females = int(mask.sum())
    p_value = binomial_two_sided_p(females, n, reference)
    return ParityReport(females / n, reference, p_value, p_value >= PARITY_ALPHA)


@dataclass(frozen=True)
class PageAuditRow:
    """First-page female shares of one list at several page sizes, each
    flagged against the expected share ``perc_fd``."""

    list_id: str
    size: int
    perc_fd: float
    per_k1: dict[int, float]
    flags: dict[int, str]


def page_audit(names, mask: np.ndarray, k1_values, perc_fd: float, list_id: str = "list") -> PageAuditRow:
    """Audit the first page of a list once it is sorted alphabetically.

    ``names`` and the female ``mask`` describe the list in any order. For
    each page size k1, reports the female share of sorted positions
    1..k1 and flags it "below" when it is under ``perc_fd``.
    """
    curve = perc_f_curve(mask[sort_alphabetical(names)])
    per_k1: dict[int, float] = {}
    flags: dict[int, str] = {}
    for k1 in sorted(set(k1_values)):
        if k1 < 1:
            raise ValueError("page size k1 must be >= 1")
        if k1 > len(curve):
            raise ValueError(f"page size k1={k1} exceeds list size {len(curve)}")
        share = float(curve[k1 - 1])
        per_k1[k1] = share
        flags[k1] = BELOW if share < perc_fd else AT_OR_ABOVE
    return PageAuditRow(list_id, len(curve), perc_fd, per_k1, flags)


def dump_audit_rows(rows, fh) -> None:
    writer = csv.writer(fh, lineterminator="\n")
    writer.writerow(AUDIT_HEADER)
    for row in rows:
        for k1 in sorted(row.per_k1):
            writer.writerow(
                [row.list_id, row.size, row.perc_fd, k1, row.per_k1[k1], row.flags[k1]]
            )


def dump_curve_csv(curve: np.ndarray, fh) -> None:
    writer = csv.writer(fh, lineterminator="\n")
    writer.writerow(["k", "perc_f"])
    for k, value in enumerate(curve, start=1):
        writer.writerow([k, float(value)])
