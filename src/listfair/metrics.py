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
arrangement of the same list scores 1. The functions here compute on
masks in memory and return plain values: :mod:`listfair.dataset` reads
list files and writes curves and audits.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from listfair import FIXED, THEORETICAL
from listfair.errors import SampleTooSmallError
from listfair.ordering import sort_alphabetical

_PARITY_ALPHA = 0.05


def _bool_mask(mask, block: bool = False) -> np.ndarray:
    """``mask`` as an array, which must have bool dtype, as the sums would
    count any other entries by value, giving ``[2, 0, 1]`` the curve
    ``[2.0, 1.0, 1.0]``. It must be one list (1-D) or, where ``block``,
    one list per row (2-D)."""
    mask = np.asarray(mask)
    if mask.dtype != bool:
        raise ValueError(f"mask must have bool dtype, got {mask.dtype}")
    if not (mask.ndim == 1 or (block and mask.ndim == 2)):
        raise ValueError(f"mask must be {'1-D or 2-D' if block else '1-D'}, got {mask.ndim} dimensions")
    return mask


def _integer(value, name: str):
    """``value``, which must be an integer and not a bool."""
    if not isinstance(value, (int, np.integer)) or isinstance(value, bool):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return value


def perc_f_curve(mask: np.ndarray) -> np.ndarray:
    """Female share of positions 1..k for every k, from the female mask
    of a list in display order; ``curve[k - 1]`` is ``Perc_f(k)``. A 2-D
    mask holds one list per row and gives one curve per row."""
    mask = _bool_mask(mask, block=True)
    n = mask.shape[-1]
    if n == 0:
        raise ValueError("curve needs at least one individual")
    return np.cumsum(mask, axis=-1) / np.arange(1, n + 1)


def rnd_checkpoints(n: int, step: int) -> list[int]:
    """Checkpoint positions: step, 2*step, ..., plus N when N is not a
    multiple of the step. The step must be at least 2, since checkpoint
    k = 1 would be discounted by 1/log2(1)."""
    if _integer(step, "step") < 2:
        raise ValueError(f"step must be >= 2, got {step}")
    if n < step:
        raise SampleTooSmallError(
            f"list of size {n} is shorter than the first checkpoint (step={step})"
        )
    ks = list(range(step, n + 1, step))
    if n % step:
        ks.append(n)
    return ks


# typed, so that a float step equal to a cached integer one still reaches
# rnd_checkpoints' check
@lru_cache(maxsize=256, typed=True)
def _discounted_checkpoints(n: int, step: int) -> tuple[np.ndarray, np.ndarray]:
    ks = rnd_checkpoints(n, step)
    # math.log2 per k, not np.log2: the two differ in the last bit for
    # some k, and raw values must not depend on the vector path
    discounts = np.array([1.0 / math.log2(k) for k in ks])
    ks = np.array(ks)
    ks.flags.writeable = False
    discounts.flags.writeable = False
    return ks, discounts


def _rnd_terms(cumulative: np.ndarray, step: int):
    """Checkpoints, discounts, deviations and terms of rND from the
    running female count of a list, or of each row of a 2-D count."""
    n = cumulative.shape[-1]
    ks, discounts = _discounted_checkpoints(n, step)
    deviations = np.abs(cumulative[..., ks - 1] / ks - cumulative[..., -1:] / n)
    return ks, discounts, deviations, discounts * deviations


def _sum_terms(terms: np.ndarray) -> np.ndarray:
    # left to right along the last axis, as a plain loop adds: np.sum's
    # pairwise summation, and from Python 3.12 on sum()'s compensated
    # one, would change the last bits of raw
    return np.add.accumulate(terms, axis=-1)[..., -1]


def rnd_raw_of_mask(mask: np.ndarray, step: int = 10) -> float | np.ndarray:
    """Raw (unnormalized) discounted deviation sum of a list given as its
    female mask in display order; for a 2-D mask, an array of the raw
    value of each row."""
    raw = _sum_terms(_rnd_terms(np.cumsum(_bool_mask(mask, block=True), axis=-1), step)[3])
    return raw if raw.ndim else float(raw)


def rnd_theoretical_normalizer(n: int, n_f: int, step: int = 10) -> float:
    """Largest raw value any arrangement of n_f women among n can reach.

    The maximum is attained by one of the two extreme arrangements (all
    women first or all women last), so only those two are evaluated. For
    the degenerate single-gender cases (n_f of 0 or n) every arrangement
    scores 0 and the normalizer is 0; callers report a normalized 0.
    """
    n, n_f = _integer(n, "n"), _integer(n_f, "n_f")
    if not 0 <= n_f <= n:
        raise ValueError(f"n_f={n_f} outside 0..{n}")
    positions = np.arange(n)
    return float(rnd_raw_of_mask(np.stack([positions < n_f, positions >= n - n_f]), step).max())


def rnd(mask: np.ndarray, step: int = 10, z: float | None = None) -> dict:
    """Full rND report for one list, given as its female mask in display
    order: a dict of ``checkpoints``, ``raw``, ``z``, ``mode`` and
    ``normalized``, in that order, where each checkpoint is a dict of
    ``k``, ``discount``, ``deviation`` and ``term``.

    Without ``z``, Z is the theoretical worst-arrangement bound for this
    list's size and composition (mode "theoretical"); a given z must be
    finite and > 0 (mode "fixed"), and large enough that ``raw / z`` is
    finite. A theoretical Z of zero (a single-gender list) reports a
    normalized 0 by convention.
    """
    mask = _bool_mask(mask)
    terms = _rnd_terms(np.cumsum(mask), step)
    checkpoints = [
        {"k": k, "discount": discount, "deviation": deviation, "term": term}
        for k, discount, deviation, term in zip(*(a.tolist() for a in terms))
    ]
    raw = float(_sum_terms(terms[3]))
    if z is None:
        mode, z = THEORETICAL, rnd_theoretical_normalizer(len(mask), int(mask.sum()), step)
    elif z <= 0:
        raise ValueError("fixed normalizer needs z > 0")
    elif not math.isfinite(z):
        raise ValueError(f"fixed normalizer needs a finite z, got {z}")
    else:
        mode = FIXED
    normalized = 0.0 if z == 0 else raw / z
    if not math.isfinite(normalized):
        # a tiny fixed z overflows the quotient; JSON has no Infinity
        raise ValueError(f"fixed normalizer {z!r} is too small: raw / Z is not finite (raw {raw!r})")
    return {"checkpoints": checkpoints, "raw": raw, "z": float(z), "mode": mode, "normalized": float(normalized)}


def _binomial_two_sided_p(k: int, n: int, p: float) -> float:
    """Exact two-sided binomial test p-value, as ``scipy.stats.binomtest``
    defines it: the probability of every count no more likely than ``k``
    under Binomial(n, p), with a relative slack of 1e-7 on "no more
    likely" so that rounding cannot split ties. ``statistical_parity``, the
    one caller, checks ``p``, and its ``k`` is a mask's sum, within 0..n."""
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


def statistical_parity(mask: np.ndarray, reference: float) -> dict:
    """Two-sided exact binomial test of a list's female count, given its
    female mask, against the reference female share: a dict of
    ``perc_f_sample``, ``perc_f_reference``, ``p_value`` and ``passes``
    (p >= 0.05), in that order."""
    mask = _bool_mask(mask)
    n = len(mask)
    if n == 0:
        raise ValueError("parity test needs at least one individual")
    if not 0.0 <= reference <= 1.0:  # false for NaN
        raise ValueError(f"reference must lie in [0, 1], got {reference}")
    females = int(mask.sum())
    p_value = _binomial_two_sided_p(females, n, reference)
    return {
        "perc_f_sample": females / n,
        "perc_f_reference": reference,
        "p_value": p_value,
        "passes": p_value >= _PARITY_ALPHA,
    }


def page_audit(names, mask: np.ndarray, k1_values, perc_fd: float) -> list[tuple[int, float, bool]]:
    """Audit the first page of a list once it is sorted alphabetically.

    ``names`` and the female ``mask`` describe the list in any order. For
    each distinct page size k1, in ascending order, gives ``(k1, share,
    below)``: the female share of sorted positions 1..k1, and whether it
    is under the expected share ``perc_fd``, a share in [0, 1].
    """
    mask = _bool_mask(mask)
    if len(mask) != len(names):
        raise ValueError(f"mask has {len(mask)} entries for {len(names)} names")
    if not 0.0 <= perc_fd <= 1.0:  # false for NaN
        raise ValueError(f"perc_fd must lie in [0, 1], got {perc_fd}")
    k1_values = [_integer(k1, "page size k1") for k1 in k1_values]
    curve = perc_f_curve(mask[sort_alphabetical(names)])
    rows = []
    for k1 in sorted(set(k1_values)):
        if k1 < 1:
            raise ValueError("page size k1 must be >= 1")
        if k1 > len(curve):
            raise ValueError(f"page size k1={k1} exceeds list size {len(curve)}")
        share = float(curve[k1 - 1])
        rows.append((k1, share, share < perc_fd))
    return rows
