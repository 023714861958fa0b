"""Exact expectations of the percf experiment's mean curves and of the
rnd_size experiment's mean raw rND.

A proportional sample is n independent draws, each record with
probability count / total. Sorting it alphabetically groups the records
by collation key. Let F_g be the probability that one draw lands in the
groups 0..g (F_{-1} = 0). Sorted position j (1-based) falls in group g
exactly when fewer than j draws land before g and at least j land in the
groups up to g:

    P(j in g) = B(j-1; n, F_{g-1}) - B(j-1; n, F_g),

with B the binomial CDF. Inside a group the stable sort keeps draw order,
and the draws are exchangeable, so position j is female with the group's
female share q_g (by count). Hence

    E[Perc_f(k)] = (1/k) * sum_{j<=k} sum_g q_g * P(j in g).

Under random order every position is one draw, so E[Perc_f(k)] is the
dataset's female share at every k. scipy is a test dependency only, so
this lives with the tests.

Raw rND has no such closed form, so E[raw rND] sums it over every
ordered draw, weighted by the draw's probability: len(ds.names) ** n
draws, exact up to float rounding.
"""

from __future__ import annotations

import itertools
import math

import numpy as np
from scipy.stats import binom

from helpers import oracle_raw
from listfair.ordering import collation_key


def expected_alphabetical_curve(ds, n: int) -> np.ndarray:
    """E[Perc_f(k)] for k = 1..n of a proportional sample of ``n`` drawn
    from the dataset ``ds`` and sorted alphabetically."""
    ranks = ds.rank
    # exact: integer sums below 2**53 are exact in float64
    group_count = np.bincount(ranks, weights=ds.counts)
    group_female = np.bincount(ranks, weights=ds.counts * ds.is_female, minlength=len(group_count))
    share = group_female / group_count
    below = np.concatenate([[0.0], np.cumsum(group_count) / ds.total_count])
    # cdf[j - 1, g] = B(j - 1; n, F_{g - 1}) for j = 1..n and g = 0..G
    cdf = binom.cdf(np.arange(n)[:, None], n, below[None, :])
    in_group = cdf[:, :-1] - cdf[:, 1:]
    return np.cumsum(in_group @ share) / np.arange(1, n + 1)


def expected_rnd(ds, n: int, step: int) -> float:
    """E[raw rND] of a proportional sample of ``n`` drawn from the
    dataset ``ds`` and sorted alphabetically, by enumeration."""
    p = [count / ds.total_count for count in ds.counts.tolist()]
    genders = ["F" if female else "M" for female in ds.is_female.tolist()]
    keys = [collation_key(name) for name in ds.names]
    total = 0.0
    for draw in itertools.product(range(len(p)), repeat=n):
        # sorted() is stable: equal keys keep their draw order
        ordered = sorted(draw, key=keys.__getitem__)
        total += math.prod(p[i] for i in draw) * oracle_raw([genders[i] for i in ordered], step)
    return total
