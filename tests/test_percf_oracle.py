"""The percf experiment's mean curves against their exact expectations
(``oracles.expected_alphabetical_curve``), and that formula against
exhaustive enumeration of every ordered draw."""

import itertools
import math

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from listfair.experiments import PERCF, ExperimentConfig, run_datasets, _sample_stream
from listfair.metrics import perc_f_curve
from listfair.ordering import alphabetical_order, collation_key
from listfair.sampling import draw_sample
from listfair.streams import random_stream

from helpers import dataset_from_counts
from oracles import expected_alphabetical_curve


def enumerated_curves(ds, n: int) -> tuple[np.ndarray, np.ndarray]:
    """E[Perc_f(k)] under random and under alphabetical order, summed over
    every ordered draw of ``n`` records weighted by its probability."""
    p = [count / ds.total_count for count in ds.counts.tolist()]
    female = ds.is_female.tolist()
    keys = [collation_key(name) for name in ds.names]
    positions = np.arange(1, n + 1)
    random, alphabetical = np.zeros(n), np.zeros(n)
    for draw in itertools.product(range(len(p)), repeat=n):
        weight = math.prod(p[i] for i in draw)
        # sorted() is stable: equal keys keep their draw order
        ordered = sorted(draw, key=keys.__getitem__)
        random += weight * np.cumsum([female[i] for i in draw]) / positions
        alphabetical += weight * np.cumsum([female[i] for i in ordered]) / positions
    return random, alphabetical


# the two-sided tail of the standard normal beyond 5
Z5_TAIL = math.erfc(5 / math.sqrt(2))

# spellings that share a collation key, so records tie across genders
TIED_NAMES = ["ALEX", "alex", "Álex", "Bo", "bo"]
records = st.lists(
    st.tuples(st.sampled_from(TIED_NAMES), st.sampled_from("FM"), st.integers(1, 9)),
    min_size=1,
    max_size=5,
    unique_by=lambda row: row[:2],
)


@settings(max_examples=60, deadline=None)
@given(records, st.integers(1, 4))
@example([("ALEX", "F", 3), ("alex", "M", 2), ("Bo", "F", 1), ("bo", "M", 4), ("Álex", "M", 1)], 4)
def test_expected_curve_matches_enumeration(rows, n):
    ds = dataset_from_counts(rows)
    random, alphabetical = enumerated_curves(ds, n)
    assert np.abs(expected_alphabetical_curve(ds, n) - alphabetical).max() <= 1e-12
    assert np.abs(random - ds.perc_f).max() <= 1e-12


def check_percf_means(ds, cfg):
    """run_datasets("percf")'s mean curves against the exact ones."""
    result = run_datasets(PERCF, [ds], cfg)
    mean_random = np.array([row["mean_random"] for row in result.curves])
    mean_alphabetical = np.array([row["mean_alphabetical"] for row in result.curves])

    # the per-sample curves the means are taken over, drawn again
    random_curves, alphabetical_curves = [], []
    for i in range(cfg.samples_per_cell):
        indices = draw_sample(ds, cfg.n, random_stream(cfg.seed, _sample_stream(PERCF, 0, i)))
        random_curves.append(perc_f_curve(ds.is_female[indices]))
        sorted_indices = indices[alphabetical_order(ds.rank[indices])]
        alphabetical_curves.append(perc_f_curve(ds.is_female[sorted_indices]))

    exact_alphabetical = expected_alphabetical_curve(ds, cfg.n)
    for curves, mean, exact in (
        (random_curves, mean_random, np.full(cfg.n, ds.perc_f)),
        (alphabetical_curves, mean_alphabetical, exact_alphabetical),
    ):
        curves = np.array(curves)
        assert np.array_equal(curves.mean(axis=0), mean)
        sd = curves.std(axis=0, ddof=1)
        varies = sd > 0
        z = np.abs(mean - exact)[varies] / (sd[varies] / math.sqrt(cfg.samples_per_cell))
        assert z.max() <= 5
        # Where every sample agrees, the mean cannot come near a small
        # non-zero expectation: its steps are 1 / (samples * k). Perc_f(k)
        # lies in [0, 1], so it is 0 with probability at most 1 - E and 1
        # with probability at most E; all samples agreeing on it must not
        # be rarer than a z of 5.
        agreed = curves[0][~varies]
        assert np.all((agreed == 0) | (agreed == 1))
        chance = np.where(agreed == 0, 1 - exact[~varies], exact[~varies]) ** cfg.samples_per_cell
        assert np.all(chance >= Z5_TAIL)


def test_percf_means_match_the_exact_curves(fixture_dataset):
    check_percf_means(fixture_dataset, ExperimentConfig(seed=42))


def test_percf_means_match_the_exact_curves_at_a_second_seed(fixture_dataset):
    check_percf_means(fixture_dataset, ExperimentConfig(seed=2020))


# early female names, then male ones, then a female one: the expected
# alphabetical share starts above the dataset share of 0.5 and dips below it
CROSSING = dataset_from_counts([("Ana", "F", 30), ("Bia", "M", 40), ("Caio", "M", 10), ("Dora", "F", 20)])


def test_percf_means_match_a_curve_that_crosses_its_share():
    exact = expected_alphabetical_curve(CROSSING, 20)
    assert exact.max() > CROSSING.perc_f + 0.4 and exact.min() < CROSSING.perc_f - 0.05
    check_percf_means(CROSSING, ExperimentConfig(n=20, seed=42))
