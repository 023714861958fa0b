"""The rnd_size and rnd_grid experiments' mean raw rND against their
exact expectations (``oracles.expected_rnd`` and
``oracles.expected_stratified_rnd``)."""

import itertools
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from listfair.experiments import RND_GRID, RND_SIZE, ExperimentConfig, run_datasets
from listfair.ordering import collation_key

from helpers import dataset_from_counts, oracle_raw
from oracles import expected_rnd, expected_stratified_rnd, tie_order_mean

# ALEX and alex share a collation key but not a gender
TIED = dataset_from_counts(
    [("ALEX", "F", 3), ("alex", "M", 2), ("Bea", "F", 4), ("Bo", "M", 5), ("Zed", "F", 1)]
)
# 5 % 2 adds a last checkpoint at n; 6 % 2 does not
SIZES, STEP = (5, 6), 2


def test_expected_rnd_of_the_tied_dataset():
    assert round(expected_rnd(TIED, 6, STEP), 6) == 0.330016


@pytest.mark.parametrize("seed", [7, 2020])
def test_rnd_size_means_match_the_exact_expectation(seed):
    cfg = ExperimentConfig(samples_per_cell=20000, size_grid=list(SIZES), step=STEP, seed=seed)
    result = run_datasets(RND_SIZE, [TIED], cfg)
    for n, row in zip(SIZES, result.aggregates):
        assert row["n"] == n
        error = row["std_raw"] / math.sqrt(row["n_samples"])
        assert abs(row["mean_raw"] - expected_rnd(TIED, n, STEP)) <= 5 * error


# at n = 5, 0.3 * 5 = 1.5 women round half up to 2
SHARES, STRATIFIED_N = (0.3,), 5


def test_expected_stratified_rnd_of_the_tied_dataset():
    # 9 female draws x 8 male draws x 120 shuffles, averaged by brute force
    assert round(expected_stratified_rnd(TIED, STRATIFIED_N, 0.3, STEP), 6) == 0.346585


@pytest.mark.parametrize("seed", [7, 2020])
def test_rnd_grid_means_match_the_exact_expectation(seed):
    cfg = ExperimentConfig(samples_per_cell=20000, n=STRATIFIED_N, perc_fs_grid=list(SHARES), step=STEP, seed=seed)
    result = run_datasets(RND_GRID, [TIED], cfg)
    for share, row in zip(SHARES, result.aggregates):
        assert row["perc_fs"] == share
        error = row["std_raw"] / math.sqrt(row["n_samples"])
        assert abs(row["mean_raw"] - expected_stratified_rnd(TIED, STRATIFIED_N, share, STEP)) <= 5 * error


# three names whose collation keys tie, across genders, and one more pair
POOL = dataset_from_counts([("ALEX", "F", 1), ("alex", "M", 1), ("Alex", "F", 1), ("Bea", "F", 1), ("bea", "M", 1)])


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(min_value=0, max_value=len(POOL.names) - 1), min_size=STEP, max_size=5))
def test_tie_orders_average_every_shuffle(draw):
    keys = [collation_key(name) for name in POOL.names]
    genders = ["F" if female else "M" for female in POOL.is_female.tolist()]
    shuffles = list(itertools.permutations(draw))
    # sorted() is stable: equal keys keep their shuffled order
    brute = sum(oracle_raw([genders[i] for i in sorted(order, key=keys.__getitem__)], STEP) for order in shuffles)
    assert tie_order_mean(draw, keys, genders, STEP) == pytest.approx(brute / len(shuffles), rel=1e-12, abs=1e-15)
