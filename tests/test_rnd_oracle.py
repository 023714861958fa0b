"""The rnd_size experiment's mean raw rND against its exact expectation
(``oracles.expected_rnd``)."""

import math

import pytest

from listfair.experiments import RND_SIZE, ExperimentConfig, run_datasets

from helpers import dataset_from_counts
from oracles import expected_rnd

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
