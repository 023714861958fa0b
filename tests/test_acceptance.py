"""Acceptance suite: ten end-to-end criteria, one printed line each.

Run with ``pytest tests/test_acceptance.py -s`` to see the PASS/FAIL
lines; each test also asserts, so the suite fails loudly under plain
pytest. Several criteria are defined on the bundled fixture data with
seed 42 and have to hold at the stated tolerances.
"""

import itertools
import json
import math
import sys
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from listfair.cli import main as cli_main
from listfair.dataset import load_canonical
from listfair.experiments import (
    PERCF,
    RND_GRID,
    RND_SIZE,
    ExperimentConfig,
    run_candidate_audit,
    run_datasets,
)
from listfair.metrics import (
    BELOW,
    perc_f_curve,
    rnd,
    rnd_raw_of_mask,
    rnd_theoretical_normalizer,
)
from listfair.ordering import collation_key, sort_alphabetical
from listfair.sampling import RandomSource, permutation, read_sample_csv
from listfair.stats import bootstrap_ci, nadaraya_watson

from helpers import chi_square_statistic, mask_from_pattern

SEED = 42


def report(criterion: str, passed: bool, detail: str) -> None:
    status = "PASS" if passed else "FAIL"
    print(f"{criterion} {status} - {detail}", file=sys.stdout, flush=True)
    assert passed, f"{criterion}: {detail}"


@pytest.fixture(scope="module")
def fixture_path(data_dir):
    return data_dir / "fixture.csv"


@pytest.fixture(scope="module")
def fixture_ds(fixture_path):
    return load_canonical(fixture_path)


@pytest.fixture(scope="module")
def percf_run(fixture_ds):
    cfg = ExperimentConfig(samples_per_cell=100, n=1000, seed=SEED)
    start = time.perf_counter()
    result = run_datasets(PERCF, [fixture_ds], cfg)
    return result, time.perf_counter() - start


def test_ac1_golden_curve_vectors(data_dir):
    start = time.perf_counter()
    names, mask = read_sample_csv(data_dir / "table_sample_random.csv")
    curve_random = perc_f_curve(mask)
    curve_sorted = perc_f_curve(mask[sort_alphabetical(names)])

    # the worked example truncates fractions to two decimals
    printed_random = [0.00, 0.00, 0.33, 0.25, 0.40, 0.50, 0.57, 0.62, 0.55, 0.50]
    ok = np.all(np.abs(curve_random - printed_random) <= 0.01 + 1e-12)

    printed_sorted = {1: 0.00, 2: 0.50, 3: 0.66, 4: 0.50, 7: 0.42, 8: 0.37, 9: 0.44, 10: 0.50}
    for k, value in printed_sorted.items():
        ok = ok and abs(curve_sorted[k - 1] - value) <= 0.01 + 1e-12
    # positions 5 and 6 of the sorted column admit no two-decimal reading
    # consistent with any integer count of women (0.50 of 5 and 0.40 of 6
    # are not multiples of 1/5 and 1/6); the order of names forces the
    # exact values 3/5 and 3/6
    ok = ok and curve_sorted[4] == pytest.approx(0.60)
    ok = ok and curve_sorted[5] == pytest.approx(0.50)

    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 1.0
    report("AC1", ok, f"golden 10-person curves match within 0.01 ({elapsed:.2f}s)")


def test_ac2_rnd_oracle_enumeration():
    start = time.perf_counter()
    ok = True
    checked = 0
    for n in (10, 11, 12):
        for n_f in (0, 3, 5, 6):
            z = rnd_theoretical_normalizer(n, n_f)
            extremes = {
                round(rnd_raw_of_mask(mask_from_pattern("F" * n_f + "M" * (n - n_f))), 12),
                round(rnd_raw_of_mask(mask_from_pattern("M" * (n - n_f) + "F" * n_f)), 12),
            }
            max_seen = 0.0
            for positions in itertools.combinations(range(n), n_f):
                genders = ["M"] * n
                for p in positions:
                    genders[p] = "F"
                pattern = "".join(genders)
                sample = mask_from_pattern(pattern)
                raw = rnd_raw_of_mask(sample)
                max_seen = max(max_seen, raw)
                ok = ok and raw <= z + 1e-12
                normalized = rnd(sample).normalized
                ok = ok and 0.0 <= normalized <= 1.0 + 1e-12

                curve = perc_f_curve(sample)
                overall = n_f / n
                proportional = all(
                    curve[k - 1] == pytest.approx(overall, abs=1e-12)
                    for k in ([10] if n == 10 else [10, n])
                )
                ok = ok and ((raw == 0.0) == proportional)
                checked += 1
            ok = ok and max_seen == pytest.approx(z, abs=1e-12)
            ok = ok and round(z, 12) in extremes
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 30.0
    report("AC2", ok, f"exhaustive oracle over {checked} arrangements ({elapsed:.1f}s)")


def test_ac3_worst_case_hand_value():
    sample = mask_from_pattern("M" * 10 + "F" * 10)
    raw = rnd_raw_of_mask(sample)
    normalized = rnd(sample).normalized
    ok = abs(raw - 0.150515) <= 1e-6 and normalized == pytest.approx(1.0, abs=1e-12)
    report("AC3", ok, f"N=20, n_f=10 women-last: raw={raw:.9f}, normalized={normalized}")


def test_ac4_random_ordering_parity(percf_run, fixture_ds):
    result, elapsed = percf_run
    share = fixture_ds.perc_f
    rows = {row["k"]: row for row in result.curves}
    ok = elapsed < 60.0
    details = []
    for k in (10, 50, 100):
        row = rows[k]
        mean_ok = abs(row["mean_random"] - share) <= 0.02
        ci_ok = row["ci_low_random"] <= share <= row["ci_high_random"]
        ok = ok and mean_ok and ci_ok
        details.append(f"k={k}: mean={row['mean_random']:.3f}")
    report(
        "AC4",
        ok,
        f"random ordering tracks share {share:.3f} ({', '.join(details)}; {elapsed:.1f}s)",
    )


def test_ac5_alphabetical_imbalance(percf_run):
    result, _ = percf_run
    below = [
        row["k"]
        for row in result.curves
        if row["k"] <= 15 and row["mean_alphabetical"] < row["ci_low_random"]
    ]
    ok = len(below) > 0
    report("AC5", ok, f"alphabetical mean below random CI at k<=15 for {len(below)} positions")


def test_ac6_rnd_peaks_at_half(fixture_ds):
    cfg = ExperimentConfig(samples_per_cell=100, n=1000, seed=SEED)
    start = time.perf_counter()
    result = run_datasets(RND_GRID, [fixture_ds], cfg)
    elapsed = time.perf_counter() - start
    means = {row["perc_fs"]: row["mean_raw"] for row in result.aggregates}
    ok = means[0.5] > means[0.05] and means[0.5] > means[0.95] and elapsed < 300.0
    report(
        "AC6",
        ok,
        f"mean raw rND {means[0.5]:.3f} at 0.50 vs {means[0.05]:.3f} at 0.05 "
        f"and {means[0.95]:.3f} at 0.95 ({elapsed:.1f}s)",
    )


def test_ac7_rnd_grows_with_size(fixture_ds):
    cfg = ExperimentConfig(samples_per_cell=100, seed=SEED, size_grid=[200, 500, 1000, 2000])
    result = run_datasets(RND_SIZE, [fixture_ds], cfg)
    means = sorted((row["n"], row["mean_raw"]) for row in result.aggregates)
    values = [m for _, m in means]
    ok = all(a < b for a, b in zip(values, values[1:]))
    detail = ", ".join(f"n={n}: {m:.3f}" for n, m in means)
    report("AC7", ok, detail)


def test_ac8_first_page_audit(data_dir):
    result = run_candidate_audit(
        [data_dir / "candidates" / "sp_federal.csv"], (5, 9, 15), perc_fd=0.31
    )
    row = result.rows[0]
    ok = (
        row.size == 1603
        and row.per_k1 == {5: 0.0, 9: 0.0, 15: 0.0}
        and all(flag == BELOW for flag in row.flags.values())
        and result.below_cells == 3
    )
    report("AC8", ok, f"1603-row list: first page shares {row.per_k1}, all below 0.31")


def test_ac9_experiment_determinism(tmp_path, fixture_path):
    config = {
        "dataset_paths": [str(fixture_path)],
        "samples_per_cell": 20,
        "n": 200,
        "perc_fs_grid": [0.2, 0.5, 0.8],
        "size_grid": [50, 120],
        "seed": SEED,
    }
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(config), encoding="utf-8")
    ok = True
    for kind in ("percf", "rnd-grid", "rnd-size"):
        runs = []
        for label, jobs in (("a", "1"), ("b", "8"), ("c", "8")):
            out = tmp_path / f"{kind}-{label}"
            code = cli_main(
                ["experiment", kind, "--config", str(config_path), "--out", str(out), "--jobs", jobs]
            )
            ok = ok and code == 0
            runs.append(out)
        for name in ("config.json", "raw.csv", "aggregate.csv", "curves.csv"):
            blobs = {run.joinpath(name).read_bytes() for run in runs}
            ok = ok and len(blobs) == 1
    report("AC9", ok, "three experiment kinds byte-identical across reruns and --jobs 8")


# --- AC10: six randomized property suites, 1000 cases each -----------------

PROPERTY_SETTINGS = settings(max_examples=1000, deadline=None, derandomize=True)

individuals_lists = st.lists(
    st.tuples(
        st.sampled_from(["Ana", "ana", "Alex", "alex", "Bruno", "José", "Jose", "Zoé"]),
        st.sampled_from("FM"),
    ),
    max_size=25,
)


@given(individuals_lists)
@PROPERTY_SETTINGS
def test_ac10_sort_properties(pairs):
    names = [n for n, _ in pairs]
    order = sort_alphabetical(names).tolist()
    # permutation
    assert sorted(order) == list(range(len(names)))
    # idempotence
    ordered = [names[i] for i in order]
    assert sort_alphabetical(ordered).tolist() == list(range(len(names)))
    # stability: equal keys keep arrival order
    for left, right in zip(order, order[1:]):
        if collation_key(names[left]) == collation_key(names[right]):
            assert left < right


@given(st.text(alphabet="FM", min_size=2, max_size=60))
@PROPERTY_SETTINGS
def test_ac10_curve_step_bound(pattern):
    values = perc_f_curve(mask_from_pattern(pattern))
    steps = np.abs(np.diff(values))
    bounds = 1.0 / np.arange(2, len(values) + 1)
    assert np.all(steps <= bounds + 1e-12)


small_floats = st.floats(min_value=-100.0, max_value=100.0, allow_nan=False)


@given(
    st.lists(st.tuples(small_floats, small_floats), min_size=1, max_size=15),
    st.lists(small_floats, min_size=1, max_size=4),
    st.floats(min_value=0.01, max_value=50.0),
)
@PROPERTY_SETTINGS
def test_ac10_regression_range_bound(points, grid, bandwidth):
    x, y = zip(*points)
    smoothed = nadaraya_watson(x, y, grid, bandwidth)
    assert np.all(smoothed >= min(y) - 1e-9)
    assert np.all(smoothed <= max(y) + 1e-9)


@given(
    st.lists(small_floats, min_size=2, max_size=15),
    st.integers(min_value=0, max_value=2**32),
)
@PROPERTY_SETTINGS
def test_ac10_bootstrap_nesting(values, seed):
    cis = [
        bootstrap_ci(values, level=level, resamples=80, rng=RandomSource(seed, 3))
        for level in (0.6, 0.9, 0.99)
    ]
    for (tight_lower, tight_upper), (wide_lower, wide_upper) in zip(cis, cis[1:]):
        assert wide_lower <= tight_lower + 1e-12
        assert tight_upper <= wide_upper + 1e-12


def test_ac10_shuffle_uniformity_and_summary():
    start = time.perf_counter()
    trials = 10_000
    counts = {}
    rng = RandomSource(seed=99)
    for _ in range(trials):
        perm = tuple(permutation(3, rng.generator))
        counts[perm] = counts.get(perm, 0) + 1
    stat = chi_square_statistic(counts.values(), [trials / 6] * 6)
    # critical value for 5 degrees of freedom at alpha = 0.01
    ok = len(counts) == 6 and stat < 15.09
    elapsed = time.perf_counter() - start
    report(
        "AC10",
        ok,
        f"shuffle chi-square {stat:.2f} < 15.09 over {trials} trials; "
        f"sort/curve/regression/bootstrap suites ran at 1000 cases each "
        f"({elapsed:.1f}s for the shuffle suite)",
    )
