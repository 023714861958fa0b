import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from listfair.errors import DatasetFormatError, InfeasibleSampleError
from listfair.sampling import (
    RandomSource,
    draw_sample,
    dump_sample_csv,
    permutation,
    read_sample_csv,
    round_half_up,
    stratified_female_count,
)

from helpers import chi_square_statistic, dataset_from_counts

BASIC = dataset_from_counts(
    [
        ("Ana", "F", 400),
        ("Beatriz", "F", 100),
        ("Bruno", "M", 300),
        ("Carlos", "M", 200),
    ]
)


def test_random_source_is_deterministic_per_key():
    a = RandomSource(seed=7, stream_index=3).generator.integers(0, 1000, size=20)
    b = RandomSource(seed=7, stream_index=3).generator.integers(0, 1000, size=20)
    c = RandomSource(seed=7, stream_index=4).generator.integers(0, 1000, size=20)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


@pytest.mark.parametrize("seed, stream", [(-1, 0), (2**64, 0), (0, -1)])
def test_random_source_rejects_bad_keys(seed, stream):
    with pytest.raises(ValueError):
        RandomSource(seed=seed, stream_index=stream)


@pytest.mark.parametrize(
    "x, expected",
    [(0.0, 0), (0.4, 0), (0.5, 1), (1.5, 2), (2.5, 3), (49.5, 50), (50.0, 50)],
)
def test_round_half_up(x, expected):
    assert round_half_up(x) == expected


@given(st.integers(min_value=0, max_value=40), st.integers(min_value=0, max_value=2**32))
def test_shuffle_preserves_multiset(n, seed):
    shuffled = permutation(n, RandomSource(seed).generator)
    assert sorted(shuffled) == list(range(n))


def test_shuffle_deterministic_and_input_untouched():
    one = permutation(5, RandomSource(11, 2).generator)
    two = permutation(5, RandomSource(11, 2).generator)
    assert one == two
    tables = (BASIC.cdf, *BASIC.strata[0], *BASIC.strata[1])
    before = [a.copy() for a in tables]
    draw_sample(BASIC, 30, RandomSource(11, 2), perc_fs=0.5)
    assert all(np.array_equal(a, b) for a, b in zip(tables, before))


def scalar_permutation(n, gen):
    """Reference Fisher-Yates: one ``integers`` call per swap."""
    perm = list(range(n))
    for i in range(n - 1, 0, -1):
        j = int(gen.integers(0, i + 1))
        perm[i], perm[j] = perm[j], perm[i]
    return perm


@given(
    n=st.one_of(st.sampled_from([0, 1, 2]), st.integers(min_value=0, max_value=2000)),
    seed=st.integers(min_value=0, max_value=2**64 - 1),
    stream=st.integers(min_value=0, max_value=2**32),
)
@settings(max_examples=300, deadline=None)
def test_permutation_matches_scalar_swap_loop(n, seed, stream):
    vector = RandomSource(seed, stream).generator
    scalar = RandomSource(seed, stream).generator
    assert permutation(n, vector) == scalar_permutation(n, scalar)
    # the stream is left where the per-swap calls leave it
    assert vector.bit_generator.state == scalar.bit_generator.state
    assert vector.integers(0, 2**40) == scalar.integers(0, 2**40)


def test_shuffle_uniformity_chi_square():
    # 6 permutations of 3 elements, 10_000 trials, alpha = 0.01:
    # chi-square critical value for 5 degrees of freedom is 15.09
    trials = 10_000
    counts = {}
    rng = RandomSource(seed=2024)
    for _ in range(trials):
        perm = tuple(permutation(3, rng.generator))
        counts[perm] = counts.get(perm, 0) + 1
    assert len(counts) == 6
    stat = chi_square_statistic(counts.values(), [trials / 6] * 6)
    assert stat < 15.09


def test_proportional_sample_shape_and_determinism():
    sample = draw_sample(BASIC, 50, RandomSource(5, 9))
    assert sample.shape == (50,)
    assert sample.min() >= 0 and sample.max() < len(BASIC.records)
    again = draw_sample(BASIC, 50, RandomSource(5, 9), perc_fs=None)
    assert np.array_equal(again, sample)


def test_proportional_frequencies_converge():
    # Monte-Carlo check against 3-sigma binomial bounds per name
    n = 20_000
    sample = draw_sample(BASIC, n, RandomSource(31))
    tallies = {}
    for i in sample:
        name = BASIC.records[i].name
        tallies[name] = tallies.get(name, 0) + 1
    for record in BASIC.records:
        p = record.count / BASIC.total_count
        sigma = math.sqrt(n * p * (1 - p))
        assert abs(tallies[record.name] - n * p) <= 3 * sigma


def choice_draw(indices, counts, size, gen):
    """Reference weighted draw: ``Generator.choice`` with an explicit p;
    a draw of size 0 makes no call."""
    if size == 0:
        return indices[:0]
    weights = counts[indices]
    return indices[gen.choice(len(indices), size=size, replace=True, p=weights / weights.sum())]


@given(
    rows=st.lists(
        st.tuples(st.sampled_from("FM"), st.integers(min_value=1, max_value=10**6)),
        min_size=1,
        max_size=30,
    ),
    n=st.integers(min_value=1, max_value=300),
    perc_fs=st.sampled_from([None, 0.0, 0.3, 0.5, 1.0]),
    seed=st.integers(min_value=0, max_value=2**32),
)
@settings(max_examples=300, deadline=None)
def test_draws_match_generator_choice(rows, n, perc_fs, seed):
    # single-gender datasets and shares of 0 or 1 give empty strata,
    # whose draws of size 0 must leave the stream untouched
    ds = dataset_from_counts([(f"N{i}", g, c) for i, (g, c) in enumerate(rows)])
    counts = np.array([r.count for r in ds.records], dtype=float)
    gen = RandomSource(seed).generator
    if perc_fs is None:
        expected = choice_draw(np.arange(len(counts)), counts, n, gen)
    else:
        n_f = stratified_female_count(perc_fs, n)
        female = np.flatnonzero(ds.is_female)
        male = np.flatnonzero(~ds.is_female)
        if (n_f and not len(female)) or (n - n_f and not len(male)):
            return
        drawn = np.concatenate(
            [choice_draw(female, counts, n_f, gen), choice_draw(male, counts, n - n_f, gen)]
        )
        expected = drawn[permutation(n, gen)]
    rng = RandomSource(seed)
    got = draw_sample(ds, n, rng, perc_fs)
    assert got.dtype == expected.dtype
    assert np.array_equal(got, expected)
    assert rng.generator.bit_generator.state == gen.bit_generator.state


@given(
    perc_fs=st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
    n=st.integers(min_value=1, max_value=400),
    seed=st.integers(min_value=0, max_value=2**32),
)
@settings(max_examples=200)
def test_stratified_counts_are_exact(perc_fs, n, seed):
    sample = draw_sample(BASIC, n, RandomSource(seed), perc_fs=perc_fs)
    women = int(BASIC.is_female[sample].sum())
    assert women == stratified_female_count(perc_fs, n)
    assert len(sample) == n


@given(
    digits=st.integers(min_value=1, max_value=4),
    numerator=st.integers(min_value=0, max_value=10_000),
    n=st.integers(min_value=1, max_value=2000),
)
@settings(max_examples=1000, deadline=None)
def test_stratified_female_count_is_exact(digits, numerator, n):
    # a share written with `digits` decimals, e.g. 0.29 = 29 / 10**2
    scale = 10**digits
    numerator = min(numerator, scale)
    perc_fs = float(Fraction(numerator, scale))
    exact = Fraction(numerator, scale) * n
    expected = math.floor(exact + Fraction(1, 2))
    assert stratified_female_count(perc_fs, n) == expected
    # half up: the nearest integer, and ties go up
    assert abs(expected - exact) <= Fraction(1, 2)
    assert expected - exact != Fraction(-1, 2)


def test_stratified_female_count_rounds_float_ties_up():
    # 0.29 * 50 is 14.499999999999998 in floats; the share means 14.5
    assert 0.29 * 50 < 14.5
    assert stratified_female_count(0.29, 50) == 15
    assert stratified_female_count(0.5, 7) == 4
    assert stratified_female_count(0.0, 9) == 0
    assert stratified_female_count(1.0, 9) == 9


def test_stratified_female_names_come_from_female_records():
    sample = draw_sample(BASIC, 200, RandomSource(8), perc_fs=0.5)
    female_names = {"Ana", "Beatriz"}
    for i in sample:
        record = BASIC.records[i]
        if record.gender.value == "F":
            assert record.name in female_names
        else:
            assert record.name not in female_names


def test_stratified_infeasible_without_gender_records():
    male_only = dataset_from_counts([("Bruno", "M", 10)])
    with pytest.raises(InfeasibleSampleError):
        draw_sample(male_only, 10, RandomSource(0), perc_fs=0.5)
    # zero women requested needs no female records at all
    sample = draw_sample(male_only, 10, RandomSource(0), perc_fs=0.0)
    assert not male_only.is_female[sample].any()


@pytest.mark.parametrize("bad", [-0.01, 1.01])
def test_stratified_rejects_out_of_range_share(bad):
    with pytest.raises(ValueError):
        draw_sample(BASIC, 10, RandomSource(0), perc_fs=bad)


def test_draw_sample_rejects_bad_n_and_mode():
    with pytest.raises(ValueError):
        draw_sample(BASIC, 0, RandomSource(0))
    for n in (2**28, 10**20):
        with pytest.raises(ValueError, match=r"n must be < 2\*\*28"):
            draw_sample(BASIC, n, RandomSource(0))
        with pytest.raises(ValueError, match=r"n must be < 2\*\*28"):
            draw_sample(BASIC, n, RandomSource(0), perc_fs=0.5)


def test_sample_csv_round_trip(tmp_path):
    indices = draw_sample(BASIC, 25, RandomSource(3))
    names = tuple(BASIC.names[i] for i in indices.tolist())
    path = tmp_path / "sample.csv"
    with path.open("w", encoding="utf-8", newline="") as fh:
        dump_sample_csv(names, BASIC.is_female[indices], fh)
    back_names, back_mask = read_sample_csv(path)
    assert back_names == names
    assert back_mask.dtype == bool
    assert np.array_equal(back_mask, BASIC.is_female[indices])
    first = path.read_text(encoding="utf-8").splitlines()[:2]
    assert first[0] == "position,name,gender"
    assert first[1].startswith("1,")


@pytest.mark.parametrize(
    "body, fragment",
    [
        ("pos,name,gender\n1,Ana,F\n", "expected header"),
        ("position,name,gender\n2,Ana,F\n", "expected position 1"),
        ("position,name,gender\n1,Ana,F\n3,Bruno,M\n", "expected position 2"),
        ("position,name,gender\n1,Ana,Q\n", "gender must be F or M"),
        ("position,name,gender\n1,,F\n", "non-empty"),
        ("position,name,gender\n", "no rows"),
        ("position,name,gender\n\u00b9,Ana,F\n", "expected position 1, got '\u00b9'"),
    ],
)
def test_read_sample_csv_rejects_malformed(tmp_path, body, fragment):
    path = tmp_path / "bad.csv"
    path.write_text(body, encoding="utf-8")
    with pytest.raises(DatasetFormatError) as err:
        read_sample_csv(path)
    assert fragment in str(err.value)
    assert "bad.csv" in str(err.value)


def test_female_mask_follows_row_order(tmp_path):
    path = tmp_path / "sample.csv"
    path.write_text("position,name,gender\n1,Bo,M\n2,Ana,f\n3,Cy,F\n4,Di,m\n", encoding="utf-8")
    names, mask = read_sample_csv(path)
    assert names == ("Bo", "Ana", "Cy", "Di")
    assert mask.tolist() == [False, True, True, False]
    assert BASIC.is_female.tolist() == [True, True, False, False]
