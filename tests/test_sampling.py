import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from listfair.dataset import NameDataset, dump_sample_csv, read_sample_csv
from listfair.errors import DatasetFormatError, InfeasibleSampleError
from listfair.sampling import (
    draw_sample,
    draw_samples,
    lookup,
    permutations,
    round_half_up,
    stratified_female_count,
)
from listfair.streams import random_stream

from helpers import chi_square_statistic, dataset_from_counts, reference_draw_sample

BASIC = dataset_from_counts(
    [
        ("Ana", "F", 400),
        ("Beatriz", "F", 100),
        ("Bruno", "M", 300),
        ("Carlos", "M", 200),
    ]
)


def test_random_source_is_deterministic_per_key():
    a = random_stream(seed=7, stream_index=3).random_raw(20)
    b = random_stream(seed=7, stream_index=3).random_raw(20)
    c = random_stream(seed=7, stream_index=4).random_raw(20)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


@pytest.mark.parametrize("seed, stream", [(-1, 0), (2**64, 0), (0, -1)])
def test_random_source_rejects_bad_keys(seed, stream):
    message = "stream_index must be non-negative" if stream < 0 else "seed must be a 64-bit non-negative integer"
    with pytest.raises(ValueError, match=f"^{message}$"):
        random_stream(seed=seed, stream_index=stream)


@pytest.mark.parametrize(
    "x, expected",
    [(0.0, 0), (0.4, 0), (0.5, 1), (1.5, 2), (2.5, 3), (49.5, 50), (50.0, 50)],
)
def test_round_half_up(x, expected):
    assert round_half_up(x) == expected


@given(st.integers(min_value=0, max_value=40), st.integers(min_value=0, max_value=2**32))
def test_shuffle_preserves_multiset(n, seed):
    shuffled = permutations(n, [random_stream(seed)])[0]
    assert sorted(shuffled.tolist()) == list(range(n))


def test_shuffle_deterministic_and_input_untouched():
    one = permutations(5, [random_stream(11, 2)])[0]
    two = permutations(5, [random_stream(11, 2)])[0]
    assert one.tolist() == two.tolist()
    female_table, male_table = BASIC.strata
    tables = (*BASIC.cdf, *female_table, *male_table)
    before = [a.copy() for a in tables]
    draw_sample(BASIC, 30, random_stream(11, 2), perc_fs=0.5)
    assert all(np.array_equal(a, b) for a, b in zip(tables, before))


def edge_uniforms(cdf, buckets):
    """Uniforms in [0, 1) where a guide lookup could go wrong: on every cdf
    entry and bucket edge b / M and their neighbouring doubles, 0.0 and
    the largest uniform, 1 - 2**-53."""
    points = np.concatenate((cdf, np.arange(buckets) / buckets))
    points = np.concatenate((points, np.nextafter(points, 0.0), np.nextafter(points, 1.0), [0.0, 1 - 2**-53]))
    return points[(points >= 0.0) & (points < 1.0)]


@given(
    counts=st.lists(
        st.one_of(st.integers(min_value=0, max_value=3), st.integers(min_value=1, max_value=2**44)),
        min_size=1,
        max_size=300,
    ).filter(any),
    u=st.lists(st.floats(min_value=0.0, max_value=1.0, exclude_max=True), max_size=50),
)
# one record takes almost all the weight; a single record
@example(counts=[2**52, 1, 1], u=[])
@example(counts=[1], u=[])
# zero counts repeat cdf entries, and a leading one gives an entry of 0.0
@example(counts=[0, 2, 0, 0, 1, 0], u=[])
@settings(max_examples=300, deadline=None)
def test_guide_lookup_matches_searchsorted(counts, u):
    ds = dataset_from_counts([(f"N{i}", "M", c) for i, c in enumerate(counts)])
    cdf, guide = ds.cdf
    # M is the smallest power of two no smaller than the table
    assert len(guide) & (len(guide) - 1) == 0 and len(guide) >= len(cdf) > len(guide) // 2
    u = np.concatenate((edge_uniforms(cdf, len(guide)), u))
    expected = cdf.searchsorted(u, side="right")
    got = lookup(ds.cdf, u)
    assert got.dtype == np.intp and np.array_equal(got, expected)
    # a block of rows keeps its shape
    block = np.resize(u, (3, len(u)))[:, 1:]
    assert np.array_equal(lookup(ds.cdf, block), cdf.searchsorted(block, side="right"))


# (female, count) rows with at least one individual; zero counts and the
# other gender give each stratum's table runs of zero weight
weighted_rows = st.lists(
    st.tuples(st.booleans(), st.one_of(st.integers(min_value=0, max_value=3), st.integers(min_value=1, max_value=2**44))),
    min_size=1,
    max_size=300,
).filter(lambda rows: any(count for _, count in rows))


@given(rows=weighted_rows, u=st.lists(st.floats(min_value=0.0, max_value=1.0, exclude_max=True), max_size=50))
# zero-weight runs at the start, in the middle and at the end of both tables
@example(rows=[(False, 0), (True, 0), (True, 2), (False, 5), (True, 0), (False, 0), (True, 1), (False, 3), (True, 0)], u=[])
# one gender only: the other's table is all zero
@example(rows=[(True, 0), (True, 1), (True, 0)], u=[])
@example(rows=[(False, 2**52), (True, 1), (False, 0), (False, 1)], u=[])
@settings(max_examples=300, deadline=None)
def test_strata_tables_span_every_record(rows, u):
    flags, counts = zip(*rows)
    ds = NameDataset.from_columns("strata", [f"N{i}" for i in range(len(rows))], flags, counts)
    for female, (cdf, guide) in zip((True, False), ds.strata):
        mine = ds.is_female == female
        weights = ds.counts[mine].astype(float)
        if not weights.any():
            # never read: no draw is asked of a gender with no individuals
            assert not cdf.any()
            continue
        # at its own records the table holds the cdf of the gender alone,
        # bit for bit; every other record repeats the entry before it
        alone = (weights / weights.sum()).cumsum()
        alone /= alone[-1]
        assert np.array_equal(cdf[mine], alone)
        assert np.array_equal(cdf, np.maximum.accumulate(np.where(mine, cdf, 0.0)))
        assert len(guide) & (len(guide) - 1) == 0 and len(guide) >= len(cdf) > len(guide) // 2
        points = np.concatenate((edge_uniforms(cdf, len(guide)), u))
        got = lookup((cdf, guide), points)
        assert np.array_equal(got, cdf.searchsorted(points, side="right"))
        # a lookup lands only on a record of the gender with a count
        assert (ds.is_female[got] == female).all() and (ds.counts[got] >= 1).all()


@given(rows=weighted_rows, n=st.integers(min_value=1, max_value=200),
       perc_fs=st.sampled_from([0.0, 0.3, 0.5, 1.0]), seed=st.integers(min_value=0, max_value=2**32))
@settings(max_examples=200, deadline=None)
def test_stratified_draws_skip_zero_counts(rows, n, perc_fs, seed):
    flags, counts = zip(*rows)
    ds = NameDataset.from_columns("zeros", [f"N{i}" for i in range(len(rows))], flags, counts)
    n_f = stratified_female_count(perc_fs, n)
    if (n_f and not ds.female_count) or (n - n_f and ds.female_count == ds.total_count):
        # a gender whose records all count 0 has no one to draw
        with pytest.raises(InfeasibleSampleError):
            draw_sample(ds, n, random_stream(seed), perc_fs)
        return
    sample = draw_sample(ds, n, random_stream(seed), perc_fs)
    assert int(ds.is_female[sample].sum()) == n_f
    assert (ds.counts[sample] >= 1).all()
    assert sample.tolist() == reference_draw_sample(ds, n, random_stream(seed), perc_fs).tolist()


def scalar_permutation(n, stream):
    """Reference Fisher-Yates: one ``Generator.integers`` call per swap."""
    gen = np.random.Generator(stream)
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
    vector = random_stream(seed, stream)
    scalar = random_stream(seed, stream)
    assert permutations(n, [vector])[0].tolist() == scalar_permutation(n, scalar)
    # the stream has drawn the words the per-swap calls draw
    assert vector.state["state"] == scalar.state["state"]


@given(
    n=st.integers(min_value=1, max_value=300),
    rows=st.integers(min_value=1, max_value=5),
    seed=st.integers(min_value=0, max_value=2**64 - 1),
    stream=st.integers(min_value=0, max_value=2**32),
)
@settings(max_examples=200, deadline=None)
def test_permutations_rows_match_scalar_swap_loop(n, rows, seed, stream):
    streams = [random_stream(seed, stream + r) for r in range(rows)]
    perms = permutations(n, streams)
    assert perms.dtype == np.intp and perms.shape == (rows, n)
    for r, (perm, drawn) in enumerate(zip(perms, streams)):
        scalar = random_stream(seed, stream + r)
        assert perm.tolist() == scalar_permutation(n, scalar)
        # each stream has drawn the words its own per-swap calls draw
        assert drawn.state["state"] == scalar.state["state"]


def test_permutations_beyond_16_bit_positions():
    # 2**16 positions are the most that 16-bit indices and the 16-bit keys
    # numpy radix-sorts hold; 2**16 + 1 and 70,000 take 32 bits
    for rows, n in [(3, 21_845), (16, 4096), (1, 2**16 + 1), (1, 70_000)]:
        streams = [random_stream(2020, 7 + r) for r in range(rows)]
        perms = permutations(n, streams)
        assert perms.dtype == np.intp
        for r, (perm, stream) in enumerate(zip(perms, streams)):
            scalar = random_stream(2020, 7 + r)
            assert perm.tolist() == scalar_permutation(n, scalar)
            assert stream.state["state"] == scalar.state["state"]


def test_permutations_allocate_at_most_40_bytes_per_position():
    # a block of 16 shuffles of 1000 works in 16-bit indices: its peak is
    # about 34 bytes per position, where intp temporaries took about 87
    permutations(1000, [random_stream(3, r) for r in range(16)])
    streams = [random_stream(4, r) for r in range(16)]
    tracemalloc.start()
    try:
        permutations(1000, streams)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 40 * 16 * 1000


def test_shuffle_uniformity_chi_square():
    # 6 permutations of 3 elements, 10_000 trials, alpha = 0.01:
    # chi-square critical value for 5 degrees of freedom is 15.09
    trials = 10_000
    counts = {}
    rng = random_stream(seed=2024)
    for _ in range(trials):
        perm = tuple(permutations(3, [rng])[0].tolist())
        counts[perm] = counts.get(perm, 0) + 1
    assert len(counts) == 6
    stat = chi_square_statistic(counts.values(), [trials / 6] * 6)
    assert stat < 15.09


def test_proportional_sample_shape_and_determinism():
    sample = draw_sample(BASIC, 50, random_stream(5, 9))
    assert sample.shape == (50,)
    assert sample.min() >= 0 and sample.max() < len(BASIC.names)
    again = draw_sample(BASIC, 50, random_stream(5, 9), perc_fs=None)
    assert np.array_equal(again, sample)


def test_proportional_frequencies_converge():
    # Monte-Carlo check against 3-sigma binomial bounds per name
    n = 20_000
    sample = draw_sample(BASIC, n, random_stream(31))
    tallies = np.bincount(sample, minlength=len(BASIC.names))
    for count, tally in zip(BASIC.counts.tolist(), tallies.tolist()):
        p = count / BASIC.total_count
        sigma = math.sqrt(n * p * (1 - p))
        assert abs(tally - n * p) <= 3 * sigma


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
    counts = ds.counts.astype(float)
    gen = np.random.Generator(random_stream(seed))
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
        expected = drawn[permutations(n, [gen.bit_generator])[0]]
    stream = random_stream(seed)
    got = draw_sample(ds, n, stream, perc_fs)
    assert got.dtype == expected.dtype
    assert np.array_equal(got, expected)
    assert stream.state["state"] == gen.bit_generator.state["state"]


# a mixed-gender tie: ALEX and alex share one collation key
TIED = [("ALEX", "F", 30), ("alex", "M", 50), ("Bea", "F", 20), ("Ze", "M", 5), ("Ana", "F", 1)]


@given(
    extra=st.lists(
        st.tuples(st.sampled_from("FM"), st.integers(min_value=1, max_value=10**6)),
        max_size=20,
    ),
    n=st.integers(min_value=1, max_value=300),
    samples=st.integers(min_value=1, max_value=5),
    perc_fs=st.sampled_from([None, 0.0, 0.25, 0.5, 0.71, 1.0]),
    seed=st.integers(min_value=0, max_value=2**64 - 1),
)
@settings(max_examples=200, deadline=None)
def test_draw_samples_rows_match_one_draw_per_source(extra, n, samples, perc_fs, seed):
    ds = dataset_from_counts(TIED + [(f"N{i}", g, c) for i, (g, c) in enumerate(extra)])
    streams = [random_stream(seed, s) for s in range(samples)]
    got = draw_samples(ds, n, streams, perc_fs)
    assert got.dtype == np.intp and got.shape == (samples, n)
    for s, (row, stream) in enumerate(zip(got, streams)):
        reference = random_stream(seed, s)
        assert row.tolist() == reference_draw_sample(ds, n, reference, perc_fs).tolist()
        assert stream.state["state"] == reference.state["state"]
    # draw_sample is the one-row case
    assert draw_sample(ds, n, random_stream(seed, 0), perc_fs).tolist() == got[0].tolist()


@given(
    perc_fs=st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
    n=st.integers(min_value=1, max_value=400),
    seed=st.integers(min_value=0, max_value=2**32),
)
@settings(max_examples=200)
def test_stratified_counts_are_exact(perc_fs, n, seed):
    sample = draw_sample(BASIC, n, random_stream(seed), perc_fs=perc_fs)
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
    sample = draw_sample(BASIC, 200, random_stream(8), perc_fs=0.5)
    female_names = {"Ana", "Beatriz"}
    for i in sample.tolist():
        assert (BASIC.names[i] in female_names) == BASIC.is_female[i]


def test_stratified_infeasible_without_gender_records():
    male_only = dataset_from_counts([("Bruno", "M", 10)])
    with pytest.raises(InfeasibleSampleError):
        draw_sample(male_only, 10, random_stream(0), perc_fs=0.5)
    # zero women requested needs no female records at all
    sample = draw_sample(male_only, 10, random_stream(0), perc_fs=0.0)
    assert not male_only.is_female[sample].any()
    # a gender whose records all count 0 has no one to draw: Ana is the
    # only woman, and Bo the only man
    zero_women = NameDataset.from_columns("z", ["Ana", "Bo", "Cy"], [True, False, False], [0, 3, 2])
    with pytest.raises(InfeasibleSampleError, match="^dataset 'z' has no female records but 3 women were requested$"):
        draw_sample(zero_women, 6, random_stream(1), 0.5)
    zero_men = NameDataset.from_columns("w", ["Ana", "Bo"], [True, False], [2, 0])
    with pytest.raises(InfeasibleSampleError, match="^dataset 'w' has no male records but 1 men were requested$"):
        draw_sample(zero_men, 3, random_stream(1), 0.5)
    assert draw_sample(zero_men, 3, random_stream(1), 1.0).tolist() == [0, 0, 0]


@pytest.mark.parametrize("bad", [-0.01, 1.01])
def test_stratified_rejects_out_of_range_share(bad):
    with pytest.raises(ValueError):
        draw_sample(BASIC, 10, random_stream(0), perc_fs=bad)


def test_draw_sample_rejects_bad_n_and_mode():
    with pytest.raises(ValueError):
        draw_sample(BASIC, 0, random_stream(0))
    for n in (2**28, 10**20):
        with pytest.raises(ValueError, match=r"n must be < 2\*\*28"):
            draw_sample(BASIC, n, random_stream(0))
        with pytest.raises(ValueError, match=r"n must be < 2\*\*28"):
            draw_sample(BASIC, n, random_stream(0), perc_fs=0.5)


def test_sample_csv_round_trip(tmp_path):
    indices = draw_sample(BASIC, 25, random_stream(3))
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
