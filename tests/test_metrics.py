import io
import itertools
import math
from dataclasses import asdict

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from listfair.errors import SampleTooSmallError
from listfair.metrics import (
    AT_OR_ABOVE,
    BELOW,
    FIXED,
    THEORETICAL,
    binomial_two_sided_p,
    dump_audit_rows,
    dump_curve_csv,
    page_audit,
    perc_f_curve,
    rnd,
    rnd_checkpoints,
    rnd_raw_of_mask,
    rnd_theoretical_normalizer,
    statistical_parity,
)

from helpers import (
    mask_from_pattern,
    oracle_checkpoints,
    oracle_curve,
    oracle_max_raw,
    oracle_raw,
)

gender_string = st.text(alphabet="FM", min_size=1, max_size=80)
gender_string_rnd = st.text(alphabet="FM", min_size=10, max_size=80)


@given(gender_string)
def test_curve_matches_oracle(pattern):
    curve = perc_f_curve(mask_from_pattern(pattern))
    assert np.allclose(curve, oracle_curve(pattern))
    assert curve[-1] == pytest.approx(pattern.count("F") / len(pattern))


def test_curve_value_at_and_bounds():
    curve = perc_f_curve(mask_from_pattern("FMM"))
    assert curve[0] == 1.0
    assert curve[1] == 0.5
    assert curve[2] == pytest.approx(1 / 3)
    assert len(curve) == 3
    with pytest.raises(ValueError):
        perc_f_curve(mask_from_pattern(""))


@given(gender_string)
def test_curve_step_bound(pattern):
    # adding one individual moves the share by at most 1/(k+1)
    values = perc_f_curve(mask_from_pattern(pattern))
    for k in range(1, len(values)):
        assert abs(values[k] - values[k - 1]) <= 1.0 / (k + 1) + 1e-12


def test_checkpoints_include_tail_when_needed():
    assert rnd_checkpoints(30, 10) == [10, 20, 30]
    assert rnd_checkpoints(83, 10) == [10, 20, 30, 40, 50, 60, 70, 80, 83]
    assert rnd_checkpoints(10, 10) == [10]
    assert rnd_checkpoints(7, 3) == [3, 6, 7]


def test_checkpoints_validation():
    with pytest.raises(SampleTooSmallError):
        rnd_checkpoints(9, 10)
    with pytest.raises(ValueError):
        rnd_checkpoints(10, 0)


@given(gender_string_rnd, st.integers(min_value=2, max_value=10))
def test_rnd_raw_matches_oracle(pattern, step):
    if len(pattern) < step:
        pattern = pattern + "M" * (step - len(pattern))
    assert rnd_raw_of_mask(mask_from_pattern(pattern), step) == pytest.approx(
        oracle_raw(pattern, step)
    )


def test_rnd_raw_zero_iff_proportional_at_every_checkpoint():
    # 5 women then 5 men then 5 women then 5 men: at k=10 and k=20 the
    # prefix share equals the overall share, so raw is exactly 0
    balanced = "FFFFFMMMMM" * 2
    assert rnd_raw_of_mask(mask_from_pattern(balanced)) == 0.0
    # flipping one pair breaks proportionality at k=10
    tilted = "FFFFFFMMMM" + "MFFFFMMMMM"
    assert rnd_raw_of_mask(mask_from_pattern(tilted)) > 0.0


@given(gender_string_rnd, st.data())
def test_rnd_raw_invariant_under_same_gender_swap(pattern, data):
    letters = list(pattern)
    positions = {"F": [], "M": []}
    for i, g in enumerate(letters):
        positions[g].append(i)
    swappable = [g for g in "FM" if len(positions[g]) >= 2]
    if not swappable:
        return
    g = data.draw(st.sampled_from(swappable))
    i, j = data.draw(
        st.tuples(
            st.sampled_from(positions[g]), st.sampled_from(positions[g])
        ).filter(lambda t: t[0] != t[1])
    )
    base = rnd_raw_of_mask(mask_from_pattern(pattern))
    letters[i], letters[j] = letters[j], letters[i]
    assert rnd_raw_of_mask(mask_from_pattern("".join(letters))) == pytest.approx(base)


def test_worst_case_hand_value():
    # 10 men then 10 women: only the k=10 checkpoint deviates (by 0.5),
    # discounted by 1/log2(10)
    women_last = mask_from_pattern("M" * 10 + "F" * 10)
    expected = 0.5 / math.log2(10)
    assert rnd_raw_of_mask(women_last) == pytest.approx(expected, abs=1e-12)
    assert rnd_theoretical_normalizer(20, 10) == pytest.approx(expected, abs=1e-12)
    report = rnd(women_last)
    assert report.normalized == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("n, n_f", [(10, 0), (10, 10), (12, 12)])
def test_single_gender_lists_normalize_to_zero(n, n_f):
    pattern = "F" * n_f + "M" * (n - n_f)
    report = rnd(mask_from_pattern(pattern))
    assert report.raw == 0.0
    assert report.z == 0.0
    assert report.normalized == 0.0


def test_theoretical_normalizer_matches_exhaustive_enumeration():
    for n, n_f in [(10, 3), (11, 4), (12, 3)]:
        assert rnd_theoretical_normalizer(n, n_f) == pytest.approx(
            oracle_max_raw(n, n_f)
        )


def dp_max_raw(n: int, step: int) -> np.ndarray:
    """Largest raw rND over every arrangement of n_f women among n, for
    each n_f in 0..n: an exact DP over the number of women c among the
    first k positions at each checkpoint k. Rows are n_f, columns c."""
    n_f = np.arange(n + 1)[:, None]
    c = np.arange(n + 1)[None, :]
    best = np.where(c == 0, 0.0, -np.inf) + np.zeros((n + 1, 1))
    previous = 0
    for k in oracle_checkpoints(n, step):
        # between checkpoints the count grows by 0..k - previous
        reach = best.copy()
        for d in range(1, k - previous + 1):
            reach[:, d:] = np.maximum(reach[:, d:], best[:, :-d])
        best = reach + (1.0 / math.log2(k)) * np.abs(c / k - n_f / n)
        previous = k
    # the last checkpoint is N, where the count is n_f
    return np.diagonal(best)


@given(st.sampled_from([2, 3, 5, 10]), st.data())
@settings(max_examples=150, deadline=None)
def test_theoretical_normalizer_matches_exact_dp(step, data):
    n = data.draw(st.integers(min_value=step, max_value=120))
    expected = dp_max_raw(n, step)
    # the DP adds the same terms in the same order, so the maxima agree
    # to the last bit
    for n_f in range(n + 1):
        assert rnd_theoretical_normalizer(n, n_f, step) == expected[n_f]


def test_theoretical_normalizer_validation():
    with pytest.raises(ValueError):
        rnd_theoretical_normalizer(10, 11)
    with pytest.raises(ValueError):
        rnd_theoretical_normalizer(10, -1)


@given(st.integers(min_value=13, max_value=60), st.data())
def test_raw_never_exceeds_theoretical_normalizer(n, data):
    n_f = data.draw(st.integers(min_value=0, max_value=n))
    positions = data.draw(
        st.sets(st.integers(min_value=0, max_value=n - 1), min_size=n_f, max_size=n_f)
    )
    genders = ["M"] * n
    for p in positions:
        genders[p] = "F"
    pattern = "".join(genders)
    bound = rnd_theoretical_normalizer(n, n_f)
    assert rnd_raw_of_mask(mask_from_pattern(pattern)) <= bound + 1e-12


def test_rnd_report_json_shape():
    report = rnd(mask_from_pattern("M" * 10 + "F" * 5))
    payload = asdict(report)
    assert list(payload) == ["checkpoints", "raw", "z", "mode", "normalized"]
    assert [cp["k"] for cp in payload["checkpoints"]] == [10, 15]
    assert set(payload["checkpoints"][0]) == {"k", "discount", "deviation", "term"}
    assert payload["mode"] == THEORETICAL
    assert payload["raw"] == pytest.approx(report.raw)


def test_rnd_normalizer_modes():
    sample = mask_from_pattern("M" * 10 + "F" * 10)
    raw = rnd_raw_of_mask(sample)

    fixed = rnd(sample, z=2.0)
    assert fixed.mode == FIXED
    assert (fixed.z, fixed.normalized) == (2.0, pytest.approx(raw / 2.0))
    theoretical = rnd(sample)
    assert theoretical.mode == THEORETICAL
    assert theoretical.z == rnd_theoretical_normalizer(20, 10)

    for z in (0.0, -1.0, -math.inf):
        with pytest.raises(ValueError, match=r"^fixed normalizer needs z > 0$"):
            rnd(sample, z=z)
    for z in (math.nan, math.inf):
        with pytest.raises(ValueError, match=r"^fixed normalizer needs a finite z, got (nan|inf)$"):
            rnd(sample, z=z)


def test_parity_oracle_cases():
    reference = 0.48

    all_male = mask_from_pattern("M" * 100)
    report = statistical_parity(all_male, reference)
    assert not report.passes
    assert report.p_value < 1e-20

    near = mask_from_pattern("F" * 470 + "M" * 530)
    report = statistical_parity(near, reference)
    assert report.passes
    assert report.p_value > 0.5

    exact = statistical_parity(mask_from_pattern("FM" * 50), 0.5)
    assert exact.p_value == pytest.approx(1.0)
    assert exact.passes


@st.composite
def binomial_cases(draw):
    n = draw(st.integers(min_value=1, max_value=3000))
    # scipy itself overflows for shares below about 1e-300
    p = draw(
        st.one_of(
            st.sampled_from([0.0, 1.0, 0.5]),
            st.floats(min_value=1e-6, max_value=1.0 - 1e-6),
            st.floats(min_value=1e-6, max_value=1e-2),
            st.floats(min_value=0.99, max_value=1.0 - 1e-6),
        )
    )
    # mostly counts within a few standard deviations of the mean, where
    # p-values are not vanishingly small
    z = draw(st.floats(min_value=-5.0, max_value=5.0))
    near = round(n * p + z * math.sqrt(n * p * (1.0 - p)))
    k = draw(st.one_of(st.just(min(n, max(0, near))), st.integers(min_value=0, max_value=n)))
    return k, n, p


@given(binomial_cases())
@example((444, 1000, 0.4800006461696276))  # the seeded CLI parity call
@settings(max_examples=300, deadline=None)
def test_binomial_p_value_matches_scipy(case):
    from scipy import stats

    k, n, p = case
    reference = float(stats.binomtest(k, n, p).pvalue)
    got = binomial_two_sided_p(k, n, p)
    assert (got >= 0.05) == (reference >= 0.05)
    assert 0.0 <= got <= 1.0
    if reference >= 1e-6:
        assert got == pytest.approx(reference, rel=1e-9)


def test_parity_requires_individuals():
    with pytest.raises(ValueError):
        statistical_parity(mask_from_pattern(""), 0.5)


def test_parity_json_shape():
    payload = asdict(statistical_parity(mask_from_pattern("FM" * 10), 0.5))
    assert list(payload) == ["perc_f_sample", "perc_f_reference", "p_value", "passes"]


def audit(pattern, k1_values, perc_fd, names=None, **kwargs):
    names = names or [f"P{i:04d}" for i in range(len(pattern))]
    return page_audit(names, mask_from_pattern(pattern), k1_values, perc_fd, **kwargs)


def test_page_audit_flags_and_exact_curve_agreement():
    # names chosen so the sorted order equals the pattern order
    pattern = "MFFMM" + "F" * 5
    names = [f"N{i:02d}" for i in range(len(pattern))]
    row = audit(pattern, (5, 9), 0.5, names, list_id="demo")
    curve = perc_f_curve(mask_from_pattern(pattern))
    assert row.per_k1[5] == curve[4]
    assert row.per_k1[9] == curve[8]
    assert row.flags[5] == BELOW
    assert row.flags[9] == AT_OR_ABOVE  # 5/9 >= 0.5
    assert row.size == 10
    assert row.list_id == "demo"


def test_page_audit_boundary_is_at_or_above():
    row = audit("FMMF", (2,), 0.5)
    assert row.per_k1[2] == 0.5
    assert row.flags[2] == AT_OR_ABOVE


def test_page_audit_sorts_its_input():
    # arrival order F, M, M; sorted order Ana (M), Bia (F), Caio (M)
    row = audit("FMM", (1, 2), 0.5, names=["Bia", "Ana", "Caio"])
    assert row.per_k1 == {1: 0.0, 2: 0.5}


def test_page_audit_validation():
    with pytest.raises(ValueError):
        audit("FMFM", (5,), 0.5)
    with pytest.raises(ValueError):
        audit("FMFM", (0,), 0.5)


def test_dump_audit_rows_format():
    row = audit("MMFF", (2, 4), 0.5, list_id="L")
    buf = io.StringIO()
    dump_audit_rows([row], buf)
    lines = buf.getvalue().splitlines()
    assert lines[0] == "list_id,size,perc_fd,k1,perc_f,flag"
    assert lines[1] == "L,4,0.5,2,0.0,below"
    assert lines[2] == "L,4,0.5,4,0.5,at_or_above"


def test_dump_curve_csv_format():
    buf = io.StringIO()
    dump_curve_csv(perc_f_curve(mask_from_pattern("FM")), buf)
    assert buf.getvalue().splitlines() == ["k,perc_f", "1,1.0", "2,0.5"]
