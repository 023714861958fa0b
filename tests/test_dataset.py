import csv
import io
import unicodedata
from collections import namedtuple
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from listfair import dataset as dataset_module
from listfair.dataset import (
    _CONTROL,
    CANONICAL_HEADER,
    GENDER_LETTERS,
    NameDataset,
    csv_rows,
    dump_canonical,
    load_canonical,
    load_ssa_yearfiles,
    write_canonical,
)
from listfair.errors import DatasetFormatError, DuplicateRecordError, MissingYearError

from helpers import dataset_from_counts


def write_text(path, text):
    path.write_text(text, encoding="utf-8")


def columns(ds):
    return ds.names, ds.is_female.tolist(), ds.counts.tolist()


def test_load_canonical_basic(tmp_path):
    path = tmp_path / "tiny.csv"
    write_text(path, "name,gender,count\nAna,F,3\nBruno,M,5\n")
    ds = load_canonical(path)
    assert ds.id == "tiny"
    assert ds.total_count == 8
    assert ds.female_count == 3
    assert ds.total_count - ds.female_count == 5
    assert columns(ds) == (("Ana", "Bruno"), [True, False], [3, 5])
    assert ds.counts.dtype == np.int64
    # the record ordinals, not a view that makes record objects
    assert ds.records == range(len(ds.names))


def test_load_canonical_accepts_lowercase_gender_and_quoted_comma(tmp_path):
    path = tmp_path / "d.csv"
    write_text(path, 'name,gender,count\n"de la Cruz, Ana",f,2\nBruno,m,1\n')
    ds = load_canonical(path)
    assert ds.id == "d"
    assert ds.names[0] == "de la Cruz, Ana"
    assert ds.is_female[0]


@pytest.mark.parametrize(
    "body, fragment",
    [
        ("nome,genero,total\nAna,F,3\n", "expected header"),
        ("name,gender,count\nAna,F\n", "expected 3 fields"),
        ("name,gender,count\n,F,3\n", "non-empty"),
        ("name,gender,count\nAna,X,3\n", "gender must be F or M"),
        ("name,gender,count\nAna,F,0\n", "count must be"),
        ("name,gender,count\nAna,F,-2\n", "count must be"),
        ("name,gender,count\nAna,F,3.5\n", "count must be"),
        ("name,gender,count\nAna,F,many\n", "count must be"),
        ("name,gender,count\nA\tna,F,3\n".replace("\t", "\x01"), "control character"),
        ("name,gender,count\n", "no records"),
        ("name,gender,count\nAna,F,\u00b2\n", "count must be a positive integer, got '\u00b2'"),
    ],
)
def test_load_canonical_rejects_malformed_input(tmp_path, body, fragment):
    path = tmp_path / "bad.csv"
    write_text(path, body)
    with pytest.raises(DatasetFormatError) as err:
        load_canonical(path)
    assert fragment in str(err.value)
    assert "bad.csv" in str(err.value)


def test_load_canonical_accepts_decimal_digits_of_any_script(tmp_path):
    path = tmp_path / "d.csv"
    write_text(path, "name,gender,count\nAna,F,\u0663\n")
    assert load_canonical(path).counts.tolist() == [3]


def test_control_pattern_is_exactly_category_cc():
    for code in range(0x110000):
        ch = chr(code)
        assert (_CONTROL.search(ch) is not None) == (unicodedata.category(ch) == "Cc"), hex(code)


def test_gender_letters_match_upper_case_parse():
    # the rule the loaders applied before the lookup table: upper-case the
    # field, then F is female, M is male and anything else is rejected
    def parse_by_upper(text):
        return {"F": True, "M": False}.get(text.upper())

    for code in range(0x110000):
        ch = chr(code)
        assert GENDER_LETTERS.get(ch) is parse_by_upper(ch), hex(code)
    for text in ("", "FF", "fm", " F", "F ", "female"):
        assert GENDER_LETTERS.get(text) is parse_by_upper(text) is None


def test_load_canonical_rejects_duplicates_but_not_shared_names(tmp_path):
    ok = tmp_path / "unisex.csv"
    write_text(ok, "name,gender,count\nAlex,F,2\nAlex,M,9\n")
    ds = load_canonical(ok)
    assert len(ds.names) == 2

    bad = tmp_path / "dup.csv"
    write_text(bad, "name,gender,count\nAlex,F,2\nAlex,F,9\n")
    with pytest.raises(DuplicateRecordError) as err:
        load_canonical(bad)
    assert "line 3" in str(err.value)


def test_error_reports_offending_line(tmp_path):
    path = tmp_path / "mid.csv"
    write_text(path, "name,gender,count\nAna,F,3\nBruno,M,oops\n")
    with pytest.raises(DatasetFormatError) as err:
        load_canonical(path)
    assert "line 3" in str(err.value)


def test_from_columns_rejects_empty():
    with pytest.raises(ValueError):
        NameDataset.from_columns("empty", [], [], [])
    # records but no individuals: the share and the draw table would divide
    # by a zero total
    with pytest.raises(ValueError, match="^dataset has no individuals: its counts sum to 0$"):
        NameDataset.from_columns("z", ["Ana", "Bo"], [True, False], [0, 0])


def test_derived_tables_are_kept_and_read_only():
    ds = dataset_from_counts([("bo", "M", 3), ("Ana", "F", 1), ("BO", "F", 2), ("Al", "M", 2)])
    assert ds.rank.tolist() == [2, 1, 2, 0]
    cdf, guide = ds.cdf
    assert cdf.tolist() == [0.375, 0.5, 0.75, 1.0]
    # four buckets: guide[b] is the number of cdf entries <= b / 4
    assert (guide.dtype, guide.tolist()) == (np.int32, [0, 0, 2, 3])
    # each stratum spans every record, the other gender weighted 0: a
    # record of that gender repeats the entry before it
    (female_cdf, female_guide), (male_cdf, male_guide) = ds.strata
    assert (female_cdf.tolist(), female_guide.tolist()) == ([0.0, 1 / 3, 1.0, 1.0], [1, 1, 2, 2])
    assert (male_cdf.tolist(), male_guide.tolist()) == ([0.6, 0.6, 0.6, 1.0], [0, 0, 0, 3])
    assert female_guide.dtype == male_guide.dtype == np.int32
    for name in ("rank", "cdf", "strata"):
        assert getattr(ds, name) is getattr(ds, name)
    arrays = (ds.is_female, ds.counts, ds.rank, cdf, guide, female_cdf, female_guide, male_cdf, male_guide)
    assert not any(array.flags.writeable for array in arrays)
    # an absent gender's table is all zero and is never read; it has no NaN
    male_only = dataset_from_counts([("Al", "M", 2)])
    (female_cdf, female_guide), (male_cdf, male_guide) = male_only.strata
    assert (female_cdf.tolist(), female_guide.tolist()) == ([0.0], [1])
    assert (male_cdf.tolist(), male_guide.tolist()) == ([1.0], [0])


name_strategy = st.text(
    alphabet=st.characters(
        codec="utf-8", categories=("L", "M", "P", "Zs"), exclude_characters=","
    ),
    min_size=1,
    max_size=12,
).map(lambda s: s.strip() or "X")

# (name, gender letter, count) rows with distinct (name, gender)
rows_strategy = st.lists(
    st.tuples(name_strategy, st.sampled_from("FM"), st.integers(min_value=1, max_value=10**6)),
    min_size=1,
    max_size=30,
    unique_by=lambda row: row[:2],
)


@given(rows_strategy)
def test_round_trip_preserves_record_set(rows):
    ds = dataset_from_counts(rows, dataset_id="rt")
    buf = io.StringIO()
    dump_canonical(ds, buf)
    buf.seek(0)

    import csv as _csv

    reader = _csv.reader(buf)
    assert next(reader) == ["name", "gender", "count"]
    parsed = {(name, g, int(c)) for name, g, c in reader}
    assert parsed == set(rows)


def test_write_then_load_round_trip(tmp_path):
    ds = dataset_from_counts(
        [("José", "M", 10), ("Zoé", "F", 4), ("de la Cruz, Ana", "F", 7)]
    )
    path = tmp_path / "out.csv"
    write_canonical(ds, path)
    back = load_canonical(path)
    assert columns(back) == columns(ds)
    assert back.total_count == ds.total_count


@given(rows_strategy)
def test_demographics_consistent_with_counts(rows):
    ds = dataset_from_counts(rows, dataset_id="demo")
    assert ds.perc_f == ds.female_count / ds.total_count
    assert abs(ds.perc_f * ds.total_count - ds.female_count) <= 0.5
    assert abs(ds.perc_f + (ds.total_count - ds.female_count) / ds.total_count - 1.0) < 1e-12


def test_ssa_yearfiles_merge_and_sort(tmp_path):
    write_text(tmp_path / "yob1999.txt", "Mary,F,120\r\nJohn,M,150\r\n")
    write_text(tmp_path / "yob2000.txt", "John,M,30\nAisha,F,25\n")
    ds = load_ssa_yearfiles(tmp_path, (1999, 2000))
    assert ds.id == "ssa_1999_2000"
    assert columns(ds) == (("Aisha", "John", "Mary"), [True, False, True], [25, 180, 120])
    assert ds.total_count == 325


def test_ssa_yearfiles_result_independent_of_creation_order(tmp_path):
    a = tmp_path / "a"
    b = tmp_path / "b"
    a.mkdir()
    b.mkdir()
    lines = {"yob1990.txt": "Zoe,F,5\nAdam,M,9\n", "yob1991.txt": "Adam,M,2\n"}
    for name in lines:
        write_text(a / name, lines[name])
    for name in reversed(list(lines)):
        write_text(b / name, lines[name])
    ds_a = load_ssa_yearfiles(a, (1990, 1991))
    ds_b = load_ssa_yearfiles(b, (1990, 1991))
    assert ds_a == ds_b


def test_ssa_yearfiles_reports_all_missing_years(tmp_path):
    write_text(tmp_path / "yob2001.txt", "Ana,F,1\n")
    with pytest.raises(MissingYearError) as err:
        load_ssa_yearfiles(tmp_path, (2000, 2002))
    assert "2000" in str(err.value) and "2002" in str(err.value)
    assert "2001" not in str(err.value)


def test_ssa_yearfiles_huge_span_costs_what_the_directory_holds(tmp_path):
    # only yob<Y>.txt files count: not a zero-padded year, not a directory
    write_text(tmp_path / "yob1991.txt", "Ana,F,1\n")
    write_text(tmp_path / "yob01992.txt", "Ana,F,1\n")
    (tmp_path / "yob1993.txt").mkdir()
    last = 10**20
    with pytest.raises(MissingYearError) as err:
        load_ssa_yearfiles(tmp_path, (1990, last))
    assert err.value.years == [1990] + list(range(1992, 2001))
    assert err.value.count == last - 1990
    assert str(err.value).endswith(f"2000 and {last - 2000} more")

    empty = tmp_path / "empty"
    empty.mkdir()
    with pytest.raises(MissingYearError) as err:
        load_ssa_yearfiles(empty, (5, last))
    assert err.value.years == list(range(5, 15))
    assert err.value.count == last - 4


def test_ssa_yearfiles_rejects_bad_rows_with_location(tmp_path):
    write_text(tmp_path / "yob2010.txt", "Ana,F,3\nBruno,M,x\n")
    with pytest.raises(DatasetFormatError) as err:
        load_ssa_yearfiles(tmp_path, (2010, 2010))
    assert "yob2010.txt" in str(err.value)
    assert "line 2" in str(err.value)


def test_ssa_yearfiles_rejects_empty_range(tmp_path):
    with pytest.raises(ValueError):
        load_ssa_yearfiles(tmp_path, (2005, 2001))


def test_bundled_fixture_loads(fixture_dataset):
    assert fixture_dataset.id == "fixture"
    assert 0.46 <= fixture_dataset.perc_f <= 0.50
    top = int(fixture_dataset.counts.argmax())
    assert (fixture_dataset.names[top], fixture_dataset.is_female[top]) == ("Aaron", False)


# ---------------------------------------------------------------------------
# the columnar loader against a record-by-record reference
# ---------------------------------------------------------------------------

BOUND = 2**53
HEADER = "name,gender,count\n"
registry_row = dataset_module._registry_row
Row = namedtuple("Row", "name gender count")


def reference_load(path):
    """The ``(name, gender letter, count)`` rows of a canonical CSV, one row
    at a time: the record-object loader this package had before it loaded
    columns, plus the 2**53 bounds on a count and on the running total."""
    records, seen, total = [], set(), 0
    for line, (name, gender_text, count_text) in csv_rows(path, CANONICAL_HEADER, 3):
        if not name:
            raise DatasetFormatError("name must be non-empty", path=path, line=line)
        if any(unicodedata.category(ch) == "Cc" for ch in name):
            raise DatasetFormatError(
                f"name {name!r} contains a control character", path=path, line=line
            )
        if gender_text.upper() not in ("F", "M"):
            raise DatasetFormatError(
                f"gender must be F or M, got {gender_text!r}", path=path, line=line
            )
        gender = gender_text.upper()
        digits = count_text.strip()
        if not digits.isdecimal():
            raise DatasetFormatError(
                f"count must be a positive integer, got {count_text!r}", path=path, line=line
            )
        if len(digits) > 40:
            raise DatasetFormatError(
                f"count must be <= 2**53, got a {len(digits)}-digit number", path=path, line=line
            )
        count = int(digits)
        if count > BOUND:
            raise DatasetFormatError(f"count must be <= 2**53, got {count}", path=path, line=line)
        if count < 1:
            raise DatasetFormatError(f"count must be >= 1, got {count}", path=path, line=line)
        if (name, gender) in seen:
            raise DuplicateRecordError(
                f"duplicate record for name {name!r} gender {gender}", path=path, line=line
            )
        seen.add((name, gender))
        total += count
        if total > BOUND:
            raise DatasetFormatError("total count exceeds 2**53", path=path, line=line)
        records.append(Row(name, gender, count))
    if not records:
        raise DatasetFormatError("dataset has no records", path=path)
    return records


DIGIT_SCRIPTS = ["0123456789", "٠١٢٣٤٥٦٧٨٩",
                 "०१२३४५६७८९",
                 "０１２３４５６７８９"]

csv_name = st.text(
    alphabet=st.characters(codec="utf-8", categories=("L", "M", "N", "P", "S", "Zs")),
    min_size=1,
    max_size=10,
)


@st.composite
def count_text(draw, value):
    """``value`` written in one script's digits, maybe zero-padded and
    maybe with surrounding spaces."""
    digits = draw(st.sampled_from(DIGIT_SCRIPTS))
    text = "".join(digits[int(d)] for d in str(value))
    text = digits[0] * draw(st.integers(0, 2)) + text
    return draw(st.sampled_from(["", " "])) + text + draw(st.sampled_from(["", " "]))


@st.composite
def valid_row(draw):
    return [draw(csv_name), draw(st.sampled_from("FfMm")), draw(count_text(draw(st.integers(1, 10**6))))]


def malformed_row(rows):
    """One bad row: every check the loader makes, the bounds included."""
    bad_fields = st.one_of(
        st.tuples(st.just(""), st.just("F"), st.just("1")),
        st.tuples(csv_name.map(lambda s: s + "\x07"), st.just("M"), st.just("2")),
        st.tuples(csv_name.map(lambda s: "\n" + s), st.just("M"), st.just("2")),
        st.tuples(csv_name, st.sampled_from(["X", "", "FF", " F", "female", "Ｆ"]), st.just("3")),
        st.tuples(csv_name, st.just("F"), st.sampled_from(["0", "-2", "3.5", "many", "", "²", "1_000", "+4"])),
        st.tuples(csv_name, st.just("F"), st.integers(BOUND + 1, 10**30).map(str)),
        st.tuples(csv_name, st.just("M"), st.integers(41, 400).map(lambda n: "9" * n)),
        st.tuples(csv_name, st.just("M"), st.just("0" * 41 + "1")),
        # within the bound alone; the running total crosses it
        st.tuples(csv_name, st.just("F"), st.integers(BOUND - 2, BOUND).map(str)),
        st.lists(st.just("A"), min_size=1, max_size=4).filter(lambda f: len(f) != 3),
    ).map(list)
    if not rows:
        return bad_fields
    # a duplicate key, maybe with the gender letter in the other case
    duplicate = st.sampled_from(rows).flatmap(
        lambda row: st.sampled_from([row[1].lower(), row[1].upper()]).map(
            lambda g: [row[0], g, "5"]
        )
    )
    return st.one_of(bad_fields, duplicate)


def write_rows(path, rows, blank_after):
    with path.open("w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(CANONICAL_HEADER)
        for i, row in enumerate(rows):
            writer.writerow(row)
            if i in blank_after:
                writer.writerow([])


def outcome(load, path):
    try:
        return "ok", load(path)
    except DatasetFormatError as exc:
        return type(exc), str(exc), exc.line


# names that csv.writer leaves unquoted
plain_name = st.text(
    alphabet=st.characters(
        codec="utf-8", categories=("L", "M", "N", "P", "S", "Zs"), exclude_characters=',"'
    ),
    min_size=1,
    max_size=10,
)


@st.composite
def plain_row(draw):
    """A valid row as the column checks take it: ASCII digits, no padding."""
    return [draw(plain_name), draw(st.sampled_from("FfMm")), str(draw(st.integers(1, 10**6)))]


@st.composite
def canonical_csv(draw):
    plain = draw(st.booleans())
    rows = draw(
        st.lists(
            plain_row() if plain else valid_row(),
            min_size=0,
            max_size=25,
            unique_by=lambda r: (r[0], r[1].upper()),
        )
    )
    malformed = draw(st.none() | malformed_row(rows))
    if malformed is not None:
        rows.insert(draw(st.integers(0, len(rows))), malformed)
    if plain:
        blank_after = set()
    else:
        blank_after = draw(st.sets(st.integers(0, max(len(rows) - 1, 0)), max_size=3))
    return rows, malformed, blank_after


@settings(max_examples=250, deadline=None)
@given(canonical_csv())
def test_load_canonical_matches_row_reference(tmp_path_factory, case):
    rows, malformed, blank_after = case
    path = tmp_path_factory.getbasetemp() / "generated.csv"
    write_rows(path, rows, blank_after)
    expected = outcome(reference_load, path)
    got = outcome(load_canonical, path)
    if expected[0] != "ok":
        assert got == expected
        return
    assert malformed is None or len(malformed) == 3
    assert got[0] == "ok"
    ds, records = got[1], expected[1]
    assert columns(ds) == (
        tuple(r.name for r in records),
        [r.gender == "F" for r in records],
        [r.count for r in records],
    )
    assert ds.counts.dtype == np.int64
    assert ds.total_count == sum(r.count for r in records)
    assert ds.female_count == sum(r.count for r in records if r.gender == "F")
    assert ds.total_count - ds.female_count == sum(r.count for r in records if r.gender == "M")
    assert ds.records == range(len(records))


def test_plain_file_loads_without_per_row_checks(tmp_path, monkeypatch):
    rows = "Ana,F,3\nAna,M,12\nBruno,m,5\nJosé,f,7\n"
    plain = tmp_path / "plain.csv"
    write_text(plain, HEADER + rows)
    # a padded count is valid, but only the per-row checks take it
    padded = tmp_path / "padded.csv"
    write_text(padded, HEADER + rows.replace(",12", ", 12"))

    # a pipe cannot be read twice, so every load opens its file once
    opened = []
    path_open = Path.open

    def open_once(path, *args, **kwargs):
        opened.append(path.name)
        return path_open(path, *args, **kwargs)

    def refuse(fields, path, line):
        raise AssertionError(f"per-row check of line {line}")

    monkeypatch.setattr(Path, "open", open_once)
    monkeypatch.setattr(dataset_module, "_registry_row", refuse)

    expected = (("Ana", "Ana", "Bruno", "José"), [True, False, False, True], [3, 12, 5, 7])
    assert columns(load_canonical(plain)) == expected

    walked = []

    def spy(fields, path, line):
        walked.append(line)
        return registry_row(fields, path, line)

    monkeypatch.setattr(dataset_module, "_registry_row", spy)
    # the stems differ, so the columns are compared, not the datasets
    assert columns(load_canonical(padded)) == expected
    assert walked == [2, 3, 4, 5]
    assert opened == ["plain.csv", "padded.csv"]
