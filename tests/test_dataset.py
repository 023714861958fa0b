import io
import unicodedata

import pytest
from hypothesis import given
from hypothesis import strategies as st

from listfair.dataset import (
    _CONTROL,
    GENDER_LETTERS,
    Gender,
    NameDataset,
    NameRecord,
    demographics,
    dump_canonical,
    load_canonical,
    load_ssa_yearfiles,
    write_canonical,
)
from listfair.errors import DatasetFormatError, DuplicateRecordError, MissingYearError

from helpers import dataset_from_counts


def write_text(path, text):
    path.write_text(text, encoding="utf-8")


def test_load_canonical_basic(tmp_path):
    path = tmp_path / "tiny.csv"
    write_text(path, "name,gender,count\nAna,F,3\nBruno,M,5\n")
    ds = load_canonical(path)
    assert ds.id == "tiny"
    assert ds.total_count == 8
    assert ds.female_count == 3
    assert ds.male_count == 5
    assert ds.records == (
        NameRecord("Ana", Gender.FEMALE, 3),
        NameRecord("Bruno", Gender.MALE, 5),
    )


def test_load_canonical_accepts_lowercase_gender_and_quoted_comma(tmp_path):
    path = tmp_path / "d.csv"
    write_text(path, 'name,gender,count\n"de la Cruz, Ana",f,2\nBruno,m,1\n')
    ds = load_canonical(path, dataset_id="override")
    assert ds.id == "override"
    assert ds.records[0].name == "de la Cruz, Ana"
    assert ds.records[0].gender is Gender.FEMALE


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
    assert load_canonical(path).records[0].count == 3


def test_control_pattern_is_exactly_category_cc():
    for code in range(0x110000):
        ch = chr(code)
        assert (_CONTROL.search(ch) is not None) == (unicodedata.category(ch) == "Cc"), hex(code)


def test_gender_letters_match_upper_case_parse():
    # the rule the loaders applied before the lookup table: upper-case the
    # field and look it up as a Gender value
    values = {g.value for g in Gender}

    def parse_by_upper(text):
        upper = text.upper()
        return Gender(upper) if upper in values else None

    for code in range(0x110000):
        ch = chr(code)
        assert GENDER_LETTERS.get(ch) is parse_by_upper(ch), hex(code)
    for text in ("", "FF", "fm", " F", "F ", "female"):
        assert GENDER_LETTERS.get(text) is parse_by_upper(text) is None


def test_load_canonical_rejects_duplicates_but_not_shared_names(tmp_path):
    ok = tmp_path / "unisex.csv"
    write_text(ok, "name,gender,count\nAlex,F,2\nAlex,M,9\n")
    ds = load_canonical(ok)
    assert len(ds.records) == 2

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


def test_from_records_rejects_empty():
    with pytest.raises(ValueError):
        NameDataset.from_records("empty", [])


name_strategy = st.text(
    alphabet=st.characters(
        codec="utf-8", categories=("L", "M", "P", "Zs"), exclude_characters=","
    ),
    min_size=1,
    max_size=12,
).map(lambda s: s.strip() or "X")

record_strategy = st.builds(
    NameRecord,
    name=name_strategy,
    gender=st.sampled_from([Gender.FEMALE, Gender.MALE]),
    count=st.integers(min_value=1, max_value=10**6),
)


@given(st.lists(record_strategy, min_size=1, max_size=30, unique_by=lambda r: (r.name, r.gender)))
def test_round_trip_preserves_record_set(records):
    ds = NameDataset.from_records("rt", records)
    buf = io.StringIO()
    dump_canonical(ds, buf)
    buf.seek(0)

    import csv as _csv

    reader = _csv.reader(buf)
    assert next(reader) == ["name", "gender", "count"]
    parsed = {(name, g, int(c)) for name, g, c in reader}
    assert parsed == {(r.name, r.gender.value, r.count) for r in records}


def test_write_then_load_round_trip(tmp_path):
    ds = dataset_from_counts(
        [("José", "M", 10), ("Zoé", "F", 4), ("de la Cruz, Ana", "F", 7)]
    )
    path = tmp_path / "out.csv"
    write_canonical(ds, path)
    back = load_canonical(path, dataset_id="test")
    assert set(back.records) == set(ds.records)
    assert back.total_count == ds.total_count


@given(st.lists(record_strategy, min_size=1, max_size=30, unique_by=lambda r: (r.name, r.gender)))
def test_demographics_consistent_with_counts(records):
    ds = NameDataset.from_records("demo", records)
    demo = demographics(ds)
    assert abs(demo.perc_f * ds.total_count - ds.female_count) <= 0.5
    assert abs(demo.perc_f + demo.perc_m - 1.0) < 1e-12


def test_ssa_yearfiles_merge_and_sort(tmp_path):
    write_text(tmp_path / "yob1999.txt", "Mary,F,120\r\nJohn,M,150\r\n")
    write_text(tmp_path / "yob2000.txt", "John,M,30\nAisha,F,25\n")
    ds = load_ssa_yearfiles(tmp_path, (1999, 2000))
    assert ds.id == "ssa_1999_2000"
    assert [(r.name, r.gender.value, r.count) for r in ds.records] == [
        ("Aisha", "F", 25),
        ("John", "M", 180),
        ("Mary", "F", 120),
    ]
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
    ds_a = load_ssa_yearfiles(a, (1990, 1991), dataset_id="x")
    ds_b = load_ssa_yearfiles(b, (1990, 1991), dataset_id="x")
    assert ds_a == ds_b


def test_ssa_yearfiles_reports_all_missing_years(tmp_path):
    write_text(tmp_path / "yob2001.txt", "Ana,F,1\n")
    with pytest.raises(MissingYearError) as err:
        load_ssa_yearfiles(tmp_path, (2000, 2002))
    assert "2000" in str(err.value) and "2002" in str(err.value)
    assert "2001" not in str(err.value)


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
    demo = demographics(fixture_dataset)
    assert fixture_dataset.id == "fixture"
    assert 0.46 <= demo.perc_f <= 0.50
    top = max(fixture_dataset.records, key=lambda r: r.count)
    assert (top.name, top.gender) == ("Aaron", Gender.MALE)
