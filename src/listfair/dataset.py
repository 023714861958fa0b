"""Name-frequency datasets: ingestion, validation, demographics.

A dataset is a registry of (first name, gender, count) records, e.g. all
first names given in one country over some period. The canonical
interchange format is a UTF-8 CSV with the header ``name,gender,count``
and LF line endings; gender is F or M (case-insensitive on input,
upper-case on output). A second loader ingests registries that ship one
headerless ``name,sex,count`` file per birth year (files named
``yob<YEAR>.txt``, CRLF or LF) and sums counts across years.

Names are stored verbatim: no trimming, case folding or accent stripping
happens here. Normalization is an ordering concern, not an ingestion one.
"""

from __future__ import annotations

import csv
import enum
import re
from dataclasses import dataclass
from pathlib import Path

from listfair.errors import DatasetFormatError, DuplicateRecordError, MissingYearError

CANONICAL_HEADER = ["name", "gender", "count"]


class Gender(str, enum.Enum):
    FEMALE = "F"
    MALE = "M"


# the letters a gender field may hold; exactly those whose upper case is
# a Gender value
GENDER_LETTERS = {
    "F": Gender.FEMALE,
    "f": Gender.FEMALE,
    "M": Gender.MALE,
    "m": Gender.MALE,
}

# the Unicode category Cc, which is exactly these two ranges
_CONTROL = re.compile("[\x00-\x1f\x7f-\x9f]")


@dataclass(frozen=True)
class NameRecord:
    """One (name, gender) entry and how many individuals carry it."""

    name: str
    gender: Gender
    count: int


@dataclass(frozen=True)
class Demographics:
    """Gender shares of a whole dataset."""

    perc_f: float
    perc_m: float


@dataclass(frozen=True)
class NameDataset:
    """Validated, immutable name-frequency dataset.

    ``total_count``, ``female_count`` and ``male_count`` are derived from
    the records at construction time; build instances through
    :meth:`from_records` so they can never drift.
    """

    id: str
    records: tuple[NameRecord, ...]
    total_count: int
    female_count: int
    male_count: int

    @classmethod
    def from_records(cls, dataset_id: str, records) -> "NameDataset":
        records = tuple(records)
        if not records:
            raise ValueError("dataset has no records")
        female = sum(r.count for r in records if r.gender is Gender.FEMALE)
        male = sum(r.count for r in records if r.gender is Gender.MALE)
        return cls(dataset_id, records, female + male, female, male)


def demographics(ds: NameDataset) -> Demographics:
    """Female and male shares of the dataset, by individual count."""
    return Demographics(
        perc_f=ds.female_count / ds.total_count,
        perc_m=ds.male_count / ds.total_count,
    )


def csv_rows(path: Path, header: list[str] | None, width: int):
    """Yield ``(line, fields)`` for every non-blank row of a UTF-8 CSV.

    The first row must equal ``header`` unless it is None (a headerless
    file), and every row must have ``width`` fields. Errors name the file
    and line.
    """
    with path.open(encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        if header is not None:
            first = next(reader, None)
            if first != header:
                raise DatasetFormatError(
                    f"expected header {','.join(header)!r}, got {first}", path=path, line=1
                )
        for row in reader:
            if not row:
                continue
            if len(row) != width:
                raise DatasetFormatError(
                    f"expected {width} fields, got {len(row)}", path=path, line=reader.line_num
                )
            yield reader.line_num, row


def check_name(name: str, path, line: int) -> str:
    if not name:
        raise DatasetFormatError("name must be non-empty", path=path, line=line)
    return name


def parse_gender(text: str, path, line: int) -> Gender:
    gender = GENDER_LETTERS.get(text)
    if gender is None:
        raise DatasetFormatError(f"gender must be F or M, got {text!r}", path=path, line=line)
    return gender


def _parse_count(text: str, path, line: int) -> int:
    digits = text.strip()
    # isdecimal, not isdigit: int() rejects digits such as '²' that
    # isdigit accepts
    if not digits.isdecimal():
        raise DatasetFormatError(
            f"count must be a positive integer, got {text!r}", path=path, line=line
        )
    count = int(digits)
    if count < 1:
        raise DatasetFormatError(
            f"count must be >= 1, got {count}", path=path, line=line
        )
    return count


def _registry_record(fields: list[str], path, line: int) -> NameRecord:
    """A ``name,gender,count`` row of a registry file; names may not hold
    control characters."""
    name, gender_text, count_text = fields
    check_name(name, path, line)
    if _CONTROL.search(name):
        raise DatasetFormatError(
            f"name {name!r} contains a control character", path=path, line=line
        )
    return NameRecord(
        name, parse_gender(gender_text, path, line), _parse_count(count_text, path, line)
    )


def load_canonical(path, dataset_id: str | None = None) -> NameDataset:
    """Load a canonical ``name,gender,count`` CSV.

    Rejects a missing or malformed header, rows with the wrong field
    count, empty names, names containing control characters, non-positive
    or non-integer counts, and duplicate (name, gender) pairs. Every
    error names the file and line it came from.
    """
    path = Path(path)
    records: list[NameRecord] = []
    seen: set[tuple[str, Gender]] = set()
    for line, fields in csv_rows(path, CANONICAL_HEADER, 3):
        record = _registry_record(fields, path, line)
        key = (record.name, record.gender)
        if key in seen:
            raise DuplicateRecordError(
                f"duplicate record for name {record.name!r} gender {record.gender.value}",
                path=path,
                line=line,
            )
        seen.add(key)
        records.append(record)
    if not records:
        raise DatasetFormatError("dataset has no records", path=path)
    return NameDataset.from_records(dataset_id or path.stem, records)


def write_canonical(ds: NameDataset, path) -> None:
    """Write a dataset back to the canonical CSV format (UTF-8, LF).

    Names are quoted only when they need it, so load -> write -> load
    round-trips to an identical record set.
    """
    path = Path(path)
    with path.open("w", encoding="utf-8", newline="") as fh:
        dump_canonical(ds, fh)


def dump_canonical(ds: NameDataset, fh) -> None:
    writer = csv.writer(fh, lineterminator="\n")
    writer.writerow(CANONICAL_HEADER)
    for record in ds.records:
        writer.writerow([record.name, record.gender.value, record.count])


def load_ssa_yearfiles(directory, years: tuple[int, int], dataset_id: str | None = None) -> NameDataset:
    """Load and merge per-year ``yob<YEAR>.txt`` files.

    ``years`` is an inclusive (first, last) interval; all files in the
    interval must exist, and missing ones are reported together. Counts
    for identical (name, gender) pairs are summed across years, and the
    resulting records are sorted by (name, gender) so the outcome does not
    depend on any processing order.
    """
    directory = Path(directory)
    first, last = years
    if first > last:
        raise ValueError(f"year range {first}:{last} is empty")
    span = range(first, last + 1)
    missing = [y for y in span if not (directory / f"yob{y}.txt").is_file()]
    if missing:
        raise MissingYearError(missing)
    totals: dict[tuple[str, Gender], int] = {}
    for year in span:
        year_path = directory / f"yob{year}.txt"
        for line, fields in csv_rows(year_path, None, 3):
            record = _registry_record(fields, year_path, line)
            key = (record.name, record.gender)
            totals[key] = totals.get(key, 0) + record.count
    records = [
        NameRecord(name, gender, count)
        for (name, gender), count in sorted(
            totals.items(), key=lambda item: (item[0][0], item[0][1].value)
        )
    ]
    if not records:
        raise DatasetFormatError("year files contain no records", path=directory)
    return NameDataset.from_records(dataset_id or f"ssa_{first}_{last}", records)
