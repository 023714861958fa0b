"""Name-frequency datasets: ingestion, validation, gender shares.

A dataset is a registry of (first name, gender, count) records, e.g. all
first names given in one country over some period. The canonical
interchange format is a UTF-8 CSV with the header ``name,gender,count``
and LF line endings; gender is F or M (case-insensitive on input,
upper-case on output). A second loader ingests registries that ship one
headerless ``name,sex,count`` file per birth year (files named
``yob<YEAR>.txt``, CRLF or LF) and sums counts across years.

This module owns the format of every CSV listfair reads or writes: rows
are read by ``_csv_rows`` and written by ``write_rows``, and a gender letter
is read as a female flag and written back from it. That covers the list
files too: ``read_sample_csv`` and ``read_candidate_list`` read a list as
its names and female mask, and ``dump_sample_csv``, ``dump_curve_csv``
and ``dump_audit_rows`` write samples, curves and audits.

Names are stored verbatim: no trimming, case folding or accent stripping
happens here. Normalization is an ordering concern, not an ingestion one.

A loaded dataset is three columns: names, a female flag and counts.
``load_canonical`` reads the file once into column lists and checks each
column as a whole; the per-row checks run only to locate an error.
The collation rank and draw tables are made when a sort or a draw first
needs them.
"""

from __future__ import annotations

import csv
import itertools
import re
from array import array
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path

import numpy as np

from listfair.errors import DatasetFormatError, DuplicateRecordError, MissingYearError
from listfair.ordering import collation_ranks

_CANONICAL_HEADER = ["name", "gender", "count"]
_SAMPLE_HEADER = ["position", "name", "gender"]
_CANDIDATE_HEADER = ["name", "gender"]
_AUDIT_HEADER = ["list_id", "size", "perc_fd", "k1", "perc_f", "flag"]

# the largest count and the largest dataset total: up to 2**53 every
# integer is exact as a float64, so counts and totals enter the draw
# probabilities unrounded
_MAX_COUNT = 2**53
# int() refuses numerals of a few thousand digits, so a count field longer
# than this is rejected by its length
_MAX_COUNT_DIGITS = 40
# missing year files listed by name; the rest are counted
_SHOWN_MISSING_YEARS = 10


# the female flag of each letter a gender field may hold; "MF"[flag] is
# the letter written back
_GENDER_LETTERS = {"F": True, "f": True, "M": False, "m": False}

# the Unicode category Cc, which is exactly these two ranges
_CONTROL = re.compile("[\x00-\x1f\x7f-\x9f]")


# eq=False: the generated __eq__ would compare the arrays inside tuples, which raises
@dataclass(frozen=True, eq=False)
class NameDataset:
    """Validated, immutable name-frequency dataset, stored as columns:
    ``names``, ``is_female`` (bool) and ``counts`` (int64), one entry per
    (name, gender) record.

    ``total_count`` and ``female_count`` are derived from the columns at
    construction time; build instances through :meth:`from_columns` so
    they can never drift. ``rank``, ``cdf`` and ``strata`` are derived on
    first use and kept; every array is read-only.
    A draw table, ``cdf`` or a stratum's, spans every record: a pair of the
    cumulative probabilities of a draw and their guide table (Chen & Asau,
    "On generating random variates from an empirical distribution", *AIIE
    Transactions* 6(2), 1974). With M buckets, a power of two no smaller
    than the table, ``guide[b]`` is ``cdf.searchsorted(b / M, "right")``:
    where the lookup of a uniform u in [b / M, (b + 1) / M) starts.
    """

    id: str
    names: tuple[str, ...]
    is_female: np.ndarray
    counts: np.ndarray
    total_count: int
    female_count: int

    @classmethod
    def from_columns(cls, dataset_id: str, names, is_female, counts) -> "NameDataset":
        names = tuple(names)
        if not all(map(str.__instancecheck__, names)):
            raise ValueError(f"names must be strings, got {next(n for n in names if not isinstance(n, str))!r}")
        is_female = _read_only(np.array(is_female, dtype=bool))
        given, counts = counts, np.array(counts)
        if not len(names) == len(is_female) == len(counts):
            raise ValueError(
                f"columns differ in length: {len(names)} names, {len(is_female)} flags, {len(counts)} counts"
            )
        # checked on the whole array, not per count: the loaders pass every
        # record here as an int64 array. numpy reads a bool among integers as
        # 0 or 1, so the elements of any other input are looked at too
        if len(counts):  # no counts make a float64 array
            bools = not isinstance(given, np.ndarray) and any(isinstance(c, (bool, np.bool_)) for c in given)
            if counts.dtype.kind not in "iu" or bools:
                raise ValueError(f"counts must be integers, got {'bool' if bools else counts.dtype} values")
            if counts.min() < 0:
                raise ValueError(f"counts must be >= 0, got {counts.min()}")
        # a float total of at most 2**54 puts the true one far below 2**63, so
        # the int64 sum is exact for counts of any integer dtype
        if counts.sum(dtype=np.float64) > 2 * _MAX_COUNT:
            raise ValueError("total count exceeds 2**53")
        counts = _read_only(counts.astype(np.int64, copy=False))
        total = int(counts.sum())
        if total > _MAX_COUNT:
            raise ValueError("total count exceeds 2**53")
        if total < 1:  # also no records; every table a draw reads then has weight
            raise ValueError(f"dataset has no individuals: its counts sum to {total}")
        female = int(counts[is_female].sum())
        return cls(dataset_id, names, is_female, counts, total, female)

    @property
    def records(self) -> range:
        """The record ordinals, which ``perfbench/spans.py`` counts for the
        ``dataset.load`` span; ROADMAP item 2 removes them."""
        return range(len(self.names))

    @property
    def perc_f(self) -> float:
        """Female share of the dataset, by individual count."""
        return self.female_count / self.total_count

    @cached_property
    def rank(self) -> np.ndarray:
        """Dense rank of each record's collation key; equal keys share one."""
        return _read_only(collation_ranks(self.names))

    @cached_property
    def cdf(self) -> tuple[np.ndarray, np.ndarray]:
        """The draw table over all records, by count."""
        return _draw_table(self.counts)

    @cached_property
    def strata(self) -> tuple[tuple[np.ndarray, np.ndarray], tuple[np.ndarray, np.ndarray]]:
        """The female and the male draw table: over all records, by count
        within that gender, with the other gender weighted 0."""
        return (_draw_table(np.where(self.is_female, self.counts, 0)),
                _draw_table(np.where(self.is_female, 0, self.counts)))


def _read_only(array: np.ndarray) -> np.ndarray:
    array.flags.writeable = False
    return array


def _draw_table(counts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    # exact: counts and their total are at most 2**53
    cdf = counts.astype(np.float64)
    if cdf.any():  # an absent gender's stratum stays all zero: no draw reads it
        # normalized exactly as Generator.choice normalizes its p argument;
        # a zero weight repeats the entry before it, where no lookup lands
        cdf = (cdf / cdf.sum()).cumsum()
        cdf /= cdf[-1]
    # a power of two, so that b / M and u * M are exact
    buckets = 1 << (len(cdf) - 1).bit_length()
    edges = np.arange(buckets, dtype=np.float64)
    edges /= buckets
    # int32: a dataset of 2**31 records would not fit in memory as names
    guide = cdf.searchsorted(edges, side="right").astype(np.int32)
    return _read_only(cdf), _read_only(guide)


def _csv_rows(path: Path, header: list[str] | None, width: int):
    """Yield ``(line, fields)`` for every non-blank row of a UTF-8 CSV.

    The first row must equal ``header`` unless it is None (a headerless
    file), and every row must have ``width`` fields. Errors name the file,
    and the line unless the file is not UTF-8. A row's line is the one it
    starts at, also when a quoted field spans lines.
    """
    with path.open(encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        # the line the next row starts at: reader.line_num counts the lines
        # read so far, so it is where the last row ended
        line = 1
        try:
            if header is not None:
                first = next(reader, None)
                if first != header:
                    raise DatasetFormatError(
                        f"expected header {','.join(header)!r}, got {first}", path=path, line=1
                    )
                line = reader.line_num + 1
            for row in reader:
                if row:
                    if len(row) != width:
                        raise DatasetFormatError(
                            f"expected {width} fields, got {len(row)}", path=path, line=line
                        )
                    yield line, row
                line = reader.line_num + 1
        except UnicodeDecodeError as exc:
            # the file is decoded in chunks, so the line is not known
            raise DatasetFormatError(f"not valid UTF-8: {exc.reason}", path=path) from None
        except csv.Error as exc:
            # e.g. a field longer than csv.field_size_limit()
            raise DatasetFormatError(str(exc), path=path, line=line) from None


def write_rows(fh, header: list[str], rows) -> None:
    """Write ``header`` and ``rows`` to ``fh`` as CSV with LF line endings."""
    writer = csv.writer(fh, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)


def _check_name(name: str, path, line: int) -> str:
    """A non-empty name without control characters."""
    if not name:
        raise DatasetFormatError("name must be non-empty", path=path, line=line)
    if _CONTROL.search(name):
        raise DatasetFormatError(
            f"name {name!r} contains a control character", path=path, line=line
        )
    return name


def _parse_gender(text: str, path, line: int) -> bool:
    """The female flag of a gender field."""
    female = _GENDER_LETTERS.get(text)
    if female is None:
        raise DatasetFormatError(f"gender must be F or M, got {text!r}", path=path, line=line)
    return female


def _gender_letters(mask: np.ndarray):
    """The gender letter of each entry of a female mask, in order."""
    return ("MF"[female] for female in mask.tolist())


def _parse_count(text: str, path, line: int) -> int:
    digits = text.strip()
    # isdecimal, not isdigit: int() rejects digits such as '²' that
    # isdigit accepts
    if not digits.isdecimal():
        raise DatasetFormatError(
            f"count must be a positive integer, got {text!r}", path=path, line=line
        )
    if len(digits) > _MAX_COUNT_DIGITS:
        raise DatasetFormatError(
            f"count must be <= 2**53, got a {len(digits)}-digit number", path=path, line=line
        )
    count = int(digits)
    if count > _MAX_COUNT:
        raise DatasetFormatError(f"count must be <= 2**53, got {count}", path=path, line=line)
    if count < 1:
        raise DatasetFormatError(
            f"count must be >= 1, got {count}", path=path, line=line
        )
    return count


def _registry_row(fields: list[str], path, line: int) -> tuple[str, bool, int]:
    """The name, female flag and count of a ``name,gender,count`` row of a
    registry file."""
    name, gender_text, count_text = fields
    _check_name(name, path, line)
    return name, _parse_gender(gender_text, path, line), _parse_count(count_text, path, line)


def _check_total(total: int, path, line: int) -> None:
    if total > _MAX_COUNT:
        raise DatasetFormatError("total count exceeds 2**53", path=path, line=line)


def load_canonical(path) -> NameDataset:
    """Load a canonical ``name,gender,count`` CSV as a dataset whose id is
    the file's stem.

    Rejects a missing or malformed header, rows with the wrong field
    count, empty names, names containing control characters, non-positive
    or non-integer counts, counts or a running total above 2**53, and
    duplicate (name, gender) pairs. Every error names the file and line
    it came from.

    The file is read once, into one list per field; each column is then
    checked as a whole. Only when a column check fails are the rows walked
    one by one, which either locates the first bad row or accepts rows
    the column checks are too strict for, such as a padded count.
    """
    path = Path(path)
    names: list[str] = []
    genders: list[str] = []
    texts: list[str] = []
    lines = array("q")
    try:
        for line, (name, gender_text, count_text) in _csv_rows(path, _CANONICAL_HEADER, 3):
            names.append(name)
            genders.append(gender_text)
            texts.append(count_text)
            lines.append(line)
    except DatasetFormatError:
        # a bad row before the one the reader stopped at is reported first
        _walk_rows(path, names, genders, texts, lines)
        raise
    if not names:
        raise DatasetFormatError("dataset has no records", path=path)
    columns = _checked_columns(names, genders, texts)
    if columns is None:
        columns = _walk_rows(path, names, genders, texts, lines)
    return NameDataset.from_columns(path.stem, names, *columns)


def _checked_columns(names, genders, texts):
    """The female flags and counts of rows that every column check
    accepts, or None. Passing implies that each row passes the per-row
    checks and that no running total exceeds 2**53."""
    if "" in names or _CONTROL.search("".join(names)):
        return None
    if not set(genders) <= _GENDER_LETTERS.keys():
        return None
    # isdecimal on the joined text also rejects padding and signs
    if "" in texts or not "".join(texts).isdecimal():
        return None
    if max(map(len, texts)) > _MAX_COUNT_DIGITS:
        return None
    counts = list(map(int, texts))
    # counts are positive, so a total within the bound bounds every count
    # and every running total
    if min(counts) < 1 or sum(counts) > _MAX_COUNT:
        return None
    # each letter is one of FfMm: setting the case bit leaves f or m
    letters = np.frombuffer("".join(genders).encode("ascii"), dtype=np.uint8)
    is_female = (letters | 0x20) == ord("f")
    female_names = set(itertools.compress(names, is_female.tolist()))
    male_names = set(itertools.compress(names, (~is_female).tolist()))
    if len(female_names) + len(male_names) != len(names):
        return None
    return is_female, np.array(counts, dtype=np.int64)


def _walk_rows(path, names, genders, texts, lines):
    """Check the rows one by one: raise the first row's error, or return
    their female flags and counts."""
    flags: list[bool] = []
    counts: list[int] = []
    seen: set[tuple[str, bool]] = set()
    total = 0
    for *fields, line in zip(names, genders, texts, lines):
        name, female, count = _registry_row(fields, path, line)
        key = (name, female)
        if key in seen:
            raise DuplicateRecordError(
                f"duplicate record for name {name!r} gender {'MF'[female]}",
                path=path,
                line=line,
            )
        seen.add(key)
        total += count
        _check_total(total, path, line)
        flags.append(female)
        counts.append(count)
    return flags, np.array(counts, dtype=np.int64)


def write_canonical(ds: NameDataset, path) -> None:
    """Write a dataset back to the canonical CSV format (UTF-8, LF).

    Names are quoted only when they need it, so load -> write -> load
    round-trips to an identical record set.
    """
    path = Path(path)
    with path.open("w", encoding="utf-8", newline="") as fh:
        write_rows(fh, _CANONICAL_HEADER, zip(ds.names, _gender_letters(ds.is_female), ds.counts.tolist()))


def _read_list(path, header: list[str], empty: str) -> tuple[tuple[str, ...], np.ndarray]:
    """The names and female mask of a list file with rows ``header``, which
    ends in name,gender. Leading positions must run 1..N in file order."""
    path = Path(path)
    names, flags = [], []
    for line, (*position, name, gender_text) in _csv_rows(path, header, len(header)):
        if position:
            digits = position[0].strip()
            # a numeral too long for int() is reported by its length, like a count
            too_long = digits.isdecimal() and len(digits) > _MAX_COUNT_DIGITS
            if too_long or not digits.isdecimal() or int(digits) != len(names) + 1:
                got = f"a {len(digits)}-digit number" if too_long else repr(position[0])
                raise DatasetFormatError(f"expected position {len(names) + 1}, got {got}", path=path, line=line)
        names.append(_check_name(name, path, line))
        flags.append(_parse_gender(gender_text, path, line))
    if not names:
        raise DatasetFormatError(empty, path=path)
    return tuple(names), np.array(flags)


def read_sample_csv(path) -> tuple[tuple[str, ...], np.ndarray]:
    """Read a ``position,name,gender`` file back into its names and female mask."""
    return _read_list(path, _SAMPLE_HEADER, "sample file has no rows")


def read_candidate_list(path) -> tuple[tuple[str, ...], np.ndarray]:
    """Read a concrete ``name,gender`` list (e.g. real election candidates)
    into its names and female mask."""
    return _read_list(path, _CANDIDATE_HEADER, "candidate list has no rows")


def dump_sample_csv(names, mask: np.ndarray, fh) -> None:
    """Write a list given as names and a female mask as
    ``position,name,gender`` rows (1-based)."""
    write_rows(fh, _SAMPLE_HEADER, zip(range(1, len(names) + 1), names, _gender_letters(mask)))


def dump_curve_csv(curve: np.ndarray, fh) -> None:
    write_rows(fh, ["k", "perc_f"], enumerate(curve.tolist(), start=1))


def dump_audit_rows(list_id: str, size: int, perc_fd: float, rows, fh) -> None:
    """Write the ``(k1, share, below)`` rows of one list's page audit, with
    each flag spelled ``below`` or ``at_or_above``."""
    write_rows(fh, _AUDIT_HEADER, (
        [list_id, size, perc_fd, k1, share, "below" if below else "at_or_above"] for k1, share, below in rows
    ))


def _year_files(directory: Path) -> set[int]:
    """The years Y for which ``directory`` holds a file ``yob<Y>.txt``."""
    years = set()
    for path in directory.glob("yob*.txt"):
        digits = path.name[3:-4]
        if digits.isdecimal() and path.name == f"yob{int(digits)}.txt" and path.is_file():
            years.add(int(digits))
    return years


def load_ssa_yearfiles(directory, years: tuple[int, int]) -> NameDataset:
    """Load and merge per-year ``yob<YEAR>.txt`` files.

    ``years`` is an inclusive (first, last) interval; all files in the
    interval must exist, and missing ones are reported together: the
    first few by year, the rest by count, so a span of any length costs
    what the directory holds. Counts for identical (name, gender) pairs
    are summed across years, and the resulting records are sorted by
    (name, gender) so the outcome does not depend on any processing order.
    The dataset's id is ``ssa_<first>_<last>``.
    """
    directory = Path(directory)
    first, last = years
    if first > last:
        raise ValueError(f"year range {first}:{last} is empty")
    span = range(first, last + 1)
    present = {year for year in _year_files(directory) if year in span}
    missing_count = last - first + 1 - len(present)
    if missing_count:
        # stops after at most len(present) + _SHOWN_MISSING_YEARS years
        missing = (year for year in span if year not in present)
        raise MissingYearError(itertools.islice(missing, _SHOWN_MISSING_YEARS), missing_count)
    totals: dict[tuple[str, bool], int] = {}
    total = 0
    for year in span:
        year_path = directory / f"yob{year}.txt"
        for line, fields in _csv_rows(year_path, None, 3):
            name, female, count = _registry_row(fields, year_path, line)
            total += count
            _check_total(total, year_path, line)
            totals[name, female] = totals.get((name, female), 0) + count
    if not totals:
        raise DatasetFormatError("year files contain no records", path=directory)
    # F sorts before M, so a name's female record comes first
    keys = sorted(totals, key=lambda key: (key[0], not key[1]))
    return NameDataset.from_columns(
        f"ssa_{first}_{last}",
        [name for name, _ in keys],
        [female for _, female in keys],
        np.array([totals[key] for key in keys], dtype=np.int64),
    )
