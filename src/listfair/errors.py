"""Exception types shared across the package."""

from __future__ import annotations


class ListFairError(Exception):
    """Base class for every error this package raises on purpose."""


class DatasetFormatError(ListFairError, ValueError):
    """An input file violates its expected format.

    Carries the path and line number when they are known, so callers can
    point straight at the offending input.
    """

    def __init__(self, message: str, *, path=None, line: int | None = None):
        context = []
        if path is not None:
            context.append(str(path))
        if line is not None:
            context.append(f"line {line}")
        prefix = ", ".join(context)
        super().__init__(f"{prefix}: {message}" if prefix else message)
        self.path = path
        self.line = line


class DuplicateRecordError(DatasetFormatError):
    """The same (name, gender) pair appears more than once in one dataset."""


class MissingYearError(ListFairError):
    """One or more year files are absent from a year-file directory.

    ``years`` lists missing years; ``count`` is how many are missing in
    all, which is more than ``len(years)`` when a long span was cut short.
    """

    def __init__(self, years, count: int):
        self.years = sorted(years)
        self.count = count
        message = "missing year files: " + ", ".join(str(y) for y in self.years)
        if self.count > len(self.years):
            message += f" and {self.count - len(self.years)} more"
        super().__init__(message)


class InfeasibleSampleError(ListFairError):
    """A stratified sample requests a gender the dataset cannot supply."""


class SampleTooSmallError(ListFairError, ValueError):
    """A list is shorter than the first metric checkpoint."""
