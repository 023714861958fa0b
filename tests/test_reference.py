"""``run_datasets`` against the one-sample-at-a-time reference of
``reference.py``, over drawn configs, at jobs 1 and jobs 2, row by row and
by the bytes ``write_result`` writes."""

import tempfile
from pathlib import Path
from unittest import mock

from hypothesis import example, given, settings
from hypothesis import strategies as st

from listfair import experiments
from listfair.errors import InfeasibleSampleError, SampleTooSmallError
from listfair.experiments import (
    _NORMALIZER_SCOPES,
    PERCF,
    RND_GRID,
    RND_SIZE,
    THEORETICAL,
    ExperimentConfig,
    ExperimentResult,
    run_datasets,
    write_result,
)

from helpers import dataset_from_counts
from reference import first_difference, reference_run

# ALEX and alex share a collation key, so a sorted sample keeps their draw order
NAMES = ["ALEX", "alex", "Ana", "Bea", "Bo", "Zed"]
# shares whose female count rounds to 0 or to n for small n, and plain ones
SHARES = [0.01, 0.05, 0.1, 0.25, 0.3, 0.5, 0.75, 0.9, 0.95, 0.99]
RESULT_FILES = ("config.json", "raw.csv", "aggregate.csv", "curves.csv")


@st.composite
def datasets(draw, dataset_id: str):
    """Up to three records of each gender, all but the first of a gender
    possibly of count 0; now and then a gender is left out."""
    rows = [
        (name, gender, draw(st.integers(1 if first else 0, 5)))
        for gender in draw(st.sampled_from(["FM", "FM", "FM", "FM", "FM", "F", "M"]))
        for first, name in enumerate(draw(st.lists(st.sampled_from(NAMES), min_size=1, max_size=3, unique=True)), 1)
    ]
    return dataset_from_counts(rows, dataset_id)


@st.composite
def runs(draw):
    # percf ignores the scope: draw the rND kinds twice as often
    kind = draw(st.sampled_from([PERCF, RND_GRID, RND_SIZE, RND_GRID, RND_SIZE]))
    scope = draw(st.sampled_from(_NORMALIZER_SCOPES))
    # the theoretical reference Z enumerates every arrangement
    top = 14 if scope == THEORETICAL else 24
    step = draw(st.one_of(st.integers(2, 5), st.integers(2, top)))
    # in one run of six, sizes from step - 1 on: a size below the step is
    # too small for the first checkpoint, and ends the run
    sizes = st.integers(max(1, step - (draw(st.integers(0, 5)) == 0)), top)
    cfg = ExperimentConfig(
        samples_per_cell=draw(st.integers(1, 8)),
        n=draw(sizes),
        perc_fs_grid=draw(st.lists(st.sampled_from(SHARES), min_size=1, max_size=3, unique=True)),
        size_grid=draw(st.lists(sizes, min_size=1, max_size=3, unique=True)),
        seed=draw(st.integers(0, 2**64 - 1)),
        step=step,
        normalizer_scope=scope,
        bandwidth=draw(st.sampled_from([None, None, 0.7, 3.0])),
    )
    return kind, [draw(datasets(f"d{i}")) for i in range(draw(st.integers(1, 2)))], cfg


def case(kind, rows_per_dataset, **overrides):
    defaults = dict(samples_per_cell=3, n=6, perc_fs_grid=[0.5], size_grid=[6], seed=7, step=2)
    cfg = ExperimentConfig(**{**defaults, **overrides})
    return kind, [dataset_from_counts(rows, f"d{i}") for i, rows in enumerate(rows_per_dataset)], cfg


TIES = [("ALEX", "F", 3), ("alex", "M", 2), ("Bo", "M", 0), ("Zed", "F", 1)]
MEN = [("Bo", "M", 2), ("Zed", "M", 1)]


def check_against_reference(kind, datasets, cfg):
    try:
        expected = reference_run(kind, datasets, cfg)
    except (SampleTooSmallError, InfeasibleSampleError) as exc:
        # the library raises the same error for the same first cell
        for jobs in (1, 2):
            try:
                run_datasets(kind, datasets, cfg, jobs=jobs)
            except type(exc) as got:
                assert str(got).startswith(f"{exc}: "), f"jobs {jobs}: {got}, expected {exc}"
            else:
                raise AssertionError(f"jobs {jobs}: no error, expected {type(exc).__name__} {exc}")
        return
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp)
        write_result(ExperimentResult(kind, cfg, *expected), out / "reference")
        for jobs in (1, 2):
            got = run_datasets(kind, datasets, cfg, jobs=jobs)
            for name, want, have in zip(("records", "aggregates", "curves"), expected,
                                        (got.records, got.aggregates, got.curves)):
                difference = first_difference(name, want, have)
                assert difference is None, f"jobs {jobs}: {difference}"
            write_result(got, out / f"jobs{jobs}")
            for name in RESULT_FILES:
                assert (out / f"jobs{jobs}" / name).read_bytes() == (out / "reference" / name).read_bytes(), name


@settings(max_examples=80, deadline=None, derandomize=True)
@given(runs())
@example(case(RND_GRID, [TIES], normalizer_scope=THEORETICAL, n=14, perc_fs_grid=[0.5, 0.05, 0.95]))
@example(case(RND_SIZE, [TIES, MEN], normalizer_scope="global", size_grid=[4, 9]))
@example(case(RND_SIZE, [TIES], size_grid=[6, 3], step=5))
@example(case(RND_GRID, [TIES], n=3, step=5))
@example(case(RND_GRID, [TIES, MEN], perc_fs_grid=[0.1, 0.5]))
@example(case(RND_GRID, [MEN], perc_fs_grid=[0.1]))
@example(case(RND_GRID, [TIES, [("Ana", "F", 0), ("Bo", "M", 3)]], perc_fs_grid=[0.5]))
@example(case(PERCF, [TIES, MEN], samples_per_cell=1, n=9, bandwidth=0.7))
# enough distinct sample shares that the share interval depends on its stream
@example(case(PERCF, [TIES], samples_per_cell=8, n=24))
@example(case(PERCF, [[("Ana", "F", 0), ("Bo", "M", 0), ("Zed", "F", 5)]], n=1))
def test_run_equals_the_reference(run):
    # jobs 2 starts a pool however few CPUs the process may run on
    with mock.patch.object(experiments, "_usable_cpus", lambda: 2):
        check_against_reference(*run)
