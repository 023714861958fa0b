"""Reproducible experiment drivers.

One driver runs the three experiment kinds of the measurement protocol:
prefix-share curves under random vs alphabetical ordering, rND across a
grid of requested female shares, and rND across sample sizes. A second
audits concrete candidate lists. Results are written as plain CSVs plus
the resolved config, so a run is fully described by its output
directory.

Determinism: every sample owns a substream keyed by (experiment kind,
cell identity, sample ordinal). Keying by cell identity rather than grid
position means dropping cells from a grid leaves the remaining cells'
draws untouched, and parallel execution can never reorder randomness.
Aggregation-stage randomness (bootstrap resampling) lives in a separate
reserved stream range.
"""

from __future__ import annotations

import csv
import json
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from listfair import stats
from listfair.dataset import NameDataset, csv_rows, load_canonical, parse_list_row
from listfair.errors import (
    DatasetFormatError,
    InfeasibleSampleError,
    SampleTooSmallError,
)
from listfair.metrics import (
    BELOW,
    THEORETICAL,
    PageAuditRow,
    page_audit,
    perc_f_curve,
    rnd_checkpoints,
    rnd_raw_of_mask,
    rnd_theoretical_normalizer,
)
from listfair.ordering import alphabetical_order
from listfair.sampling import RandomSource, draw_sample

PERCF = "percf"
RND_GRID = "rnd_grid"
RND_SIZE = "rnd_size"
KINDS = (PERCF, RND_GRID, RND_SIZE)

PER_BATCH = "per_batch"
GLOBAL = "global"
NORMALIZER_SCOPES = (PER_BATCH, GLOBAL, THEORETICAL)

CANDIDATE_HEADER = ["name", "gender"]

DEFAULT_PERC_FS_GRID = [round(0.05 * i, 2) for i in range(1, 20)]
DEFAULT_SIZE_GRID = [200, 500, 1000, 2000]

# Substream layout (see module docstring): bits 52+ carry the experiment
# kind, bits 24..51 the cell identity, bits 0..23 the sample ordinal.
# Aggregation streams set a reserved high bit so they can never collide
# with sample streams.
_KIND_CODE = {PERCF: 1, RND_GRID: 2, RND_SIZE: 3}
_AGG_BIT = 1 << 62
_MAX_SAMPLES = 1 << 24
_MAX_CELL_CODE = 1 << 28


def sample_stream(kind: str, cell_code: int, sample: int) -> int:
    return (_KIND_CODE[kind] << 52) | (cell_code << 24) | sample


def agg_stream(kind: str, sub: int) -> int:
    return _AGG_BIT | (_KIND_CODE[kind] << 52) | sub


def share_cell_code(perc_fs: float) -> int:
    return round(perc_fs * 1_000_000)


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _is_finite_number(value) -> bool:
    # NaN, the infinities and integers beyond the float range all fail
    return (_is_int(value) or isinstance(value, float)) and abs(value) <= sys.float_info.max


def _list_of(test):
    return lambda value: isinstance(value, list) and all(test(item) for item in value)


# the type each config field must have before its range is checked
_FIELD_TYPES = {
    "dataset_paths": (_list_of(lambda path: isinstance(path, str)), "a list of strings"),
    "samples_per_cell": (_is_int, "an integer"),
    "n": (_is_int, "an integer"),
    "perc_fs_grid": (_list_of(_is_finite_number), "a list of finite numbers"),
    "size_grid": (_list_of(_is_int), "a list of integers"),
    "seed": (_is_int, "an integer"),
    "step": (_is_int, "an integer"),
    "bandwidth": (lambda bw: bw is None or _is_finite_number(bw), "a finite number or null"),
}


@dataclass
class ExperimentConfig:
    """Everything a run depends on; serialized next to its outputs."""

    dataset_paths: list[str] = field(default_factory=list)
    samples_per_cell: int = 100
    n: int = 1000
    perc_fs_grid: list[float] = field(default_factory=lambda: list(DEFAULT_PERC_FS_GRID))
    size_grid: list[int] = field(default_factory=lambda: list(DEFAULT_SIZE_GRID))
    seed: int = 42
    step: int = 10
    normalizer_scope: str = PER_BATCH
    bandwidth: float | None = None

    def _check_types(self) -> None:
        """Raise ValueError for the first field whose value has the wrong
        type, such as a string, a bool or a float where an integer belongs."""
        for name, (is_valid, expected) in _FIELD_TYPES.items():
            value = getattr(self, name)
            if not is_valid(value):
                raise ValueError(f"{name} must be {expected}, got {value!r}")

    def validate(self, require_paths: bool = False) -> None:
        self._check_types()
        if require_paths and not self.dataset_paths:
            raise ValueError("config needs at least one dataset path")
        if not 1 <= self.samples_per_cell < _MAX_SAMPLES:
            raise ValueError(
                f"samples_per_cell must be >= 1 and < 2**24, got {self.samples_per_cell}"
            )
        if not 1 <= self.n < _MAX_CELL_CODE:
            raise ValueError(f"n must be >= 1 and < 2**28, got {self.n}")
        if not 0 <= self.seed < 2**64:
            raise ValueError("seed must be a 64-bit non-negative integer")
        if self.step < 2:
            raise ValueError("step must be >= 2")
        if not self.perc_fs_grid:
            raise ValueError("perc_fs_grid must be non-empty")
        for p in self.perc_fs_grid:
            if not 0.0 < p < 1.0:
                raise ValueError(f"perc_fs_grid entries must lie in (0, 1), got {p}")
        codes = [share_cell_code(p) for p in self.perc_fs_grid]
        if len(set(codes)) != len(codes):
            raise ValueError("perc_fs_grid entries are not distinct")
        if not self.size_grid:
            raise ValueError("size_grid must be non-empty")
        for size in self.size_grid:
            if not 1 <= size < _MAX_CELL_CODE:
                raise ValueError(f"size_grid entries must be >= 1 and < 2**28, got {size}")
        if len(set(self.size_grid)) != len(self.size_grid):
            raise ValueError("size_grid entries are not distinct")
        if self.normalizer_scope not in NORMALIZER_SCOPES:
            raise ValueError(
                f"normalizer_scope must be one of {NORMALIZER_SCOPES}, got {self.normalizer_scope!r}"
            )
        if self.bandwidth is not None and self.bandwidth <= 0:
            raise ValueError("bandwidth must be positive when given")

    @classmethod
    def from_json_file(cls, path) -> "ExperimentConfig":
        path = Path(path)
        with path.open(encoding="utf-8") as fh:
            try:
                payload = json.load(fh)
            except json.JSONDecodeError as exc:
                raise DatasetFormatError(f"invalid JSON: {exc}", path=path) from None
            except UnicodeDecodeError as exc:
                raise DatasetFormatError(f"not valid UTF-8: {exc.reason}", path=path) from None
        if not isinstance(payload, dict):
            raise DatasetFormatError("config must be a JSON object", path=path)
        # "kind" appears in result-directory configs; accept it so those
        # files can be fed straight back in as --config
        payload.pop("kind", None)
        known = {f for f in cls.__dataclass_fields__}
        unknown = sorted(set(payload) - known)
        if unknown:
            raise DatasetFormatError(
                "unknown config keys: " + ", ".join(unknown), path=path
            )
        cfg = cls(**payload)
        try:
            cfg._check_types()
        except ValueError as exc:
            raise DatasetFormatError(str(exc), path=path) from None
        return cfg


@dataclass
class ExperimentResult:
    """Raw per-sample records plus per-cell aggregates and plot-ready
    curves, dataset by dataset in config order."""

    kind: str
    config: ExperimentConfig
    records: list[dict]
    aggregates: list[dict]
    curves: list[dict]


def _pool_size(jobs: int, n_tasks: int, cpus: int | None) -> int:
    """Workers worth starting: never more than the tasks or the CPUs."""
    return max(1, min(jobs, n_tasks, cpus or 1))


# The datasets of the run in progress, by ordinal. run_datasets sets them
# in the parent for the run's length, and the pool initializer sets them in
# each worker, so a task names its dataset by ordinal and no task carries
# a dataset. One run at a time per process.
_run_datasets: list[NameDataset] | None = None


def _set_run_datasets(datasets: list[NameDataset] | None) -> None:
    global _run_datasets
    _run_datasets = datasets


def _map_tasks(fn, tasks, jobs: int) -> list:
    """``fn`` over ``tasks``, in task order. A pool worker receives the
    run's datasets once, when it starts."""
    workers = _pool_size(jobs, len(tasks), os.cpu_count())
    if workers == 1:
        return [fn(task) for task in tasks]
    with ProcessPoolExecutor(
        max_workers=workers, initializer=_set_run_datasets, initargs=(_run_datasets,)
    ) as pool:
        return list(pool.map(fn, tasks))


def _alphabetical(ds: NameDataset, indices: np.ndarray) -> np.ndarray:
    return indices[alphabetical_order(ds.rank[indices])]


def _smoothed(xs, ys, bandwidth: float | None) -> np.ndarray:
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    if bandwidth is None:
        if np.unique(xs).size < 2:
            return ys.copy()
        bandwidth = stats.silverman_bandwidth(xs)
    return stats.nadaraya_watson(xs, ys, xs, bandwidth)


def run_datasets(kind: str, datasets, cfg: ExperimentConfig, jobs: int = 1) -> ExperimentResult:
    """Run one experiment kind over datasets already in memory.

    ``percf`` gives prefix-share curves of proportional samples under
    random and alphabetical ordering. ``rnd_grid`` gives the rND of
    alphabetically ordered stratified samples across the female-share
    grid, ``rnd_size`` that of proportional samples across the size grid.
    Raw rND is always emitted; the normalized column divides by the Z of
    ``cfg.normalizer_scope``: the largest raw value of the dataset
    ("per_batch"), of every dataset ("global"), or the worst arrangement
    of each sample ("theoretical").

    The cells of every dataset go through one process pool of at most
    ``jobs`` workers; the rows do not depend on ``jobs``. A percf cell is
    a range of positions k, so the pool shares the per-k bootstrap.
    """
    if kind not in KINDS:
        raise ValueError(f"unknown experiment kind {kind!r}")
    cfg.validate()
    ids = [ds.id for ds in datasets]
    if not ids:
        raise ValueError("a run needs at least one dataset")
    if len(set(ids)) != len(ids):
        raise ValueError(f"dataset ids are not unique: {ids}")
    if kind == PERCF:
        # one contiguous range of positions k per worker
        ranges = min(max(jobs, 1), cfg.n)
        bounds = [1 + i * cfg.n // ranges for i in range(ranges + 1)]
        cells = [range(first, last) for first, last in zip(bounds, bounds[1:])]
        fn = _percf_chunk
    else:
        cells = cfg.perc_fs_grid if kind == RND_GRID else cfg.size_grid
        fn = _rnd_cell
    tasks = [(ordinal, cfg, kind, cell) for ordinal in range(len(datasets)) for cell in cells]
    for ds in datasets:
        # built once, here: forked workers inherit them and spawned ones
        # receive them pickled. The rank goes first; built after the draw
        # tables, it raised the peak memory of a 100k-record run by 3 MB.
        ds.rank, ds.cdf, ds.strata
    _set_run_datasets(list(datasets))
    try:
        outputs = iter(_map_tasks(fn, tasks, jobs))
    finally:
        _set_run_datasets(None)
    per_dataset = [[next(outputs) for _ in cells] for _ in datasets]

    if kind == PERCF:
        parts = [_percf_rows(ds, cfg, chunks) for ds, chunks in zip(datasets, per_dataset)]
    else:
        global_z = max(r["raw"] for per_cell in per_dataset for cell in per_cell for r in cell)
        parts = [_rnd_rows(cfg, kind, cells, per_cell, global_z) for per_cell in per_dataset]
    result = ExperimentResult(kind, cfg, [], [], [])
    for records, aggregates, curves in parts:
        result.records.extend(records)
        result.aggregates.extend(aggregates)
        result.curves.extend(curves)
    return result


def run_experiment(kind: str, cfg: ExperimentConfig, out_dir=None, jobs: int = 1) -> ExperimentResult:
    """Load the configured datasets, run one experiment kind over all of
    them (:func:`run_datasets`), and (optionally) write the result
    directory."""
    cfg.validate(require_paths=True)
    result = run_datasets(kind, [load_canonical(path) for path in cfg.dataset_paths], cfg, jobs)
    if out_dir is not None:
        write_result(result, out_dir)
    return result


# ---------------------------------------------------------------------------
# prefix-share curves under random vs alphabetical ordering
# ---------------------------------------------------------------------------


def _percf_chunk(task) -> tuple[list[dict], np.ndarray, np.ndarray, np.ndarray]:
    """Draw all of a dataset's percf samples and bootstrap the random
    ordering's mean at the positions ``ks``.

    Every task redraws the same samples from their own streams, so every
    task returns the same records. Returns the records, the
    random and alphabetical curves restricted to ``ks`` (one row per
    sample), and the interval bounds as a (2, len(ks)) array.
    """
    ordinal, cfg, kind, ks = task
    ds = _run_datasets[ordinal]
    records = []
    random_curves = np.empty((cfg.samples_per_cell, len(ks)))
    alpha_curves = np.empty_like(random_curves)
    columns = slice(ks.start - 1, ks.stop - 1)
    for i in range(cfg.samples_per_cell):
        rng = RandomSource(cfg.seed, sample_stream(kind, 0, i))
        indices = draw_sample(ds, cfg.n, rng)
        random_curve = perc_f_curve(ds.is_female[indices])
        random_curves[i] = random_curve[columns]
        alpha_curves[i] = perc_f_curve(ds.is_female[_alphabetical(ds, indices)])[columns]
        records.append(
            {
                "dataset": ds.id,
                "cell": "proportional",
                "sample": i,
                "stream_index": rng.stream_index,
                "perc_f_sample": float(random_curve[-1]),
            }
        )
    intervals = np.empty((2, len(ks)))
    # one contiguous row per k: resampling gathers from it twice as fast
    # as from a strided column
    random_by_k = np.ascontiguousarray(random_curves.T)
    for j, k in enumerate(ks):
        rng = RandomSource(cfg.seed, agg_stream(PERCF, k))
        intervals[:, j] = stats.bootstrap_ci(random_by_k[j], rng=rng)
    return records, random_curves, alpha_curves, intervals


def _percf_rows(ds: NameDataset, cfg: ExperimentConfig, chunks) -> tuple[list, list, list]:
    """Records, aggregate and curve rows of one dataset's percf samples,
    from its k-range chunks in order.

    Emits, per position k: the mean curve of each ordering, a bootstrap
    95% interval of the random-ordering mean, kernel-smoothed versions of
    both mean curves, and the dataset's own female share as reference.
    """
    records = chunks[0][0]
    random_curves = np.hstack([chunk[1] for chunk in chunks])
    alpha_curves = np.hstack([chunk[2] for chunk in chunks])
    ci_low, ci_high = np.hstack([chunk[3] for chunk in chunks])
    reference = ds.perc_f

    mean_random = random_curves.mean(axis=0)
    mean_alpha = alpha_curves.mean(axis=0)

    ks = np.arange(1, cfg.n + 1, dtype=float)
    # every k has exactly one point per sample, so smoothing the mean curve
    # equals smoothing the pooled per-sample points
    nw_random = _smoothed(ks, mean_random, cfg.bandwidth)
    nw_alpha = _smoothed(ks, mean_alpha, cfg.bandwidth)

    curves = [
        {
            "dataset": ds.id,
            "k": k,
            "mean_random": float(mean_random[k - 1]),
            "ci_low_random": float(ci_low[k - 1]),
            "ci_high_random": float(ci_high[k - 1]),
            "mean_alphabetical": float(mean_alpha[k - 1]),
            "nw_random": float(nw_random[k - 1]),
            "nw_alphabetical": float(nw_alpha[k - 1]),
            "reference_share": reference,
        }
        for k in range(1, cfg.n + 1)
    ]

    spc = cfg.samples_per_cell
    shares = np.array([r["perc_f_sample"] for r in records])
    share_low, share_high = stats.bootstrap_ci(shares, rng=RandomSource(cfg.seed, agg_stream(PERCF, 0)))
    aggregates = [
        {
            "dataset": ds.id,
            "cell": "proportional",
            "n_samples": spc,
            "mean_perc_f_sample": float(shares.mean()),
            "std_perc_f_sample": float(shares.std(ddof=1)) if spc > 1 else 0.0,
            "ci_low": share_low,
            "ci_high": share_high,
            "reference_share": reference,
        }
    ]
    return records, aggregates, curves


# ---------------------------------------------------------------------------
# rND across a grid of requested female shares / across sample sizes
# ---------------------------------------------------------------------------


def _rnd_cell_key(kind: str) -> str:
    return "perc_fs" if kind == RND_GRID else "n"


def _rnd_cell_spec(cfg: ExperimentConfig, kind: str, cell):
    """Sample size, requested female share (None for a proportional
    sample) and stream code of one rND cell."""
    if kind == RND_GRID:
        return cfg.n, cell, share_cell_code(cell)
    return cell, None, cell


def _rnd_cell(task) -> list[dict]:
    ordinal, cfg, kind, cell = task
    ds = _run_datasets[ordinal]
    n, perc_fs, code = _rnd_cell_spec(cfg, kind, cell)
    key = _rnd_cell_key(kind)
    records = []
    try:
        # the size alone decides whether a list reaches the first
        # checkpoint, so say so before drawing anything
        rnd_checkpoints(n, cfg.step)
        for i in range(cfg.samples_per_cell):
            rng = RandomSource(cfg.seed, sample_stream(kind, code, i))
            indices = draw_sample(ds, n, rng, perc_fs)
            mask = ds.is_female[_alphabetical(ds, indices)]
            records.append(
                {
                    "dataset": ds.id,
                    key: cell,
                    "sample": i,
                    "stream_index": rng.stream_index,
                    "n_f": int(mask.sum()),
                    "raw": rnd_raw_of_mask(mask, cfg.step),
                }
            )
    except (InfeasibleSampleError, SampleTooSmallError) as exc:
        raise type(exc)(f"cell {key}={cell}: {exc}") from None
    return records


def _rnd_rows(cfg: ExperimentConfig, kind: str, grid, per_cell: list[list[dict]], global_z: float):
    """Records, aggregate and curve rows of one dataset's rND cells: each
    record is normalized under the configured scope, each cell aggregated,
    and the cell means smoothed."""
    key = _rnd_cell_key(kind)
    batch_z = max(r["raw"] for records in per_cell for r in records)
    aggregates = []
    for cell, records in zip(grid, per_cell):
        n, _, code = _rnd_cell_spec(cfg, kind, cell)
        for r in records:
            if cfg.normalizer_scope == THEORETICAL:
                z = rnd_theoretical_normalizer(n, r["n_f"], cfg.step)
            else:
                z = global_z if cfg.normalizer_scope == GLOBAL else batch_z
            r["z"] = float(z)
            r["normalized"] = 0.0 if z == 0 else r["raw"] / z
        raws = np.array([r["raw"] for r in records])
        ci_low, ci_high = stats.bootstrap_ci(raws, rng=RandomSource(cfg.seed, agg_stream(kind, code)))
        aggregates.append(
            {
                "dataset": records[0]["dataset"],
                key: cell,
                "n_samples": len(records),
                "mean_raw": float(raws.mean()),
                "std_raw": float(raws.std(ddof=1)) if len(raws) > 1 else 0.0,
                "ci_low_raw": ci_low,
                "ci_high_raw": ci_high,
                "mean_normalized": float(np.mean([r["normalized"] for r in records])),
                "z": max(r["z"] for r in records),
            }
        )
    xs = [row[key] for row in aggregates]
    means = [row["mean_raw"] for row in aggregates]
    curves = [
        {"dataset": row["dataset"], key: row[key], "mean_raw": row["mean_raw"], "nw_mean_raw": float(nw)}
        for row, nw in zip(aggregates, _smoothed(xs, means, cfg.bandwidth))
    ]
    return [r for records in per_cell for r in records], aggregates, curves


# ---------------------------------------------------------------------------
# result serialization
# ---------------------------------------------------------------------------


def _write_rows(path: Path, rows: list[dict]) -> None:
    with path.open("w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        if not rows:
            return
        header = list(rows[0])
        writer.writerow(header)
        for row in rows:
            writer.writerow([row[column] for column in header])


def write_result(result: ExperimentResult, out_dir) -> None:
    """Write ``config.json``, ``raw.csv``, ``aggregate.csv`` and
    ``curves.csv``; byte-identical for identical runs."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    payload = {"kind": result.kind, **asdict(result.config)}
    with (out / "config.json").open("w", encoding="utf-8", newline="") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
    _write_rows(out / "raw.csv", result.records)
    _write_rows(out / "aggregate.csv", result.aggregates)
    _write_rows(out / "curves.csv", result.curves)


# ---------------------------------------------------------------------------
# candidate-list audits
# ---------------------------------------------------------------------------


def read_candidate_list(path) -> tuple[tuple[str, ...], np.ndarray]:
    """Read a concrete ``name,gender`` list (e.g. real election candidates)
    into its names and female mask."""
    path = Path(path)
    rows = [
        parse_list_row(name, gender_text, path, line)
        for line, (name, gender_text) in csv_rows(path, CANDIDATE_HEADER, 2)
    ]
    if not rows:
        raise DatasetFormatError("candidate list has no rows", path=path)
    names, flags = zip(*rows)
    return names, np.array(flags)


@dataclass
class AuditResult:
    rows: list[PageAuditRow]
    below_cells: int


def run_candidate_audit(paths, k1_values, perc_fd: float | None = None) -> AuditResult:
    """Audit one or more candidate lists at the given page sizes.

    Each list is sorted alphabetically and its first page is checked at
    every page size. ``perc_fd`` is the expected female share; when None
    it is derived from each list's own composition. ``below_cells`` counts
    (list, page size) cells whose first page falls below expectation."""
    rows = []
    for path in paths:
        names, mask = read_candidate_list(path)
        expected = int(mask.sum()) / len(mask) if perc_fd is None else perc_fd
        rows.append(page_audit(names, mask, k1_values, expected, list_id=Path(path).stem))
    below = sum(1 for row in rows for flag in row.flags.values() if flag == BELOW)
    return AuditResult(rows, below)
