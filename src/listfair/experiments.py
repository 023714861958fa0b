"""Reproducible experiment drivers.

Three drivers cover the measurement protocol: prefix-share curves under
random vs alphabetical ordering, rND across a grid of requested female
shares, and rND across sample sizes. A fourth audits concrete candidate
lists. Results are written as plain CSVs plus the resolved config, so a
run is fully described by its output directory.

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
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from listfair import stats
from listfair.dataset import NameDataset, csv_rows, demographics, load_canonical
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
    rnd_raw_of_mask,
    rnd_theoretical_normalizer,
)
from listfair.ordering import alphabetical_order, collation_ranks
from listfair.sampling import (
    STRATIFIED,
    DatasetArrays,
    Individual,
    RandomSource,
    dataset_arrays,
    draw_sample,
    female_mask,
    parse_individual,
    stratified_female_count,
)

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

    def validate(self, require_paths: bool = False) -> None:
        if require_paths and not self.dataset_paths:
            raise ValueError("config needs at least one dataset path")
        if not 1 <= self.samples_per_cell < _MAX_SAMPLES:
            raise ValueError("samples_per_cell must be >= 1")
        if not 1 <= self.n < _MAX_CELL_CODE:
            raise ValueError("n must be >= 1")
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
                raise ValueError(f"size_grid entries must be >= 1, got {size}")
        if len(set(self.size_grid)) != len(self.size_grid):
            raise ValueError("size_grid entries are not distinct")
        if self.normalizer_scope not in NORMALIZER_SCOPES:
            raise ValueError(
                f"normalizer_scope must be one of {NORMALIZER_SCOPES}, got {self.normalizer_scope!r}"
            )
        if self.bandwidth is not None and self.bandwidth <= 0:
            raise ValueError("bandwidth must be positive when given")

    def to_json_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_json_file(cls, path) -> "ExperimentConfig":
        path = Path(path)
        with path.open(encoding="utf-8") as fh:
            try:
                payload = json.load(fh)
            except json.JSONDecodeError as exc:
                raise DatasetFormatError(f"invalid JSON: {exc}", path=path) from None
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
        return cls(**payload)


@dataclass
class ExperimentResult:
    """Raw per-sample records plus per-cell aggregates and plot-ready
    curves; ``arrays`` holds in-memory extras (e.g. full curve matrices)
    that are not serialized."""

    kind: str
    config: ExperimentConfig
    records: list[dict]
    aggregates: list[dict]
    curves: list[dict]
    z_by_dataset: dict[str, float]
    arrays: dict = field(default_factory=dict, repr=False)


def _pool_size(jobs: int, n_tasks: int, cpus: int | None) -> int:
    """Workers worth starting: never more than the tasks or the CPUs."""
    return max(1, min(jobs, n_tasks, cpus or 1))


def _map_tasks(fn, tasks, jobs: int) -> list:
    workers = _pool_size(jobs, len(tasks), os.cpu_count())
    if workers == 1:
        return [fn(task) for task in tasks]
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, tasks))


def _experiment_arrays(ds: NameDataset) -> DatasetArrays:
    """The arrays one run works on, built once in the parent process;
    pool tasks carry these instead of the dataset's record objects."""
    return dataset_arrays(ds, rank=collation_ranks([r.name for r in ds.records]))


def _alphabetical(arrays: DatasetArrays, indices: np.ndarray) -> np.ndarray:
    return indices[alphabetical_order(arrays.rank[indices])]


def _smoothed(xs, ys, bandwidth: float | None) -> np.ndarray:
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    if bandwidth is None:
        if np.unique(xs).size < 2:
            return ys.copy()
        bandwidth = stats.silverman_bandwidth(xs)
    return stats.nadaraya_watson(stats.XYSeries(xs, ys), xs, bandwidth).y


# ---------------------------------------------------------------------------
# prefix-share curves under random vs alphabetical ordering
# ---------------------------------------------------------------------------


def _percf_chunk(task) -> list[tuple[dict, np.ndarray, np.ndarray]]:
    arrays, cfg, first, last = task
    out = []
    for i in range(first, last):
        rng = RandomSource(cfg.seed, sample_stream(PERCF, 0, i))
        indices = draw_sample(arrays, cfg.n, rng)
        random_curve = perc_f_curve(arrays.is_female[indices])
        alpha_curve = perc_f_curve(arrays.is_female[_alphabetical(arrays, indices)])
        record = {
            "dataset": arrays.id,
            "cell": "proportional",
            "sample": i,
            "stream_index": rng.stream_index,
            "perc_f_sample": float(random_curve[-1]),
        }
        out.append((record, random_curve, alpha_curve))
    return out


def run_percf_experiment(ds: NameDataset, cfg: ExperimentConfig, jobs: int = 1) -> ExperimentResult:
    """Prefix-share curves of proportional samples under both orderings.

    Emits, per position k: the mean curve of each ordering, a bootstrap
    95% interval of the random-ordering mean, kernel-smoothed versions of
    both mean curves, and the dataset's own female share as reference.
    """
    cfg.validate()
    spc = cfg.samples_per_cell
    bounds = np.linspace(0, spc, min(max(jobs, 1), spc) + 1, dtype=int)
    arrays = _experiment_arrays(ds)
    tasks = [
        (arrays, cfg, int(first), int(last))
        for first, last in zip(bounds[:-1], bounds[1:])
        if last > first
    ]
    triplets = [item for chunk in _map_tasks(_percf_chunk, tasks, jobs) for item in chunk]
    records = [t[0] for t in triplets]
    random_curves = np.vstack([t[1] for t in triplets])
    alpha_curves = np.vstack([t[2] for t in triplets])
    reference = demographics(ds).perc_f

    mean_random = random_curves.mean(axis=0)
    mean_alpha = alpha_curves.mean(axis=0)
    ci_low = np.empty(cfg.n)
    ci_high = np.empty(cfg.n)
    # one contiguous row per k: resampling gathers from it twice as fast
    # as from a strided column
    random_by_k = np.ascontiguousarray(random_curves.T)
    for k in range(1, cfg.n + 1):
        ci = stats.bootstrap_ci(
            random_by_k[k - 1],
            rng=RandomSource(cfg.seed, agg_stream(PERCF, k)),
        )
        ci_low[k - 1] = ci.lower
        ci_high[k - 1] = ci.upper

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

    shares = np.array([r["perc_f_sample"] for r in records])
    share_ci = stats.bootstrap_ci(shares, rng=RandomSource(cfg.seed, agg_stream(PERCF, 0)))
    aggregates = [
        {
            "dataset": ds.id,
            "cell": "proportional",
            "n_samples": spc,
            "mean_perc_f_sample": float(shares.mean()),
            "std_perc_f_sample": float(shares.std(ddof=1)) if spc > 1 else 0.0,
            "ci_low": share_ci.lower,
            "ci_high": share_ci.upper,
            "reference_share": reference,
        }
    ]
    arrays = {f"{ds.id}/random": random_curves, f"{ds.id}/alphabetical": alpha_curves}
    return ExperimentResult(PERCF, cfg, records, aggregates, curves, {}, arrays)


# ---------------------------------------------------------------------------
# rND across a grid of requested female shares / across sample sizes
# ---------------------------------------------------------------------------


def _rnd_cell(task) -> list[dict]:
    arrays, cfg, kind, cell_value = task
    records = []
    if kind == RND_GRID:
        perc_fs = cell_value
        code = share_cell_code(perc_fs)
        n = cfg.n
        n_f = stratified_female_count(perc_fs, n)
        try:
            z_theory = rnd_theoretical_normalizer(n, n_f, cfg.step)
        except SampleTooSmallError as exc:
            raise SampleTooSmallError(f"cell perc_fs={perc_fs}: {exc}") from None
        for i in range(cfg.samples_per_cell):
            rng = RandomSource(cfg.seed, sample_stream(kind, code, i))
            try:
                indices = draw_sample(arrays, n, rng, STRATIFIED, perc_fs)
            except InfeasibleSampleError as exc:
                raise InfeasibleSampleError(f"cell perc_fs={perc_fs}: {exc}") from None
            raw = rnd_raw_of_mask(arrays.is_female[_alphabetical(arrays, indices)], cfg.step)
            records.append(
                {
                    "dataset": arrays.id,
                    "perc_fs": perc_fs,
                    "sample": i,
                    "stream_index": rng.stream_index,
                    "n_f": n_f,
                    "raw": raw,
                    "_z_theoretical": z_theory,
                }
            )
    else:
        n = cell_value
        for i in range(cfg.samples_per_cell):
            rng = RandomSource(cfg.seed, sample_stream(kind, n, i))
            indices = draw_sample(arrays, n, rng)
            n_f = int(arrays.is_female[indices].sum())
            try:
                raw = rnd_raw_of_mask(arrays.is_female[_alphabetical(arrays, indices)], cfg.step)
            except SampleTooSmallError as exc:
                raise SampleTooSmallError(f"cell n={n}: {exc}") from None
            records.append(
                {
                    "dataset": arrays.id,
                    "n": n,
                    "sample": i,
                    "stream_index": rng.stream_index,
                    "n_f": n_f,
                    "raw": raw,
                    "_z_theoretical": rnd_theoretical_normalizer(n, n_f, cfg.step),
                }
            )
    return records


def _run_rnd_records(ds, cfg, kind, jobs) -> list[dict]:
    grid = cfg.perc_fs_grid if kind == RND_GRID else cfg.size_grid
    arrays = _experiment_arrays(ds)
    tasks = [(arrays, cfg, kind, cell) for cell in grid]
    return [rec for cell_records in _map_tasks(_rnd_cell, tasks, jobs) for rec in cell_records]


def _normalize_records(records: list[dict], scope: str, batch_z: float | None) -> None:
    for record in records:
        z_theory = record.pop("_z_theoretical")
        z = z_theory if scope == THEORETICAL else batch_z
        record["z"] = float(z)
        record["normalized"] = 0.0 if z == 0 else record["raw"] / z


def _rnd_cell_key(kind: str) -> str:
    return "perc_fs" if kind == RND_GRID else "n"


def _rnd_aggregates(records: list[dict], cfg: ExperimentConfig, kind: str, grid) -> list[dict]:
    key = _rnd_cell_key(kind)
    rows = []
    for cell in grid:
        cell_records = [r for r in records if r[key] == cell]
        raws = np.array([r["raw"] for r in cell_records])
        normalized = np.array([r["normalized"] for r in cell_records])
        code = share_cell_code(cell) if kind == RND_GRID else cell
        ci = stats.bootstrap_ci(
            raws, rng=RandomSource(cfg.seed, agg_stream(kind, code))
        )
        rows.append(
            {
                "dataset": cell_records[0]["dataset"],
                key: cell,
                "n_samples": len(cell_records),
                "mean_raw": float(raws.mean()),
                "std_raw": float(raws.std(ddof=1)) if len(raws) > 1 else 0.0,
                "ci_low_raw": ci.lower,
                "ci_high_raw": ci.upper,
                "mean_normalized": float(normalized.mean()),
                "z": float(max(r["z"] for r in cell_records)),
            }
        )
    return rows


def _rnd_curves(aggregates: list[dict], cfg: ExperimentConfig, kind: str) -> list[dict]:
    key = _rnd_cell_key(kind)
    xs = [row[key] for row in aggregates]
    means = [row["mean_raw"] for row in aggregates]
    smoothed = _smoothed(xs, means, cfg.bandwidth)
    return [
        {
            "dataset": row["dataset"],
            key: row[key],
            "mean_raw": row["mean_raw"],
            "nw_mean_raw": float(smoothed[i]),
        }
        for i, row in enumerate(aggregates)
    ]


def _finalize_rnd(per_dataset: list[tuple[NameDataset, list[dict]]], cfg, kind) -> ExperimentResult:
    batch_z = {
        ds.id: max(r["raw"] for r in records) for ds, records in per_dataset
    }
    global_z = max(batch_z.values())
    grid = cfg.perc_fs_grid if kind == RND_GRID else cfg.size_grid
    records_all: list[dict] = []
    aggregates: list[dict] = []
    curves: list[dict] = []
    for ds, records in per_dataset:
        if cfg.normalizer_scope == GLOBAL:
            _normalize_records(records, GLOBAL, global_z)
        elif cfg.normalizer_scope == PER_BATCH:
            _normalize_records(records, PER_BATCH, batch_z[ds.id])
        else:
            _normalize_records(records, THEORETICAL, None)
        ds_aggregates = _rnd_aggregates(records, cfg, kind, grid)
        aggregates.extend(ds_aggregates)
        curves.extend(_rnd_curves(ds_aggregates, cfg, kind))
        records_all.extend(records)
    return ExperimentResult(kind, cfg, records_all, aggregates, curves, batch_z)


def run_rnd_vs_percfs(ds: NameDataset, cfg: ExperimentConfig, jobs: int = 1) -> ExperimentResult:
    """rND of alphabetically ordered stratified samples across the
    requested-female-share grid. Raw values are always emitted; the
    normalized column follows ``cfg.normalizer_scope``."""
    cfg.validate()
    records = _run_rnd_records(ds, cfg, RND_GRID, jobs)
    return _finalize_rnd([(ds, records)], cfg, RND_GRID)


def run_rnd_vs_size(ds: NameDataset, cfg: ExperimentConfig, jobs: int = 1) -> ExperimentResult:
    """rND of alphabetically ordered proportional samples across the
    sample-size grid."""
    cfg.validate()
    records = _run_rnd_records(ds, cfg, RND_SIZE, jobs)
    return _finalize_rnd([(ds, records)], cfg, RND_SIZE)


def run_experiment(kind: str, cfg: ExperimentConfig, out_dir=None, jobs: int = 1) -> ExperimentResult:
    """Load the configured datasets, run one experiment kind over all of
    them, and (optionally) write the result directory.

    With ``normalizer_scope = "global"`` the empirical normalizer is the
    maximum raw value across every configured dataset; "per_batch" keeps
    one normalizer per dataset."""
    if kind not in KINDS:
        raise ValueError(f"unknown experiment kind {kind!r}")
    cfg.validate(require_paths=True)
    datasets = [load_canonical(path) for path in cfg.dataset_paths]
    ids = [ds.id for ds in datasets]
    if len(set(ids)) != len(ids):
        raise ValueError(f"dataset ids are not unique: {ids}")
    if kind == PERCF:
        partials = [run_percf_experiment(ds, cfg, jobs) for ds in datasets]
        result = ExperimentResult(
            kind,
            cfg,
            [r for p in partials for r in p.records],
            [a for p in partials for a in p.aggregates],
            [c for p in partials for c in p.curves],
            {},
            {key: value for p in partials for key, value in p.arrays.items()},
        )
    else:
        per_dataset = [(ds, _run_rnd_records(ds, cfg, kind, jobs)) for ds in datasets]
        result = _finalize_rnd(per_dataset, cfg, kind)
    if out_dir is not None:
        write_result(result, out_dir)
    return result


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
    payload = {"kind": result.kind, **result.config.to_json_dict()}
    with (out / "config.json").open("w", encoding="utf-8", newline="") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
    _write_rows(out / "raw.csv", result.records)
    _write_rows(out / "aggregate.csv", result.aggregates)
    _write_rows(out / "curves.csv", result.curves)


# ---------------------------------------------------------------------------
# candidate-list audits
# ---------------------------------------------------------------------------


def read_candidate_list(path) -> tuple[Individual, ...]:
    """Read a concrete ``name,gender`` list (e.g. real election candidates)."""
    path = Path(path)
    individuals = tuple(
        parse_individual(name, gender_text, path, line)
        for line, (name, gender_text) in csv_rows(path, CANDIDATE_HEADER, 2)
    )
    if not individuals:
        raise DatasetFormatError("candidate list has no rows", path=path)
    return individuals


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
        individuals = read_candidate_list(path)
        mask = female_mask(individuals)
        expected = int(mask.sum()) / len(mask) if perc_fd is None else perc_fd
        names = [ind.name for ind in individuals]
        rows.append(page_audit(names, mask, k1_values, expected, list_id=Path(path).stem))
    below = sum(1 for row in rows for flag in row.flags.values() if flag == BELOW)
    return AuditResult(rows, below)
