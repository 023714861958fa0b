"""A whole-pipeline reference for ``experiments.run_datasets``.

``reference_run`` rebuilds the records, aggregates and curves of a run one
sample at a time from the tests' oracles: ``reference_draw_sample`` for
each draw, Python's stable ``sorted`` on ``collation_key`` for the
alphabetical order, ``oracle_curve`` and ``oracle_raw`` for the metrics,
``oracle_max_raw`` for the theoretical Z, ``reference_bootstrap_ci`` for
every interval, and ``stats.nadaraya_watson`` one grid point at a time for
the smoothed columns. The stream layout and the cell list are restated
here, not imported, so that a wiring fault in the library shows as a
difference (McKeeman, "Differential Testing for Software", 1998).
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from helpers import oracle_curve, oracle_max_raw, oracle_raw, reference_bootstrap_ci, reference_draw_sample
from listfair import stats
from listfair.errors import InfeasibleSampleError, SampleTooSmallError
from listfair.ordering import collation_key
from listfair.sampling import _stratified_female_count
from listfair.streams import random_stream

LEVEL, RESAMPLES = 0.95, 2000
KIND_CODES = {"percf": 1, "rnd_grid": 2, "rnd_size": 3}


def sample_index(kind: str, code: int, sample: int) -> int:
    return KIND_CODES[kind] << 52 | code << 24 | sample


def aggregate_index(kind: str, sub: int) -> int:
    return 1 << 62 | KIND_CODES[kind] << 52 | sub


def interval(values, seed: int, kind: str, sub: int) -> tuple[float, float]:
    return reference_bootstrap_ci(values, LEVEL, RESAMPLES, random_stream(seed, aggregate_index(kind, sub)))


def smoothed(xs, ys, bandwidth) -> list[float]:
    xs = np.asarray(xs, dtype=float)
    if bandwidth is None:
        if len(set(xs.tolist())) < 2:
            return [float(y) for y in ys]
        bandwidth = float(1.06 * xs.std(ddof=1) * len(xs) ** -0.2)
    return [float(stats.nadaraya_watson(xs, ys, [x], bandwidth)[0]) for x in xs]


def genders_of(ds, indices) -> list[str]:
    return ["F" if ds.is_female[i] else "M" for i in indices]


def alphabetical(ds, indices) -> list[int]:
    return sorted(indices, key=lambda i: collation_key(ds.names[i]))


def std(values: np.ndarray) -> float:
    return float(values.std(ddof=1)) if len(values) > 1 else 0.0


@lru_cache(maxsize=None)
def max_raw(n: int, n_f: int, step: int) -> float:
    return oracle_max_raw(n, n_f, step)


def reference_run(kind: str, datasets, cfg) -> tuple[list, list, list]:
    """``(records, aggregates, curves)`` of ``run_datasets(kind, datasets,
    cfg)``, or the ``SampleTooSmallError`` or ``InfeasibleSampleError`` of
    its first failing cell, raised with the message ``cell <key>=<value>``."""
    if kind == "percf":
        parts = [percf_rows(ds, cfg) for ds in datasets]
    else:
        if kind == "rnd_grid":
            cells = [(share, cfg.n, share, round(share * 1_000_000)) for share in cfg.perc_fs_grid]
        else:
            cells = [(size, size, None, size) for size in cfg.size_grid]
        per_cell = [[rnd_cell(ds, cfg, kind, cell) for cell in cells] for ds in datasets]
        global_z = max(raw for cells_of in per_cell for _, raws in cells_of for raw in raws)
        parts = [rnd_rows(ds, cfg, kind, cells, cells_of, global_z) for ds, cells_of in zip(datasets, per_cell)]
    return tuple([row for part in parts for row in part[i]] for i in range(3))


def percf_rows(ds, cfg):
    random_curves, alpha_curves = [], []
    for i in range(cfg.samples_per_cell):
        indices = reference_draw_sample(ds, cfg.n, random_stream(cfg.seed, sample_index("percf", 0, i))).tolist()
        random_curves.append(oracle_curve(genders_of(ds, indices)))
        alpha_curves.append(oracle_curve(genders_of(ds, alphabetical(ds, indices))))
    random_curves, alpha_curves = np.array(random_curves), np.array(alpha_curves)
    reference = int(ds.counts[ds.is_female].sum()) / int(ds.counts.sum())
    mean_random, mean_alpha = random_curves.mean(axis=0), alpha_curves.mean(axis=0)
    ks = list(range(1, cfg.n + 1))
    nw_random = smoothed(ks, mean_random, cfg.bandwidth)
    nw_alpha = smoothed(ks, mean_alpha, cfg.bandwidth)
    curves = []
    for k in ks:
        low, high = interval(random_curves[:, k - 1], cfg.seed, "percf", k)
        curves.append({
            "dataset": ds.id, "k": k, "mean_random": float(mean_random[k - 1]), "ci_low_random": low,
            "ci_high_random": high, "mean_alphabetical": float(mean_alpha[k - 1]),
            "nw_random": nw_random[k - 1], "nw_alphabetical": nw_alpha[k - 1], "reference_share": reference,
        })
    shares = random_curves[:, -1]
    records = [
        {"dataset": ds.id, "cell": "proportional", "sample": i,
         "stream_index": sample_index("percf", 0, i), "perc_f_sample": float(share)}
        for i, share in enumerate(shares)
    ]
    low, high = interval(shares, cfg.seed, "percf", 0)
    aggregates = [{
        "dataset": ds.id, "cell": "proportional", "n_samples": cfg.samples_per_cell,
        "mean_perc_f_sample": float(shares.mean()), "std_perc_f_sample": std(shares),
        "ci_low": low, "ci_high": high, "reference_share": reference,
    }]
    return records, aggregates, curves


def rnd_cell(ds, cfg, kind: str, cell) -> tuple[list[int], list[float]]:
    value, n, perc_fs, code = cell
    where = f"cell {'perc_fs' if kind == 'rnd_grid' else 'n'}={value}"
    if n < cfg.step:
        raise SampleTooSmallError(where)
    if perc_fs is not None:
        women = _stratified_female_count(perc_fs, n)
        female_total = int(ds.counts[ds.is_female].sum())
        if (women > 0 and female_total == 0) or (women < n and female_total == int(ds.counts.sum())):
            raise InfeasibleSampleError(where)
    n_fs, raws = [], []
    for i in range(cfg.samples_per_cell):
        stream = random_stream(cfg.seed, sample_index(kind, code, i))
        genders = genders_of(ds, alphabetical(ds, reference_draw_sample(ds, n, stream, perc_fs).tolist()))
        n_fs.append(genders.count("F"))
        raws.append(oracle_raw(genders, cfg.step))
    return n_fs, raws


def rnd_rows(ds, cfg, kind: str, cells, cells_of, global_z: float):
    key = "perc_fs" if kind == "rnd_grid" else "n"
    batch_z = max(raw for _, raws in cells_of for raw in raws)
    records, aggregates = [], []
    for (value, n, _, code), (n_fs, raws) in zip(cells, cells_of):
        if cfg.normalizer_scope == "theoretical":
            zs = [max_raw(n, n_f, cfg.step) for n_f in n_fs]
        else:
            zs = [global_z if cfg.normalizer_scope == "global" else batch_z] * len(raws)
        normalized = [raw / z if z else 0.0 for raw, z in zip(raws, zs)]
        records.extend(
            {"dataset": ds.id, key: value, "sample": i, "stream_index": sample_index(kind, code, i),
             "n_f": n_f, "raw": raw, "z": z, "normalized": share}
            for i, (n_f, raw, z, share) in enumerate(zip(n_fs, raws, zs, normalized))
        )
        raw_array = np.array(raws)
        low, high = interval(raw_array, cfg.seed, kind, code)
        aggregates.append({
            "dataset": ds.id, key: value, "n_samples": len(raws), "mean_raw": float(raw_array.mean()),
            "std_raw": std(raw_array), "ci_low_raw": low, "ci_high_raw": high,
            "mean_normalized": float(np.array(normalized).mean()), "z": max(zs),
        })
    xs = [row[key] for row in aggregates]
    means = [row["mean_raw"] for row in aggregates]
    curves = [
        {"dataset": ds.id, key: row[key], "mean_raw": row["mean_raw"], "nw_mean_raw": nw}
        for row, nw in zip(aggregates, smoothed(xs, means, cfg.bandwidth))
    ]
    return records, aggregates, curves


def first_difference(name: str, expected: list[dict], got: list[dict]) -> str | None:
    """Where the rows ``got`` first differ from ``expected``: the table,
    the row's dataset, cell and sample, and the field; None if they agree."""
    for index, (want, have) in enumerate(zip(expected, got)):
        if want != have or list(want) != list(have):
            field = next((f for f in (*want, *have) if want.get(f, "<absent>") != have.get(f, "<absent>")), "order")
            cell = {f: want[f] for f in ("dataset", "cell", "perc_fs", "n", "k", "sample") if f in want}
            return (f"{name}[{index}] {cell}: field {field!r} expected {want.get(field, '<absent>')!r}, "
                    f"got {have.get(field, '<absent>')!r}")
    if len(expected) != len(got):
        return f"{name}: expected {len(expected)} rows, got {len(got)}"
    return None
