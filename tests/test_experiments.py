import functools
import json
import multiprocessing
import os
import pickle
import warnings
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict

import numpy as np
import pytest

from listfair import dataset, experiments
from listfair.dataset import read_candidate_list, write_canonical
from listfair.errors import DatasetFormatError, InfeasibleSampleError, SampleTooSmallError
from listfair.experiments import (
    GLOBAL,
    KINDS,
    PER_BATCH,
    PERCF,
    RND_GRID,
    RND_SIZE,
    THEORETICAL,
    _pool_size,
    ExperimentConfig,
    agg_stream,
    run_datasets,
    run_experiment,
    sample_stream,
    share_cell_code,
    write_result,
)
from listfair.metrics import (
    perc_f_curve,
    rnd_raw_of_mask,
    rnd_theoretical_normalizer,
)
from listfair.ordering import collation_key
from listfair.streams import random_stream

from helpers import dataset_from_counts, reference_draw_sample

SMALL_DATASET = dataset_from_counts(
    [
        ("Aaron", "M", 900),
        ("Ana", "F", 400),
        ("Beatriz", "F", 350),
        ("Bruno", "M", 250),
        ("Carla", "F", 200),
        ("Diego", "M", 150),
    ],
    dataset_id="small",
)
OTHER_DATASET = dataset_from_counts(
    [("Ana", "F", 500), ("Aaron", "M", 800), ("Zoe", "F", 300)],
    dataset_id="other",
)


def generated_dataset(rows: int, dataset_id: str):
    """``rows`` seeded records with Zipf-like counts and both genders; four
    spellings per stem, three of which share a collation key."""
    rng = np.random.default_rng(rows)
    counts = rng.permutation(1 + (10**6 / np.arange(1, rows + 1) ** 1.1).astype(int))
    genders = rng.choice(["F", "M"], size=rows)
    spec = []
    for i in range(rows):
        stem = f"Nome{i // 4:05d}"
        name = (stem, stem.upper(), stem.lower(), stem + "\u00e9")[i % 4]
        spec.append((name, str(genders[i]), int(counts[i])))
    return dataset_from_counts(spec, dataset_id=dataset_id)


LARGE_DATASET = generated_dataset(4000, "large")


def small_config(**overrides):
    defaults = dict(
        samples_per_cell=8,
        n=40,
        perc_fs_grid=[0.25, 0.5, 0.75],
        size_grid=[20, 40],
        seed=7,
    )
    defaults.update(overrides)
    return ExperimentConfig(**defaults)


def test_default_config_is_valid():
    cfg = ExperimentConfig()
    cfg.validate()
    assert cfg.samples_per_cell == 100
    assert cfg.n == 1000
    assert cfg.perc_fs_grid[0] == 0.05
    assert cfg.perc_fs_grid[-1] == 0.95
    assert len(cfg.perc_fs_grid) == 19
    assert cfg.size_grid == [200, 500, 1000, 2000]
    assert cfg.seed == 42
    assert cfg.normalizer_scope == PER_BATCH


# numbered ids in row order: append new rows at the end
CONFIG_REJECTS = [
    ({"samples_per_cell": 0}, "samples_per_cell must be >= 1 and < 2**24, got 0"),
    ({"n": 0}, "n must be >= 1 and < 2**28, got 0"),
    ({"seed": -1}, "seed must be a 64-bit non-negative integer"),
    ({"seed": 2**64}, "seed must be a 64-bit non-negative integer"),
    ({"step": 0}, "step must be >= 2"),
    ({"perc_fs_grid": []}, "perc_fs_grid must be non-empty"),
    ({"perc_fs_grid": [0.0]}, "perc_fs_grid entries must lie in (0, 1), got 0.0"),
    ({"perc_fs_grid": [1.0]}, "perc_fs_grid entries must lie in (0, 1), got 1.0"),
    ({"perc_fs_grid": [0.5, 0.5]}, "perc_fs_grid entries are not distinct"),
    ({"size_grid": []}, "size_grid must be non-empty"),
    ({"size_grid": [0]}, "size_grid entries must be >= 1 and < 2**28, got 0"),
    ({"size_grid": [100, 100]}, "size_grid entries are not distinct"),
    ({"normalizer_scope": "percentile"}, "normalizer_scope must be one of"),
    ({"bandwidth": 0.0}, "bandwidth must be positive when given"),
    ({"step": 1}, "step must be >= 2"),
    ({"n": 2**28}, "n must be >= 1 and < 2**28, got 268435456"),
    ({"samples_per_cell": 2**24}, "samples_per_cell must be >= 1 and < 2**24, got 16777216"),
    ({"size_grid": [2**28]}, "size_grid entries must be >= 1 and < 2**28, got 268435456"),
]


@pytest.mark.parametrize(
    "overrides, message", CONFIG_REJECTS, ids=[f"overrides{i}" for i in range(len(CONFIG_REJECTS))]
)
def test_config_validation_rejects(overrides, message):
    with pytest.raises(ValueError) as err:
        small_config(**overrides).validate()
    assert str(err.value).startswith(message)


@pytest.mark.parametrize(
    "jobs, n_tasks, cpus, expected",
    [
        (1, 19, 2, 1),
        (2, 4, 2, 2),
        (8, 3, 2, 2),
        (8, 3, 16, 3),
        (10**6, 19, 2, 2),
        (4, 1, 8, 1),
        (4, 0, 8, 1),
        (4, 10, None, 1),
    ],
)
def test_pool_size_is_bounded_by_tasks_and_cpus(jobs, n_tasks, cpus, expected):
    assert _pool_size(jobs, n_tasks, cpus) == expected


def test_config_requires_paths_only_when_asked():
    cfg = small_config()
    cfg.validate()
    with pytest.raises(ValueError):
        cfg.validate(require_paths=True)


def test_config_json_round_trip(tmp_path):
    cfg = small_config(dataset_paths=["data/fixture.csv"], bandwidth=2.5)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(asdict(cfg)), encoding="utf-8")
    assert ExperimentConfig.from_json_file(path) == cfg


@pytest.mark.parametrize(
    "body, fragment",
    [
        ("[1, 2]", "JSON object"),
        ("{not json", "invalid JSON"),
        ('{"samples": 3}', "unknown config keys: samples"),
        pytest.param('{"n": ' + "9" * 5001 + "}", "a number has too many digits: 5001", id="n-of-5001-digits"),
        pytest.param(
            '{"n": ' + "[" * 100000 + "]" * 100000 + "}", "maximum recursion depth exceeded",
            id="n-nested-100000-deep",
        ),
    ],
)
def test_config_file_errors(tmp_path, body, fragment):
    path = tmp_path / "config.json"
    path.write_text(body, encoding="utf-8")
    with pytest.raises(DatasetFormatError) as err:
        ExperimentConfig.from_json_file(path)
    assert str(err.value).startswith(f"{path}: ")
    assert fragment in str(err.value)


def test_stream_indices_are_disjoint():
    seen = set()
    for kind in (PERCF, RND_GRID, RND_SIZE):
        for cell in (0, 1, 200, share_cell_code(0.55)):
            for sample in (0, 1, 99):
                seen.add(sample_stream(kind, cell, sample))
        for sub in (0, 1, 40):
            seen.add(agg_stream(kind, sub))
    assert len(seen) == 3 * (4 * 3 + 3)
    # aggregation streams can never collide with sample streams
    assert all(
        (s & (1 << 62)) == 0 or s >= (1 << 62) for s in seen
    )


def test_percf_experiment_shapes_and_determinism():
    cfg = small_config()
    result = run_datasets(PERCF, [SMALL_DATASET], cfg)
    assert len(result.records) == cfg.samples_per_cell
    assert len(result.curves) == cfg.n
    assert len(result.aggregates) == 1
    assert result.aggregates[0]["n_samples"] == cfg.samples_per_cell

    again = run_datasets(PERCF, [SMALL_DATASET], small_config())
    assert again.records == result.records
    assert again.curves == result.curves


def test_percf_parallel_matches_serial(monkeypatch):
    # each task bootstraps one range of positions k, one range per worker
    # started; n = 7 splits unevenly
    ranges = []
    real_map = experiments._map_tasks

    def spying_map(fn, tasks, jobs):
        ranges.append([task[3] for task in tasks])
        return real_map(fn, tasks, jobs)

    monkeypatch.setattr(experiments, "_map_tasks", spying_map)
    for n in (40, 7):
        serial = run_datasets(PERCF, [SMALL_DATASET], small_config(n=n), jobs=1)
        assert [row["k"] for row in serial.curves] == list(range(1, n + 1))
        for jobs in (2, 3):
            parallel = run_datasets(PERCF, [SMALL_DATASET], small_config(n=n), jobs=jobs)
            assert serial.records == parallel.records
            assert serial.curves == parallel.curves
            assert serial.aggregates == parallel.aggregates
            assert len(ranges[-1]) == _pool_size(jobs, n, experiments._usable_cpus())
            assert [k for ks in ranges[-1] for k in ks] == list(range(1, n + 1))


def test_percf_curve_columns_are_coherent():
    result = run_datasets(PERCF, [SMALL_DATASET], small_config())
    for row in result.curves:
        assert row["ci_low_random"] <= row["ci_high_random"]
        assert 0.0 <= row["mean_random"] <= 1.0
        assert 0.0 <= row["mean_alphabetical"] <= 1.0
        assert 0.0 <= row["nw_random"] <= 1.0
    # a bandwidth this small overflows every weight but a point's own,
    # silently: the smoothed curve is the mean curve
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        tiny = run_datasets(PERCF, [SMALL_DATASET], small_config(bandwidth=1e-300))
    assert all(row["nw_random"] == row["mean_random"] for row in tiny.curves)


def test_rnd_grid_records_and_normalization():
    cfg = small_config()
    result = run_datasets(RND_GRID, [SMALL_DATASET], cfg)
    assert len(result.records) == len(cfg.perc_fs_grid) * cfg.samples_per_cell

    batch_z = max(r["raw"] for r in result.records)
    for record in result.records:
        assert record["z"] == batch_z
        assert 0.0 <= record["normalized"] <= 1.0
        assert record["normalized"] == pytest.approx(
            record["raw"] / batch_z if batch_z else 0.0
        )
    for row in result.aggregates:
        assert row["n_samples"] == cfg.samples_per_cell
        assert row["ci_low_raw"] <= row["mean_raw"] <= row["ci_high_raw"]


@pytest.mark.parametrize("scope", [PER_BATCH, GLOBAL, THEORETICAL])
@pytest.mark.parametrize("kind", [RND_GRID, RND_SIZE])
def test_aggregate_z_is_the_largest_z_of_its_cell(kind, scope):
    cfg = small_config(normalizer_scope=scope, samples_per_cell=30)
    result = run_datasets(kind, [SMALL_DATASET, OTHER_DATASET], cfg)
    key = "perc_fs" if kind == RND_GRID else "n"
    distinct = []
    for row in result.aggregates:
        zs = {r["z"] for r in result.records if (r["dataset"], r[key]) == (row["dataset"], row[key])}
        assert row["z"] == max(zs)
        distinct.append(len(zs))
    # one Z per batch or per run; under the theoretical scope the female
    # counts of a proportional cell differ, and with them its Zs
    if scope != THEORETICAL:
        assert set(distinct) == {1}
    elif kind == RND_SIZE:
        assert max(distinct) > 1


def test_rnd_grid_stratified_counts_recorded():
    cfg = small_config(perc_fs_grid=[0.5])
    result = run_datasets(RND_GRID, [SMALL_DATASET], cfg)
    assert all(r["n_f"] == 20 for r in result.records)


def test_rnd_grid_cell_independence():
    full = run_datasets(RND_GRID, [SMALL_DATASET], small_config())
    subset = run_datasets(RND_GRID, [SMALL_DATASET], small_config(perc_fs_grid=[0.5]))
    full_cell = [r for r in full.records if r["perc_fs"] == 0.5]
    subset_cell = list(subset.records)
    # z differs (different batches), but draws and raw values must match
    for a, b in zip(full_cell, subset_cell):
        assert a["stream_index"] == b["stream_index"]
        assert a["raw"] == b["raw"]
        assert a["n_f"] == b["n_f"]


def test_rnd_size_cell_independence_and_content():
    full = run_datasets(RND_SIZE, [SMALL_DATASET], small_config())
    subset = run_datasets(RND_SIZE, [SMALL_DATASET], small_config(size_grid=[40]))
    full_cell = [r for r in full.records if r["n"] == 40]
    for a, b in zip(full_cell, subset.records):
        assert (a["stream_index"], a["raw"], a["n_f"]) == (
            b["stream_index"],
            b["raw"],
            b["n_f"],
        )
    # proportional draws: female counts vary across samples
    assert len({r["n_f"] for r in full.records}) > 1


def test_theoretical_scope_normalizes_per_sample():
    cfg = small_config(normalizer_scope=THEORETICAL)
    for kind in (RND_GRID, RND_SIZE):
        result = run_datasets(kind, [SMALL_DATASET], cfg)
        for record in result.records:
            n = record.get("n", cfg.n)
            assert record["z"] == rnd_theoretical_normalizer(n, record["n_f"], cfg.step)
            assert 0.0 <= record["normalized"] <= 1.0
            if record["z"]:
                assert record["raw"] <= record["z"] + 1e-12


@pytest.mark.parametrize("kind", [RND_GRID, RND_SIZE])
def test_theoretical_z_is_computed_once_per_female_count(monkeypatch, kind):
    calls = []

    def counting(n, n_f, step):
        calls.append((n, n_f))
        return rnd_theoretical_normalizer(n, n_f, step)

    monkeypatch.setattr(experiments, "rnd_theoretical_normalizer", counting)
    cfg = small_config(normalizer_scope=THEORETICAL, samples_per_cell=30)
    result = run_datasets(kind, [SMALL_DATASET], cfg)
    keys = {(record.get("n", cfg.n), record["n_f"]) for record in result.records}
    assert sorted(calls) == sorted(keys)
    # a stratified cell fixes n_f; proportional ones repeat some counts
    assert len(keys) == len(cfg.perc_fs_grid) if kind == RND_GRID else len(keys) < len(result.records)


# ALEX and alex share a collation key but not a gender
TIED_DATASET = dataset_from_counts(
    [("ALEX", "F", 300), ("alex", "M", 500), ("Bea", "F", 200), ("Bo", "M", 100), ("Zed", "F", 50)],
    dataset_id="tied",
)


@pytest.mark.parametrize("kind", KINDS)
def test_sample_blocks_match_one_sample_at_a_time(kind):
    # BLOCK // 3000 is 5, so 12 samples come in blocks of 5, 5 and 2
    n, share = 3000, 0.3
    cfg = ExperimentConfig(samples_per_cell=12, n=n, perc_fs_grid=[share], size_grid=[n], seed=11)
    assert experiments.stats.BLOCK // n == 5
    ds = TIED_DATASET
    perc_fs = share if kind == RND_GRID else None
    code = {PERCF: 0, RND_GRID: share_cell_code(share), RND_SIZE: n}[kind]
    blocks = list(experiments._blocks(ds, cfg, kind, code, n, perc_fs))
    assert [(rows.start, rows.stop) for rows, _, _ in blocks] == [(0, 5), (5, 10), (10, 12)]
    drawn = np.concatenate([masks for _, masks, _ in blocks])
    alphabetical = np.concatenate([masks for _, _, masks in blocks])
    assert drawn.dtype == alphabetical.dtype == bool
    experiments._set_run_datasets([ds])
    try:
        if kind == PERCF:
            random_curves, alpha_curves, _ = experiments._percf_chunk((0, cfg, kind, range(1, n + 1)))
            assert len(random_curves) == len(alpha_curves) == 12
        else:
            cell = (share if kind == RND_GRID else n, n, perc_fs, code)
            n_f, raw = experiments._rnd_cell((0, cfg, kind, cell))
            assert len(n_f) == len(raw) == 12
    finally:
        experiments._set_run_datasets(None)
    for i in range(12):
        stream = random_stream(cfg.seed, sample_stream(kind, code, i))
        indices = reference_draw_sample(ds, n, stream, perc_fs).tolist()
        # Python's stable sort on the collation key itself
        mask = ds.is_female[sorted(indices, key=lambda index: collation_key(ds.names[index]))]
        assert drawn[i].tolist() == ds.is_female[indices].tolist()
        assert alphabetical[i].tolist() == mask.tolist()
        if kind == PERCF:
            assert random_curves[i].tolist() == perc_f_curve(ds.is_female[indices]).tolist()
            assert alpha_curves[i].tolist() == perc_f_curve(mask).tolist()
        else:
            assert n_f[i] == int(mask.sum())
            assert raw[i] == rnd_raw_of_mask(mask, cfg.step)


@pytest.mark.parametrize("kind", KINDS)
def test_two_datasets_in_one_run(kind):
    # jobs never changes a row, and without a shared Z each dataset's rows
    # are those of its own single-dataset run
    cfg = small_config()
    both = run_datasets(kind, [SMALL_DATASET, OTHER_DATASET], cfg, jobs=1)
    assert run_datasets(kind, [SMALL_DATASET, OTHER_DATASET], cfg, jobs=2) == both
    for ds in (SMALL_DATASET, OTHER_DATASET):
        alone = run_datasets(kind, [ds], cfg)
        for rows, own in (
            (both.records, alone.records),
            (both.aggregates, alone.aggregates),
            (both.curves, alone.curves),
        ):
            assert [row for row in rows if row["dataset"] == ds.id] == own


@pytest.mark.parametrize("scope", [PER_BATCH, GLOBAL])
def test_one_pool_map_per_run_and_no_theoretical_z_outside_its_scope(monkeypatch, two_cpus, scope):
    maps = []

    def counting_map(fn, tasks, jobs):
        maps.append(len(tasks))
        return [fn(task) for task in tasks]

    def forbidden(*args):
        raise AssertionError("theoretical Z computed outside its scope")

    monkeypatch.setattr(experiments, "_map_tasks", counting_map)
    monkeypatch.setattr(experiments, "rnd_theoretical_normalizer", forbidden)
    cfg = small_config(normalizer_scope=scope)
    run_datasets(RND_SIZE, [SMALL_DATASET, OTHER_DATASET], cfg, jobs=2)
    run_datasets(PERCF, [SMALL_DATASET, OTHER_DATASET], cfg, jobs=2)
    assert maps == [2 * len(cfg.size_grid), 2 * 2]


@pytest.fixture()
def two_cpus(monkeypatch):
    # the pool is never larger than the CPUs; make sure jobs 2 starts one
    monkeypatch.setattr(experiments, "_usable_cpus", lambda: 2)


def test_jobs_beyond_the_affinity_mask_start_no_pool(monkeypatch):
    # a host of two CPUs, of which the process may run on one
    monkeypatch.setattr(experiments.os, "cpu_count", lambda: 2)
    monkeypatch.setattr(experiments.os, "sched_getaffinity", lambda pid: {0}, raising=False)

    def no_pool(*args, **kwargs):
        raise AssertionError("a pool was started")

    ranges = []
    real_map = experiments._map_tasks

    def spying_map(fn, tasks, jobs):
        ranges.append([task[3] for task in tasks])
        return real_map(fn, tasks, jobs)

    monkeypatch.setattr(experiments, "ProcessPoolExecutor", no_pool)
    monkeypatch.setattr(experiments, "_map_tasks", spying_map)
    cfg = small_config()
    parallel = run_datasets(PERCF, [SMALL_DATASET], cfg, jobs=2)
    assert ranges == [[range(1, cfg.n + 1)]]
    assert parallel == run_datasets(PERCF, [SMALL_DATASET], cfg, jobs=1)
    assert experiments._usable_cpus() == 1
    # without an affinity mask, every CPU of the host counts
    monkeypatch.delattr(experiments.os, "sched_getaffinity")
    assert experiments._usable_cpus() == 2


def test_percf_makes_one_range_per_worker_started(monkeypatch, two_cpus):
    # every range redraws all the samples, so jobs beyond the CPUs would
    # only repeat that work
    ranges = []
    real_map = experiments._map_tasks

    def spying_map(fn, tasks, jobs):
        ranges.append([task[3] for task in tasks])
        return real_map(fn, tasks, jobs)

    monkeypatch.setattr(experiments, "_map_tasks", spying_map)
    cfg = small_config()
    serial = run_datasets(PERCF, [SMALL_DATASET], cfg, jobs=1)
    assert run_datasets(PERCF, [SMALL_DATASET], cfg, jobs=8) == serial
    assert [len(tasks) for tasks in ranges] == [1, 2]
    assert [k for ks in ranges[-1] for k in ks] == list(range(1, cfg.n + 1))


@pytest.mark.parametrize("kind", KINDS)
def test_jobs_do_not_change_rows_on_a_large_dataset(two_cpus, kind):
    cfg = small_config()
    serial = run_datasets(kind, [LARGE_DATASET], cfg, jobs=1)
    assert run_datasets(kind, [LARGE_DATASET], cfg, jobs=2) == serial


@pytest.mark.parametrize("kind", [PERCF, RND_SIZE])
def test_pool_task_size_does_not_grow_with_the_dataset(monkeypatch, two_cpus, kind):
    sizes = []
    real_map = experiments._map_tasks

    def measuring_map(fn, tasks, jobs):
        sizes.append([len(pickle.dumps(task, pickle.HIGHEST_PROTOCOL)) for task in tasks])
        return real_map(fn, tasks, jobs)

    monkeypatch.setattr(experiments, "_map_tasks", measuring_map)
    tiny = generated_dataset(10, "tiny")
    big = generated_dataset(5000, "big")
    for ds in (tiny, big):
        run_datasets(kind, [ds], small_config(), jobs=2)
    assert sizes[0] == sizes[1]
    assert max(sizes[1]) < 1000


def test_run_datasets_are_set_for_the_run_only(monkeypatch):
    seen = []
    real_map = experiments._map_tasks

    def spying_map(fn, tasks, jobs):
        seen.append([ds.id for ds in experiments._run_datasets])
        return real_map(fn, tasks, jobs)

    monkeypatch.setattr(experiments, "_map_tasks", spying_map)
    run_datasets(RND_SIZE, [SMALL_DATASET, OTHER_DATASET], small_config(), jobs=2)
    assert seen == [["small", "other"]]
    assert experiments._run_datasets is None
    with pytest.raises(SampleTooSmallError):
        run_datasets(RND_SIZE, [SMALL_DATASET], small_config(size_grid=[5, 40]))
    assert experiments._run_datasets is None


@pytest.mark.parametrize("kind", KINDS)
def test_rank_is_built_once_per_dataset_in_the_parent(monkeypatch, tmp_path, two_cpus, kind):
    # a forked worker runs the patched function too, so a rank built in a
    # worker would log the worker's pid
    fork = multiprocessing.get_context("fork")
    monkeypatch.setattr(
        experiments, "ProcessPoolExecutor", functools.partial(ProcessPoolExecutor, mp_context=fork)
    )
    log = tmp_path / "pids"
    real_ranks = dataset.collation_ranks

    def logging_ranks(names):
        with log.open("a", encoding="utf-8") as fh:
            fh.write(f"{os.getpid()}\n")
        return real_ranks(names)

    monkeypatch.setattr(dataset, "collation_ranks", logging_ranks)
    # fresh datasets: the module-level ones may hold a rank already
    fresh = [generated_dataset(40, "a"), generated_dataset(41, "b")]
    run_datasets(kind, fresh, small_config(), jobs=2)
    assert log.read_text(encoding="utf-8").split() == [str(os.getpid())] * 2
    assert all(np.array_equal(ds.rank, real_ranks(ds.names)) for ds in fresh)


@pytest.mark.parametrize("kind", KINDS)
def test_run_reads_a_one_shot_iterable_of_datasets(kind):
    # the datasets are read once, so a generator gives the rows a list gives
    cfg = small_config()
    expected = run_datasets(kind, [SMALL_DATASET, OTHER_DATASET], cfg)
    assert run_datasets(kind, (ds for ds in [SMALL_DATASET, OTHER_DATASET]), cfg) == expected


@pytest.mark.parametrize(("kind", "unused"), [(PERCF, "strata"), (RND_SIZE, "strata"), (RND_GRID, "cdf")])
def test_run_builds_only_the_draw_table_of_its_kind(kind, unused):
    # percf and rnd_size draw proportional samples from cdf, rnd_grid
    # stratified ones from strata
    fresh = generated_dataset(40, "fresh")
    run_datasets(kind, [fresh], small_config(), jobs=1)
    assert "rank" in fresh.__dict__
    assert unused not in fresh.__dict__


def test_spawned_workers_receive_the_datasets(monkeypatch, two_cpus):
    # a spawned worker inherits no module state: the datasets reach it only
    # through the pool initializer
    spawn = multiprocessing.get_context("spawn")
    monkeypatch.setattr(
        experiments, "ProcessPoolExecutor", functools.partial(ProcessPoolExecutor, mp_context=spawn)
    )
    cfg = small_config()
    serial = run_datasets(RND_GRID, [SMALL_DATASET, OTHER_DATASET], cfg, jobs=1)
    assert run_datasets(RND_GRID, [SMALL_DATASET, OTHER_DATASET], cfg, jobs=2) == serial


@pytest.mark.parametrize("scope", [PER_BATCH, GLOBAL, THEORETICAL])
def test_single_gender_dataset_normalizes_to_zero(scope):
    # every list is all male, so every raw value and every Z is 0; a zero
    # Z reports a normalized 0 rather than dividing by it
    male_only = dataset_from_counts([("Aaron", "M", 5), ("Bruno", "M", 3)], dataset_id="m")
    result = run_datasets(RND_SIZE, [male_only], small_config(normalizer_scope=scope))
    assert {(r["raw"], r["z"], r["normalized"]) for r in result.records} == {(0.0, 0.0, 0.0)}


def test_global_scope_shares_one_z_across_datasets(tmp_path):
    path_a = tmp_path / "small.csv"
    path_b = tmp_path / "other.csv"
    write_canonical(SMALL_DATASET, path_a)
    write_canonical(OTHER_DATASET, path_b)

    cfg = small_config(
        dataset_paths=[str(path_a), str(path_b)], normalizer_scope=GLOBAL
    )
    result = run_experiment(RND_GRID, cfg)
    zs = {r["z"] for r in result.records}
    assert zs == {max(r["raw"] for r in result.records)}
    assert {r["dataset"] for r in result.records} == {"small", "other"}


def test_sample_too_small_cell_is_reported():
    cfg = small_config(size_grid=[5, 40])
    with pytest.raises(SampleTooSmallError) as err:
        run_datasets(RND_SIZE, [SMALL_DATASET], cfg)
    assert "cell n=5" in str(err.value)


@pytest.mark.parametrize(
    "rows, overrides, error",
    [
        ([("Aaron", "M", 5)], {}, InfeasibleSampleError),
        (None, {"n": 5}, SampleTooSmallError),
    ],
)
def test_grid_cell_errors_name_the_share(rows, overrides, error):
    ds = SMALL_DATASET if rows is None else dataset_from_counts(rows, dataset_id="m")
    cfg = small_config(perc_fs_grid=[0.25, 0.5], **overrides)
    with pytest.raises(error) as err:
        run_datasets(RND_GRID, [ds], cfg)
    assert str(err.value).startswith("cell perc_fs=0.25: ")


def test_run_experiment_validates_kind_and_ids(tmp_path):
    path = tmp_path / "small.csv"
    write_canonical(SMALL_DATASET, path)
    cfg = small_config(dataset_paths=[str(path)])
    with pytest.raises(ValueError):
        run_experiment("unknown", cfg)
    dup = small_config(dataset_paths=[str(path), str(path)])
    with pytest.raises(ValueError):
        run_experiment(RND_GRID, dup)
    with pytest.raises(ValueError, match="at least one dataset"):
        run_datasets(RND_GRID, [], small_config())


def test_write_result_layout_and_reloadable_config(tmp_path):
    path = tmp_path / "small.csv"
    write_canonical(SMALL_DATASET, path)
    cfg = small_config(dataset_paths=[str(path)])
    out = tmp_path / "run"
    run_experiment(RND_GRID, cfg, out_dir=out)

    assert sorted(p.name for p in out.iterdir()) == [
        "aggregate.csv",
        "config.json",
        "curves.csv",
        "raw.csv",
    ]
    payload = json.loads((out / "config.json").read_text(encoding="utf-8"))
    assert payload["kind"] == RND_GRID
    assert ExperimentConfig.from_json_file(out / "config.json") == cfg

    raw_lines = (out / "raw.csv").read_text(encoding="utf-8").splitlines()
    assert raw_lines[0].startswith("dataset,perc_fs,sample,stream_index")
    assert len(raw_lines) == 1 + len(cfg.perc_fs_grid) * cfg.samples_per_cell
    for name in ("raw.csv", "aggregate.csv", "curves.csv"):
        assert "_z_theoretical" not in (out / name).read_text(encoding="utf-8")


def test_write_result_is_byte_stable(tmp_path):
    path = tmp_path / "small.csv"
    write_canonical(SMALL_DATASET, path)
    outs = []
    for label in ("one", "two"):
        cfg = small_config(dataset_paths=[str(path)])
        out = tmp_path / label
        run_experiment(RND_SIZE, cfg, out_dir=out)
        outs.append(out)
    for name in ("config.json", "raw.csv", "aggregate.csv", "curves.csv"):
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()


def test_read_candidate_list_errors(tmp_path):
    path = tmp_path / "candidates.csv"
    path.write_text("name,gender\nAna,F\nBruno,M\n", encoding="utf-8")
    names, mask = read_candidate_list(path)
    assert names == ("Ana", "Bruno")
    assert mask.dtype == bool and mask.tolist() == [True, False]

    bad_header = tmp_path / "bad.csv"
    bad_header.write_text("nm,g\nAna,F\n", encoding="utf-8")
    with pytest.raises(DatasetFormatError):
        read_candidate_list(bad_header)

    bad_row = tmp_path / "row.csv"
    bad_row.write_text("name,gender\nAna,F\nBruno,?\n", encoding="utf-8")
    with pytest.raises(DatasetFormatError) as err:
        read_candidate_list(bad_row)
    assert "line 3" in str(err.value)

    empty = tmp_path / "empty.csv"
    empty.write_text("name,gender\n", encoding="utf-8")
    with pytest.raises(DatasetFormatError):
        read_candidate_list(empty)
