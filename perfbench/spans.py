"""Spans around listfair's layers, recorded from outside the package.

``install`` wraps each layer's functions by patching module attributes:
every loaded ``listfair`` module that holds a reference to the original
function gets the wrapper, so ``from x import y`` copies are covered too.
Nothing under ``src/`` is edited. A name that no longer exists is listed
as missing rather than treated as a failure.

A span is one JSON line: id, parent id, layer, start, end (monotonic
clock, comparable across processes on one machine), pid and counts.
Spans stay in memory and each process appends its own to
``spans-<pid>.jsonl``; a forked pool worker inherits the open span stack,
so its task spans name the parent's ``_map_tasks`` span as their parent,
and it flushes after every task because pool workers never run exit
handlers.

``layer_metrics`` turns the span files of one traced iteration into the
per-layer metrics. Self time is a span's duration minus the union of its
children's intervals, so parallel children in two workers are not
subtracted twice.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import json
import os
import pickle
import sys
import time
from pathlib import Path

# layer -> functions wrapped for it, as (module, attribute)
WRAPPED = {
    "dataset.load": [("listfair.dataset", "load_canonical")],
    "sampling.draw": [("listfair.sampling", "draw_sample")],
    "sampling.shuffle": [("listfair.sampling", "fisher_yates")],
    "ordering.sort": [("listfair.ordering", "sort_alphabetical")],
    "metrics.curve": [("listfair.metrics", "perc_f_curve")],
    "metrics.rnd_raw": [("listfair.metrics", "rnd_raw")],
    "metrics.normalizer": [("listfair.metrics", "rnd_theoretical_normalizer")],
    "metrics.parity": [("listfair.metrics", "statistical_parity")],
    "metrics.audit": [("listfair.metrics", "page_audit")],
    "stats.bootstrap": [("listfair.stats", "bootstrap_ci")],
    "stats.smooth": [("listfair.stats", "nadaraya_watson")],
    "experiments.run": [("listfair.experiments", "run_experiment")],
    "experiments.map": [("listfair.experiments", "_map_tasks")],
    "experiments.task": [
        ("listfair.experiments", "_percf_chunk"),
        ("listfair.experiments", "_rnd_cell"),
    ],
    "experiments.write": [("listfair.experiments", "write_result")],
    "cli.main": [("listfair.cli", "main")],
    "cli.read": [
        ("listfair.sampling", "read_sample_csv"),
        ("listfair.experiments", "read_candidate_list"),
    ],
    "cli.write": [("listfair.cli", "_open_out")],
}
COLLATION = ("listfair.ordering", "collation_key")

# spans the benchmark adds for its own work; they count in no layer
BENCH_PICKLE = "bench.pickle"
CLI_IMPORT = "cli.import"


class Recorder:
    """In-memory span buffer of one process, with the open-span stack."""

    def __init__(self, out_dir: Path):
        self.out_dir = Path(out_dir)
        self.pid = os.getpid()
        self.root_pid = self.pid
        self.spans: list[dict] = []
        self.stack: list[str] = []
        self.serial = 0
        self.watching_collation = False

    def _own(self) -> None:
        # a forked worker inherits the parent's finished spans and state
        if os.getpid() != self.pid:
            self.pid = os.getpid()
            self.spans = []
            self.watching_collation = False

    @contextlib.contextmanager
    def span(self, layer: str, counts: dict | None = None):
        self._own()
        self.serial += 1
        span_id = f"{self.pid}.{self.serial}"
        record = {
            "id": span_id,
            "parent": self.stack[-1] if self.stack else None,
            "layer": layer,
            "pid": self.pid,
            "counts": dict(counts or {}),
        }
        self.stack.append(span_id)
        record["start"] = time.perf_counter()
        try:
            yield record["counts"]
        finally:
            record["end"] = time.perf_counter()
            self.stack.pop()
            self.spans.append(record)

    def add(self, layer: str, start: float, end: float, counts: dict | None = None) -> None:
        """Record a span measured elsewhere, e.g. an import before install."""
        self._own()
        self.serial += 1
        self.spans.append({
            "id": f"{self.pid}.{self.serial}",
            "parent": self.stack[-1] if self.stack else None,
            "layer": layer, "pid": self.pid, "counts": dict(counts or {}),
            "start": start, "end": end,
        })

    def flush(self) -> None:
        self._own()
        if not self.spans:
            return
        self.out_dir.mkdir(parents=True, exist_ok=True)
        with (self.out_dir / f"spans-{self.pid}.jsonl").open("a", encoding="utf-8") as fh:
            for record in self.spans:
                fh.write(json.dumps(record) + "\n")
        self.spans = []


def _collation_info():
    module = sys.modules.get(COLLATION[0])
    info = getattr(getattr(module, COLLATION[1], None), "cache_info", None)
    return info() if info is not None else None


def _collation_counts(before, counts: dict) -> None:
    after = _collation_info()
    if before is not None and after is not None:
        counts["collation_hits"] = after.hits - before.hits
        counts["collation_misses"] = after.misses - before.misses


def _wrap(rec: Recorder, layer: str, fn):
    signature = inspect.signature(fn)

    if layer == "stats.bootstrap":
        def counts_of(args, kwargs):
            bound = signature.bind(*args, **kwargs)
            bound.apply_defaults()
            size = len(bound.arguments["values"])
            return {"resample_draws": int(bound.arguments["resamples"]) * size}
    elif layer == "experiments.map":
        def counts_of(args, kwargs):
            tasks = signature.bind(*args, **kwargs).arguments["tasks"]
            with rec.span(BENCH_PICKLE):
                sizes = [len(pickle.dumps(task, pickle.HIGHEST_PROTOCOL)) for task in tasks]
            return {"tasks": len(sizes), "task_bytes": sum(sizes)}
    else:
        def counts_of(args, kwargs):
            return {}

    if layer == "cli.write":
        @functools.wraps(fn)
        @contextlib.contextmanager
        def wrapper(*args, **kwargs):
            with rec.span(layer), fn(*args, **kwargs) as value:
                yield value
        return wrapper

    # collation deltas are taken around the outermost of these per process
    collation_root = layer in ("experiments.run", "experiments.task", "cli.main")

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        rec._own()
        watch = collation_root and not rec.watching_collation
        before = _collation_info() if watch else None
        rec.watching_collation |= watch
        try:
            with rec.span(layer, counts_of(args, kwargs)) as counts:
                result = fn(*args, **kwargs)
                if layer == "dataset.load":
                    counts["records"] = len(result.records)
                if watch:
                    _collation_counts(before, counts)
        finally:
            if watch:
                rec.watching_collation = False
        if layer == "experiments.task" and os.getpid() != rec.root_pid:
            rec.flush()
        return result

    return wrapper


def install(rec: Recorder) -> list[str]:
    """Wrap every function in ``WRAPPED``; return the names not found."""
    missing = []
    for layer, targets in WRAPPED.items():
        for module_name, attr in targets:
            try:
                module = importlib.import_module(module_name)
            except ImportError:
                module = None
            original = getattr(module, attr, None)
            if original is None or not callable(original):
                missing.append(f"{module_name}.{attr}")
                continue
            wrapper = _wrap(rec, layer, original)
            for name, loaded in list(sys.modules.items()):
                if name == "listfair" or name.startswith("listfair."):
                    for key, value in list(vars(loaded).items()):
                        if value is original:
                            setattr(loaded, key, wrapper)
    if _collation_info() is None:
        missing.append(".".join(COLLATION) + ".cache_info")
    return missing


# ---------------------------------------------------------------------------
# per-layer metrics from the span files of one traced iteration
# ---------------------------------------------------------------------------

def read_spans(directory: Path) -> list[dict]:
    spans = []
    for path in sorted(Path(directory).glob("spans-*.jsonl")):
        with path.open(encoding="utf-8") as fh:
            spans.extend(json.loads(line) for line in fh if line.strip())
    return spans


def _covered(start: float, end: float, intervals) -> float:
    total, reach = 0.0, start
    for lo, hi in sorted(intervals):
        lo, hi = max(lo, reach), min(hi, end)
        if hi > lo:
            total += hi - lo
            reach = hi
    return total


def self_times(spans: list[dict]) -> dict[str, float]:
    children: dict[str, list[tuple[float, float]]] = {}
    for span in spans:
        if span["parent"] is not None:
            children.setdefault(span["parent"], []).append((span["start"], span["end"]))
    return {
        span["id"]: (span["end"] - span["start"])
        - _covered(span["start"], span["end"], children.get(span["id"], ()))
        for span in spans
    }


# per-layer metric -> (layer, what): "self" sums self time, "calls" counts
# spans, any other word sums that count over the layer's spans
_SIMPLE = {
    "stats.bootstrap_s": ("stats.bootstrap", "self"),
    "stats.bootstrap_calls": ("stats.bootstrap", "calls"),
    "stats.resample_draws": ("stats.bootstrap", "resample_draws"),
    "stats.smooth_s": ("stats.smooth", "self"),
    "sampling.shuffle_s": ("sampling.shuffle", "self"),
    "sampling.shuffle_calls": ("sampling.shuffle", "calls"),
    "sampling.draw_s": ("sampling.draw", "self"),
    "sampling.draw_calls": ("sampling.draw", "calls"),
    "dataset.records": ("dataset.load", "records"),
    "dataset.load_s": ("dataset.load", "self"),
    "ordering.sort_s": ("ordering.sort", "self"),
    "ordering.sort_calls": ("ordering.sort", "calls"),
    "metrics.curve_s": ("metrics.curve", "self"),
    "metrics.rnd_raw_s": ("metrics.rnd_raw", "self"),
    "metrics.normalizer_s": ("metrics.normalizer", "self"),
    "metrics.normalizer_calls": ("metrics.normalizer", "calls"),
    "metrics.parity_s": ("metrics.parity", "self"),
    "metrics.audit_s": ("metrics.audit", "self"),
    "experiments.self_s": ("experiments.run", "self"),
    "experiments.write_s": ("experiments.write", "self"),
    "cli.import_s": (CLI_IMPORT, "self"),
    "cli.read_s": ("cli.read", "self"),
    "cli.write_s": ("cli.write", "self"),
}


def layer_metrics(spans: list[dict]) -> dict[str, float]:
    """Per-layer metrics of one iteration, keyed by metric name."""
    own = self_times(spans)
    by_id = {span["id"]: span for span in spans}
    out: dict[str, float] = {}
    for name, (layer, what) in _SIMPLE.items():
        mine = [span for span in spans if span["layer"] == layer]
        if what == "self":
            out[name] = sum(own[span["id"]] for span in mine)
        elif what == "calls":
            out[name] = len(mine)
        else:
            out[name] = sum(span["counts"].get(what, 0) for span in mine)

    # a map span is pooled when its tasks ran in another process; its self
    # time is then the parent's wait not covered by any worker's task
    pooled = {
        span["parent"] for span in spans
        if span["layer"] == "experiments.task" and span["parent"] in by_id
        and by_id[span["parent"]]["pid"] != span["pid"]
    }
    pooled_spans = [by_id[i] for i in pooled]
    out["experiments.pool_tasks"] = sum(s["counts"].get("tasks", 0) for s in pooled_spans)
    out["experiments.pool_task_bytes"] = sum(s["counts"].get("task_bytes", 0) for s in pooled_spans)
    out["experiments.pool_wait_s"] = sum(own[s["id"]] for s in pooled_spans)

    hits = sum(span["counts"].get("collation_hits", 0) for span in spans)
    misses = sum(span["counts"].get("collation_misses", 0) for span in spans)
    lookups = hits + misses
    out["ordering.collation_lookups"] = lookups
    out["ordering.collation_hit_ratio"] = hits / lookups if lookups else 0.0
    return out
