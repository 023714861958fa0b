"""Closed-loop experiment runner: one client, one iteration at a time.

Imports listfair once, then forks a fresh child per iteration. The child
calls ``listfair.experiments.run_experiment`` and exits; the parent reaps
it with ``wait4``, whose resource usage covers the child and the pool
workers it waited for, so CPU time and peak RSS are those of the whole
process tree. Forking keeps interpreter start-up and imports (measured
separately as ``setup_s``) out of every iteration while each iteration
still starts with an empty collation cache, as a ``listfair experiment``
process would. This parent never calls into listfair, so the caches it
hands to its children stay empty.

Rounds run while one as long as the previous still ends within
``--seconds``; the first always runs. Untraced mode times plain
iterations. Traced mode alternates a plain and
a traced iteration, so tracing overhead is measured against runs made at
the same time; with ``--check-jobs`` the first round adds a plain run at
that job count, whose outputs must match byte for byte.

Usage: python3 perfbench/runner.py --kind rnd_size --dataset D --jobs 2 \
    --seed 42 --seconds 20 --trace 1 --work DIR [--check-jobs 1]
Writes DIR/runner.json and exits 0 unless the runner itself broke.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
import traceback
from pathlib import Path

from listfair import experiments

import spans


def _child(kind: str, dataset: str, seed: int, jobs: int, traced: bool, run_dir: Path) -> dict:
    cfg = experiments.ExperimentConfig(dataset_paths=[dataset], seed=seed)
    missing: list[str] = []
    rec = None
    if traced:
        rec = spans.Recorder(run_dir / "spans")
        missing = spans.install(rec)
    start = time.perf_counter()
    # looked up on the module so that the traced wrapper is the one called
    experiments.run_experiment(kind, cfg, out_dir=run_dir / "out", jobs=jobs)
    wall = time.perf_counter() - start
    if rec is not None:
        rec.flush()
    return {"wall_s": wall, "missing": missing}


def run_iteration(args, index: int, mode: str, jobs: int, work: Path) -> dict:
    run_dir = work / f"iter-{index:04d}-{mode}"
    run_dir.mkdir(parents=True)
    sys.stdout.flush()
    sys.stderr.flush()
    pid = os.fork()
    if pid == 0:
        code = 1
        try:
            payload = _child(args.kind, args.dataset, args.seed, jobs, mode == "traced", run_dir)
            code = 0
        except BaseException:
            payload = {"error": traceback.format_exc()}
        try:
            (run_dir / "child.json").write_text(json.dumps(payload), encoding="utf-8")
        finally:
            sys.stderr.flush()
            os._exit(code)
    _, status, usage = os.wait4(pid, 0)
    record = {"mode": mode, "jobs": jobs, "dir": str(run_dir),
              "exit": os.waitstatus_to_exitcode(status),
              "cpu_s": usage.ru_utime + usage.ru_stime,
              "peak_rss_kb": usage.ru_maxrss}
    try:
        record.update(json.loads((run_dir / "child.json").read_text(encoding="utf-8")))
    except (OSError, ValueError) as exc:
        record["error"] = f"no child report: {exc}"
    record["ok"] = record["exit"] == 0 and "error" not in record
    return record


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--kind", required=True, choices=experiments.KINDS)
    parser.add_argument("--dataset", required=True)
    parser.add_argument("--jobs", type=int, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--work", type=Path, required=True)
    parser.add_argument("--check-jobs", type=int, default=None)
    args = parser.parse_args()

    records = []
    deadline = time.perf_counter() + args.seconds
    index = 0
    while True:
        started = time.perf_counter()
        plan = [("plain", args.jobs)]
        if args.trace:
            plan.append(("traced", args.jobs))
            if index == 0 and args.check_jobs is not None:
                plan.append(("jobs_check", args.check_jobs))
        for mode, jobs in plan:
            records.append(run_iteration(args, index, mode, jobs, args.work))
            index += 1
        # start another round only if one as long as the last still fits
        if 2 * time.perf_counter() - started > deadline:
            break
    (args.work / "runner.json").write_text(json.dumps(records), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
