"""Compare a parent revision with HEAD on benchmark workloads, in pairs.

Extracts REV and HEAD with ``git archive`` into two sibling directories
under ``.bench_work/pairs/`` whose paths have the same length: the heap
placement of large buffers, and with it the timing of fixture workloads,
moves with the length of the checkout path. Each checkout links to this
repository's ``.bench_cache``, so a seed's registry is generated once, and
has its ``src`` and ``perfbench`` compiled to bytecode, so that no run's
start-up (``setup_s``) compiles them.
For every workload and seed, both checkouts run ``perfbench/run.py
--trace 0``, the parent first in even pairs and the change first in odd
ones; a pair in which either run fails is counted as failed and left out.
Prints each end-to-end metric's median [quartiles] per side and the number
of pairs in which the change was better. ``--json PATH`` also writes the
revisions, the seeds, every pair's metrics, the machine provenance and the
summary to PATH. Only committed code is compared. A workload must be one
that the repository's ``BENCHMARK.json`` names, the seed range must not be
empty, REV must name a commit and the ``--json`` file's directory must
exist; each mistake is a usage error (exit 2) before any checkout.

Usage: python scripts/bench_pairs.py --parent REV --workload W [W ...] --seeds A-B [--json PATH]
"""

from __future__ import annotations

import argparse
import io
import json
import os
import shutil
import statistics
import subprocess
import sys
import zipfile
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[1]
# equal lengths, so the two checkout paths are equally long
SIDES = ("parent", "change")


def seed_range(text: str) -> range:
    first, _, last = text.partition("-")
    seeds = range(int(first), int(last or first) + 1)
    if not seeds:
        raise argparse.ArgumentTypeError(f"seed range {text} is empty")
    return seeds


def checkout(rev: str, dest: Path) -> None:
    shutil.rmtree(dest, ignore_errors=True)
    dest.mkdir(parents=True)
    archive = subprocess.run(
        ["git", "archive", "--format=zip", rev], cwd=REPO_ROOT, capture_output=True, check=True
    )
    with zipfile.ZipFile(io.BytesIO(archive.stdout)) as zipped:
        zipped.extractall(dest)
    cache = REPO_ROOT / ".bench_cache"
    cache.mkdir(exist_ok=True)
    (dest / ".bench_cache").symlink_to(cache, target_is_directory=True)
    # by the interpreter that runs the benchmark, so that its cache tag matches
    subprocess.run([sys.executable, "-m", "compileall", "-q", "src", "perfbench"], cwd=dest, check=True)


def revision(rev: str) -> str | None:
    """The commit ``rev`` names, or None if it names none."""
    done = subprocess.run(
        ["git", "rev-parse", "--verify", "--quiet", f"{rev}^{{commit}}"],
        cwd=REPO_ROOT, capture_output=True, text=True,
    )
    return done.stdout.strip() if done.returncode == 0 else None


def run(tree: Path, workload: str, seed: int) -> tuple[dict, dict] | None:
    """The end-to-end metrics and the provenance of one benchmark run, or
    None if it failed."""
    env = {key: value for key, value in os.environ.items() if key != "PYTHONPATH"}
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
            "--trace", "0"]
    done = subprocess.run(argv, cwd=tree, env=env, capture_output=True, text=True)
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if done.returncode == 0 and lines else None
    if result is None or not result["correct"]:
        print(f"# {tree.name} seed {seed}: run failed\n{done.stdout}{done.stderr}", file=sys.stderr)
        return None
    metrics = {name: metric["value"] for name, metric in result["metrics"].items()}
    prefix = "#   provenance: "
    provenance = next((json.loads(line[len(prefix):]) for line in lines if line.startswith(prefix)), {})
    return metrics, provenance


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def summarize(pairs: list[dict], failed: int, end_to_end: list[dict]) -> dict:
    """Each end-to-end metric's median and quartiles per side over the
    completed ``pairs``, and the pairs in which the change was better; ties
    count for neither side. ``failed`` is the number of pairs left out."""
    metrics = {}
    for metric in end_to_end:
        name = metric["name"]
        sign = 1 if metric["better"] == "lower" else -1
        summary = {"unit": metric["unit"], "better": metric["better"]}
        for side in SIDES:
            q1, median, q3 = quartiles([pair[side][name] for pair in pairs]) if pairs else (None,) * 3
            summary[side] = {"median": median, "q1": q1, "q3": q3}
        summary["change_better"] = sum(
            sign * (pair["change"][name] - pair["parent"][name]) < 0 for pair in pairs
        )
        metrics[name] = summary
    return {"pairs": len(pairs), "failed_pairs": failed, "metrics": metrics}


def print_summary(workload: str, seeds: range, summary: dict) -> None:
    print(f"{workload}: {summary['pairs']} pairs, {summary['failed_pairs']} failed, "
          f"seeds {seeds.start}-{seeds.stop - 1}, median [quartiles] parent -> change")
    for name, metric in summary["metrics"].items():
        text = [f"{s['median']:.4g} [{s['q1']:.4g}, {s['q3']:.4g}]"
                for s in (metric[side] for side in SIDES)]
        print(f"  {name}: {text[0]} -> {text[1]} {metric['unit']}; "
              f"change better in {metric['change_better']}/{summary['pairs']}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, help="revision to compare HEAD with")
    spec = json.loads((REPO_ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser.add_argument("--workload", required=True, nargs="+", choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seeds", required=True, type=seed_range, help="A-B, inclusive")
    parser.add_argument("--json", type=Path, default=None,
                        help="also write the revisions, every pair and the summary to this file")
    args = parser.parse_args()
    if args.json is not None and not args.json.parent.is_dir():
        parser.error(f"argument --json: directory {args.json.parent} does not exist")
    parent = revision(args.parent)
    if parent is None:
        parser.error(f"argument --parent: {args.parent} names no commit")

    report = {
        "parent": parent,
        "head": revision("HEAD"),
        "seeds": list(args.seeds),
        "provenance": {},
        "workloads": {},
    }
    work = REPO_ROOT / ".bench_work" / "pairs"
    trees = {side: work / side for side in SIDES}
    checkout(report["parent"], trees["parent"])
    checkout(report["head"], trees["change"])

    for workload in args.workload:
        pairs, failed = [], []
        for i, seed in enumerate(args.seeds):
            order = SIDES if i % 2 == 0 else SIDES[::-1]
            runs = {side: run(trees[side], workload, seed) for side in order}
            if None in runs.values():
                failed.append(seed)
                continue
            pairs.append({"seed": seed, **{side: runs[side][0] for side in SIDES}})
            if not report["provenance"]:
                report["provenance"] = {side: runs[side][1] for side in SIDES}
            print(f"# {workload} seed {seed}: " + ", ".join(
                f"{side} wall_s {runs[side][0]['wall_s']:.3f}" for side in SIDES), file=sys.stderr)
        summary = summarize(pairs, len(failed), spec["end_to_end"])
        report["workloads"][workload] = {"pairs": pairs, "failed_seeds": failed, "summary": summary}
        if pairs:
            print_summary(workload, args.seeds, summary)
        else:
            print(f"bench_pairs: {workload}: no pair completed", file=sys.stderr)

    if args.json is not None:
        args.json.write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")
    return 0 if all(entry["pairs"] for entry in report["workloads"].values()) else 1


if __name__ == "__main__":
    sys.exit(main())
