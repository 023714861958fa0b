"""Compare a parent revision with HEAD on one benchmark workload, in pairs.

Extracts REV and HEAD with ``git archive`` into two sibling directories
under ``.bench_work/pairs/`` whose paths have the same length: the heap
placement of large buffers, and with it the timing of fixture workloads,
moves with the length of the checkout path. Each checkout links to this
repository's ``.bench_cache``, so a seed's registry is generated once.
For every seed, both checkouts run ``perfbench/run.py --trace 0`` on the
workload, the parent first in even pairs and the change first in odd ones.
Prints each end-to-end metric's median [quartiles] per side and the number
of pairs in which the change was better. Only committed code is compared.

Usage: python scripts/bench_pairs.py --parent REV --workload W --seeds A-B
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
    return range(int(first), int(last or first) + 1)


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


def run(tree: Path, workload: str, seed: int) -> dict | None:
    """The result line of one benchmark run, or None if it failed."""
    env = {key: value for key, value in os.environ.items() if key != "PYTHONPATH"}
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
            "--trace", "0"]
    done = subprocess.run(argv, cwd=tree, env=env, capture_output=True, text=True)
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if done.returncode == 0 and lines else None
    if result is None or not result["correct"]:
        print(f"# {tree.name} seed {seed}: run failed\n{done.stdout}{done.stderr}", file=sys.stderr)
        return None
    return {name: metric["value"] for name, metric in result["metrics"].items()}


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, help="revision to compare HEAD with")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", required=True, type=seed_range, help="A-B, inclusive")
    args = parser.parse_args()

    work = REPO_ROOT / ".bench_work" / "pairs"
    trees = {side: work / side for side in SIDES}
    checkout(args.parent, trees["parent"])
    checkout("HEAD", trees["change"])

    pairs = []
    for i, seed in enumerate(args.seeds):
        order = SIDES if i % 2 == 0 else SIDES[::-1]
        pair = {side: run(trees[side], args.workload, seed) for side in order}
        if None in pair.values():
            continue
        pairs.append(pair)
        print(f"# seed {seed}: " + ", ".join(
            f"{side} wall_s {pair[side]['wall_s']:.3f}" for side in SIDES), file=sys.stderr)
    if not pairs:
        print("bench_pairs: no pair completed", file=sys.stderr)
        return 1

    spec = json.loads((trees["change"] / "BENCHMARK.json").read_text(encoding="utf-8"))
    print(f"{args.workload}: {len(pairs)} pairs, seeds {args.seeds.start}-{args.seeds.stop - 1}, "
          f"median [quartiles] parent -> change")
    for metric in spec["end_to_end"]:
        name = metric["name"]
        sign = 1 if metric["better"] == "lower" else -1
        won = sum(sign * (pair["change"][name] - pair["parent"][name]) < 0 for pair in pairs)
        text = []
        for side in SIDES:
            q1, median, q3 = quartiles([pair[side][name] for pair in pairs])
            text.append(f"{median:.4g} [{q1:.4g}, {q3:.4g}]")
        print(f"  {name}: {text[0]} -> {text[1]} {metric['unit']}; "
              f"change better in {won}/{len(pairs)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
