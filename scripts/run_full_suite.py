"""Run the three experiments on the bundled fixture and print summaries.

Writes one result directory per experiment under results/ (config.json,
raw.csv, aggregate.csv, curves.csv) and prints the headline numbers. All
runs are seeded, so re-running reproduces the directories byte for byte.

Usage: python scripts/run_full_suite.py [--out results] [--seed 42] [--jobs N]
"""

from __future__ import annotations

import argparse
from pathlib import Path

from listfair.dataset import load_canonical
from listfair.experiments import (
    PERCF,
    RND_GRID,
    RND_SIZE,
    ExperimentConfig,
    run_candidate_audit,
    run_datasets,
    write_result,
)

REPO_ROOT = Path(__file__).resolve().parents[1]


def summarize_percf(result) -> None:
    rows = {row["k"]: row for row in result.curves}
    print("  random vs alphabetical female share of the first k names:")
    for k in (10, 50, 100):
        row = rows[k]
        print(
            f"    k={k:3d}: random {row['mean_random']:.3f} "
            f"[{row['ci_low_random']:.3f}, {row['ci_high_random']:.3f}], "
            f"alphabetical {row['mean_alphabetical']:.3f}"
        )
    print(f"    dataset share: {rows[10]['reference_share']:.3f}")


def summarize_rnd(result, key) -> None:
    print(f"  mean raw rND by {key}:")
    for row in result.aggregates:
        print(
            f"    {key}={row[key]}: raw {row['mean_raw']:.3f} "
            f"(normalized {row['mean_normalized']:.3f}, z={row['z']:.3f})"
        )


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", default=str(REPO_ROOT / "results"), help="output root")
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--jobs", type=int, default=1)
    args = parser.parse_args()

    fixture = REPO_ROOT / "data" / "fixture.csv"
    out_root = Path(args.out)
    ds = load_canonical(fixture)
    print(f"dataset {ds.id}: {len(ds.names)} names, female share {ds.perc_f:.4f}")

    cfg = ExperimentConfig(dataset_paths=[str(fixture)], seed=args.seed)
    for kind, label in ((PERCF, "percf"), (RND_GRID, "rnd-grid"), (RND_SIZE, "rnd-size")):
        out_dir = out_root / label
        print(f"\n{label} -> {out_dir}")
        result = run_datasets(kind, [ds], cfg, jobs=args.jobs)
        write_result(result, out_dir)
        if kind == PERCF:
            summarize_percf(result)
        elif kind == RND_GRID:
            summarize_rnd(result, "perc_fs")
        else:
            summarize_rnd(result, "n")

    print("\nfirst-page audit of the bundled candidate lists (5/9/15 per page):")
    audit = run_candidate_audit(
        sorted((REPO_ROOT / "data" / "candidates").glob("*.csv")),
        k1_values=(5, 9, 15),
    )
    for row in audit.rows:
        shares = {k: round(v, 3) for k, v in row.per_k1.items()}
        print(f"  {row.list_id}: {row.size} rows, expected {row.perc_fd:.3f}, first page {shares}")
    print(f"  cells below expectation: {audit.below_cells}")


if __name__ == "__main__":
    main()
