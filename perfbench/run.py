"""listfair benchmark: end-to-end and per-layer timings of four workloads.

Each workload is a closed loop with one client that runs for at most
``--seconds``: a new iteration starts only if one as long as the last
still fits, and the first always runs. ``--trace 0`` prints the
end-to-end metrics; ``--trace 1`` prints the per-layer metrics of a
separate traced run (see ``spans.py``). Every run checks the program's
outputs: byte-identical across its iterations, traced equal to untraced,
plausible in shape at any seed, and equal to the digests pinned in
``goldens.json`` at the default seed. The last line of standard output is
one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``; the full report, with provenance and sample counts, is
printed before it and saved under ``.bench_results/``.

Usage, from the repository root:
    python3 perfbench/run.py --workload percf [--seed 42] [--seconds S] [--trace 0|1]
    python3 perfbench/run.py --workload all    # every metric of every workload
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import importlib.metadata
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import registry
import spans

ROOT = Path(__file__).resolve().parent.parent
BENCH = Path(__file__).resolve().parent
DEFAULT_SEED = 42
SETUP_REPEATS = 3
RUN_DEADLINE_S = 170
FIXTURE = "data/fixture.csv"
CANDIDATES = "data/candidates/sp_federal.csv"
REQUIRED = ("src/listfair/__init__.py", "src/listfair/cli.py", FIXTURE, CANDIDATES)
CACHE = Path(".bench_cache")
WORK = Path(".bench_work")
RESULTS = Path(".bench_results")

EXPERIMENTS = {
    "percf": {"kind": "percf", "jobs": 1},
    "rnd_grid": {"kind": "rnd_grid", "jobs": 1},
    "registry_size": {"kind": "rnd_size", "jobs": 2, "check_jobs": 1},
}
WORKLOADS = (*EXPERIMENTS, "cli_chain")
EXPERIMENT_FILES = ("config.json", "raw.csv", "aggregate.csv", "curves.csv")
# the file each CLI call writes, in call order
CHAIN = ("sample.csv", "sorted.csv", "curve.csv", "rnd.json", "parity.json", "audit.csv")
PARITY_RTOL = 1e-9
SETUP_CODE = (
    "import sys, listfair.cli\n"
    "from listfair.dataset import load_canonical\n"
    "load_canonical(sys.argv[1])\n"
)


class Timeout(Exception):
    pass


def _kill_group(pid: int) -> None:
    try:
        os.killpg(pid, signal.SIGKILL)
    except ProcessLookupError:
        pass


# ---------------------------------------------------------------------------
# processes
# ---------------------------------------------------------------------------

def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    env.pop("LISTFAIR_SEED", None)
    return env


def timed(argv: list[str], log: Path, deadline: float) -> dict:
    """Run ``argv`` to completion; wall time, tree CPU time and peak RSS.

    The child gets its own session so that a timeout can stop it and
    everything it started."""
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise Timeout(f"no time left for {argv[1:3]}")
    with log.open("w", encoding="utf-8") as out:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=ROOT, env=child_env(), stdout=out,
                                stderr=subprocess.STDOUT, start_new_session=True)
        timer = threading.Timer(remaining, _kill_group, (proc.pid,))
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    if time.monotonic() >= deadline:
        raise Timeout(f"{argv[1:3]} ran past the deadline")
    return {"wall_s": wall, "cpu_s": usage.ru_utime + usage.ru_stime,
            "peak_rss_kb": usage.ru_maxrss, "exit": proc.returncode}


def measure_setup(dataset: str, work: Path, deadline: float) -> list[dict]:
    """A fresh interpreter imports ``listfair.cli`` and loads the dataset."""
    return [timed([sys.executable, "-c", SETUP_CODE, dataset], work / f"setup-{i}.log", deadline)
            for i in range(SETUP_REPEATS)]


# ---------------------------------------------------------------------------
# output checks
# ---------------------------------------------------------------------------

def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def digests(directory: Path, names) -> dict[str, str | None]:
    return {name: sha256(directory / name) if (directory / name).is_file() else None
            for name in names}


def csv_rows(path: Path) -> int:
    with path.open(encoding="utf-8", newline="") as fh:
        return sum(1 for _ in csv.reader(fh)) - 1


def experiment_shape(out: Path, kind: str, seed: int) -> list[str]:
    """Row counts implied by the written config; holds at any seed."""
    try:
        config = json.loads((out / "config.json").read_text(encoding="utf-8"))
        if config.get("kind") != kind or config.get("seed") != seed:
            return [f"config.json names kind {config.get('kind')} seed {config.get('seed')}"]
        spc = config["samples_per_cell"]
        cells = {"percf": 1, "rnd_grid": len(config["perc_fs_grid"]),
                 "rnd_size": len(config["size_grid"])}[kind]
        expected = {"raw.csv": spc * cells, "aggregate.csv": cells,
                    "curves.csv": config["n"] if kind == "percf" else cells}
        return [f"{name} has {csv_rows(out / name)} rows, expected {rows}"
                for name, rows in expected.items() if csv_rows(out / name) != rows]
    except (OSError, ValueError, KeyError) as exc:
        return [f"unreadable output: {exc!r}"]


def chain_shape(out: Path) -> dict[str, list[str]]:
    """Per-file problems of one CLI chain's outputs; holds at any seed."""
    problems: dict[str, list[str]] = {}

    def check(name, ok, what):
        if not ok:
            problems.setdefault(name, []).append(what)

    try:
        for name, rows in (("sample.csv", 1000), ("sorted.csv", 1000), ("curve.csv", 1000),
                           ("audit.csv", 3)):
            check(name, csv_rows(out / name) == rows, f"expected {rows} rows")
        with (out / "sample.csv").open(encoding="utf-8") as a, \
                (out / "sorted.csv").open(encoding="utf-8") as b:
            same = sorted(line.split(",", 1)[1] for line in list(a)[1:]) == \
                sorted(line.split(",", 1)[1] for line in list(b)[1:])
        check("sorted.csv", same, "not a permutation of sample.csv")
        rnd = json.loads((out / "rnd.json").read_text(encoding="utf-8"))
        check("rnd.json", 0.0 <= rnd["normalized"] <= 1.0 and rnd["raw"] >= 0.0,
              f"raw {rnd['raw']} normalized {rnd['normalized']}")
        parity = json.loads((out / "parity.json").read_text(encoding="utf-8"))
        check("parity.json", 0.0 <= parity["p_value"] <= 1.0
              and parity["passes"] == (parity["p_value"] >= 0.05), f"{parity}")
    except (OSError, ValueError, KeyError, IndexError) as exc:
        problems.setdefault("unreadable", []).append(repr(exc))
    return problems


def golden_problems(workload: str, out: Path, observed: dict) -> list[str]:
    """Differences from the outputs pinned at the default seed."""
    pinned = json.loads((BENCH / "goldens.json").read_text(encoding="utf-8")).get(workload)
    if not pinned:
        return [f"no digests pinned for {workload}"]
    problems = [f"{name} digest {observed.get(name)} != pinned {digest}"
                for name, digest in pinned.items()
                if name != "parity.json" and observed.get(name) != digest]
    if "parity.json" in pinned:
        want = pinned["parity.json"]
        try:
            got = json.loads((out / "parity.json").read_text(encoding="utf-8"))
            exact = {key: got[key] for key in want if key != "p_value"}
            if exact != {key: want[key] for key in exact} or not math.isclose(
                    got["p_value"], want["p_value"], rel_tol=PARITY_RTOL, abs_tol=0.0):
                problems.append(f"parity.json {got} != pinned {want}")
        except (OSError, ValueError, KeyError) as exc:
            problems.append(f"parity.json unreadable: {exc!r}")
    return problems


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------

def dataset_for(workload: str, seed: int) -> str:
    if workload == "registry_size":
        return str(registry.ensure_registry(CACHE / f"registry-{seed}.csv", seed))
    return FIXTURE


def run_experiment_workload(workload: str, seed: int, seconds: float, trace: int,
                            work: Path, deadline: float) -> tuple[list[dict], list[str]]:
    spec = EXPERIMENTS[workload]
    argv = [sys.executable, str(BENCH / "runner.py"), "--kind", spec["kind"],
            "--dataset", dataset_for(workload, seed), "--jobs", str(spec["jobs"]),
            "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
            "--work", str(work / "runs")]
    if spec.get("check_jobs"):
        argv += ["--check-jobs", str(spec["check_jobs"])]
    (work / "runs").mkdir()
    runner = timed(argv, work / "runner.log", deadline)
    if runner["exit"] != 0:
        return [], [f"runner exited {runner['exit']}: " + (work / "runner.log").read_text()[-2000:]]
    iterations = json.loads((work / "runs" / "runner.json").read_text(encoding="utf-8"))
    reference = None
    for it in iterations:
        out = Path(it["dir"]) / "out"
        it["problems"] = [] if it["ok"] else [it.get("error") or f"exit {it['exit']}"]
        if it["ok"]:
            it["digests"] = digests(out, EXPERIMENT_FILES)
            it["problems"] += experiment_shape(out, spec["kind"], seed)
            if reference is None:
                reference = it["digests"]
            elif it["digests"] != reference:
                it["problems"].append(f"outputs differ from the first iteration ({it['mode']}, "
                                      f"jobs {it['jobs']})")
            if seed == DEFAULT_SEED:
                it["problems"] += golden_problems(workload, out, it["digests"])
        if it["mode"] == "traced" and it["ok"]:
            it["layers"] = spans.layer_metrics(spans.read_spans(Path(it["dir"]) / "spans"))
        it["calls"] = [it["wall_s"]] if it["ok"] else []
    return iterations, []


def parity_reference() -> str:
    female = total = 0
    with (ROOT / FIXTURE).open(encoding="utf-8", newline="") as fh:
        for row in csv.DictReader(fh):
            total += int(row["count"])
            female += int(row["count"]) if row["gender"].upper() == "F" else 0
    return repr(female / total)


def chain_argvs(seed: int, out: Path) -> list[list[str]]:
    sample, ordered = str(out / "sample.csv"), str(out / "sorted.csv")
    return [
        ["sample", "--dataset", FIXTURE, "--n", "1000", "--seed", str(seed), "--out", sample],
        ["sort", "--in", sample, "--out", ordered],
        ["curve", "--in", ordered, "--out", str(out / "curve.csv")],
        ["rnd", "--in", ordered, "--json", "--out", str(out / "rnd.json")],
        ["parity", "--in", ordered, "--reference", parity_reference(), "--json",
         "--out", str(out / "parity.json")],
        ["audit", "--in", CANDIDATES, "--page-sizes", "5,9,15", "--out", str(out / "audit.csv")],
    ]


def run_chain(seed: int, mode: str, run_dir: Path, deadline: float) -> dict:
    out = run_dir / "out"
    out.mkdir(parents=True)
    if mode == "traced":
        prefix = [sys.executable, str(BENCH / "cli_traced.py"), str(run_dir / "spans")]
    else:
        prefix = [sys.executable, "-m", "listfair"]
    argvs = chain_argvs(seed, out)
    start = time.perf_counter()
    calls = []
    for i, argv in enumerate(argvs):
        call = timed(prefix + argv, run_dir / f"call-{i}.log", deadline)
        calls.append(call)
        if call["exit"] != 0:
            break
    it = {"mode": mode, "dir": str(run_dir), "wall_s": time.perf_counter() - start,
          "cpu_s": sum(c["cpu_s"] for c in calls),
          "peak_rss_kb": max(c["peak_rss_kb"] for c in calls),
          "calls": [c["wall_s"] for c in calls],
          "call_ok": [c["exit"] == 0 for c in calls] + [False] * (len(CHAIN) - len(calls))}
    it["ok"] = all(it["call_ok"])
    missing = run_dir / "spans" / "missing.json"
    it["missing"] = json.loads(missing.read_text(encoding="utf-8")) if missing.is_file() else []
    return it


def run_chain_workload(seed: int, seconds: float, trace: int, work: Path,
                       deadline: float) -> tuple[list[dict], list[str]]:
    iterations = []
    stop = time.perf_counter() + seconds
    index = 0
    while True:
        started = time.perf_counter()
        for mode in ("plain", "traced") if trace else ("plain",):
            iterations.append(run_chain(seed, mode, work / f"chain-{index:04d}-{mode}", deadline))
            index += 1
        # as in runner.py: another round only if one as long as the last fits
        if 2 * time.perf_counter() - started > stop:
            break
    reference = None
    for it in iterations:
        out = Path(it["dir"]) / "out"
        it["digests"] = digests(out, CHAIN)
        shape = chain_shape(out) if it["ok"] else {}
        if reference is None and it["ok"]:
            reference = it["digests"]
        differ = [name for name in CHAIN
                  if reference is not None and it["digests"][name] != reference[name]]
        goldens = golden_problems("cli_chain", out, it["digests"]) if seed == DEFAULT_SEED else []
        it["problems"] = [f"{name}: {what}" for name, whats in shape.items() for what in whats]
        it["problems"] += [f"{name} differs from the first chain" for name in differ] + goldens
        # a problem is charged to the call that wrote the file, or to all
        for i, name in enumerate(CHAIN):
            if name in shape or name in differ or any(p.startswith(name) for p in goldens):
                it["call_ok"][i] = False
        if "unreadable" in shape or any(not p.startswith(CHAIN) for p in goldens):
            it["call_ok"] = [False] * len(CHAIN)
        if it["mode"] == "traced" and it["ok"]:
            it["layers"] = spans.layer_metrics(spans.read_spans(Path(it["dir"]) / "spans"))
    return iterations, []


# ---------------------------------------------------------------------------
# metrics and report
# ---------------------------------------------------------------------------

def tail(values: list[float]) -> tuple[float, int]:
    """The highest whole percentile with at least ten samples above it, by
    nearest rank, and that percentile. Below 21 samples no percentile
    above the median qualifies, so the median is reported (as 50)."""
    n = len(values)
    pct = math.floor(100 * (n - 10) / n) if n > 10 else 0
    if pct <= 50:
        return statistics.median(values), 50
    return sorted(values)[math.ceil(pct * n / 100) - 1], pct


def summary(values: list[float]) -> dict:
    if not values:
        return {"n": 0}
    value, pct = tail(values)
    return {"median": statistics.median(values), "tail": value, "tail_percentile": pct,
            "n": len(values), "min": min(values), "max": max(values)}


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                          text=True, check=False)
    return done.stdout.strip() or None


def provenance(seed: int) -> dict:
    source = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        source.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + path.read_bytes())

    def version(dist):
        try:
            return importlib.metadata.version(dist)
        except importlib.metadata.PackageNotFoundError:
            return None

    return {"git_commit": git_commit(), "source_sha256": source.hexdigest(), "seed": seed,
            "nproc": len(os.sched_getaffinity(0)), "cpu_model": cpu_model(),
            "python": platform.python_version(), "numpy": version("numpy"),
            "scipy": version("scipy"), "platform": platform.platform()}


def sizes(workload: str, seed: int, iterations: list[dict]) -> dict:
    dataset = dataset_for(workload, seed)
    out = {"dataset": dataset, "dataset_sha256": sha256(ROOT / dataset),
           "dataset_records": csv_rows(ROOT / dataset)}
    if workload == "cli_chain":
        out.update(sample_n=1000, calls_per_chain=len(CHAIN), audit_list=CANDIDATES)
        return out
    out["jobs"] = EXPERIMENTS[workload]["jobs"]
    for it in iterations:
        config = Path(it["dir"]) / "out" / "config.json"
        if config.is_file():
            cfg = json.loads(config.read_text(encoding="utf-8"))
            out.update({key: cfg[key] for key in ("samples_per_cell", "n", "step")})
            grid = {"rnd_grid": "perc_fs_grid", "rnd_size": "size_grid"}.get(cfg["kind"])
            out["cells"] = len(cfg[grid]) if grid else 1
            break
    return out


def benchmark_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def run_workload(workload: str, seed: int, seconds: float, trace: int) -> dict:
    os.chdir(ROOT)
    deadline = time.monotonic() + RUN_DEADLINE_S
    work = WORK / f"{workload}-s{seed}-t{trace}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    report = {"workload": workload, "trace": trace, "seconds": seconds,
              "provenance": provenance(seed)}
    problems: list[str] = []
    try:
        setup = measure_setup(dataset_for(workload, seed), work, deadline)
        if workload == "cli_chain":
            iterations, problems = run_chain_workload(seed, seconds, trace, work, deadline)
        else:
            iterations, problems = run_experiment_workload(workload, seed, seconds, trace,
                                                           work, deadline)
    except Timeout as exc:
        setup, iterations, problems = [], [], [f"timeout: {exc}"]

    setup_failed = sum(1 for s in setup if s["exit"] != 0)
    if workload == "cli_chain":
        attempted = sum(len(it["call_ok"]) for it in iterations)
        failed = sum(1 for it in iterations for ok in it["call_ok"] if not ok)
    else:
        attempted = len(iterations)
        failed = sum(1 for it in iterations if it["problems"])
    attempted += len(setup) + len(problems)
    failed += setup_failed + len(problems)
    attempted = max(attempted, 1)

    plain = [it for it in iterations if it["mode"] == "plain" and it["ok"]]
    traced = [it for it in iterations if it["mode"] == "traced" and it["ok"]]
    samples = {
        "wall_s": summary([it["wall_s"] for it in plain]),
        "cpu_s": summary([it["cpu_s"] for it in plain]),
        "peak_rss_mb": summary([it["peak_rss_kb"] / 1024 for it in plain]),
        "call_s": summary([c for it in plain for c in it["calls"]]),
        "setup_s": summary([s["wall_s"] for s in setup if s["exit"] == 0]),
    }
    values: dict[str, float] = {}
    if trace:
        samples["traced_wall_s"] = summary([it["wall_s"] for it in traced])
        layer_names = {name for it in traced for name in it.get("layers", {})}
        values = {name: statistics.median(it["layers"][name] for it in traced)
                  for name in sorted(layer_names)}
        if plain and traced:
            values["trace.overhead_s"] = (samples["traced_wall_s"]["median"]
                                          - samples["wall_s"]["median"])
    elif plain and setup:
        values = {"wall_s": samples["wall_s"]["median"], "cpu_s": samples["cpu_s"]["median"],
                  "setup_s": samples["setup_s"]["median"],
                  "peak_rss_mb": samples["peak_rss_mb"]["median"],
                  "success_rate": (attempted - failed) / attempted,
                  "call_p50_s": samples["call_s"]["median"],
                  "call_tail_s": samples["call_s"]["tail"]}
    missing = sorted({name for it in iterations for name in it.get("missing", [])})
    report.update(
        sizes=sizes(workload, seed, iterations), samples=samples,
        error_rate=failed / attempted, missing_wrappers=missing,
        problems=problems + [f"iteration {i} ({it['mode']}): {p}" for i, it in
                             enumerate(iterations) for p in it["problems"]],
        iterations=[{key: it[key] for key in ("mode", "wall_s", "cpu_s", "peak_rss_kb", "calls",
                                               "digests") if key in it} for it in iterations],
    )
    spec = benchmark_spec()
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    correct = failed == 0 and all(m["name"] in values for m in wanted)
    report["result"] = {
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {m["name"]: {"value": values.get(m["name"], 0.0), "unit": m["unit"]}
                    for m in wanted},
    }
    if correct:
        shutil.rmtree(work, ignore_errors=True)
    RESULTS.mkdir(exist_ok=True)
    stamp = time.strftime("%Y%m%dT%H%M%S", time.gmtime())
    path = RESULTS / f"{workload}-s{seed}-t{trace}-{stamp}-{os.getpid()}.json"
    path.write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")
    report["path"] = str(path)
    return report


def print_report(report: dict) -> None:
    result = report["result"]
    print(f"# {report['workload']} trace={report['trace']} seed={report['provenance']['seed']} "
          f"report={report['path']}")
    print(f"#   provenance: {json.dumps(report['provenance'])}")
    print(f"#   sizes: {json.dumps(report['sizes'])}")
    for name, key in (("wall_s", "wall_s"), ("call_s", "call_s"), ("setup_s", "setup_s")):
        s = report["samples"].get(key, {})
        if s.get("n"):
            print(f"#   {name}: median {s['median']:.4f} s, p{s['tail_percentile']} "
                  f"{s['tail']:.4f} s, n={s['n']}")
    for name, metric in result["metrics"].items():
        print(f"{report['workload']} {name} {metric['value']:.6g} {metric['unit']}")
    for problem in report["problems"]:
        print(f"# problem: {problem[:500]}")
    if report["missing_wrappers"]:
        print(f"# missing wrappers: {', '.join(report['missing_wrappers'])}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    lacking = [name for name in (*REQUIRED, "BENCHMARK.json") if not (ROOT / name).is_file()]
    if lacking:
        print(f"perfbench: not a listfair checkout, missing {', '.join(lacking)}", file=sys.stderr)
        return 2
    if not 0 <= args.seed < 2**64:
        print("perfbench: --seed must be a 64-bit non-negative integer", file=sys.stderr)
        return 2
    seconds = args.seconds if args.seconds is not None else benchmark_spec()["run_seconds"]

    if args.workload != "all":
        report = run_workload(args.workload, args.seed, seconds, args.trace)
        print_report(report)
        print(json.dumps(report["result"]))
        return 0

    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOADS:
        for trace in (0, 1):
            report = run_workload(workload, args.seed, seconds, trace)
            print_report(report)
            sys.stdout.flush()
            result = report["result"]
            combined["correct"] &= result["correct"]
            combined["attempted"] += result["attempted"]
            combined["failed"] += result["failed"]
            for name, metric in result["metrics"].items():
                combined["metrics"][f"{workload}/{name}"] = metric
    print(json.dumps(combined))
    return 0


if __name__ == "__main__":
    sys.exit(main())
