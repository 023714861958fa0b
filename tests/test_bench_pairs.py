"""The summary that ``scripts/bench_pairs.py`` prints and writes, on
canned pairs, and its checkouts, from a canned archive. The script is
loaded from its file; no benchmark is run."""

import importlib.util
import io
import subprocess
import zipfile
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "bench_pairs.py"

END_TO_END = [
    {"name": "wall_s", "unit": "s", "better": "lower", "bound": 0.25},
    {"name": "success_rate", "unit": "ratio", "better": "higher", "bound": 0.01},
]


@pytest.fixture(scope="module")
def bench_pairs():
    spec = importlib.util.spec_from_file_location("bench_pairs", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def pair(seed, parent_wall, change_wall, parent_rate=1.0, change_rate=1.0):
    return {
        "seed": seed,
        "parent": {"wall_s": parent_wall, "success_rate": parent_rate},
        "change": {"wall_s": change_wall, "success_rate": change_rate},
    }


def test_summary_of_canned_pairs(bench_pairs):
    pairs = [
        pair(1, 2.0, 1.0),
        pair(2, 4.0, 3.0, change_rate=0.5),
        pair(3, 3.0, 3.0),
        pair(4, 1.0, 2.0, parent_rate=0.5),
        pair(5, 5.0, 4.0),
    ]
    summary = bench_pairs.summarize(pairs, 2, END_TO_END)
    assert summary["pairs"] == 5
    assert summary["failed_pairs"] == 2
    wall = summary["metrics"]["wall_s"]
    assert (wall["unit"], wall["better"]) == ("s", "lower")
    # inclusive quartiles of 1..5 and of 1, 2, 3, 3, 4
    assert wall["parent"] == {"median": 3.0, "q1": 2.0, "q3": 4.0}
    assert wall["change"] == {"median": 3.0, "q1": 2.0, "q3": 3.0}
    # seeds 1, 2 and 5 are faster; seed 3 is a tie and counts for neither
    assert wall["change_better"] == 3
    rate = summary["metrics"]["success_rate"]
    # higher is better: the change wins seed 4 only
    assert rate["change_better"] == 1
    assert rate["parent"]["median"] == rate["change"]["median"] == 1.0


def test_summary_of_one_pair_and_of_none(bench_pairs):
    one = bench_pairs.summarize([pair(7, 2.0, 1.5)], 0, END_TO_END)
    assert one["metrics"]["wall_s"]["change"] == {"median": 1.5, "q1": 1.5, "q3": 1.5}
    assert one["metrics"]["wall_s"]["change_better"] == 1
    none = bench_pairs.summarize([], 3, END_TO_END)
    assert (none["pairs"], none["failed_pairs"]) == (0, 3)
    assert none["metrics"]["wall_s"]["parent"]["median"] is None


def test_checkouts_are_compiled_to_bytecode(bench_pairs, tmp_path, monkeypatch):
    # git archive is replaced by a canned zip; compileall runs for real
    sources = {"src/pkg/__init__.py": "", "src/pkg/mod.py": "X = 1\n", "perfbench/run.py": "Y = 2\n"}
    archive = io.BytesIO()
    with zipfile.ZipFile(archive, "w") as zipped:
        for name, text in sources.items():
            zipped.writestr(name, text)
    run = subprocess.run

    def fake_run(argv, **kwargs):
        if argv[0] == "git":
            return subprocess.CompletedProcess(argv, 0, stdout=archive.getvalue(), stderr=b"")
        return run(argv, **kwargs)

    (tmp_path / "repo").mkdir()
    monkeypatch.setattr(bench_pairs, "REPO_ROOT", tmp_path / "repo")
    monkeypatch.setattr(bench_pairs.subprocess, "run", fake_run)
    dest = tmp_path / "pairs" / "change"
    bench_pairs.checkout("HEAD", dest)
    for name in sources:
        assert Path(importlib.util.cache_from_source(str(dest / name))).is_file(), name
    assert (dest / ".bench_cache").resolve() == tmp_path / "repo" / ".bench_cache"


@pytest.mark.parametrize("argv, message", [
    (["--parent", "HEAD", "--workload", "percf", "--seeds", "10-1"], "argument --seeds: seed range 10-1 is empty"),
    (["--parent", "HEAD", "--workload", "percf", "nope", "--seeds", "1-2"],
     "argument --workload: invalid choice: 'nope'"),
    (["--parent", "nosuchrev", "--workload", "percf", "--seeds", "1-2"], "argument --parent: nosuchrev names no commit"),
    (["--parent", "HEAD", "--workload", "percf", "--seeds", "1-2", "--json", "{tmp}/missing/pairs.json"],
     "argument --json: directory {tmp}/missing does not exist"),
], ids=["empty-seed-range", "unknown-workload", "unknown-parent", "json-directory-missing"])
def test_bad_seeds_or_workload_is_a_usage_error_before_any_checkout(
    bench_pairs, monkeypatch, capsys, tmp_path, argv, message
):
    def no_checkout(*args):
        raise AssertionError("a checkout was made")

    monkeypatch.setattr(bench_pairs, "checkout", no_checkout)
    argv = [arg.format(tmp=tmp_path) for arg in argv]
    monkeypatch.setattr(bench_pairs.sys, "argv", ["bench_pairs.py", *argv])
    with pytest.raises(SystemExit) as exit_:
        bench_pairs.main()
    assert exit_.value.code == 2
    assert message.format(tmp=tmp_path) in capsys.readouterr().err
