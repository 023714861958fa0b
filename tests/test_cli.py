import argparse
import contextlib
import io
import json
import os
import resource
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import listfair
from listfair.cli import _ENV_SEED, _build_parser, main
from listfair.dataset import write_canonical

from helpers import dataset_from_counts, run_python

DATASET_ROWS = [
    ("Aaron", "M", 500),
    ("Ana", "F", 400),
    ("Beatriz", "F", 300),
    ("Bruno", "M", 250),
    ("Carla", "F", 150),
]


@pytest.fixture()
def dataset_csv(tmp_path):
    path = tmp_path / "names.csv"
    write_canonical(dataset_from_counts(DATASET_ROWS, dataset_id="names"), path)
    return path


SAMPLE = "position,name,gender\n"
# 10 men then 10 women: the worst arrangement for N=20, n_f=10
WORST20 = "M" * 10 + "F" * 10


def sample_text(pattern: str) -> str:
    """A sample file whose genders follow a string like ``"FMMF"``."""
    return SAMPLE + "".join(f"{i},P{i:04d},{g}\n" for i, g in enumerate(pattern, start=1))


@pytest.fixture()
def worst20_csv(tmp_path):
    path = tmp_path / "worst20.csv"
    path.write_text(sample_text(WORST20), encoding="utf-8")
    return path


def test_help_exits_zero_and_lists_subcommands(capsys):
    assert main(["--help"]) == 0
    out = capsys.readouterr().out
    for name in ("convert-ssa", "sample", "sort", "curve", "rnd", "parity", "audit", "experiment"):
        assert name in out


@pytest.mark.parametrize(
    "command, flags",
    [
        ("convert-ssa", ["--dir", "--years", "--out"]),
        ("sample", ["--dataset", "--n", "--mode", "--perc-fs", "--seed", "--stream", "--out"]),
        ("sort", ["--in", "--out"]),
        ("curve", ["--in", "--out"]),
        ("rnd", ["--in", "--step", "--normalizer", "--json", "--out"]),
        ("parity", ["--in", "--reference", "--json", "--out"]),
        ("audit", ["--in", "--page-sizes", "--perc-fd", "--out"]),
        ("experiment", ["--config", "--out", "--jobs"]),
    ],
)
def test_subcommand_help_documents_flags(capsys, command, flags):
    assert main([command, "--help"]) == 0
    out = capsys.readouterr().out
    for flag in flags:
        assert flag in out


def test_version_exits_zero(capsys):
    assert main(["--version"]) == 0
    assert "listfair" in capsys.readouterr().out


def test_no_arguments_is_usage_error(capsys):
    assert main([]) == 1
    assert "usage error" in capsys.readouterr().err


def test_unknown_subcommand_is_usage_error():
    assert main(["frobnicate"]) == 1


def test_convert_ssa(tmp_path):
    (tmp_path / "yob2001.txt").write_text("Mary,F,7\nJohn,M,9\n", encoding="utf-8")
    (tmp_path / "yob2002.txt").write_text("Mary,F,3\n", encoding="utf-8")
    out = tmp_path / "ds.csv"
    assert main(["convert-ssa", "--dir", str(tmp_path), "--years", "2001:2002", "--out", str(out)]) == 0
    text = out.read_text(encoding="utf-8")
    assert text == "name,gender,count\nJohn,M,9\nMary,F,10\n"


def test_sample_deterministic_and_modes(tmp_path, dataset_csv):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    base = ["sample", "--dataset", str(dataset_csv), "--n", "30", "--seed", "9"]
    assert main(base + ["--out", str(a)]) == 0
    assert main(base + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()

    c = tmp_path / "c.csv"
    assert main(base + ["--stream", "5", "--out", str(c)]) == 0
    assert c.read_bytes() != a.read_bytes()

    strat = tmp_path / "strat.csv"
    assert (
        main(
            [
                "sample", "--dataset", str(dataset_csv), "--n", "30",
                "--perc-fs", "0.5", "--seed", "9", "--out", str(strat),
            ]
        )
        == 0
    )
    women = sum(
        1 for line in strat.read_text(encoding="utf-8").splitlines()[1:]
        if line.endswith(",F")
    )
    assert women == 15


def test_sample_seed_from_environment(tmp_path, dataset_csv, monkeypatch):
    explicit = tmp_path / "x.csv"
    via_env = tmp_path / "y.csv"
    assert main(["sample", "--dataset", str(dataset_csv), "--n", "12", "--seed", "77", "--out", str(explicit)]) == 0
    monkeypatch.setenv(_ENV_SEED, "77")
    assert main(["sample", "--dataset", str(dataset_csv), "--n", "12", "--out", str(via_env)]) == 0
    assert explicit.read_bytes() == via_env.read_bytes()

    monkeypatch.setenv(_ENV_SEED, "not-a-number")
    assert main(["sample", "--dataset", str(dataset_csv), "--n", "12", "--out", str(via_env)]) == 1


HEADER = "name,gender,count\n"
SAMPLE_FROM = ["sample", "--dataset", "{tmp}/names.csv", "--n", "5", "--seed", "1", "--out", "{tmp}/s.csv"]
BEYOND = "99999999999999999999"
# longer than csv.field_size_limit()
LONG_NAME = "x" * 200000
FIELD_LIMIT = "field larger than field limit (131072)"
# too long for int()
DIGITS = "9" * 5000
# the longest value a usage error quotes, and one character more
QUOTED = "x" * 40
UNQUOTED = "x" * 41
# a malformed value that a usage error names by its length
MALFORMED = "x" * 5000
# more than the 64 KB the loader decodes in its first chunks
FILLER = "".join(f"P{i:05d},M,1\n" for i in range(8000))


# files to write (text, or bytes written as they are), argv, exit code,
# stderr prefix; "{tmp}" is the test's directory
CLI_TABLE = [
    pytest.param(
        {"names.csv": HEADER + "Ana,F,3\nBia,F," + "9" * 400 + "\n"}, SAMPLE_FROM, 2,
        "error: {tmp}/names.csv, line 3: count must be <= 2**53, got a 400-digit number",
        id="count-of-400-digits",
    ),
    pytest.param(
        {"names.csv": HEADER + f"Ana,F,{2**53 + 1}\n"}, SAMPLE_FROM, 2,
        f"error: {{tmp}}/names.csv, line 2: count must be <= 2**53, got {2**53 + 1}",
        id="count-above-2**53",
    ),
    pytest.param({"names.csv": HEADER + f"Ana,F,{2**53}\n"}, SAMPLE_FROM, 0, "", id="count-of-2**53"),
    pytest.param(
        {"names.csv": HEADER + f"Ana,F,{2**53 - 1}\nBia,M,1\nCaio,M,1\n"}, SAMPLE_FROM, 2,
        "error: {tmp}/names.csv, line 4: total count exceeds 2**53",
        id="total-above-2**53",
    ),
    pytest.param(
        {"yob2000.txt": f"Ana,F,{2**53 - 2}\n", "yob2001.txt": "Bia,M,1\nAna,F,2\n"},
        ["convert-ssa", "--dir", "{tmp}", "--years", "2000:2001", "--out", "{tmp}/ds.csv"], 2,
        "error: {tmp}/yob2001.txt, line 2: total count exceeds 2**53",
        id="summed-years-above-2**53",
    ),
    pytest.param(
        {},
        ["convert-ssa", "--dir", "{tmp}", "--years", f"1990:{BEYOND}", "--out", "{tmp}/ds.csv"], 2,
        "error: missing year files: " + ", ".join(map(str, range(1990, 2000)))
        + f" and {int(BEYOND) - 1990 + 1 - 10} more\n",
        id="huge-year-span-empty-directory",
    ),
    pytest.param(
        {"yob1993.txt": "Ana,F,1\n"},
        ["convert-ssa", "--dir", "{tmp}", "--years", f"1990:{BEYOND}", "--out", "{tmp}/ds.csv"], 2,
        "error: missing year files: 1990, 1991, 1992, 1994, 1995, 1996, 1997, 1998, 1999, 2000"
        + f" and {int(BEYOND) - 1990 - 10} more\n",
        id="huge-year-span-one-file",
    ),
    pytest.param(
        {"names.csv": HEADER + "Ana,F,3\n"},
        ["sample", "--dataset", "{tmp}/names.csv", "--n", BEYOND, "--seed", "1", "--out", "{tmp}/s.csv"], 1,
        f"usage error: --n must be >= 1 and < 2**28, got {BEYOND}\n",
        id="huge-n",
    ),
    pytest.param(
        {"names.csv": HEADER + "Ana,F,3\n"},
        ["sample", "--dataset", "{tmp}/names.csv", "--n", str(2**28), "--seed", "1", "--out", "{tmp}/s.csv"], 1,
        f"usage error: --n must be >= 1 and < 2**28, got {2**28}\n",
        id="n-of-2**28",
    ),
    pytest.param(
        {"names.csv": HEADER + "Ana,F,3\n"},
        ["sample", "--dataset", "{tmp}/names.csv", "--n", "0", "--seed", "1", "--out", "{tmp}/s.csv"], 1,
        "usage error: --n must be >= 1 and < 2**28, got 0\n",
        id="n-of-0",
    ),
    pytest.param(
        {}, ["sample", "--dataset", "{tmp}", "--n", "5", "--seed", "1", "--out", "{tmp}/s.csv"], 2,
        "error: [Errno 21] Is a directory: '{tmp}'",
        id="directory-as-dataset",
    ),
    pytest.param(
        {"names.csv": HEADER + "Ana,F,3\n"},
        ["sample", "--dataset", "{tmp}/names.csv", "--n", "5", "--seed", "1", "--out", "{tmp}"], 2,
        "error: [Errno 21] Is a directory: '{tmp}'",
        id="directory-as-out",
    ),
    pytest.param(
        {}, ["experiment", "rnd-size", "--config", "{tmp}", "--out", "{tmp}/run"], 2,
        "error: [Errno 21] Is a directory: '{tmp}'",
        id="directory-as-config",
    ),
    pytest.param(
        {"names.csv": HEADER.encode() + b"Ana,F,3\n\xff,M,2\n"}, SAMPLE_FROM, 2,
        "error: {tmp}/names.csv: not valid UTF-8: invalid start byte\n",
        id="sample-invalid-utf-8",
    ),
    pytest.param(
        {"yob2000.txt": b"Ana,F,3\n\xff,M,2\n"},
        ["convert-ssa", "--dir", "{tmp}", "--years", "2000:2000", "--out", "{tmp}/ds.csv"], 2,
        "error: {tmp}/yob2000.txt: not valid UTF-8: invalid start byte\n",
        id="convert-ssa-invalid-utf-8",
    ),
    pytest.param(
        {"names.csv": HEADER + "Ana,F,3\n" + LONG_NAME + ",M,2\n"}, SAMPLE_FROM, 2,
        f"error: {{tmp}}/names.csv, line 3: {FIELD_LIMIT}\n",
        id="sample-field-too-long",
    ),
    # errors keep the order of the rows: a bad row before the one the
    # reader stops at is reported first
    pytest.param(
        {"names.csv": (HEADER + "Ana,F,3\nBia,Q,2\n" + FILLER).encode() + b"\xff,M,2\n"},
        SAMPLE_FROM, 2,
        "error: {tmp}/names.csv, line 3: gender must be F or M, got 'Q'\n",
        id="sample-bad-gender-before-invalid-utf-8",
    ),
    pytest.param(
        {"names.csv": HEADER + "Ana,F,3\nBia,F,0\nCaio,M\n"}, SAMPLE_FROM, 2,
        "error: {tmp}/names.csv, line 3: count must be >= 1, got 0\n",
        id="sample-bad-count-before-wrong-width",
    ),
    pytest.param(
        {"names.csv": HEADER + "Ana,F,3\nBia,F,2\nAna,F,1\n" + LONG_NAME + ",M,2\n"},
        SAMPLE_FROM, 2,
        "error: {tmp}/names.csv, line 4: duplicate record for name 'Ana' gender F\n",
        id="sample-duplicate-before-field-too-long",
    ),
    pytest.param(
        {"config.json": b'{"n": "\xff"}'},
        ["experiment", "rnd-size", "--config", "{tmp}/config.json", "--out", "{tmp}/run"], 2,
        "error: {tmp}/config.json: not valid UTF-8: invalid start byte\n",
        id="experiment-config-invalid-utf-8",
    ),
]

# the commands that read a sample file, and malformed sample files with
# the stderr that follows "error: <file>"
SAMPLE_READERS = {
    "sort": ["sort", "--in", "{tmp}/list.csv", "--out", "{tmp}/sorted.csv"],
    "curve": ["curve", "--in", "{tmp}/list.csv"],
    "rnd": ["rnd", "--in", "{tmp}/list.csv"],
    "parity": ["parity", "--in", "{tmp}/list.csv", "--reference", "0.5"],
}
BAD_SAMPLES = {
    "bad-header": (
        "pos,name,gender\n1,Ana,F\n",
        ", line 1: expected header 'position,name,gender', got ['pos', 'name', 'gender']",
    ),
    "position-gap": (SAMPLE + "1,Ana,F\n3,Bruno,M\n", ", line 3: expected position 2, got '3'"),
    "gender-Q": (SAMPLE + "1,Ana,Q\n", ", line 2: gender must be F or M, got 'Q'"),
    "empty-name": (SAMPLE + "1,,F\n", ", line 2: name must be non-empty"),
    "no-rows": (SAMPLE, ": sample file has no rows"),
    "superscript-position": (SAMPLE + "\u00b9,Ana,F\n", ", line 2: expected position 1, got '\u00b9'"),
    "invalid-utf-8": (SAMPLE.encode() + b"1,\xff,F\n", ": not valid UTF-8: invalid start byte"),
    "control-character": (
        SAMPLE + "1,A\x00B,F\n", ", line 2: name 'A\\x00B' contains a control character"
    ),
    "field-too-long": (SAMPLE + "1,Ana,F\n2," + LONG_NAME + ",M\n", f", line 3: {FIELD_LIMIT}"),
    "position-of-5000-digits": (
        SAMPLE + DIGITS + ",Ana,F\n", ", line 2: expected position 1, got a 5000-digit number"
    ),
    # a row that spans lines is reported at the line it starts at
    "multi-line-name": (
        SAMPLE + '1,Ana,F\n2,"Bo\nb\nby",M\n', ", line 3: name 'Bo\\nb\\nby' contains a control character"
    ),
    "multi-line-field-too-long": (
        SAMPLE + '1,Ana,F\n2,"' + "x\n" * 70000 + '",M\n', f", line 3: {FIELD_LIMIT}"
    ),
}
CLI_TABLE += [
    pytest.param({"list.csv": content}, argv, 2, "error: {tmp}/list.csv" + rest, id=f"{command}-{case}")
    for command, argv in SAMPLE_READERS.items()
    for case, (content, rest) in BAD_SAMPLES.items()
]

CANDIDATES = "name,gender\n"
AUDIT = ["audit", "--in", "{tmp}/list.csv", "--page-sizes", "1"]
BAD_CANDIDATES = {
    "bad-header": ("nm,g\nAna,F\n", ", line 1: expected header 'name,gender', got ['nm', 'g']"),
    "wrong-width": (CANDIDATES + "Ana,F,3\n", ", line 2: expected 2 fields, got 3"),
    "gender-Q": (CANDIDATES + "Ana,F\nBruno,Q\n", ", line 3: gender must be F or M, got 'Q'"),
    "empty-name": (CANDIDATES + ",F\n", ", line 2: name must be non-empty"),
    "no-rows": (CANDIDATES, ": candidate list has no rows"),
    "invalid-utf-8": (CANDIDATES.encode() + b"\xff,F\n", ": not valid UTF-8: invalid start byte"),
    "control-character": (
        CANDIDATES + "A\x00B,F\n", ", line 2: name 'A\\x00B' contains a control character"
    ),
    "field-too-long": (CANDIDATES + "Ana,F\n" + LONG_NAME + ",M\n", f", line 3: {FIELD_LIMIT}"),
    "multi-line-name": (
        CANDIDATES + 'Ana,F\n"Bo\nb\nby",M\n', ", line 3: name 'Bo\\nb\\nby' contains a control character"
    ),
    "multi-line-wrong-width": (CANDIDATES + 'Ana,F\n"Bo\nb",M,3\n', ", line 3: expected 2 fields, got 3"),
}
CLI_TABLE += [
    pytest.param({"list.csv": content}, AUDIT, 2, "error: {tmp}/list.csv" + rest, id=f"audit-{case}")
    for case, (content, rest) in BAD_CANDIDATES.items()
]

RND_ARGS = ["rnd", "--in", "{tmp}/list.csv"]
CLI_TABLE += [
    pytest.param({"list.csv": sample_text(WORST20)}, RND_ARGS + flags, code, prefix, id=case)
    for case, flags, code, prefix in [
        ("rnd-normalizer-empirical", ["--normalizer", "empirical"], 1,
         "usage error: --normalizer must be 'theoretical' or 'fixed:Z', got 'empirical'"),
        ("rnd-normalizer-fixed-abc", ["--normalizer", "fixed:abc"], 1,
         "usage error: fixed normalizer needs a number, got 'abc'"),
        ("rnd-normalizer-fixed-of-40-characters", ["--normalizer", "fixed:" + QUOTED], 1,
         f"usage error: fixed normalizer needs a number, got '{QUOTED}'\n"),
        ("rnd-normalizer-fixed-of-41-characters", ["--normalizer", "fixed:" + UNQUOTED], 1,
         "usage error: fixed normalizer needs a number, got a value of 41 characters\n"),
        ("rnd-normalizer-of-41-characters", ["--normalizer", UNQUOTED], 1,
         "usage error: --normalizer must be 'theoretical' or 'fixed:Z', got a value of 41 characters\n"),
        *(
            (f"rnd-normalizer-fixed-{z}", ["--normalizer", f"fixed:{z}"], 1,
             f"usage error: --normalizer fixed:Z needs a finite Z > 0, got {float(z)}\n")
            for z in ("0", "nan", "inf", "-inf", "1e400")
        ),
        # checkpoint k = 1 would divide by log2(1) = 0
        ("rnd-step-1", ["--step", "1"], 1, "usage error: --step must be >= 2, got 1\n"),
        ("rnd-step-of-5000-digits", ["--step", DIGITS], 1, "usage error: --step has too many digits: 5000\n"),
    ]
]
CLI_TABLE.append(
    pytest.param(
        {"list.csv": sample_text("MMF")}, RND_ARGS, 2,
        "error: list of size 3 is shorter than the first checkpoint (step=10)",
        id="rnd-shorter-than-one-step",
    )
)
# raw is 1/6 and raw / 1e-320 overflows: no report with a normalized inf
CLI_TABLE.append(
    pytest.param(
        {"list.csv": sample_text("FMM")},
        RND_ARGS + ["--step", "2", "--normalizer", "fixed:1e-320", "--json", "--out", "{tmp}/rnd.json"], 2,
        "error: fixed normalizer 1e-320 is too small: raw / Z is not finite (raw 0.16666666666666669)\n",
        id="rnd-normalizer-fixed-1e-320-overflows",
    )
)


NAMES = {"names.csv": HEADER + "Ana,F,3\nBia,M,2\n"}
SAMPLE_UNSEEDED = ["sample", "--dataset", "{tmp}/names.csv", "--n", "5", "--out", "{tmp}/s.csv"]
CONVERT = ["convert-ssa", "--dir", "{tmp}", "--out", "{tmp}/ds.csv", "--years"]
AUDIT_LIST = {"list.csv": CANDIDATES + "Ana,F\nBia,M\n"}
EXPERIMENT = ["experiment", "percf", "--config", "{tmp}/config.json", "--out", "{tmp}/run"]
# leading NAME=value words of argv set environment variables, as in a shell
CLI_TABLE += [
    pytest.param(files, argv, code, prefix, id=case)
    for case, files, argv, code, prefix in [
        ("sample-no-seed", NAMES, SAMPLE_UNSEEDED, 1, f"usage error: provide --seed or set {_ENV_SEED}\n"),
        ("sample-seed-env-superscript", NAMES, [f"{_ENV_SEED}=\u00b2"] + SAMPLE_UNSEEDED, 1,
         f"usage error: {_ENV_SEED} must be an integer, got '\u00b2'\n"),
        ("sample-seed-env-of-5000-digits", NAMES, [f"{_ENV_SEED}={DIGITS}"] + SAMPLE_UNSEEDED, 1,
         f"usage error: {_ENV_SEED} has too many digits: 5000\n"),
        ("sample-seed-env-of-41-characters", NAMES, [f"{_ENV_SEED}={UNQUOTED}"] + SAMPLE_UNSEEDED, 1,
         f"usage error: {_ENV_SEED} must be an integer, got a value of 41 characters\n"),
        ("sample-seed-of-5000-digits", NAMES, SAMPLE_UNSEEDED + ["--seed", DIGITS], 1,
         "usage error: --seed has too many digits: 5000\n"),
        ("sample-seed-of-minus-5000-digits", NAMES, SAMPLE_UNSEEDED + ["--seed", "-" + DIGITS], 1,
         "usage error: --seed has too many digits: 5000\n"),
        ("sample-seed-abc", NAMES, SAMPLE_UNSEEDED + ["--seed", "abc"], 1,
         "usage error: argument --seed: invalid int value: 'abc'\n"),
        ("sample-n-of-5000-digits", NAMES, SAMPLE_UNSEEDED + ["--seed", "1", "--n", DIGITS], 1,
         "usage error: --n has too many digits: 5000\n"),
        ("sample-seed-env--1", {}, [f"{_ENV_SEED}=-1"] + SAMPLE_UNSEEDED, 1,
         f"usage error: {_ENV_SEED} must be >= 0 and < 2**64, got -1\n"),
        # a flag's value is checked as argparse reads it, so a range error
        # comes before the missing required flags
        ("sample-n-of-0-without-other-flags", {}, ["sample", "--n", "0"], 1,
         "usage error: --n must be >= 1 and < 2**28, got 0\n"),
        *(
            (f"{argv[0]}-{flag[2:]}-of-5000-characters", files, argv + [flag, MALFORMED], 1,
             f"usage error: argument {flag}: invalid {kind} value: a value of 5000 characters\n")
            for files, argv, flag, kind in [
                (NAMES, SAMPLE_UNSEEDED[:3], "--n", "int"),
                (NAMES, SAMPLE_UNSEEDED, "--seed", "int"),
                (NAMES, SAMPLE_UNSEEDED + ["--seed", "1"], "--stream", "int"),
                (NAMES, SAMPLE_UNSEEDED + ["--seed", "1"], "--perc-fs", "float"),
                ({}, RND_ARGS, "--step", "int"),
                ({}, ["parity", "--in", "{tmp}/list.csv"], "--reference", "float"),
                (AUDIT_LIST, AUDIT, "--perc-fd", "float"),
                ({}, EXPERIMENT, "--jobs", "int"),
            ]
        ),
        # range errors come before the dataset is read: it does not exist
        ("sample-seed--1", {}, SAMPLE_UNSEEDED + ["--seed", "-1"], 1,
         "usage error: --seed must be >= 0 and < 2**64, got -1\n"),
        ("sample-seed-2**64", {}, SAMPLE_UNSEEDED + ["--seed", str(2**64)], 1,
         f"usage error: --seed must be >= 0 and < 2**64, got {2**64}\n"),
        ("sample-seed-env-2**64", {}, [f"{_ENV_SEED}={2**64}"] + SAMPLE_UNSEEDED, 1,
         f"usage error: {_ENV_SEED} must be >= 0 and < 2**64, got {2**64}\n"),
        ("sample-stream--1", {}, SAMPLE_UNSEEDED + ["--seed", "1", "--stream", "-1"], 1,
         "usage error: --stream must be >= 0, got -1\n"),
        ("sample-proportional-with-perc-fs", NAMES,
         SAMPLE_UNSEEDED + ["--seed", "1", "--mode", "proportional", "--perc-fs", "0.5"], 1,
         "usage error: --perc-fs conflicts with --mode proportional\n"),
        ("sample-stratified-without-perc-fs", NAMES, SAMPLE_UNSEEDED + ["--seed", "1", "--mode", "stratified"],
         1, "usage error: --mode stratified needs --perc-fs\n"),
        ("sample-perc-fs-1.5", NAMES, SAMPLE_UNSEEDED + ["--seed", "1", "--perc-fs", "1.5"], 1,
         "usage error: --perc-fs must lie in [0, 1], got 1.5\n"),
        ("sample-missing-dataset", {}, SAMPLE_FROM, 2,
         "error: [Errno 2] No such file or directory: '{tmp}/names.csv'\n"),
        ("sample-superscript-count", {"names.csv": HEADER + "Ana,F,3\nBia,F,\u00b2\n"}, SAMPLE_FROM, 2,
         "error: {tmp}/names.csv, line 3: count must be a positive integer, got '\u00b2'\n"),
        ("sample-multi-line-name", {"names.csv": HEADER + 'Ana,F,3\n"Bo\nb\nby",M,2\n'}, SAMPLE_FROM, 2,
         "error: {tmp}/names.csv, line 3: name 'Bo\\nb\\nby' contains a control character\n"),
        ("convert-ssa-years-without-colon", {}, CONVERT + ["2001"], 1,
         "usage error: --years must look like 1990:2000, got '2001'\n"),
        ("convert-ssa-years-superscript", {"yob2.txt": "Ana,F,1\n"}, CONVERT + ["\u00b2:3"], 1,
         "usage error: --years must look like 1990:2000, got '\u00b2:3'\n"),
        ("convert-ssa-years-of-5000-digits", {}, CONVERT + ["1:" + DIGITS], 1,
         "usage error: --years has too many digits: 5000\n"),
        ("convert-ssa-years-of-41-characters", {}, CONVERT + [UNQUOTED], 1,
         "usage error: --years must look like 1990:2000, got a value of 41 characters\n"),
        # an empty range names no file, and no file is read
        ("convert-ssa-years-backwards", {"yob2000.txt": "Mary,F,7\n"}, CONVERT + ["2000:1990"], 1,
         "usage error: --years must not end before it starts, got '2000:1990'\n"),
        ("convert-ssa-missing-year", {"yob2001.txt": "Mary,F,7\n"}, CONVERT + ["2000:2001"], 2,
         "error: missing year files: 2000\n"),
        ("convert-ssa-multi-line-name", {"yob2000.txt": 'Ana,F,3\n"Bo\nb",M,2\n'}, CONVERT + ["2000:2000"],
         2, "error: {tmp}/yob2000.txt, line 2: name 'Bo\\nb' contains a control character\n"),
        ("parity-reference-1.5", {"list.csv": sample_text(WORST20)},
         ["parity", "--in", "{tmp}/list.csv", "--reference", "1.5"], 1,
         "usage error: --reference must lie in [0, 1], got 1.5\n"),
        ("audit-page-sizes-abc", AUDIT_LIST, AUDIT[:-1] + ["abc"], 1,
         "usage error: --page-sizes must be comma-separated integers, got 'abc'\n"),
        ("audit-page-sizes-of-5000-digits", AUDIT_LIST, AUDIT[:-1] + ["5," + DIGITS], 1,
         "usage error: --page-sizes has too many digits: 5000\n"),
        ("audit-page-sizes-of-41-characters", AUDIT_LIST, AUDIT[:-1] + ["5," + UNQUOTED[2:]], 1,
         "usage error: --page-sizes must be comma-separated integers, got a value of 41 characters\n"),
        ("audit-page-sizes-empty", AUDIT_LIST, AUDIT[:-1] + [""], 1,
         "usage error: --page-sizes must name at least one size\n"),
        ("audit-page-sizes-0", {}, AUDIT[:-1] + ["5,0"], 1,
         "usage error: --page-sizes entries must be >= 1, got 0\n"),
        *(
            (f"audit-perc-fd-{share}", AUDIT_LIST, AUDIT + ["--perc-fd", share], 1,
             f"usage error: --perc-fd must lie in [0, 1], got {float(share)}\n")
            for share in ("2", "-0.1", "nan")
        ),
        ("experiment-unknown-kind", {}, ["experiment", "fourier", "--config", "{tmp}/c.json", "--out", "{tmp}/x"],
         1, "usage error: argument kind: invalid choice: 'fourier'"),
        ("experiment-jobs-of-5000-digits", {}, EXPERIMENT + ["--jobs", DIGITS], 1,
         "usage error: --jobs has too many digits: 5000\n"),
        ("experiment-missing-config", {}, EXPERIMENT, 2,
         "error: [Errno 2] No such file or directory: '{tmp}/config.json'\n"),
        ("experiment-samples-per-cell-0",
         {"config.json": '{"dataset_paths": ["names.csv"], "samples_per_cell": 0}'}, EXPERIMENT, 2,
         "error: {tmp}/config.json: samples_per_cell must be >= 1 and < 2**24, got 0\n"),
        ("experiment-config-nested-100000-deep", {"config.json": '{"n": ' + "[" * 100000 + "]" * 100000 + "}"},
         EXPERIMENT, 2, "error: {tmp}/config.json: maximum recursion depth exceeded"),
        ("experiment-config-n-of-5001-digits", {"config.json": '{"n": -' + "9" * 5001 + "}"}, EXPERIMENT, 2,
         "error: {tmp}/config.json: a number has too many digits: 5001\n"),
    ]
]


@pytest.mark.parametrize("files, argv, code, prefix", CLI_TABLE)
def test_cli_table(capsys, monkeypatch, tmp_path, files, argv, code, prefix):
    monkeypatch.delenv(_ENV_SEED, raising=False)
    for name, content in files.items():
        if isinstance(content, str):
            content = content.encode("utf-8")
        (tmp_path / name).write_bytes(content)
    while "=" in argv[0]:
        name, _, value = argv[0].partition("=")
        monkeypatch.setenv(name, value)
        argv = argv[1:]
    assert main([arg.format(tmp=tmp_path) for arg in argv]) == code
    if code:
        # a failed call writes no output file
        assert sorted(path.name for path in tmp_path.iterdir()) == sorted(files)
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert err.startswith(prefix.format(tmp=tmp_path))


def test_no_flag_is_typed_by_bare_int_or_float():
    # argparse echoes the whole of a value that int() or float() refuses
    actions = _build_parser()._actions
    (commands,) = [action for action in actions if isinstance(action, argparse._SubParsersAction)]
    for command in commands.choices.values():
        for action in command._actions:
            assert action.type not in (int, float), (command.prog, action.dest)


def test_sort_idempotent(tmp_path, dataset_csv):
    sample = tmp_path / "sample.csv"
    once = tmp_path / "once.csv"
    twice = tmp_path / "twice.csv"
    assert main(["sample", "--dataset", str(dataset_csv), "--n", "25", "--seed", "3", "--out", str(sample)]) == 0
    assert main(["sort", "--in", str(sample), "--out", str(once)]) == 0
    assert main(["sort", "--in", str(once), "--out", str(twice)]) == 0
    assert once.read_bytes() == twice.read_bytes()
    names = [line.split(",")[1] for line in once.read_text(encoding="utf-8").splitlines()[1:]]
    assert names == sorted(names, key=str.upper)


def test_curve_to_stdout(capsys, worst20_csv):
    assert main(["curve", "--in", str(worst20_csv)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "k,perc_f"
    assert lines[1] == "1,0.0"
    assert lines[-1] == "20,0.5"


def test_rnd_json_and_text(capsys, worst20_csv):
    assert main(["rnd", "--in", str(worst20_csv), "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["raw"] == pytest.approx(0.150515, abs=1e-6)
    assert payload["normalized"] == pytest.approx(1.0)
    assert payload["mode"] == "theoretical"
    assert [cp["k"] for cp in payload["checkpoints"]] == [10, 20]

    assert main(["rnd", "--in", str(worst20_csv)]) == 0
    text = capsys.readouterr().out
    assert "raw 0.150515" in text
    assert "normalized 1" in text

    assert main(["rnd", "--in", str(worst20_csv), "--normalizer", "fixed:0.301030"]) == 0
    text = capsys.readouterr().out
    assert "normalized 0.5" in text


def test_parity_outputs(capsys, worst20_csv):
    assert main(["parity", "--in", str(worst20_csv), "--reference", "0.5", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["passes"] is True
    assert payload["perc_f_sample"] == 0.5

    assert main(["parity", "--in", str(worst20_csv), "--reference", "0.99"]) == 0
    text = capsys.readouterr().out
    assert "passes false" in text


# the whole stdout and stderr of rnd and parity on one mixed list
PINNED_LIST = "MMFMFFMMMFMFFFMMFMMMFFMFMM"
RND_JSON = """{
  "checkpoints": [
    {
      "deviation": 0.02307692307692305,
      "discount": 0.3010299956639812,
      "k": 10,
      "term": 0.006946846053784174
    },
    {
      "deviation": 0.02307692307692305,
      "discount": 0.23137821315975915,
      "k": 20,
      "term": 0.005339497226763666
    },
    {
      "deviation": 0.0,
      "discount": 0.21274605355336318,
      "k": 26,
      "term": 0.0
    }
  ],
  "mode": "theoretical",
  "normalized": 0.06051241598715483,
  "raw": 0.01228634328054784,
  "z": 0.20303838609180475
}
"""
PARITY_JSON = """{
  "p_value": 0.6955201434681114,
  "passes": true,
  "perc_f_reference": 0.48,
  "perc_f_sample": 0.4230769230769231
}
"""
PINNED_CALLS = [
    pytest.param([], 0, "raw 0.0122863\nz 0.203038\nmode theoretical\nnormalized 0.0605124\n", "",
                 id="rnd-theoretical"),
    pytest.param(["--normalizer", "fixed:1.1"], 0,
                 "raw 0.0122863\nz 1.1\nmode fixed\nnormalized 0.0111694\n", "", id="rnd-fixed"),
    pytest.param(["--json"], 0, RND_JSON, "", id="rnd-json"),
    pytest.param(["--normalizer", "fixed:0"], 1, "",
                 "usage error: --normalizer fixed:Z needs a finite Z > 0, got 0.0\n", id="rnd-fixed-0"),
    pytest.param(["--normalizer", "fixed:nan"], 1, "",
                 "usage error: --normalizer fixed:Z needs a finite Z > 0, got nan\n", id="rnd-fixed-nan"),
    pytest.param(["--normalizer", "bogus"], 1, "",
                 "usage error: --normalizer must be 'theoretical' or 'fixed:Z', got 'bogus'\n",
                 id="rnd-bogus"),
    pytest.param(["--reference", "0.48"], 0,
                 "perc_f_sample 0.423077\nperc_f_reference 0.48\np_value 0.69552\npasses true\n", "",
                 id="parity-text"),
    pytest.param(["--reference", "0.48", "--json"], 0, PARITY_JSON, "", id="parity-json"),
]


@pytest.mark.parametrize("flags, code, out, err", PINNED_CALLS)
def test_rnd_and_parity_text_is_pinned(capsys, tmp_path, flags, code, out, err):
    path = tmp_path / "list.csv"
    path.write_text(sample_text(PINNED_LIST), encoding="utf-8")
    command = "parity" if "--reference" in flags else "rnd"
    assert main([command, "--in", str(path)] + flags) == code
    captured = capsys.readouterr()
    got = captured.out
    if "p_value" in out and out.startswith("{"):
        # the p-value's last bits depend on the platform's lgamma and exp
        p_value, pinned = json.loads(got)["p_value"], json.loads(out)["p_value"]
        assert p_value == pytest.approx(pinned, rel=1e-9)
        got = got.replace(repr(p_value), repr(pinned))
    assert (got, captured.err) == (out, err)


def test_audit_fixture_list(capsys, tmp_path):
    out = tmp_path / "audit.csv"
    assert (
        main(
            [
                "audit", "--in", "data/candidates/sp_federal.csv",
                "--page-sizes", "5,9,15", "--perc-fd", "0.31", "--out", str(out),
            ]
        )
        == 0
    )
    assert "below_cells 3" in capsys.readouterr().err
    lines = out.read_text(encoding="utf-8").splitlines()
    assert lines[0] == "list_id,size,perc_fd,k1,perc_f,flag"
    assert lines[1] == "sp_federal,1603,0.31,5,0.0,below"
    assert lines[2] == "sp_federal,1603,0.31,9,0.0,below"
    assert lines[3] == "sp_federal,1603,0.31,15,0.0,below"


def test_audit_derives_the_expected_share_from_the_list(capsys, tmp_path):
    path = tmp_path / "list.csv"
    # sorted order: Ana F, Bea F, Caio M, Davi M, Edu M, Fabio M -> share 1/3
    path.write_text("name,gender\nFabio,M\nAna,F\nDavi,M\nBea,F\nCaio,M\nEdu,M\n", encoding="utf-8")
    assert main(["audit", "--in", str(path), "--page-sizes", "3,2"]) == 0
    captured = capsys.readouterr()
    assert captured.out.splitlines() == [
        "list_id,size,perc_fd,k1,perc_f,flag",
        f"list,6,{1 / 3!r},2,1.0,at_or_above",
        f"list,6,{1 / 3!r},3,{2 / 3!r},at_or_above",
    ]
    assert captured.err == "below_cells 0\n"

    assert main(["audit", "--in", str(path), "--page-sizes", "2,3", "--perc-fd", "0.9"]) == 0
    assert capsys.readouterr().err == "below_cells 1\n"  # only k1=3 falls below 0.9


def test_experiment_round_trip(tmp_path, dataset_csv):
    config = {
        "dataset_paths": [str(dataset_csv)],
        "samples_per_cell": 6,
        "n": 30,
        "perc_fs_grid": [0.3, 0.6],
        "size_grid": [20, 30],
        "seed": 5,
    }
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(config), encoding="utf-8")

    for kind in ("percf", "rnd-grid", "rnd-size"):
        first = tmp_path / f"{kind}-1"
        second = tmp_path / f"{kind}-2"
        assert main(["experiment", kind, "--config", str(config_path), "--out", str(first)]) == 0
        assert main(["experiment", kind, "--config", str(config_path), "--out", str(second), "--jobs", "2"]) == 0
        for name in ("config.json", "raw.csv", "aggregate.csv", "curves.csv"):
            assert (first / name).read_bytes() == (second / name).read_bytes()


@pytest.mark.parametrize(
    "fields, message",
    [
        ({"n": "1000"}, "n must be an integer, got '1000'"),
        ({"n": True}, "n must be an integer, got True"),
        ({"seed": 1.5}, "seed must be an integer, got 1.5"),
        ({"samples_per_cell": None}, "samples_per_cell must be an integer, got None"),
        ({"step": [10]}, "step must be an integer, got [10]"),
        ({"perc_fs_grid": 0.5}, "perc_fs_grid must be a list of finite numbers, got 0.5"),
        ({"perc_fs_grid": [0.5, "0.6"]}, "perc_fs_grid must be a list of finite numbers"),
        ({"perc_fs_grid": [float("nan")]}, "perc_fs_grid must be a list of finite numbers"),
        ({"size_grid": [50.5]}, "size_grid must be a list of integers, got [50.5]"),
        ({"size_grid": [False]}, "size_grid must be a list of integers, got [False]"),
        ({"bandwidth": "wide"}, "bandwidth must be a finite number or null, got 'wide'"),
        ({"bandwidth": float("nan")}, "bandwidth must be a finite number or null, got nan"),
        ({"bandwidth": float("inf")}, "bandwidth must be a finite number or null, got inf"),
        ({"bandwidth": 10**400}, "bandwidth must be a finite number or null"),
        ({"dataset_paths": [3]}, "dataset_paths must be a list of strings, got [3]"),
        ({"dataset_paths": "x.csv"}, "dataset_paths must be a list of strings, got 'x.csv'"),
        # range errors name the file too
        ({"n": 0}, "n must be >= 1 and < 2**28, got 0"),
        ({"perc_fs_grid": [0.5, 0.5]}, "perc_fs_grid entries are not distinct"),
        ({"bandwidth": 0.0}, "bandwidth must be positive when given"),
    ],
)
def test_experiment_config_types_are_data_errors(capsys, tmp_path, dataset_csv, fields, message):
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps({"dataset_paths": [str(dataset_csv)], **fields}), encoding="utf-8")
    out = tmp_path / "out"
    assert main(["experiment", "rnd-grid", "--config", str(config_path), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {config_path}: {message}")
    assert not out.exists()


@pytest.mark.parametrize("jobs", ["0", "-3"])
def test_experiment_rejects_jobs_below_one(capsys, tmp_path, dataset_csv, jobs):
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps({"dataset_paths": [str(dataset_csv)]}), encoding="utf-8")
    out = tmp_path / "out"
    args = ["experiment", "percf", "--config", str(config_path), "--out", str(out), "--jobs", jobs]
    assert main(args) == 1
    assert "--jobs must be >= 1" in capsys.readouterr().err
    assert not out.exists()


def run_module(argv, **kwargs):
    return run_python(["-m", "listfair", *argv], **kwargs)


def test_module_entry_point_runs():
    proc = run_module(["--version"])
    assert proc.returncode == 0
    assert "listfair" in proc.stdout


# modules that no command of the checking chain needs
UNNEEDED = ("listfair.experiments", "listfair.stats", "concurrent.futures.process", "numpy.ma")
# prints the unneeded modules loaded by importing the CLI and running argv
LOADED = """
import sys
import listfair.cli
code = listfair.cli.main(sys.argv[2:]) if len(sys.argv) > 2 else 0
print(*sorted(name for name in sys.argv[1].split() if name in sys.modules))
sys.exit(code)
"""


# calls that only parse their arguments, with their exit code and stdout
PARSE_ONLY = {
    "version": (["--version"], 0, f"listfair {listfair.__version__}\n"),
    "usage-error": (["sample", "--dataset", "{data}/fixture.csv", "--n", "0", "--out", "{tmp}/out.csv"], 1, ""),
}


@pytest.mark.parametrize(
    "argv",
    [
        pytest.param([], id="import"),
        ["sample", "--dataset", "{data}/fixture.csv", "--n", "50", "--seed", "1", "--out", "{tmp}/out.csv"],
        ["sort", "--in", "{tmp}/list.csv", "--out", "{tmp}/out.csv"],
        ["curve", "--in", "{tmp}/list.csv", "--out", "{tmp}/out.csv"],
        ["rnd", "--in", "{tmp}/list.csv", "--json", "--out", "{tmp}/out.json"],
        ["parity", "--in", "{tmp}/list.csv", "--reference", "0.5", "--json", "--out", "{tmp}/out.json"],
        ["audit", "--in", "{data}/candidates/sp_federal.csv", "--page-sizes", "5,9,15", "--out", "{tmp}/out.csv"],
        *(pytest.param(name, id=name) for name in PARSE_ONLY),
    ],
    ids=lambda argv: argv[0],
)
def test_chain_commands_load_only_what_they_run(tmp_path, data_dir, argv):
    (tmp_path / "list.csv").write_text(sample_text(WORST20), encoding="utf-8")
    code, printed = 0, ""
    if isinstance(argv, str):
        # parsing alone needs no numpy at all, nor dataclasses and the inspect module it loads
        argv, code, printed = PARSE_ONLY[argv]
        unneeded = UNNEEDED + (
            "numpy", "listfair.dataset", "listfair.metrics", "listfair.sampling", "dataclasses", "inspect"
        )
    else:
        # only sample draws, so only sample needs numpy.random
        unneeded = UNNEEDED + (() if argv[:1] == ["sample"] else ("numpy.random",))
    argv = [arg.format(data=data_dir, tmp=tmp_path) for arg in argv]
    proc = run_python(["-c", LOADED, " ".join(unneeded), *argv], timeout=120)
    assert proc.returncode == code, proc.stderr
    assert proc.stdout == printed + "\n"
    if code:
        assert proc.stderr.startswith("usage error: ")


def run_closed(argv, redirect: str):
    # sh starts python -m listfair with stdout (">&-") or stderr ("2>&-") closed
    return run_python(argv, command=("sh", "-c", f'"$0" -m listfair "$@" {redirect}', sys.executable))


@pytest.mark.parametrize(
    "argv",
    [
        ["curve", "--in", "{tmp}/list.csv"],
        ["rnd", "--in", "{tmp}/list.csv"],
        ["parity", "--in", "{tmp}/list.csv", "--reference", "0.5", "--json"],
        ["audit", "--in", "{data}/candidates/sp_federal.csv", "--page-sizes", "5,9,15"],
    ],
    ids=lambda argv: argv[0],
)
def test_closed_stdout_is_a_data_error(tmp_path, data_dir, argv):
    (tmp_path / "list.csv").write_text(sample_text(WORST20), encoding="utf-8")
    proc = run_closed([arg.format(data=data_dir, tmp=tmp_path) for arg in argv], ">&-")
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr == "error: stdout is closed; name a file with --out\n"


@pytest.mark.parametrize(
    "argv, code",
    [
        pytest.param(["curve", "--in", "{tmp}/missing.csv"], 2, id="data-error"),
        pytest.param(["curve", "--in", "{tmp}/list.csv", "--step", "3"], 1, id="usage-error"),
        pytest.param(["sort", "--in", "{tmp}/list.csv", "--out", "{tmp}/sorted.csv"], 0, id="success"),
        # audit's below_cells line goes to stderr after its output
        pytest.param(["audit", "--in", "{data}/candidates/sp_federal.csv", "--page-sizes", "5", "--out", "{tmp}/a.csv"],
                     0, id="audit"),
    ],
)
# a closed stderr is None in Python; one open for reading fails each write
@pytest.mark.parametrize("redirect", ["2>&-", "2</dev/null"], ids=["closed", "read-only"])
def test_closed_stderr_keeps_the_exit_code(tmp_path, data_dir, argv, code, redirect):
    (tmp_path / "list.csv").write_text(sample_text(WORST20), encoding="utf-8")
    proc = run_closed([arg.format(data=data_dir, tmp=tmp_path) for arg in argv], redirect)
    assert (proc.returncode, proc.stdout, proc.stderr) == (code, "", "")


def limit_address_space():
    # runs in the child only: 1 GiB, half of what drawing the largest
    # sample asks for
    resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))


LARGEST_SAMPLE = ["sample", "--dataset", "{data}/fixture.csv", "--n", str(2**28 - 1), "--seed", "1",
                  "--out", "{tmp}/s.csv"]
EXPERIMENT_ON = ["--config", "{tmp}/config.json", "--out", "{tmp}/run"]


# argv, and what the error says there was not enough memory for
@pytest.mark.parametrize(
    "argv, needed",
    [
        pytest.param(LARGEST_SAMPLE, f"a sample of --n {2**28 - 1}", id="proportional"),
        pytest.param(LARGEST_SAMPLE + ["--perc-fs", "0.5"], f"a sample of --n {2**28 - 1}", id="stratified"),
        # percf's n and rnd-size's size_grid of the config below
        pytest.param(["experiment", "percf"] + EXPERIMENT_ON, "experiment percf of --config {tmp}/config.json",
                     id="experiment-percf"),
        pytest.param(["experiment", "rnd-size"] + EXPERIMENT_ON,
                     "experiment rnd-size of --config {tmp}/config.json", id="experiment-rnd-size"),
    ],
)
def test_sample_out_of_memory_is_a_data_error(tmp_path, data_dir, argv, needed):
    config = {"dataset_paths": [str(data_dir / "fixture.csv")], "n": 10**8, "size_grid": [2 * 10**8]}
    (tmp_path / "config.json").write_text(json.dumps(config), encoding="utf-8")
    argv = [arg.format(data=data_dir, tmp=tmp_path) for arg in argv]
    proc = run_module(argv, preexec_fn=limit_address_space, timeout=120)
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert proc.stderr == f"error: not enough memory for {needed.format(tmp=tmp_path)}\n"
    assert not (tmp_path / "run").exists()


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory, data_dir):
    """The directory the fuzz guard below runs in, with each of its inputs
    and an unedited copy of each under ``unedited/``."""
    root = tmp_path_factory.mktemp("fuzz")
    for directory in ("years", "unedited", "unedited/years"):
        (root / directory).mkdir()
    config = {"dataset_paths": ["fixture.csv"], "samples_per_cell": 4, "n": 20, "perc_fs_grid": [0.3, 0.6],
              "size_grid": [20, 30], "seed": 3, "step": 10}
    inputs = {
        "fixture.csv": (data_dir / "fixture.csv").read_bytes(),
        "sample.csv": sample_text("FMMFMFFFMMFMMMFFMFMFMMFFM").encode(),
        "list.csv": (data_dir / "candidates" / "ac_federal.csv").read_bytes(),
        "years/yob2001.txt": b"Mary,F,7\r\nJohn,M,9\r\nAna,F,3\r\n",
        "config.json": json.dumps(config).encode(),
    }
    for name, content in inputs.items():
        (root / name).write_bytes(content)
        (root / "unedited" / name).write_bytes(content)
    return root


# each input, with the commands of the CLI that read it; all paths are
# relative to the fuzz directory
SAMPLE_CALLS = [["sort"], ["curve"], ["rnd", "--json"], ["parity", "--reference", "0.5"]]
EXPERIMENT_CALLS = [["experiment", kind, "--config", "config.json", "--out", "run"]
                    for kind in ("percf", "rnd-grid", "rnd-size")]
FUZZ_CALLS = {
    "years/yob2001.txt": [["convert-ssa", "--dir", "years", "--years", "2001:2001", "--out", "out"]],
    "fixture.csv": [
        ["sample", "--dataset", "fixture.csv", "--n", "30", "--seed", "5", "--out", "out"],
        ["sample", "--dataset", "fixture.csv", "--n", "30", "--perc-fs", "0.4", "--seed", "5", "--out", "out"],
        *EXPERIMENT_CALLS,
    ],
    "sample.csv": [[command, "--in", "sample.csv", *flags, "--out", "out"] for command, *flags in SAMPLE_CALLS],
    "list.csv": [["audit", "--in", "list.csv", "--page-sizes", "5,9,15", "--out", "out"]],
    "config.json": EXPERIMENT_CALLS,
}


def small_work(value, key=None) -> bool:
    """Whether no number of a config, other than its seed, is 100 or more."""
    if isinstance(value, dict):
        return all(small_work(item, name) for name, item in value.items())
    if isinstance(value, list):
        return all(small_work(item) for item in value)
    return key == "seed" or isinstance(value, str) or value is None or abs(value) < 100


@st.composite
def edited_calls(draw):
    name = draw(st.sampled_from(sorted(FUZZ_CALLS)))
    argv = draw(st.sampled_from(FUZZ_CALLS[name]))
    edit = draw(st.sampled_from(["replace", "insert", "delete"]))
    # any byte, or one that the formats give a meaning to
    byte = bytes([draw(st.integers(0, 255) | st.sampled_from(b'0123456789-+.,:"[]{}eE\r\n '))])
    return name, argv, edit, byte, draw(st.floats(0, 1, exclude_max=True))


@settings(max_examples=500, deadline=None, derandomize=True)
@given(edited_calls())
def test_one_byte_edit_of_any_input_ends_in_an_exit_code(fuzz_dir, call):
    name, argv, edit, byte, where = call
    content = (fuzz_dir / "unedited" / name).read_bytes()
    at = int(where * len(content))
    edited = content[:at] + (b"" if edit == "delete" else byte) + content[at + (edit != "insert"):]
    if name == "config.json":
        try:
            config = json.loads(edited)
        except ValueError:
            config = None
        assume(small_work(config))
    cwd = os.getcwd()
    try:
        (fuzz_dir / name).write_bytes(edited)
        os.chdir(fuzz_dir)
        code = main(argv)
    finally:
        os.chdir(cwd)
        (fuzz_dir / name).write_bytes(content)
    # an exception that escaped main has already failed the example
    assert code in (0, 1, 2)


# the tiny inputs of the argv fuzz guard below, by the name a file flag gives
ARGV_INPUTS = {
    "sample.csv": sample_text("FMMFMFFFMMFM"),
    "list.csv": "name,gender\nBia,F\nAna,M\nCaio,M\nDavi,F\nEdu,M\n",
    "names.csv": HEADER + "Ana,F,30\nBia,F,20\nCaio,M,25\nDavi,M,15\nEdu,M,10\n",
    "config.json": json.dumps({"dataset_paths": ["names.csv"], "samples_per_cell": 2, "n": 12,
                               "perc_fs_grid": [0.5], "size_grid": [10, 12], "seed": 3, "step": 5}),
    "years/yob2001.txt": "Mary,F,7\nJohn,M,9\n",
}
# every file flag names an input, a missing path or a directory; each flag
# lists the file it reads first, so that it names that file most often
FILES = [*ARGV_INPUTS, "missing.csv", "years"]
OUTS = ["out", "years", "missing/out"]
# the values any flag, positional or LISTFAIR_SEED may get instead: empty,
# whitespace, a numeral too long for int(), float spellings int() refuses, and
# the lone surrogate that os.fsdecode makes of an undecodable byte
EDGES = ["", " \t\n", DIGITS, "nan", "inf", "-0", os.fsdecode(b"\xff")]
# the flags of each command with well-formed values; None marks a switch
ARGV_FLAGS = {
    "convert-ssa": {"--dir": ["years", *FILES], "--years": ["2001:2001", "2001:2002"], "--out": OUTS},
    "sample": {"--dataset": ["names.csv", *FILES], "--n": ["5", "40"], "--mode": ["proportional", "stratified"],
               "--perc-fs": ["0.4", "1"], "--seed": ["5"], "--stream": ["1"], "--out": OUTS},
    "sort": {"--in": ["sample.csv", *FILES], "--out": OUTS},
    "curve": {"--in": ["sample.csv", *FILES], "--out": OUTS},
    "rnd": {"--in": ["sample.csv", *FILES], "--step": ["3", "20"], "--normalizer": ["theoretical", "fixed:0.5"], "--json": None,
            "--out": OUTS},
    "parity": {"--in": ["sample.csv", *FILES], "--reference": ["0.5", "0"], "--json": None, "--out": OUTS},
    "audit": {"--in": ["list.csv", *FILES], "--page-sizes": ["5,1", "9"], "--perc-fd": ["0.3"], "--out": OUTS},
    # --jobs stays at most 2
    "experiment": {"--config": ["config.json", *FILES], "--out": OUTS, "--jobs": ["1", "2"]},
}


def flag_value(values):
    # well-formed three times in four, so that most calls get past parsing
    return st.sampled_from([values, values, values, EDGES]).flatmap(st.sampled_from)


@st.composite
def fuzzed_argv(draw):
    """A command with each flag absent, well-formed or an edge value, and LISTFAIR_SEED unset or set."""
    command = draw(st.sampled_from(sorted(ARGV_FLAGS)))
    argv = [command]
    if command == "experiment":
        argv.append(draw(flag_value(["percf", "rnd-grid", "rnd-size"])))
    for flag, values in ARGV_FLAGS[command].items():
        if values is None:
            argv += [flag] * draw(st.booleans())
        elif draw(st.sampled_from([True, True, True, False])):
            argv += [flag, draw(flag_value(values))]
    return argv, draw(st.none() | st.sampled_from(["5", *EDGES]))


@settings(max_examples=400, deadline=None, derandomize=True)
@given(fuzzed_argv())
def test_any_argv_and_seed_variable_end_in_an_exit_code(call):
    argv, seed = call
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as work:
        for name, text in ARGV_INPUTS.items():
            Path(work, name).parent.mkdir(exist_ok=True)
            Path(work, name).write_text(text, encoding="utf-8")
        env = os.environ.pop(_ENV_SEED, None)
        try:
            if seed is not None:
                os.environ[_ENV_SEED] = seed
            os.chdir(work)
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
                code = main(argv)
        finally:
            os.chdir(cwd)
            os.environ.pop(_ENV_SEED, None)
            if env is not None:
                os.environ[_ENV_SEED] = env
    # an exception that escaped main has already failed the example
    assert code in (0, 1, 2)
