"""The names the ``listfair`` package exports resolve, on first use, to the
objects their home modules define, and a module loads only the modules
it uses."""

import importlib

import pytest

import listfair

from helpers import run_python

# every exported name, by the module that defines it
EXPORTS = {
    "dataset": ["NameDataset", "NameRecord", "load_canonical", "load_ssa_yearfiles", "write_canonical"],
    "errors": [
        "DatasetFormatError",
        "DuplicateRecordError",
        "InfeasibleSampleError",
        "ListFairError",
        "MissingYearError",
        "SampleTooSmallError",
    ],
    "metrics": [
        "PageAuditRow",
        "ParityReport",
        "RndCheckpoint",
        "RndReport",
        "page_audit",
        "perc_f_curve",
        "rnd",
        "rnd_checkpoints",
        "rnd_raw_of_mask",
        "rnd_theoretical_normalizer",
        "statistical_parity",
    ],
    "ordering": ["collation_key", "sort_alphabetical"],
    "sampling": ["draw_sample", "random_stream"],
    "stats": ["bootstrap_ci", "nadaraya_watson", "silverman_bandwidth"],
}


@pytest.mark.parametrize("home, name", [(home, name) for home, names in EXPORTS.items() for name in names])
def test_exported_name_is_its_home_object(monkeypatch, home, name):
    expected = getattr(importlib.import_module(f"listfair.{home}"), name)
    # forget an earlier lookup, so that this one is a first use
    monkeypatch.delitem(vars(listfair), name, raising=False)
    assert name in dir(listfair)
    assert getattr(listfair, name) is expected
    monkeypatch.delitem(vars(listfair), name)
    namespace = {}
    exec(f"from listfair import {name}", namespace)
    assert namespace[name] is expected


def test_exports_are_listed_and_unknown_names_raise():
    assert sorted(listfair.__all__) == sorted(name for names in EXPORTS.values() for name in names)
    assert listfair.__version__ == "0.1.0"
    with pytest.raises(AttributeError, match="has no attribute 'frobnicate'"):
        listfair.frobnicate
    with pytest.raises(ImportError):
        exec("from listfair import frobnicate", {})


def test_stats_loads_no_sampling():
    # bootstrap_ci takes any numpy Generator, so stats needs no sampling
    proc = run_python(["-c", "import sys, listfair.stats; print('listfair.sampling' in sys.modules)"])
    assert (proc.returncode, proc.stdout) == (0, "False\n"), proc.stderr
