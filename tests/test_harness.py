"""The names that the benchmark's tracer patches still resolve.

``perfbench/spans.py`` times each layer by replacing module attributes
by name, binds some of their parameters by name, and lists a name it
cannot find as missing rather than failing, so after a rename that layer
silently reads 0. These tests fail instead. The harness module is loaded
from its file and only read: nothing is patched.
"""

import importlib
import importlib.util
import inspect
from pathlib import Path

import pytest

from listfair import experiments, stats

SPANS_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"

# targets that were already gone before this test was written; their
# layers read 0 until the harness is mended
KNOWN_MISSING = {("listfair.sampling", "fisher_yates"), ("listfair.metrics", "rnd_raw")}


@pytest.fixture(scope="module")
def spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_wrapped_names_resolve_to_callables(spans):
    missing = {
        (module_name, attr)
        for targets in spans.WRAPPED.values()
        for module_name, attr in targets
        if not callable(getattr(importlib.import_module(module_name), attr, None))
    }
    assert missing == KNOWN_MISSING
    # the collation counters read a cache that collation_key no longer has
    module_name, attr = spans.COLLATION
    collation_key = getattr(importlib.import_module(module_name), attr)
    assert callable(collation_key) and not hasattr(collation_key, "cache_info")


def test_parameters_and_attributes_the_tracer_reads(fixture_dataset):
    assert {"values", "resamples"} <= set(inspect.signature(stats.bootstrap_ci).parameters)
    assert "tasks" in inspect.signature(experiments._map_tasks).parameters
    # the dataset.load span counts len(result.records)
    assert len(fixture_dataset.records) == len(fixture_dataset.names) > 0
