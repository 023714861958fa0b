"""Quantify the gender imbalance that alphabetically ordered first-name
lists induce on paginated screens.

The package covers the full measurement pipeline: name-frequency dataset
ingestion, seeded sample generation with a controlled gender mix,
alphabetical collation, prefix-proportion curves, the rND (normalized
discounted difference) metric, statistical-parity checks, kernel-smoothed
summaries with bootstrap confidence intervals, and deterministic
experiment drivers. A single CLI (``listfair``) exposes every stage.

The names below are loaded on first use (PEP 562), so ``import listfair``
or a short CLI call loads only the modules it needs.
"""

import importlib

__version__ = "0.1.0"

# defined here, where reading them loads no numpy, because the CLI's
# argument parsing needs them: the rND normalizer modes, and the bound
# every sample size stays below (the one ExperimentConfig puts on n)
THEORETICAL = "theoretical"
FIXED = "fixed"
MAX_SAMPLE_SIZE = 2**28

# module -> the names it exports through the package
_HOMES = {
    "dataset": ("NameDataset", "NameRecord", "load_canonical", "load_ssa_yearfiles", "write_canonical"),
    "errors": (
        "DatasetFormatError",
        "DuplicateRecordError",
        "InfeasibleSampleError",
        "ListFairError",
        "MissingYearError",
        "SampleTooSmallError",
    ),
    "metrics": (
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
    ),
    "ordering": ("collation_key", "sort_alphabetical"),
    "sampling": ("draw_sample", "random_stream"),
    "stats": ("bootstrap_ci", "nadaraya_watson", "silverman_bandwidth"),
}
_EXPORTS = {name: home for home, names in _HOMES.items() for name in names}

__all__ = list(_EXPORTS)


def __getattr__(name: str):
    home = _EXPORTS.get(name)
    if home is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{home}"), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
