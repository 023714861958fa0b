"""Quantify the gender imbalance that alphabetically ordered first-name
lists induce on paginated screens.

The package covers the full measurement pipeline: name-frequency dataset
ingestion, seeded sample generation with a controlled gender mix,
alphabetical collation, prefix-proportion curves, the rND (normalized
discounted difference) metric, statistical-parity checks, kernel-smoothed
summaries with bootstrap confidence intervals, and deterministic
experiment drivers. A single CLI (``listfair``) exposes every stage.

Each public name is imported from the module that defines it, such as
``listfair.dataset`` or ``listfair.metrics``. ``import listfair`` loads
no submodule and no numpy.
"""

__version__ = "0.1.0"

# defined here, where reading them loads no numpy, because the CLI's
# argument parsing needs them: the rND normalizer modes, and the bound
# every sample size stays below (the one ExperimentConfig puts on n)
THEORETICAL = "theoretical"
FIXED = "fixed"
MAX_SAMPLE_SIZE = 2**28
