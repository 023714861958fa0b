"""Quantify the gender imbalance that alphabetically ordered first-name
lists induce on paginated screens.

The package covers the full measurement pipeline: name-frequency dataset
ingestion, seeded sample generation with a controlled gender mix,
alphabetical collation, prefix-proportion curves, the rND (normalized
discounted difference) metric, statistical-parity checks, kernel-smoothed
summaries with bootstrap confidence intervals, and deterministic
experiment drivers. A single CLI (``listfair``) exposes every stage.
"""

from listfair.dataset import (
    Gender,
    NameDataset,
    NameRecord,
    load_canonical,
    load_ssa_yearfiles,
    write_canonical,
)
from listfair.errors import (
    DatasetFormatError,
    DuplicateRecordError,
    InfeasibleSampleError,
    ListFairError,
    MissingYearError,
    SampleTooSmallError,
)
from listfair.metrics import (
    PageAuditRow,
    ParityReport,
    RndCheckpoint,
    RndReport,
    page_audit,
    perc_f_curve,
    rnd,
    rnd_checkpoints,
    rnd_raw_of_mask,
    rnd_theoretical_normalizer,
    statistical_parity,
)
from listfair.ordering import (
    collation_key,
    sort_alphabetical,
)
from listfair.sampling import (
    RandomSource,
    draw_sample,
)
from listfair.stats import (
    bootstrap_ci,
    nadaraya_watson,
    silverman_bandwidth,
)

__version__ = "0.1.0"
