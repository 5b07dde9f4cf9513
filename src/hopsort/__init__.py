"""hopsort: linked-list mergesort with hop links over equal-key runs.

The hop engine merges fragment-at-a-time, so the comparison count scales
with the number of distinct keys instead of the list length once duplicates
start meeting each other.  The baseline engine is the same driver merging
node-at-a-time, for head-to-head counts.
"""

from .bench import (
    ConfigError,
    ExperimentConfig,
    ExperimentReport,
    ReportRow,
    VerifySummary,
    render_model,
    render_report,
    run_experiment,
    run_model,
    run_verify,
)
from .costmodel import per_element, predicted_cost
from .datasets import (
    DatasetKind,
    DatasetSpec,
    Rng64,
    gen_kdistinct,
    gen_sawtooth,
    gen_shuffled,
)
from .engines import (
    ComparisonCounter,
    MergeEngine,
    SortStats,
    merge_baseline,
    merge_hop,
    mergesort,
    sort_with_stats,
)
from .listcore import (
    HopError,
    Node,
    NotSortedError,
    SortList,
    Verdict,
    check_hop_valid,
    check_sorted_stable,
    dispose,
    distinct_key_count,
    from_keys,
    hop_walk,
    normalize_hops,
    to_keys,
)

__version__ = "0.1.0"

__all__ = [
    "ComparisonCounter",
    "ConfigError",
    "DatasetKind",
    "DatasetSpec",
    "ExperimentConfig",
    "ExperimentReport",
    "HopError",
    "MergeEngine",
    "Node",
    "NotSortedError",
    "ReportRow",
    "Rng64",
    "SortList",
    "SortStats",
    "Verdict",
    "check_hop_valid",
    "check_sorted_stable",
    "dispose",
    "distinct_key_count",
    "from_keys",
    "gen_kdistinct",
    "gen_sawtooth",
    "gen_shuffled",
    "hop_walk",
    "merge_baseline",
    "merge_hop",
    "mergesort",
    "normalize_hops",
    "per_element",
    "predicted_cost",
    "render_model",
    "render_report",
    "run_experiment",
    "run_model",
    "run_verify",
    "sort_with_stats",
    "to_keys",
]
