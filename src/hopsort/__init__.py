"""hopsort: linked-list mergesort with hop links over equal-key runs.

The hop engine merges fragment-at-a-time, so the comparison count scales
with the number of distinct keys instead of the list length once duplicates
start meeting each other.  The baseline engine is the same driver merging
node-at-a-time, for head-to-head counts.

The package exports the library surface README documents; the sweep,
dataset and table machinery behind the CLI lives in ``hopsort.bench``,
``hopsort.datasets`` and ``hopsort.costmodel``.
"""

from .engines import (
    MergeEngine,
    SortStats,
    mergesort,
    sort_with_stats,
)
from .listcore import (
    SortList,
    Verdict,
    check_hop_valid,
    check_sorted_stable,
    from_keys,
    to_keys,
)

__all__ = [
    "MergeEngine",
    "SortList",
    "SortStats",
    "Verdict",
    "check_hop_valid",
    "check_sorted_stable",
    "from_keys",
    "mergesort",
    "sort_with_stats",
    "to_keys",
]
