"""Sorting applications of the one-deep divide-and-conquer archetype.

The paper's running example (§2.4): mergesort with a degenerate split and
a splitter-based merge, plus the baseline traditional parallel mergesort
of Figure 1, plus one-deep quicksort (§2.5.2) whose split is nontrivial
and whose merge is degenerate (concatenation) — also known as sample sort.
"""

from repro.apps.sorting.common import (
    SORT_FLOPS_PER_KEY,
    merge_cost,
    merge_sorted,
    merge_two_sorted,
    sort_cost,
)
from repro.apps.sorting.mergesort import (
    one_deep_mergesort,
    sequential_mergesort,
    sequential_sort_time,
    traditional_mergesort,
)
from repro.apps.sorting.quicksort import one_deep_quicksort

__all__ = [
    "SORT_FLOPS_PER_KEY",
    "sort_cost",
    "merge_cost",
    "merge_two_sorted",
    "merge_sorted",
    "sequential_mergesort",
    "sequential_sort_time",
    "one_deep_mergesort",
    "traditional_mergesort",
    "one_deep_quicksort",
]
