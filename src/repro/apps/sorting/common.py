"""Shared sorting machinery: the stable merge and the analytic cost model.

The cost model charges comparison-sort work as
``SORT_FLOPS_PER_KEY * n * log2(n)`` operations and merge work as
``MERGE_FLOPS_PER_KEY`` per key moved — the quantities the machine model
converts to virtual seconds.  The constants approximate the per-key
instruction counts of tuned C mergesort on the era's processors; only
their *ratio* to the communication parameters affects speedup shapes.
"""

from __future__ import annotations

import math

import numpy as np

from repro.util.sampling import sort_keys, sorted_keys  # noqa: F401 (re-exported)

#: operations charged per key per comparison level of a sort
SORT_FLOPS_PER_KEY = 4.0
#: operations charged per key moved during a merge
MERGE_FLOPS_PER_KEY = 6.0


def sort_cost(n: int) -> float:
    """Analytic work (flops) to comparison-sort *n* keys."""
    return 0.0 if n <= 1 else SORT_FLOPS_PER_KEY * n * math.log2(n)


def merge_cost(n: int, ways: int = 2) -> float:
    """Analytic work to *ways*-way merge *n* total keys."""
    if n <= 0 or ways <= 1:
        return 0.0
    return MERGE_FLOPS_PER_KEY * n * math.log2(ways)


def merge_two_sorted(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Stable merge of two sorted arrays: equal keys keep ``a`` first.

    An empty side returns a copy of the other (its dtype, untouched by
    promotion); otherwise this is :func:`merge_sorted` on the pair.
    """
    a = np.asarray(a)
    b = np.asarray(b)
    if a.size == 0:
        return b.copy()
    if b.size == 0:
        return a.copy()
    return merge_sorted([a, b])


def merge_sorted(arrays: list[np.ndarray]) -> np.ndarray:
    """Stable k-way merge: equal keys keep the order of their runs.

    The non-empty runs are laid end to end and sorted in place by
    :func:`~repro.util.sampling.sort_keys`: where ties can be told apart
    NumPy's stable sort (timsort) finds the k ascending runs and merges
    them; integer keys — a join over sorted runs depends only on the
    multiset — take the default sort, the same bytes sooner.  Dtype
    ``np.result_type`` of the runs, one pass of C; the modelled machine
    is still charged :func:`merge_cost`.  A single non-empty run is
    returned as it is.
    """
    runs = [np.asarray(a) for a in arrays if np.asarray(a).size > 0]
    if not runs:
        base = arrays[0] if arrays else np.empty(0)
        return np.asarray(base).copy()
    if len(runs) == 1:
        return runs[0]
    out = np.concatenate(runs)
    sort_keys(out)
    return out
