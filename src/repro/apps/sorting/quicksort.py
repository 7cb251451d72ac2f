"""One-deep quicksort (paper §2.5.2) — a.k.a. parallel sample sort.

Unlike one-deep mergesort, the *split* phase is nontrivial: N-1 pivots
are chosen from a sample of the (unsorted) input and the data is
partitioned so segment ``P_i`` holds keys between pivots ``p_i`` and
``p_{i+1}``; after the independent local sorts the merge is degenerate —
the answer is simply the concatenation of the local results.
"""

from __future__ import annotations

import numpy as np

from repro.core.onedeep import OneDeepDC, PhaseSpec, SplitterStrategy
from repro.apps.sorting.common import MERGE_FLOPS_PER_KEY, sort_cost, sorted_keys
from repro.util.sampling import splitters_from_samples

#: local samples per rank used to choose pivots
OVERSAMPLE = 32


def _sample_unsorted(local: np.ndarray, s: int) -> np.ndarray:
    """Evenly strided sample of an *unsorted* local block."""
    arr = np.asarray(local)
    if arr.size == 0 or s <= 0:
        return arr[:0]
    idx = (np.arange(s, dtype=np.int64) * arr.size) // s
    return arr[idx]


def _partition_unsorted(pivots: np.ndarray, local: np.ndarray, n: int) -> list[np.ndarray]:
    """Cut unsorted keys into ``n`` segments by pivot values.

    Key ``x`` goes to the segment ``i`` with ``pivots[i-1] <= x <
    pivots[i]``; within a segment input order is preserved (stability).
    """
    arr = np.asarray(local)
    seg = np.searchsorted(np.asarray(pivots), arr, side="right")
    order = np.argsort(seg, kind="stable")
    arr_sorted_by_seg = arr[order]
    boundaries = np.searchsorted(seg[order], np.arange(1, n))
    return np.split(arr_sorted_by_seg, boundaries)


def one_deep_quicksort(
    strategy: SplitterStrategy | str = SplitterStrategy.REPLICATED,
    oversample: int = OVERSAMPLE,
) -> OneDeepDC:
    """The one-deep quicksort archetype instance.

    Nontrivial split (pivot selection + all-to-all repartition), local
    sort solve, degenerate merge.  After ``run(P, data)``, rank ``i``'s
    return value holds the sorted keys of segment ``i``; concatenating the
    per-rank values yields the sorted array.
    """
    split = PhaseSpec(
        sample=lambda local: _sample_unsorted(local, oversample),
        params=lambda samples, n: splitters_from_samples(
            np.concatenate([np.asarray(s) for s in samples]), n
        ),
        partition=_partition_unsorted,
        combine=lambda pieces: np.concatenate(
            [np.asarray(p) for p in pieces]
        )
        if pieces
        else np.empty(0),
        sample_cost=lambda local: float(oversample),
        params_cost=lambda samples: sort_cost(
            sum(np.asarray(s).size for s in samples)
        ),
        partition_cost=lambda local: MERGE_FLOPS_PER_KEY * np.asarray(local).size,
        combine_cost=lambda combined: 2.0 * np.asarray(combined).size,
    )
    return OneDeepDC(
        solve=sorted_keys,
        solve_cost=lambda local: sort_cost(np.asarray(local).size),
        split=split,
        merge=None,
        strategy=strategy,
    )
