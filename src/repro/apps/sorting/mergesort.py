"""Mergesort three ways: sequential, traditional parallel, one-deep.

This is the paper's §2.4 development in full:

- :func:`sequential_mergesort` — the starting sequential algorithm
  (bottom-up, doubling runs of stable merges) and its analytic cost,
  used as the speedup baseline exactly as the paper compares "to
  sequential mergesort";
- :func:`traditional_mergesort` — the Figure 1 parallelisation: data
  starts on one rank, recursive halving over the rank tree;
- :func:`one_deep_mergesort` — the archetype version of Figures 4/5:
  degenerate split (the initial distribution), local sort, splitter-based
  merge with all-to-all redistribution.
"""

from __future__ import annotations

import numpy as np

from repro.core.onedeep import OneDeepDC, PhaseSpec, SplitterStrategy
from repro.core.traditional import TraditionalDC
from repro.apps.sorting.common import (
    MERGE_FLOPS_PER_KEY,
    merge_cost,
    merge_sorted,
    merge_two_sorted,
    sort_cost,
    sorted_keys,
)
from repro.machines.model import MachineModel
from repro.util.sampling import (
    pad_partition,
    partition_by_splitters,
    regular_sample,
    splitters_from_samples,
)

#: local samples per rank used to compute merge splitters
OVERSAMPLE = 32


def sequential_mergesort(data: np.ndarray) -> np.ndarray:
    """Bottom-up mergesort (stable): doubling runs of two-way merges."""
    arr = np.asarray(data).copy()
    n = arr.size
    run = 1
    while run < n:
        for lo in range(0, n, 2 * run):
            mid = min(lo + run, n)
            hi = min(lo + 2 * run, n)
            if mid < hi:
                arr[lo:hi] = merge_two_sorted(arr[lo:mid], arr[mid:hi])
        run *= 2
    return arr


def sequential_sort_time(n: int, machine: MachineModel) -> float:
    """Virtual time of the sequential mergesort baseline on *machine*."""
    return machine.compute_time(sort_cost(n), working_set_bytes=8.0 * n)


def _merge_phase(oversample: int = OVERSAMPLE) -> PhaseSpec:
    """The one-deep merge phase of paper §2.4.2 (steps 1-4)."""
    return PhaseSpec(
        sample=lambda local: regular_sample(local, oversample),
        params=lambda samples, n: splitters_from_samples(
            np.concatenate([np.asarray(s) for s in samples]), n
        ),
        partition=lambda splitters, local, n: pad_partition(
            partition_by_splitters(local, splitters), n, local
        ),
        combine=merge_sorted,
        sample_cost=lambda local: float(oversample),
        params_cost=lambda samples: sort_cost(sum(np.asarray(s).size for s in samples)),
        partition_cost=lambda local: MERGE_FLOPS_PER_KEY * np.asarray(local).size,
        combine_cost=lambda combined: merge_cost(np.asarray(combined).size, ways=8),
    )


def one_deep_mergesort(
    strategy: SplitterStrategy | str = SplitterStrategy.REPLICATED,
    oversample: int = OVERSAMPLE,
) -> OneDeepDC:
    """The one-deep mergesort archetype instance.

    Degenerate split (the initial block distribution *is* the split);
    local solve sorts each section; the merge phase computes splitters
    from regular samples, repartitions, redistributes all-to-all, and
    k-way merges locally.  After ``run(P, data)``, rank ``i``'s return
    value holds the keys between splitters ``i-1`` and ``i`` — the sorted
    array is the concatenation of the per-rank values.
    """
    return OneDeepDC(
        solve=sorted_keys,
        solve_cost=lambda local: sort_cost(np.asarray(local).size),
        merge=_merge_phase(oversample),
        strategy=strategy,
    )


def traditional_mergesort() -> TraditionalDC:
    """The Figure 1 baseline: recursive halving from a single rank.

    The whole input starts on rank 0; each tree level splits in half and
    ships one half; leaves sort locally; merges combine pairwise on the
    way up.  The final sorted array is rank 0's return value.
    """
    return TraditionalDC(
        divide=lambda d: (d[: d.size // 2], d[d.size // 2 :]),
        leaf_solve=sorted_keys,
        merge2=merge_two_sorted,
        # The top-level divide touches every key (the paper's first
        # inefficiency); charge a per-key inspection cost.
        divide_cost=lambda d: 2.0 * np.asarray(d).size,
        leaf_cost=lambda d: sort_cost(np.asarray(d).size),
        merge_cost=lambda merged: merge_cost(np.asarray(merged).size),
    )
