"""The paper's "version 1" programs, in executable ``parfor``/``forall`` form.

Each function here transcribes one of the paper's initial
archetype-based algorithm versions — the programs of Figure 4 (mergesort
with CC++ ``parfor``), Figure 10 (two-dimensional FFT with HPF
``forall``), and Figure 13 (Poisson with ``forall`` and a reduction) —
into Python using :mod:`repro.core.parfor`.

These versions run in a single address space with N *logical* processes
(the parfor index), exactly as the paper describes debugging them.  The
test suite closes the semantics-preservation chain:

    sequential algorithm == version 1 (parfor) == version 2 (SPMD)

for each program, at every process count.
"""

from __future__ import annotations

import numpy as np

from repro.core.parfor import parfor
from repro.apps.fftlib import fft
from repro.apps.sorting.common import merge_sorted, sorted_keys
from repro.util.partition import split_evenly
from repro.util.sampling import (
    pad_partition,
    partition_by_splitters,
    regular_sample,
    splitters_from_samples,
)


def mergesort_v1(data: np.ndarray, nprocs: int, oversample: int = 32) -> np.ndarray:
    """Figure 4: one-deep mergesort as parfor loops over N sections.

    Every parfor's iterations are independent (the archetype's pattern),
    so this program may execute its loops in any order — which it does.
    """
    sections = [np.array(s) for s in split_evenly(np.asarray(data), nprocs)]

    # --- solve phase ---
    def local_sort(i: int) -> np.ndarray:
        return sorted_keys(sections[i])

    sections = parfor(nprocs, local_sort)

    # --- merge phase ---
    def compute_local_splits(i: int) -> np.ndarray:
        return regular_sample(sections[i], oversample)

    local_splits = parfor(nprocs, compute_local_splits)
    global_splits = splitters_from_samples(
        np.concatenate([np.asarray(s) for s in local_splits]), nprocs
    )

    def local_repartition(i: int) -> list[np.ndarray]:
        return pad_partition(
            partition_by_splitters(sections[i], global_splits), nprocs, sections[i]
        )

    split_data = parfor(nprocs, local_repartition)

    def local_merge(i: int) -> np.ndarray:
        return merge_sorted([split_data[j][i] for j in range(nprocs)])

    merged = parfor(nprocs, local_merge)
    return np.concatenate(merged) if merged else np.asarray(data)


def fft2d_v1(data: np.ndarray, inverse: bool = False) -> np.ndarray:
    """Figure 10: 2-D FFT as a row forall followed by a column forall.

    Each forall iteration transforms one independent row (column), per
    the paper's HPF ``INDEPENDENT`` annotation.
    """
    work = np.asarray(data, dtype=np.complex128).copy()
    n_rows, n_cols = work.shape

    rows = parfor(n_rows, lambda i: fft(work[i, :], inverse=inverse))
    for i, row in enumerate(rows):
        work[i, :] = row

    cols = parfor(n_cols, lambda j: fft(work[:, j], inverse=inverse))
    for j, col in enumerate(cols):
        work[:, j] = col
    return work


def poisson_v1(
    nx: int,
    ny: int,
    f=None,
    g=None,
    tolerance: float = 1e-4,
    max_iters: int = 10_000,
) -> tuple[np.ndarray, int]:
    """Figure 13: Jacobi iteration as a forall over interior points plus
    a max reduction driving the loop.

    The forall's snapshot semantics (all reads before any write) are
    exactly what makes the Jacobi update expressible without the
    explicit old/new copies of the sequential program.
    """
    if f is None:
        f = lambda i, j: np.zeros(np.broadcast(i, j).shape)  # noqa: E731
    if g is None:
        g = lambda i, j: np.where(  # noqa: E731
            np.broadcast_to(i, np.broadcast(i, j).shape) == 0, 1.0, 0.0
        )
    h2 = (1.0 / max(nx - 1, 1)) ** 2
    ii, jj = np.ix_(np.arange(nx), np.arange(ny))
    on_edge = (ii == 0) | (ii == nx - 1) | (jj == 0) | (jj == ny - 1)
    uk = np.where(on_edge, g(ii, jj), 0.0)
    fv = f(ii, jj)

    iterations = 0
    diffmax = tolerance + 1.0
    interior = [(i, j) for i in range(1, nx - 1) for j in range(1, ny - 1)]
    while diffmax > tolerance and iterations < max_iters:
        ukp = uk.copy()
        # forall over the interior: every right-hand side reads the uk
        # snapshot; assignment happens afterwards.
        from repro.core.parfor import forall

        forall(
            ukp,
            interior,
            lambda i, j, u: 0.25
            * (u[i - 1, j] + u[i + 1, j] + u[i, j - 1] + u[i, j + 1] - h2 * fv[i, j]),
            uk,
        )
        # reduction: diffmax = max |ukp - uk| (an associative reduce)
        diffmax = float(np.max(np.abs(ukp - uk)))
        uk = ukp
        iterations += 1
    return uk, iterations
