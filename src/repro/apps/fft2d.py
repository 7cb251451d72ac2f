"""Distributed two-dimensional FFT (paper §4.4) on the mesh-spectral archetype.

The sequential algorithm — a 1-D FFT over each row followed by a 1-D FFT
over each column — maps to the archetype as a row operation, a rows->cols
redistribution (Figure 7), a column operation, and a redistribution back
to the initial layout (the paper adds this last step "for the sake of
tidiness").  All interprocess communication happens inside the
redistribution.
"""

from __future__ import annotations

from typing import Any

import numpy as np

from repro.core.meshspectral import MeshContext, MeshProgram
from repro.core.grid import DistGrid
from repro.apps.fftlib import fft, fft_cost
from repro.machines.model import MachineModel


def fft2d_program(
    mesh: MeshContext,
    full: np.ndarray | None,
    repeats: int = 1,
    inverse: bool = False,
) -> np.ndarray | None:
    """The paper's Figure 11 program: per-process body of the 2-D FFT.

    ``full`` is the input array on rank 0 (``None`` elsewhere); returns
    the transformed array on rank 0.  ``repeats`` re-applies the
    transform to lengthen the computation, matching the paper's Figure 12
    workload ("FFT repeated N times").
    """
    if full is not None:
        full = np.asarray(full, dtype=np.complex128)
    grid = DistGrid.from_global(mesh.comm, full, dist="rows")
    n_cols = grid.global_shape[1]
    n_rows = grid.global_shape[0]
    for _ in range(repeats):
        # Row FFTs: data distributed by rows (precondition of the row op).
        mesh.row_op(
            lambda block: fft(block, inverse=inverse, axis=1),
            grid,
            flops_per_row=fft_cost(n_cols),
            label="row-fft",
        )
        # Redistribute rows -> columns (Figure 7).
        grid = mesh.redistribute(grid, "cols")
        # Column FFTs: data distributed by columns.
        mesh.col_op(
            lambda cols: fft(cols, inverse=inverse, axis=1),
            grid,
            flops_per_col=fft_cost(n_rows),
            label="col-fft",
        )
        # Restore the original distribution for the next repeat / output.
        grid = mesh.redistribute(grid, "rows")
    return grid.gather(root=0)


def fft2d_archetype() -> MeshProgram:
    """Archetype driver for the distributed 2-D FFT."""
    return MeshProgram(fft2d_program)


def run_fft2d(
    nprocs: int,
    array: np.ndarray,
    repeats: int = 1,
    machine: MachineModel | None = None,
    mode: str = "sequential",
) -> Any:
    """Convenience wrapper: transform *array* on *nprocs* ranks.

    Returns the :class:`~repro.runtime.spmd.RunResult`; the transformed
    array is ``result.values[0]``.
    """
    kwargs: dict[str, Any] = {"mode": mode}
    if machine is not None:
        kwargs["machine"] = machine
    return fft2d_archetype().run(nprocs, np.asarray(array), repeats, **kwargs)


def sequential_fft2d_time(shape: tuple[int, int], repeats: int, machine: MachineModel) -> float:
    """Virtual time of the sequential 2-D FFT baseline."""
    rows, cols = shape
    work = (fft_cost(cols) * rows + fft_cost(rows) * cols) * repeats
    return machine.compute_time(work, working_set_bytes=16.0 * rows * cols)
