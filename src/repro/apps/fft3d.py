"""Distributed three-dimensional FFT — the N-dimensional extension of the
paper's §4.4 program.

Slab decomposition: with the grid distributed along axis 0, axes 1 and 2
are whole on every rank and transform locally (two axis operations); one
redistribution to an axis-1 slab layout makes axis 0 whole, the final
axis operation transforms it, and a second redistribution restores the
original layout.  The same Figure 7 dataflow as the 2-D program, one
dimension up.
"""

from __future__ import annotations

from typing import Any

import numpy as np

from repro.core.grid import DistGrid
from repro.core.meshspectral import MeshContext, MeshProgram
from repro.apps.fftlib import fft, fft_cost
from repro.machines.model import MachineModel


def fft3d_program(
    mesh: MeshContext,
    full: np.ndarray | None,
    inverse: bool = False,
) -> np.ndarray | None:
    """Per-process body of the 3-D FFT; input on rank 0, result on rank 0."""
    if full is not None:
        full = np.asarray(full, dtype=np.complex128)
    p = mesh.comm.size
    slab0 = (p, 1, 1)  # axis 0 distributed; axes 1, 2 whole
    slab1 = (1, p, 1)  # axis 1 distributed; axes 0, 2 whole
    grid = DistGrid.from_global(mesh.comm, full, dist=slab0)
    n0, n1, n2 = grid.global_shape

    mesh.axis_op(
        lambda block: fft(block, inverse=inverse, axis=-1),
        grid,
        axis=2,
        flops_per_vector=fft_cost(n2),
        label="fft-z",
    )
    mesh.axis_op(
        lambda block: fft(block, inverse=inverse, axis=-1),
        grid,
        axis=1,
        flops_per_vector=fft_cost(n1),
        label="fft-y",
    )
    grid = mesh.redistribute(grid, slab1)
    mesh.axis_op(
        lambda block: fft(block, inverse=inverse, axis=-1),
        grid,
        axis=0,
        flops_per_vector=fft_cost(n0),
        label="fft-x",
    )
    grid = mesh.redistribute(grid, slab0)
    return grid.gather(root=0)


def fft3d_archetype() -> MeshProgram:
    """Archetype driver for the distributed 3-D FFT."""
    return MeshProgram(fft3d_program)


def sequential_fft3d_time(shape: tuple[int, int, int], machine: MachineModel) -> float:
    """Virtual time of the sequential 3-D FFT baseline."""
    n0, n1, n2 = shape
    work = (
        fft_cost(n2) * n0 * n1 + fft_cost(n1) * n0 * n2 + fft_cost(n0) * n1 * n2
    )
    return machine.compute_time(work, working_set_bytes=16.0 * n0 * n1 * n2)


def run_fft3d(nprocs: int, array: np.ndarray, **kwargs: Any):
    """Convenience wrapper mirroring :func:`repro.apps.fft2d.run_fft2d`."""
    return fft3d_archetype().run(nprocs, np.asarray(array), **kwargs)
