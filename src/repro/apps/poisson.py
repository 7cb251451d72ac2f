"""Jacobi Poisson solver (paper §4.4.3) on the mesh-spectral archetype.

Solves the Poisson problem  ∇²u = f  on the unit square with Dirichlet
boundary condition u = g on the domain edge, by discretising on an
NX x NY grid and running Jacobi iteration

    u'[i,j] = ( u[i-1,j] + u[i+1,j] + u[i,j-1] + u[i,j+1] - h² f[i,j] ) / 4

to all interior points until the global maximum change falls below a
tolerance.  The program uses every mesh-spectral ingredient the paper
lists: a 5-point stencil grid operation preceded by a boundary exchange,
a max-reduction, and a copy-consistent global variable (``diffmax``)
driving the control flow — the structure of the paper's Figures 13/14.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro.core.meshspectral import MeshContext, MeshProgram
from repro.comm.reductions import MAX
from repro.kernels import READ, WRITE, Arg, StencilView
from repro.machines.model import MachineModel

#: flops charged per interior point per Jacobi sweep (update + residual)
FLOPS_PER_POINT = 8.0


@dataclass
class PoissonResult:
    """Converged solution state returned by every rank."""

    iterations: int
    diffmax: float
    #: the full solution grid (on rank 0 only; ``None`` elsewhere)
    solution: np.ndarray | None


def poisson_program(
    mesh: MeshContext,
    nx: int,
    ny: int,
    f: Callable[[np.ndarray, np.ndarray], np.ndarray] | None = None,
    g: Callable[[np.ndarray, np.ndarray], np.ndarray] | None = None,
    tolerance: float = 1e-4,
    max_iters: int = 10_000,
    gather_solution: bool = True,
    overlap: bool = True,
) -> PoissonResult:
    """The per-process Poisson body (the paper's Figure 14, in archetype form).

    ``f`` and ``g`` map *global grid indices* (broadcastable integer
    arrays) to source and boundary values; defaults are f = 0 and a hot
    top edge.  ``h = 1/(nx-1)`` scales the source term.

    *overlap* selects the nonblocking ghost exchange (interior Jacobi
    points update while boundary slabs travel); results are bitwise
    identical either way — the 5-point star never reads corner ghosts.
    """
    mesh.overlap = overlap
    if f is None:
        f = lambda i, j: np.zeros(np.broadcast(i, j).shape)  # noqa: E731
    if g is None:
        g = lambda i, j: np.where(np.broadcast_to(i, np.broadcast(i, j).shape) == 0, 1.0, 0.0)  # noqa: E731

    h2 = (1.0 / max(nx - 1, 1)) ** 2

    uk = mesh.grid((nx, ny), ghost=1)
    ukp = mesh.grid((nx, ny), ghost=1)
    fgrid = mesh.grid((nx, ny), ghost=1)

    # Initialise: boundary of u to g, interior to an initial guess of 0;
    # f everywhere.  Global indices keep the initialisation identical for
    # any process count — and for any blocking, so it runs by row blocks
    # and no section-sized temporary is built (those set the peak memory
    # of a run whose sweeps are themselves blocked).
    ii, jj = uk.coord_arrays()
    rows = max(1, _BLOCK_BYTES // max(uk.interior[:1].nbytes, 1))
    for lo in range(0, len(ii), rows):
        block = slice(lo, lo + rows)
        i = ii[block]
        on_edge = (i == 0) | (i == nx - 1) | (jj == 0) | (jj == ny - 1)
        uk.interior[block] = np.where(on_edge, g(i, jj), 0.0)
        fgrid.interior[block] = f(i, jj)
    ukp.interior[...] = uk.interior

    # diffmax is a global variable: its copies may only change through the
    # reduction below, which establishes the same value on every rank.
    diffmax = mesh.global_var(tolerance + 1.0)
    iterations = 0

    # The Jacobi sweep as a declared kernel: u is read at the four axis
    # neighbours (halo 1), f only at the centre (halo 0) — so the kernel
    # layer exchanges u's ghosts each iteration but knows f needs no
    # refresh at all, unlike the historical per-op path which re-exchanged
    # the never-written source term every sweep.  The multiply writes
    # straight into the output view, so no region-sized result is built
    # only to be copied.
    def jacobi(out: np.ndarray, u: StencilView, f: np.ndarray) -> None:
        np.multiply(0.25, u[-1, 0] + u[1, 0] + u[0, -1] + u[0, 1] - h2 * f, out=out)

    def copy_new_to_old(old: np.ndarray, new: np.ndarray) -> None:
        old[...] = new

    # Declared above the sweep loop: validated and planned here, once.  A
    # grid operation with declared neighbour reads — the kernel layer inserts
    # the boundary exchange and updates only global-interior points.
    sweep = mesh.loop(
        jacobi,
        Arg(ukp, WRITE),
        Arg(uk, READ, halo=1),
        Arg(fgrid, READ),
        margin=1,
        flops_per_point=FLOPS_PER_POINT,
        label="jacobi",
    )
    copy_back = mesh.loop(
        copy_new_to_old,
        Arg(uk, WRITE),
        Arg(ukp, READ),
        margin=1,
        flops_per_point=2.0,
        label="copy-new-to-old",
    )
    new, old = ukp.interior[sweep.region], uk.interior[sweep.region]
    while diffmax.value > tolerance and iterations < max_iters:
        sweep()
        # Convergence check: a max-reduction whose result every rank holds.
        mesh.charge(2.0 * new.size, label="diffmax")
        diffmax.set_from_reduction(_local_max_diff(new, old), MAX)
        copy_back()
        iterations += 1

    solution = uk.gather(root=0) if gather_solution else None
    return PoissonResult(
        iterations=iterations,
        diffmax=float(diffmax.value),
        solution=solution if mesh.comm.rank == 0 else None,
    )


#: bytes per operand of a row block outside the kernel layer (the
#: initialisation, the convergence check): a few operands and their
#: temporaries stay cache-resident together
_BLOCK_BYTES = 1 << 18


def _local_max_diff(a: np.ndarray, b: np.ndarray) -> float:
    """Local max |a - b| — the caller passes the global-interior part of
    the section in u' and u — taken over row blocks through one scratch
    block (the max of the blocks' maxima is the max; no section-sized
    temporary is built)."""
    if not a.size:
        return float("-inf")
    rows = max(1, _BLOCK_BYTES // a[0].nbytes)
    scratch = np.empty((min(rows, len(a)), *a.shape[1:]), dtype=a.dtype)
    peaks = []
    for lo in range(0, len(a), rows):
        block = a[lo : lo + rows]
        diff = np.subtract(block, b[lo : lo + rows], out=scratch[: len(block)])
        peaks.append(np.max(np.abs(diff, out=diff)))
    return float(np.max(peaks))


def poisson_archetype() -> MeshProgram:
    """Archetype driver for the Jacobi Poisson solver."""
    return MeshProgram(poisson_program)


def sequential_poisson_time(
    nx: int, ny: int, iterations: int, machine: MachineModel
) -> float:
    """Virtual time of the sequential solver for a known iteration count."""
    interior = max(nx - 2, 0) * max(ny - 2, 0)
    work = (FLOPS_PER_POINT + 2.0 + 2.0) * interior * iterations
    return machine.compute_time(work, working_set_bytes=24.0 * nx * ny)


def reference_poisson(
    nx: int,
    ny: int,
    f: Callable | None = None,
    g: Callable | None = None,
    tolerance: float = 1e-4,
    max_iters: int = 10_000,
) -> tuple[np.ndarray, int]:
    """Plain-NumPy sequential Jacobi, used to validate the archetype runs."""
    if f is None:
        f = lambda i, j: np.zeros(np.broadcast(i, j).shape)  # noqa: E731
    if g is None:
        g = lambda i, j: np.where(np.broadcast_to(i, np.broadcast(i, j).shape) == 0, 1.0, 0.0)  # noqa: E731
    h2 = (1.0 / max(nx - 1, 1)) ** 2
    ii, jj = np.ix_(np.arange(nx), np.arange(ny))
    on_edge = (ii == 0) | (ii == nx - 1) | (jj == 0) | (jj == ny - 1)
    u = np.where(on_edge, g(ii, jj), 0.0)
    fv = f(ii, jj)
    it = 0
    diff = tolerance + 1.0
    while diff > tolerance and it < max_iters:
        unew = u.copy()
        unew[1:-1, 1:-1] = 0.25 * (
            u[:-2, 1:-1] + u[2:, 1:-1] + u[1:-1, :-2] + u[1:-1, 2:] - h2 * fv[1:-1, 1:-1]
        )
        diff = float(np.max(np.abs(unew - u)))
        u = unew
        it += 1
    return u, it
