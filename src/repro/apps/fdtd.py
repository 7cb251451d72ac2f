"""Three-dimensional FDTD electromagnetics (paper §4.5.2).

The paper's electromagnetic scattering code uses a finite-difference
time-domain technique on the three-dimensional mesh archetype.  We
implement the Yee scheme: staggered E and H fields advanced by leapfrog
curl updates, a perfect-electric-conductor (PEC) boundary (tangential E
fixed at zero on the domain faces), and a sinusoidal soft source.  The
archetype structure per step: ghost exchange of the three E components,
H curl update, ghost exchange of the three H components, E curl update —
six boundary exchanges on a 3-D process grid.

Units are normalised (c = eps0 = mu0 = 1); the Courant factor keeps the
scheme stable for the unit grid spacing used here.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.meshspectral import MeshContext, MeshProgram
from repro.comm.reductions import SUM
from repro.machines.model import MachineModel

#: flops charged per cell per full time step (both curl updates)
FLOPS_PER_CELL = 36.0


@dataclass
class FDTDResult:
    """Field state after the run."""

    steps: int
    #: total electromagnetic field energy (identical on all ranks)
    energy: float
    #: Ez field on rank 0 (``None`` elsewhere / when not gathered)
    ez: np.ndarray | None


def _d(
    a: np.ndarray, axis: int, g: int, region: tuple[slice, ...]
) -> np.ndarray:
    """Forward difference along *axis*, aligned with the owned cells
    selected by *region* (owned-interior coordinates): ``a[i+1] - a[i]``."""
    lo = tuple(slice(s.start + g, s.stop + g) for s in region)
    hi = tuple(
        slice(s.start + g + 1, s.stop + g + 1)
        if d == axis
        else slice(s.start + g, s.stop + g)
        for d, s in enumerate(region)
    )
    return a[hi] - a[lo]


def _db(
    a: np.ndarray, axis: int, g: int, region: tuple[slice, ...]
) -> np.ndarray:
    """Backward difference along *axis* over the selected owned cells:
    ``a[i] - a[i-1]``."""
    lo = tuple(
        slice(s.start + g - 1, s.stop + g - 1)
        if d == axis
        else slice(s.start + g, s.stop + g)
        for d, s in enumerate(region)
    )
    hi = tuple(slice(s.start + g, s.stop + g) for s in region)
    return a[hi] - a[lo]


def fdtd_program(
    mesh: MeshContext,
    nx: int,
    ny: int,
    nz: int,
    steps: int,
    source_freq: float = 0.05,
    courant: float = 0.5,
    gather: bool = True,
    overlap: bool = True,
) -> FDTDResult:
    """Per-process body of the FDTD code.

    A soft sinusoidal source drives Ez at the domain centre; after
    *steps* leapfrog updates the total field energy (a sum reduction) and
    optionally the Ez field are returned.

    With *overlap* (default) the packed E/H boundary exchanges run
    nonblocking and, on the virtual clock, deep cells update while slabs
    travel; the curl is a star stencil, so results are bitwise identical
    to the blocking path.
    """
    mesh.overlap = overlap
    shape = (nx, ny, nz)
    e = [mesh.grid(shape, ghost=1) for _ in range(3)]  # Ex, Ey, Ez
    h = [mesh.grid(shape, ghost=1) for _ in range(3)]  # Hx, Hy, Hz
    dt = courant  # dx = dy = dz = 1 in normalised units

    centre = (nx // 2, ny // 2, nz // 2)
    ez_grid = e[2]
    rect = ez_grid.rect
    owns_source = all(lo <= c < hi for c, (lo, hi) in zip(centre, rect))
    local_source = tuple(c - lo + ez_grid.ghost for c, (lo, _) in zip(centre, rect))

    g = 1
    ex, ey, ez = (grid.local for grid in e)
    hx, hy, hz = (grid.local for grid in h)

    def h_update(region: tuple[slice, ...]) -> None:
        # H -= dt * curl E, restricted to *region* of the owned cells.
        h[0].interior[region] -= dt * (_d(ez, 1, g, region) - _d(ey, 2, g, region))
        h[1].interior[region] -= dt * (_d(ex, 2, g, region) - _d(ez, 0, g, region))
        h[2].interior[region] -= dt * (_d(ey, 0, g, region) - _d(ex, 1, g, region))

    def e_update(region: tuple[slice, ...]) -> None:
        # E += dt * curl H.
        e[0].interior[region] += dt * (_db(hz, 1, g, region) - _db(hy, 2, g, region))
        e[1].interior[region] += dt * (_db(hx, 2, g, region) - _db(hz, 0, g, region))
        e[2].interior[region] += dt * (_db(hy, 0, g, region) - _db(hx, 1, g, region))

    for step in range(steps):
        # Packed exchange of the three E components, then the H curl
        # update (charged as overlapped over the deep cells when
        # enabled); then the mirrored half-step for H -> E.
        mesh.overlapped_update(
            e, h_update, writes=h, flops_per_point=FLOPS_PER_CELL / 2, label="h-update"
        )
        mesh.overlapped_update(
            h, e_update, writes=e, flops_per_point=FLOPS_PER_CELL / 2, label="e-update"
        )

        # Soft source on the rank owning the centre cell.
        if owns_source:
            ez_grid.local[local_source] += np.sin(
                2.0 * np.pi * source_freq * (step + 1) * dt
            )

        # PEC boundary: tangential E on the domain faces stays zero.
        _apply_pec(e)

    # Total field energy: sum reduction; every rank holds the result
    # (paper §3.2 postcondition), so the return value is P-invariant.
    local_energy = sum(float(np.sum(grid.interior**2)) for grid in e + h)
    mesh.charge(2.0 * 6 * e[0].interior.size, label="energy")
    energy = mesh.reduce(local_energy, SUM)

    ez_full = e[2].gather(root=0) if gather else None
    return FDTDResult(
        steps=steps,
        energy=float(energy),
        ez=ez_full if mesh.comm.rank == 0 else None,
    )


def _apply_pec(e_grids) -> None:
    """Zero the tangential electric field on physical domain faces."""
    for axis in range(3):
        for comp, grid in enumerate(e_grids):
            if comp == axis:
                continue  # normal component is unconstrained
            lo, hi = grid.rect[axis]
            gw = grid.ghost
            n = grid.local.shape[axis]
            if lo == 0:
                sel = tuple(
                    slice(gw, gw + 1) if d == axis else slice(gw, grid.local.shape[d] - gw)
                    for d in range(3)
                )
                grid.local[sel] = 0.0
            if hi == grid.global_shape[axis]:
                sel = tuple(
                    slice(n - gw - 1, n - gw)
                    if d == axis
                    else slice(gw, grid.local.shape[d] - gw)
                    for d in range(3)
                )
                grid.local[sel] = 0.0


def fdtd_archetype() -> MeshProgram:
    """Archetype driver for the FDTD code."""
    return MeshProgram(fdtd_program)


def sequential_fdtd_time(
    nx: int, ny: int, nz: int, steps: int, machine: MachineModel
) -> float:
    """Virtual time of the sequential FDTD baseline (curl updates plus the
    final energy sweep, matching the parallel program's charges)."""
    work = FLOPS_PER_CELL * nx * ny * nz * steps + 12.0 * nx * ny * nz
    return machine.compute_time(work, working_set_bytes=8.0 * 6 * nx * ny * nz)
