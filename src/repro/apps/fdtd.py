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
from functools import partial

import numpy as np

from repro.core.meshspectral import MeshContext, MeshProgram
from repro.comm.reductions import SUM
from repro.kernels import READ, RW, Arg, RegionKernel
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
    a: np.ndarray, axis: int, cells: tuple[slice, ...], shift: int, out: np.ndarray
) -> np.ndarray:
    """Difference of ghosted array *a* along *axis* over *cells* (slices
    in *a*'s own, ghosted coordinates), written into *out*:
    ``a[i+1] - a[i]`` (forward) at *shift* 0, ``a[i] - a[i-1]``
    (backward) at *shift* -1."""
    s = cells[axis]
    lo = cells[:axis] + (slice(s.start + shift, s.stop + shift),) + cells[axis + 1 :]
    hi = cells[:axis] + (slice(s.start + shift + 1, s.stop + shift + 1),) + cells[axis + 1 :]
    return np.subtract(a[hi], a[lo], out=out)


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
    scratch: dict[tuple[int, ...], tuple[np.ndarray, np.ndarray]] = {}

    def curl_update(fields, src, shift, accumulate, region: tuple[slice, ...]) -> None:
        # fields[c] (+|-)= dt * curl(src)[c] over *region* of the owned
        # cells, through two scratch blocks per region shape (the row
        # blocks of a run have at most two) instead of fresh temporaries.
        shape = tuple(s.stop - s.start for s in region)
        if shape not in scratch:
            scratch[shape] = (np.empty(shape), np.empty(shape))
        s1, s2 = scratch[shape]
        cells = tuple(slice(s.start + g, s.stop + g) for s in region)
        for c, grid in enumerate(fields):
            a, b = (c + 1) % 3, (c + 2) % 3
            _d(src[b].local, a, cells, shift, s1)
            _d(src[a].local, b, cells, shift, s2)
            np.subtract(s1, s2, out=s1)
            np.multiply(dt, s1, out=s1)
            target = grid.interior[region]
            accumulate(target, s1, out=target)

    def half_step(label, fields, src, shift, accumulate):
        # One packed exchange of the three *src* components, then the
        # curl update of *fields* (charged as overlapped over the deep
        # cells when enabled).
        return mesh.loop(
            RegionKernel(partial(curl_update, fields, src, shift, accumulate), name=label),
            *(Arg(grid, READ, halo=1) for grid in src),
            *(Arg(grid, RW) for grid in fields),
            flops_per_point=FLOPS_PER_CELL / 2,
            label=label,
        )

    # H -= dt * curl E (forward differences); E += dt * curl H (backward).
    h_update = half_step("h-update", h, e, 0, np.subtract)
    e_update = half_step("e-update", e, h, -1, np.add)

    for step in range(steps):
        h_update()
        e_update()

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
