"""Spectral incompressible-flow code (paper §4.5.3).

The paper's application solves the three-dimensional Euler equations for
incompressible flow with axisymmetry: periodic in the axial direction
(Fourier spectral method) and finite differences in the radial
direction, on the two-dimensional *spectral* archetype.

We implement the axisymmetric-with-swirl model in vorticity–streamfunction
form on an (r, z) grid, with the paper's computational structure:

- **row operations**: forward/inverse FFT along the periodic axial (z)
  direction (data by rows — each rank owns all z for its r-range);
- **column operations**: per-axial-mode Helmholtz solves
  ``(d²/dr² - k²) psi_k = -omega_k`` by the Thomas algorithm (data by
  columns — each rank owns all r for its mode range);
- **redistributions** between the two layouts every step (Figure 7);
- **grid operations**: velocities from psi by central differences,
  upwind advection of vorticity and of the azimuthal (swirl) velocity;
- **reduction**: CFL time-step control.

Physics simplifications vs. the production code (documented in
DESIGN.md): second-order rather than fourth-order radial differences,
and the cylindrical metric terms are dropped (slab symmetry), which
preserves the archetype's dataflow and cost structure exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache

import numpy as np

from repro.core.meshspectral import MeshContext, MeshProgram
from repro.comm.reductions import MAX
from repro.apps.fftlib import fft, fft_cost, fft_frequencies
from repro.apps.smog import upwind_step
from repro.kernels import READ, WRITE, Arg
from repro.machines.model import MachineModel

#: flops charged per point per step for the finite-difference part
FD_FLOPS_PER_POINT = 40.0
#: flops charged per tridiagonal unknown in the Helmholtz solves
THOMAS_FLOPS_PER_POINT = 8.0


@dataclass
class SpectralFlowResult:
    """Flow state after the run."""

    steps: int
    time: float
    #: max |vorticity| at the end (identical on all ranks)
    max_vorticity: float
    #: azimuthal (swirl) velocity field on rank 0 (``None`` elsewhere)
    swirl: np.ndarray | None


def thomas_factor(
    lower: np.ndarray, diag: np.ndarray, upper: np.ndarray, dtype: np.dtype | type
) -> tuple[np.ndarray, np.ndarray]:
    """The right-hand-side-independent half of the Thomas algorithm.

    ``diag`` has shape ``(m, n)`` — m independent systems of n unknowns;
    ``lower``/``upper`` are the off-diagonals (length n, shared across the
    batch).  Returns the eliminated super-diagonal and the pivots, both
    ``(n, m)`` — one system per *column*, so every sweep step reads and
    writes a contiguous row — and read-only, because a factor is meant to
    be applied many times.  *dtype* is the dtype of the right-hand sides
    the factor will meet: the recurrences run in it, as the one-shot
    solve's always did.
    """
    m, n = diag.shape
    cp = np.empty((n, m), dtype=dtype)
    denom = np.empty((n, m), dtype=dtype)
    denom[0] = diag[:, 0]
    cp[0] = upper[0] / diag[:, 0]
    for i in range(1, n):
        denom[i] = diag[:, i] - lower[i] * cp[i - 1]
        cp[i] = (upper[i] if i < n - 1 else 0.0) / denom[i]
    cp.flags.writeable = denom.flags.writeable = False
    return cp, denom


def thomas_apply(
    factor: tuple[np.ndarray, np.ndarray], lower: np.ndarray, rhs: np.ndarray
) -> np.ndarray:
    """Solve the systems behind *factor* (:func:`thomas_factor`, same
    *lower*) for ``rhs`` of shape ``(m, n)``; returns the solutions,
    shape ``(m, n)``."""
    cp, denom = factor
    n = cp.shape[0]
    x = np.empty(cp.shape, dtype=rhs.dtype)
    step = np.empty(cp.shape[1], dtype=rhs.dtype)
    np.divide(rhs[:, 0], denom[0], out=x[0])
    for i in range(1, n):
        np.multiply(lower[i], x[i - 1], out=step)
        np.subtract(rhs[:, i], step, out=step)
        np.divide(step, denom[i], out=x[i])
    for i in range(n - 2, -1, -1):
        np.multiply(cp[i], x[i + 1], out=step)
        x[i] -= step
    return x.T


def thomas_solve(lower: np.ndarray, diag: np.ndarray, upper: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Thomas algorithm for a batch of tridiagonal systems: factor
    (:func:`thomas_factor`) and apply (:func:`thomas_apply`) in one call."""
    return thomas_apply(thomas_factor(lower, diag, upper, rhs.dtype), lower, rhs)


def vortex_ic(i: np.ndarray, j: np.ndarray, nr: int, nz: int):
    """Initial condition: a vortex patch with an embedded swirl core."""
    shape = np.broadcast(i, j).shape
    r = np.broadcast_to(i, shape) / nr
    z = np.broadcast_to(j, shape) / nz
    # Periodic distance in z so the patch is smooth across the seam.
    d2 = (r - 0.5) ** 2 + (np.minimum(np.abs(z - 0.5), 1.0 - np.abs(z - 0.5))) ** 2
    omega = 10.0 * np.exp(-d2 / 0.02)
    swirl = 2.0 * np.exp(-d2 / 0.01)
    return omega, swirl


def spectralflow_program(
    mesh: MeshContext,
    nr: int,
    nz: int,
    steps: int,
    dt: float | None = None,
    nu: float = 1e-3,
    gather: bool = True,
) -> SpectralFlowResult:
    """Per-process body of the spectral flow code.

    Grid axes: axis 0 = radial r (wall boundaries, psi = 0), axis 1 =
    axial z (periodic).  Data lives by rows (r distributed) for the
    physical-space and FFT stages and is redistributed to columns for the
    per-mode radial solves.
    """
    dr, dz = 1.0 / nr, 1.0 / nz
    omega = mesh.grid((nr, nz), dist="rows", ghost=1)
    swirl = mesh.grid((nr, nz), dist="rows", ghost=1)
    ii, jj = omega.coord_arrays()
    om0, sw0 = vortex_ic(ii, jj, nr, nz)
    omega.interior[...] = om0
    swirl.interior[...] = sw0
    # ~10 full-grid working arrays resident per rank; drives the machine's
    # paging model (the paper's Figure 18 base-configuration anomaly).
    mesh.set_working_set(10 * 8.0 * max(omega.interior.size, 1))

    # Modal wavenumbers for the axial direction.
    kz = 2.0 * np.pi * fft_frequencies(nz, d=dz)

    # The Helmholtz operator is the same at every step: factor it once,
    # for the mode range this rank holds by columns.  The cache is a local
    # of this call, so nothing outlives the run.
    lower = np.full(nr, 1.0 / dr**2)
    lower[-1] = 0.0
    upper = np.full(nr, 1.0 / dr**2)
    upper[0] = 0.0

    @cache
    def helmholtz_factor(lo: int, hi: int) -> tuple[np.ndarray, np.ndarray]:
        diag = (-2.0 / dr**2) - (kz[lo:hi, None] ** 2) * np.ones((hi - lo, nr))
        # Dirichlet walls: fix the first/last unknown to zero.
        diag[:, 0] = 1.0
        diag[:, -1] = 1.0
        return thomas_factor(lower, diag, upper, np.complex128)

    # --- the advection stage, declared once ------------------------------
    # Its grids are the same every step (velocities and scratch copies
    # are allocated here), so its four loops are built above the time
    # loop.  The two advections share a region and access pattern: they
    # fuse into one tiled walk and their ghost refreshes pack into one
    # message per neighbour per direction.  The velocities are halo-0
    # reads (the body uses only the centre value), so — unlike the
    # historical stencil-input formulation — they need no exchange.
    ur = mesh.grid((nr, nz), dist="rows", ghost=1)  # radial velocity
    uz = mesh.grid((nr, nz), dist="rows", ghost=1)  # axial velocity
    new_om = omega.like()
    new_sw = swirl.like()
    step_dt = 0.0  # set by each step's CFL reduction before the loops run

    def advect(out: np.ndarray, q, u_r: np.ndarray, u_z: np.ndarray) -> None:
        upwind_step(out, q, u_r, u_z, dr, dz, step_dt, nu)

    def copy_field(dst: np.ndarray, src: np.ndarray) -> None:
        dst[...] = src

    advection = [
        *(
            mesh.loop(
                advect,
                Arg(new, WRITE),
                Arg(field, READ, halo=1, periodic=(False, True)),
                Arg(ur, READ),
                Arg(uz, READ),
                margin=(1, 0),
                flops_per_point=FD_FLOPS_PER_POINT / 2,
                label="advect",
            )
            for field, new in ((omega, new_om), (swirl, new_sw))
        ),
        *(
            mesh.loop(copy_field, Arg(field, WRITE), Arg(new, READ), label="copy-advected")
            for field, new in ((omega, new_om), (swirl, new_sw))
        ),
    ]

    t = 0.0
    max_vort = 0.0
    for _ in range(steps):
        # --- streamfunction solve: FFT in z (row op) -------------------
        omega_hat = mesh.grid((nr, nz), dist="rows", dtype=np.complex128)
        omega_hat.interior[...] = omega.interior
        mesh.row_op(
            lambda block: fft(block, axis=1),
            omega_hat,
            flops_per_row=fft_cost(nz),
            label="fft-z",
        )

        # --- per-mode Helmholtz solve in r (column op, cols layout) ----
        hat_cols = mesh.redistribute(omega_hat, "cols")

        def helmholtz(modes: np.ndarray) -> np.ndarray:
            # modes: (local_nmodes, nr); solve (D2 - k^2) psi = -omega
            # with psi = 0 at both radial walls (rows of the transposed
            # block are mode vectors over r).
            rhs = -modes
            rhs[:, 0] = 0.0
            rhs[:, -1] = 0.0
            return thomas_apply(helmholtz_factor(*hat_cols.rect[1]), lower, rhs)  # noqa: B023

        mesh.col_op(
            helmholtz,
            hat_cols,
            flops_per_col=THOMAS_FLOPS_PER_POINT * nr,
            label="helmholtz-r",
        )

        # --- inverse FFT in z (back to rows, row op) -------------------
        psi_hat = mesh.redistribute(hat_cols, "rows")
        mesh.row_op(
            lambda block: fft(block, inverse=True, axis=1),
            psi_hat,
            flops_per_row=fft_cost(nz),
            label="ifft-z",
        )
        psi = mesh.grid((nr, nz), dist="rows", ghost=1)
        psi.interior[...] = psi_hat.interior.real

        # --- velocities from psi (stencil par-loops) --------------------
        # psi is a new grid every step, so these two are declared where
        # they run.  Both read psi at halo 1; the kernel layer exchanges
        # psi's ghosts once for the first loop and *hoists* the second
        # exchange automatically (the historical code skipped it by hand).
        with mesh.fuse():
            mesh.parloop(
                lambda out, p: out.__setitem__(..., (p[0, 1] - p[0, -1]) / (2 * dz)),
                Arg(ur, WRITE),
                Arg(psi, READ, halo=1, periodic=(False, True)),
                margin=0,
                flops_per_point=3.0,
                label="ur",
            )
            mesh.parloop(
                lambda out, p: out.__setitem__(..., -(p[1, 0] - p[-1, 0]) / (2 * dr)),
                Arg(uz, WRITE),
                Arg(psi, READ, halo=1, periodic=(False, True)),
                margin=(1, 0),
                flops_per_point=3.0,
                label="uz",
            )

        # --- CFL-controlled time step (global reduction) ---------------
        local_speed = float(
            np.max(np.abs(ur.interior) / dz + np.abs(uz.interior) / dr)
        ) if ur.interior.size else 0.0
        mesh.charge(4.0 * ur.interior.size, label="cfl")
        smax = mesh.reduce(local_speed, MAX)
        step_dt = dt if dt is not None else 0.4 / max(smax, 1e-12)

        # --- advect omega and swirl (upwind stencil par-loops) ----------
        with mesh.fuse():
            for loop in advection:
                loop()
        t += step_dt

    local_max = float(np.max(np.abs(omega.interior))) if omega.interior.size else 0.0
    max_vort = mesh.reduce(local_max, MAX)
    swirl_full = swirl.gather(root=0) if gather else None
    return SpectralFlowResult(
        steps=steps,
        time=t,
        max_vorticity=float(max_vort),
        swirl=swirl_full if mesh.comm.rank == 0 else None,
    )


def spectralflow_archetype() -> MeshProgram:
    """Archetype driver for the spectral flow code."""
    return MeshProgram(spectralflow_program)


def sequential_spectralflow_time(
    nr: int, nz: int, steps: int, machine: MachineModel
) -> float:
    """Virtual time of the sequential baseline (all stages, no comm)."""
    per_step = (
        2.0 * fft_cost(nz) * nr  # forward + inverse FFT
        + THOMAS_FLOPS_PER_POINT * nr * nz  # Helmholtz solves
        + (FD_FLOPS_PER_POINT + 10.0) * nr * nz  # FD stages + CFL
    )
    return machine.compute_time(
        per_step * steps, working_set_bytes=8.0 * 10 * nr * nz
    )
