"""Airshed photochemical smog model (paper §4.5.4).

The paper's CIT airshed code models smog in the Los Angeles basin and is
"conceptually based on the mesh-spectral archetype".  We implement the
same computational shape: an operator-split advection–diffusion–reaction
system for three species (NO, NO2, O3) over a 2-D basin grid with a
diurnally varying photolysis rate and spatially localised emissions.

Chemistry: the basic NOx photochemical cycle

    NO2 + hv -> NO + O3        (rate j, diurnal)
    NO + O3  -> NO2            (rate k)

integrated pointwise with sub-stepped explicit Euler; transport: upwind
advection in a prescribed sea-breeze wind field plus central diffusion,
a stencil grid operation with boundary exchange.  Monitoring reductions
(domain-max ozone) exercise the archetype's global variables.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.meshspectral import MeshContext, MeshProgram
from repro.comm.reductions import MAX, SUM
from repro.kernels import INC, READ, RW, WRITE, Arg, Kernel, RegionKernel, StencilView
from repro.machines.model import MachineModel

#: flops charged per cell per transport step per species
TRANSPORT_FLOPS = 20.0
#: flops charged per cell per chemistry sub-step
CHEMISTRY_FLOPS = 12.0

#: NO + O3 -> NO2 rate constant (normalised units)
K_NO_O3 = 0.4
#: peak NO2 photolysis rate (normalised units)
J_PEAK = 0.3


@dataclass
class SmogResult:
    """End-of-run state."""

    steps: int
    #: domain-maximum ozone concentration (identical on all ranks)
    peak_ozone: float
    #: total ozone burden (identical on all ranks)
    total_ozone: float
    #: final ozone field on rank 0 (``None`` elsewhere)
    ozone: np.ndarray | None
    #: all final species fields on rank 0 (populated when requested)
    fields: dict[str, np.ndarray] | None = None


def _wind_pattern(i: np.ndarray, j: np.ndarray, nx: int, ny: int):
    """The wind's time-independent spatial part, per component."""
    shape = np.broadcast(i, j).shape
    x = np.broadcast_to(i, shape) / nx
    y = np.broadcast_to(j, shape) / ny
    return 0.1 * np.sin(2 * np.pi * y), 0.1 * np.sin(2 * np.pi * x)


def _wind_veer(t: float):
    """The wind's space-independent diurnal part, per component."""
    phase = 2.0 * np.pi * t
    return 0.6 + 0.2 * np.sin(phase), 0.3 * np.cos(phase)


def sea_breeze_wind(i: np.ndarray, j: np.ndarray, nx: int, ny: int, t: float):
    """Prescribed wind: onshore flow that veers over the day.

    Returns (u, v) broadcast over the given index arrays; the direction
    rotates slowly with *t* to mimic the diurnal sea-breeze cycle.  (A
    step loop evaluates the pattern once and adds each step's veer.)
    """
    (pattern_u, pattern_v), (veer_u, veer_v) = _wind_pattern(i, j, nx, ny), _wind_veer(t)
    return veer_u + pattern_u, veer_v + pattern_v


def emission_field(i: np.ndarray, j: np.ndarray, nx: int, ny: int) -> np.ndarray:
    """NO emission sources: two Gaussian urban hot spots."""
    shape = np.broadcast(i, j).shape
    x = np.broadcast_to(i, shape) / nx
    y = np.broadcast_to(j, shape) / ny
    city1 = np.exp(-((x - 0.3) ** 2 + (y - 0.4) ** 2) / 0.01)
    city2 = np.exp(-((x - 0.6) ** 2 + (y - 0.6) ** 2) / 0.02)
    return 2.0 * city1 + 1.0 * city2


def photolysis_rate(t: float) -> float:
    """Diurnal NO2 photolysis rate: zero at night, peaking at midday.

    *t* is the fraction of the day elapsed, starting at midnight and
    wrapping every 1.0; the sun is up between t = 0.25 (6 am) and
    t = 0.75 (6 pm)."""
    daylight = np.sin(2.0 * np.pi * ((t % 1.0) - 0.25))
    return float(J_PEAK * max(daylight, 0.0) ** 2)


def smog_program(
    mesh: MeshContext,
    nx: int,
    ny: int,
    steps: int,
    dt: float = 2e-3,
    diffusion: float = 5e-3,
    chem_substeps: int = 4,
    gather: bool = True,
    gather_all_species: bool = False,
) -> SmogResult:
    """Per-process body of the airshed model.

    Each step: transport every species (ghost exchange + upwind stencil),
    inject emissions, then integrate the chemistry pointwise.  The peak
    ozone is tracked with max-reductions (copy-consistent global).
    """
    dx, dy = 1.0 / nx, 1.0 / ny
    species = {
        name: mesh.grid((nx, ny), ghost=1) for name in ("no", "no2", "o3")
    }
    new = {name: grid.like() for name, grid in species.items()}
    ii, jj = species["no"].coord_arrays()
    emis = emission_field(ii, jj, nx, ny)
    pattern_u, pattern_v = _wind_pattern(ii, jj, nx, ny)
    # Clean background: a little NO2, trace ozone.
    species["no2"].interior[...] = 0.1
    species["o3"].interior[...] = 0.05

    peak_ozone = mesh.global_var(0.0)

    def copy_field(dst: np.ndarray, src: np.ndarray) -> None:
        dst[...] = src

    def emissions_body(region: tuple[slice, ...]) -> None:
        species["no"].interior[region] += dt * emis[region]

    # Per-step values the declared bodies read at each run: wind, j_rate.
    u, v = np.empty_like(pattern_u), np.empty_like(pattern_v)
    j_rate = 0.0
    h = dt / chem_substeps if chem_substeps else 0.0

    def chemistry(no, no2, o3) -> None:
        for _ in range(chem_substeps):
            r1 = j_rate * no2  # NO2 photolysis
            r2 = K_NO_O3 * no * o3  # titration
            released = h * (r1 - r2)  # NO and O3 gain the same
            no += released
            no2 += h * (r2 - r1)
            o3 += released
            np.clip(no, 0.0, None, out=no)
            np.clip(no2, 0.0, None, out=no2)
            np.clip(o3, 0.0, None, out=o3)

    # One step, declared once: the kernel layer packs the three species
    # ghost refreshes into one message per neighbour per direction, fuses
    # the three transports into one tiled walk, and fuses the pointwise
    # copy-back/emissions/chemistry chain so each row block stays
    # cache-resident across it.
    step = [
        # --- transport: upwind advection + diffusion, per species ------
        *(
            mesh.loop(
                RegionKernel(
                    _transport_update(grid, new[name], u, v, dx, dy, dt, diffusion),
                    name=f"transport:{name}",
                ),
                Arg(new[name], WRITE),
                # open basin boundary: edge ghosts copy the rim value
                Arg(grid, READ, halo=1, edges="copy"),
                margin=0,
                flops_per_point=TRANSPORT_FLOPS,
                label=f"transport:{name}",
            )
            for name, grid in species.items()
        ),
        *(
            mesh.loop(copy_field, Arg(grid, WRITE), Arg(new[name], READ), label=f"copy:{name}")
            for name, grid in species.items()
        ),
        # --- emissions -------------------------------------------------
        mesh.loop(
            RegionKernel(emissions_body, name="emissions"),
            Arg(species["no"], INC),
            flops_per_point=2.0,
            label="emissions",
        ),
        # --- chemistry: pointwise NOx cycle, sub-stepped ----------------
        mesh.loop(
            Kernel(chemistry, name="chemistry"),
            Arg(species["no"], RW),
            Arg(species["no2"], RW),
            Arg(species["o3"], RW),
            flops_per_point=CHEMISTRY_FLOPS * chem_substeps,
            label="chemistry",
        ),
    ]

    t = 0.0
    for _ in range(steps):
        veer_u, veer_v = _wind_veer(t)
        np.add(veer_u, pattern_u, out=u)  # sea_breeze_wind at t
        np.add(veer_v, pattern_v, out=v)
        j_rate = photolysis_rate(t)
        with mesh.fuse():
            for loop in step:
                loop()

        o3 = species["o3"].interior
        local_max = float(np.max(o3)) if o3.size else 0.0
        current = mesh.reduce(local_max, MAX)
        peak_ozone.assign(max(peak_ozone.value, current))
        t += dt

    o3_grid = species["o3"]
    local_sum = float(np.sum(o3_grid.interior)) if o3_grid.interior.size else 0.0
    total = mesh.reduce(local_sum, SUM)
    o3_full = o3_grid.gather(root=0) if gather else None
    fields = None
    if gather_all_species:
        gathered = {name: grid.gather(root=0) for name, grid in species.items()}
        fields = gathered if mesh.comm.rank == 0 else None
    return SmogResult(
        steps=steps,
        peak_ozone=float(peak_ozone.value),
        total_ozone=float(total),
        ozone=o3_full if mesh.comm.rank == 0 else None,
        fields=fields,
    )


def upwind_step(
    out: np.ndarray, q, u, v, dx: float, dy: float, dt: float, kdiff: float
) -> None:
    """One explicit step of first-order upwind advection in wind (u, v)
    plus central diffusion, at every point of stencil view *q* (halo 1),
    written into *out*:
    ``q - dt * (u dq/dx + v dq/dy) + dt * kdiff * lap(q)``.

    The upwind difference is selected first and scaled once, each
    neighbour view and ``2 * q`` is formed once, and the last sum lands
    in *out* directly — the same arithmetic at every point as scaling
    both one-sided differences, selecting, and assigning the result.
    """
    c, w, e, s, n = q[0, 0], q[-1, 0], q[1, 0], q[0, -1], q[0, 1]
    adv_x = u * np.where(u > 0, c - w, e - c) / dx
    adv_y = v * np.where(v > 0, c - s, n - c) / dy
    c2 = 2 * c
    lap = (e - c2 + w) / dx**2 + (n - c2 + s) / dy**2
    np.add(c - dt * (adv_x + adv_y), dt * kdiff * lap, out=out)


def _transport_update(
    qgrid, ogrid, u, v, dx: float, dy: float, dt: float, kdiff: float
):
    """:func:`upwind_step` of *qgrid* into *ogrid*.

    A region kernel (rather than a views kernel) because the wind
    arrays are plain full-interior fields the body must slice to the
    region itself."""

    def update(region: tuple[slice, ...]) -> None:
        q = StencilView(qgrid, region)
        upwind_step(ogrid.interior[region], q, u[region], v[region], dx, dy, dt, kdiff)

    return update


def smog_archetype() -> MeshProgram:
    """Archetype driver for the airshed model."""
    return MeshProgram(smog_program)


def sequential_smog_time(
    nx: int, ny: int, steps: int, machine: MachineModel, chem_substeps: int = 4
) -> float:
    """Virtual time of the sequential baseline."""
    per_step = (
        3 * TRANSPORT_FLOPS + CHEMISTRY_FLOPS * chem_substeps + 2.0
    ) * nx * ny
    return machine.compute_time(
        per_step * steps, working_set_bytes=8.0 * 6 * nx * ny
    )
