"""Two-dimensional compressible-flow code (paper §4.5.1).

The paper's CFD applications simulate high-Mach-number compressible flow
on the two-dimensional mesh archetype.  This module implements a 2-D
compressible Euler solver with the Lax–Friedrichs scheme — first-order
and diffusive but robust through strong shocks, and exactly the
archetype's shape: per step, a ghost-boundary exchange on each state
grid, a pointwise flux evaluation, a stencil update, and a global
reduction for the CFL time step (a copy-consistent global variable).

The demo initial condition reproduces the physics of the paper's
Figure 19: a Mach shock propagating into gas with a sinusoidal density
interface.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.meshspectral import MeshContext, MeshProgram
from repro.comm.reductions import MAX
from repro.kernels import READ, WRITE, Arg, RegionKernel
from repro.machines.model import MachineModel

#: ratio of specific heats (diatomic gas)
GAMMA = 1.4
#: flops charged per cell per time step (flux eval + LF update, 4 components)
FLOPS_PER_CELL = 90.0

# Ideal-dissociating-gas (IDG) style chemistry for the reactive variant
# (the paper's second CFD code, Figure 20): a progress variable lambda
# relaxes toward dissociation behind hot shocked gas, absorbing energy.
#: Arrhenius pre-exponential factor (1/time)
IDG_RATE = 4000.0
#: activation temperature (normalised, T = p / rho); high enough that the
#: cold pre-shock gas is chemically frozen while shocked gas dissociates
IDG_T_ACT = 6.0
#: dissociation energy per unit mass at lambda = 1
IDG_HEAT = 0.3
#: extra flops per cell per step for the chemistry update
CHEM_FLOPS_PER_CELL = 25.0


@dataclass
class CFDResult:
    """Final flow state returned by rank 0 (``None`` fields elsewhere)."""

    steps: int
    time: float
    density: np.ndarray | None
    pressure: np.ndarray | None
    #: reaction-progress (dissociation) field, reactive runs only
    progress: np.ndarray | None = None


def _primitive(rho, mx, my, e):
    """Primitive variables from conserved state (operates on any arrays)."""
    u = mx / rho
    v = my / rho
    p = (GAMMA - 1.0) * (e - 0.5 * rho * (u * u + v * v))
    return u, v, p


def _window(
    a: np.ndarray, g: int, region: tuple[slice, ...], lo: tuple[int, int], hi: tuple[int, int]
) -> np.ndarray:
    """View of ghosted array *a* (ghost width *g*) at *region*
    (owned-interior coordinates) with each axis's start moved by *lo* and
    stop by *hi*: ``lo == hi`` is a shift, ``lo < hi`` a widening."""
    si, sj = region
    return a[
        g + si.start + lo[0] : g + si.stop + hi[0],
        g + sj.start + lo[1] : g + sj.stop + hi[1],
    ]


def shock_interface_ic(i: np.ndarray, j: np.ndarray, nx: int, ny: int, mach: float = 2.0):
    """Initial condition: a right-moving Mach-*mach* shock at x = nx/8
    about to hit a sinusoidal density interface at x = nx/4 (Figure 19).

    Returns conserved state arrays (rho, rho*u, rho*v, E).
    """
    shape = np.broadcast(i, j).shape
    x = np.broadcast_to(i, shape) / nx
    y = np.broadcast_to(j, shape) / ny

    # Quiescent pre-shock gas: rho = 1 with a sinusoidal interface beyond
    # x = 0.25, p = 1.
    rho = np.ones(shape)
    interface = x > 0.25 + 0.05 * np.sin(2.0 * np.pi * 4.0 * y)
    rho = np.where(interface, 2.0, rho)
    p = np.ones(shape)
    u = np.zeros(shape)

    # Post-shock state from the Rankine-Hugoniot relations for a Mach-M
    # shock moving into (rho=1, p=1, u=0).
    m2 = mach * mach
    rho2 = (GAMMA + 1.0) * m2 / ((GAMMA - 1.0) * m2 + 2.0)
    p2 = (2.0 * GAMMA * m2 - (GAMMA - 1.0)) / (GAMMA + 1.0)
    c1 = np.sqrt(GAMMA)  # sound speed of the pre-shock state
    u2 = mach * c1 * (1.0 - 1.0 / rho2)
    behind = x < 0.125
    rho = np.where(behind, rho2, rho)
    p = np.where(behind, p2, p)
    u = np.where(behind, u2, u)

    v = np.zeros(shape)
    e = p / (GAMMA - 1.0) + 0.5 * rho * (u * u + v * v)
    return rho, rho * u, rho * v, e


def uniform_flow_ic(i: np.ndarray, j: np.ndarray, nx: int, ny: int, mach: float = 2.0):
    """Smooth periodic benchmark state: uniform flow plus a density wave."""
    shape = np.broadcast(i, j).shape
    x = np.broadcast_to(i, shape) / nx
    y = np.broadcast_to(j, shape) / ny
    rho = 1.0 + 0.2 * np.sin(2 * np.pi * (x + y))
    u = np.full(shape, 0.5)
    v = np.full(shape, -0.3)
    p = np.ones(shape)
    e = p / (GAMMA - 1.0) + 0.5 * rho * (u * u + v * v)
    return rho, rho * u, rho * v, e


def cfd_program(
    mesh: MeshContext,
    nx: int,
    ny: int,
    steps: int,
    ic: str = "shock",
    cfl: float = 0.4,
    periodic: bool = False,
    gather: bool = True,
    packed_exchange: bool = True,
    cfl_interval: int = 1,
    reactive: bool = False,
    overlap: bool = True,
) -> CFDResult:
    """Per-process body of the compressible-flow code.

    ``ic`` selects the initial condition (``"shock"`` for the Figure 19
    scenario with outflow boundaries, ``"smooth"`` for a periodic
    benchmark state).  Per step: one boundary exchange of the state
    (all components packed into one message per neighbour when
    ``packed_exchange`` is set, as production codes do) and — every
    ``cfl_interval`` steps — a max-reduction of the wave speed for the
    CFL time step.

    ``reactive=True`` runs the paper's *second* CFD code (Figure 20): a
    fifth conserved field ``rho * lambda`` tracks an ideal-dissociating-
    gas progress variable that relaxes toward dissociation in hot
    shocked gas, absorbing energy — the shock/interface interaction
    "with IDG chemistry".

    With *overlap* (default, packed exchange only) the boundary exchange
    runs nonblocking and cells away from the section edge update while
    slabs travel.  The Lax–Friedrichs stencil is a star (axis-aligned
    ±1 reads only) and the CFL speed is reduced over owned interiors, so
    results are bitwise identical to the blocking path.
    """
    mesh.overlap = overlap
    dx, dy = 1.0 / nx, 1.0 / ny
    ncomp = 5 if reactive else 4
    state = [mesh.grid((nx, ny), ghost=1) for _ in range(ncomp)]
    new_state = [mesh.grid((nx, ny), ghost=1) for _ in range(ncomp)]
    ii, jj = state[0].coord_arrays()
    ic_fn = shock_interface_ic if ic == "shock" else uniform_flow_ic
    for grid, field in zip(state, ic_fn(ii, jj, nx, ny)):
        grid.interior[...] = field
    # reactive: rho*lambda starts at zero everywhere (undissociated gas)

    t = 0.0
    g = 1  # ghost width
    wrap = bool(periodic or ic == "smooth")
    dt = 0.0

    def lf_sweep(src, dst):
        # One orientation of the state/new_state swap as one declared
        # loop: a packed exchange of the *src* fields, then the update
        # of *dst*.
        fields = [grid.local for grid in src]

        def lf_update(region: tuple[slice, ...]) -> None:
            # Lax–Friedrichs update of *dst* from *src* restricted to
            # *region*, at the enclosing scope's current `dt`.  Each axis's
            # flux is evaluated once, over the region widened by one cell
            # along that axis (its E/W or N/S ghosts, never a corner), and
            # read at its two shifts: elementwise ops commute with
            # slicing, so this is bitwise identical to evaluating the
            # flux on each shifted window.
            def sh(a, di, dj):
                return _window(a, g, region, (di, dj), (di, dj))

            def flux(wi, wj):
                # The flux along the widened axis: x for (1, 0), y for (0, 1).
                wide = [_window(a, g, region, (-wi, -wj), (wi, wj)) for a in fields]
                rhos, mxs, mys, es = wide[:4]
                u_, v_, p_ = _primitive(rhos, mxs, mys, es)
                if wi:
                    flux = [mxs, mxs * u_ + p_, mys * u_, u_ * (es + p_)]
                else:
                    flux = [mys, mxs * v_, mys * v_ + p_, v_ * (es + p_)]
                if reactive:
                    # rho * lambda, advected with the flow
                    flux.append(wide[4] * (u_ if wi else v_))
                return flux

            fx = flux(1, 0)
            gy = flux(0, 1)
            for k, cons in enumerate(fields):
                around = sh(cons, 1, 0) + sh(cons, -1, 0) + sh(cons, 0, 1) + sh(cons, 0, -1)
                np.subtract(
                    0.25 * around - dt / (2 * dx) * (fx[k][2:] - fx[k][:-2]),
                    dt / (2 * dy) * (gy[k][:, 2:] - gy[k][:, :-2]),
                    out=dst[k].interior[region],
                )

        if not packed_exchange:
            return lf_update  # the ablation path exchanges and charges by hand
        edges = None if wrap else "copy"
        return mesh.loop(
            RegionKernel(lf_update, name="lf-update"),
            *(Arg(grid, READ, halo=1, periodic=wrap, edges=edges) for grid in src),
            *(Arg(grid, WRITE) for grid in dst),
            flops_per_point=FLOPS_PER_CELL,
            label="lf-update",
        )

    sweeps = (lf_sweep(state, new_state), lf_sweep(new_state, state))

    for step in range(steps):
        # CFL time step from the global maximum wave speed: a reduction
        # whose result (a copy-consistent global) every rank holds.
        # Recomputed every `cfl_interval` steps, as production codes do.
        # The speed is evaluated over owned interiors only — ghost cells
        # replicate some rank's owned values, so the global maximum is
        # unchanged — which keeps it independent of the exchange and
        # lets the exchange overlap the flux computation below.
        if step % cfl_interval == 0:
            rho_i, mx_i, my_i, e_i = (grid.interior for grid in state[:4])
            u_i, v_i, p_i = _primitive(rho_i, mx_i, my_i, e_i)
            c = np.sqrt(GAMMA * np.clip(p_i, 1e-12, None) / rho_i)
            local_speed = (
                float(np.max(np.abs(u_i) + c + np.abs(v_i) + c))
                if rho_i.size
                else 0.0
            )
            mesh.charge(6.0 * rho_i.size, label="wave-speed")
            smax = mesh.reduce(local_speed, MAX)
            dt = cfl * min(dx, dy) / max(smax, 1e-12)

        if packed_exchange:
            sweeps[step % 2]()
        else:
            # Unpacked ablation path (one message per component per
            # neighbour); always blocking.
            for grid in state:
                grid.exchange(periodic=wrap)
                if not wrap:
                    grid.fill_edge_ghosts(mode="copy")
            mesh.charge(FLOPS_PER_CELL * state[0].interior.size, label="lf-update")
            sweeps[step % 2](tuple(slice(0, n) for n in state[0].interior.shape))
        state, new_state = new_state, state

        if reactive:
            # Pointwise IDG chemistry on the owned section: hot gas
            # dissociates (lambda -> 1), absorbing IDG_HEAT per unit of
            # newly dissociated mass.
            mesh.charge(CHEM_FLOPS_PER_CELL * state[0].interior.size, label="idg-chem")
            rho_i = state[0].interior
            e_i = state[3].interior
            rl_i = state[4].interior
            mx_i, my_i = state[1].interior, state[2].interior
            _, _, p_i = _primitive(rho_i, mx_i, my_i, e_i)
            temperature = np.clip(p_i, 1e-12, None) / rho_i
            lam = np.clip(rl_i / rho_i, 0.0, 1.0)
            rate = IDG_RATE * (1.0 - lam) * np.exp(-IDG_T_ACT / temperature)
            d_lam = np.minimum(dt * rate, 1.0 - lam)
            rl_i[...] = rho_i * (lam + d_lam)
            e_i[...] -= IDG_HEAT * rho_i * d_lam
        t += dt

    rho_full = None
    pressure = None
    progress = None
    if gather:
        rho_full = state[0].gather(root=0)
        mx_f = state[1].gather(root=0)
        my_f = state[2].gather(root=0)
        e_f = state[3].gather(root=0)
        if reactive:
            rl_f = state[4].gather(root=0)
            if mesh.comm.rank == 0:
                progress = np.clip(rl_f / rho_full, 0.0, 1.0)
        if mesh.comm.rank == 0:
            _, _, pressure = _primitive(rho_full, mx_f, my_f, e_f)
    return CFDResult(
        steps=steps,
        time=t,
        density=rho_full if mesh.comm.rank == 0 else None,
        pressure=pressure,
        progress=progress,
    )


def cfd_archetype() -> MeshProgram:
    """Archetype driver for the compressible-flow code."""
    return MeshProgram(cfd_program)


def sequential_cfd_time(nx: int, ny: int, steps: int, machine: MachineModel) -> float:
    """Virtual time of the sequential solver (same per-cell work, no comm)."""
    work = (FLOPS_PER_CELL + 6.0) * nx * ny * steps
    return machine.compute_time(work, working_set_bytes=8.0 * 8 * nx * ny)
