"""Analytic archetype performance models (the paper's reference [32]).

The paper argues archetypes "may also be helpful in developing
performance models for classes of programs with common structure"
(§1.1).  This module provides closed-form T(P) predictions for the
archetype programs, built from per-collective cost terms derived from
the machine model and the archetypes' known communication patterns.

The test suite validates the predictions against the simulator: because
the simulation executes the real message pattern, agreement (within a
tolerance covering skew/wait effects the closed forms ignore) is
evidence for both.
"""

from __future__ import annotations

import math

from repro.comm.cart import choose_proc_grid
from repro.machines.model import MachineModel
from repro.util.nbytes import _OVERHEAD_BYTES
from repro.apps.sorting.common import MERGE_FLOPS_PER_KEY, merge_cost, sort_cost
from repro.apps.fftlib import fft_cost
from repro.apps.poisson import FLOPS_PER_POINT


# -- collective cost terms -----------------------------------------------------
def _round_cost(machine: MachineModel, nbytes: float, nodes: int) -> float:
    """One communication round on the critical path: a send plus the
    matching receive's ingest overhead."""
    payload = int(nbytes) + _OVERHEAD_BYTES
    return machine.message_time(payload, nodes=nodes) + machine.recv_overhead(
        payload, nodes=nodes
    )


def ring_allgather_time(machine: MachineModel, nodes: int, item_bytes: float) -> float:
    """P-1 neighbour rounds, each carrying one accumulated item."""
    if nodes <= 1:
        return 0.0
    return (nodes - 1) * _round_cost(machine, item_bytes + 16, nodes)


def alltoall_time(machine: MachineModel, nodes: int, parcel_bytes: float) -> float:
    """Pairwise exchange: P-1 rounds of one parcel each way per rank."""
    if nodes <= 1:
        return 0.0
    return (nodes - 1) * _round_cost(machine, parcel_bytes, nodes)


def allreduce_time(machine: MachineModel, nodes: int, item_bytes: float = 8) -> float:
    """Recursive doubling: ~ceil(log2 P) rounds, plus the fold/unfold
    rounds for non-powers of two."""
    if nodes <= 1:
        return 0.0
    rounds = math.ceil(math.log2(nodes))
    pof2 = 1 << (nodes.bit_length() - 1)
    if pof2 != nodes:
        rounds += 2
    return rounds * _round_cost(machine, item_bytes, nodes)


def exchange_time(
    machine: MachineModel,
    nodes: int,
    proc_grid: tuple[int, ...],
    slab_bytes_per_axis: tuple[float, ...],
) -> float:
    """Blocking ghost exchange, one axis at a time.

    Each axis posts its receives and sends nonblocking and completes
    them with a single ``waitall``, so the two directions' wire
    transfers overlap: an interior rank pays one send-post overhead,
    one message time, and two ingest overheads; an edge rank (only one
    neighbour on the axis, the ``dim == 2`` case everywhere) pays one
    message time plus one ingest overhead.
    """
    total = 0.0
    for dim, slab in zip(proc_grid, slab_bytes_per_axis):
        if dim > 1:
            payload = int(slab) + _OVERHEAD_BYTES
            mt = machine.message_time(payload, nodes=nodes)
            ro = machine.recv_overhead(payload, nodes=nodes)
            if dim > 2:
                total += machine.send_overhead(payload, nodes=nodes) + mt + 2 * ro
            else:
                total += mt + ro
    return total


def overlapped_exchange_time(
    machine: MachineModel,
    nodes: int,
    proc_grid: tuple[int, ...],
    slab_bytes_per_axis: tuple[float, ...],
    compute_seconds: float,
) -> float:
    """One overlapped stencil sweep: post every face's send/recv, update
    the deep cells while the wires drain, then ingest the slabs.

    The critical-path rank pays its send-post overheads, then the larger
    of the deep compute and the slowest concurrent wire transfer, then
    one ingest overhead per incoming slab (shell compute is folded into
    *compute_seconds* — the slabs are a vanishing fraction of the work).
    """
    so_tot = ro_tot = wire = 0.0
    for dim, slab in zip(proc_grid, slab_bytes_per_axis):
        if dim > 1:
            payload = int(slab) + _OVERHEAD_BYTES
            faces = 2 if dim > 2 else 1  # messages each way on this axis
            so_tot += faces * machine.send_overhead(payload, nodes=nodes)
            ro_tot += faces * machine.recv_overhead(payload, nodes=nodes)
            wire = max(wire, machine.message_time(payload, nodes=nodes))
    if wire == 0.0:
        return compute_seconds
    return so_tot + max(compute_seconds, wire) + ro_tot


# -- archetype program models ---------------------------------------------------
def predict_onedeep_sort(
    n: int, nodes: int, machine: MachineModel, oversample: int = 32
) -> float:
    """T(P) of one-deep mergesort (replicated splitter strategy)."""
    local = n / nodes
    compute = (
        sort_cost(local)  # local solve
        + oversample  # sampling
        + sort_cost(oversample * nodes)  # splitter computation
        + MERGE_FLOPS_PER_KEY * local  # partition
        + merge_cost(local, ways=8)  # k-way merge of received runs
    ) * machine.flop_time
    comm = ring_allgather_time(machine, nodes, oversample * 8) + alltoall_time(
        machine, nodes, 8 * n / nodes**2
    )
    return compute + comm


def predict_poisson(
    nx: int,
    ny: int,
    iters: int,
    nodes: int,
    machine: MachineModel,
    proc_grid: tuple[int, int] | None = None,
    overlap: bool = True,
) -> float:
    """T(P) of the Jacobi Poisson solver (fixed iteration count).

    With *overlap* (the application default) the Jacobi sweep hides the
    ghost slabs' wire time behind the deep-cell update; the residual and
    copy passes plus the convergence allreduce stay on the critical path
    either way.
    """
    proc_grid = proc_grid or choose_proc_grid(nodes, 2)
    pr, pc = proc_grid
    points = nx * ny / nodes
    slabs = ((ny / pc) * 8.0, (nx / pr) * 8.0)
    stencil_compute = FLOPS_PER_POINT * points * machine.flop_time
    other_compute = (2.0 + 2.0) * points * machine.flop_time
    if overlap:
        per_iter = overlapped_exchange_time(
            machine, nodes, proc_grid, slabs, stencil_compute
        )
    else:
        per_iter = stencil_compute + exchange_time(machine, nodes, proc_grid, slabs)
    per_iter += other_compute + allreduce_time(machine, nodes)
    return iters * per_iter


def predict_fft2d(
    rows: int,
    cols: int,
    repeats: int,
    nodes: int,
    machine: MachineModel,
    gather: bool = True,
) -> float:
    """T(P) of the distributed 2-D FFT program (including the final
    gather to rank 0 that the program performs)."""
    per_repeat_compute = (
        fft_cost(cols) * (rows / nodes) + fft_cost(rows) * (cols / nodes)
    ) * machine.flop_time
    parcel = 16.0 * (rows / nodes) * (cols / nodes)  # complex128 blocks
    per_repeat_comm = 2 * alltoall_time(machine, nodes, parcel)
    total = repeats * (per_repeat_compute + per_repeat_comm)
    if gather and nodes > 1:
        # Root ingests P-1 section-sized messages; the senders' transfers
        # overlap, so the receive overheads dominate the critical path.
        section = 16.0 * rows * cols / nodes
        total += machine.message_time(int(section), nodes=nodes) + (
            nodes - 1
        ) * machine.recv_overhead(int(section) + _OVERHEAD_BYTES, nodes=nodes)
    return total


def predict_smog(
    nx: int,
    ny: int,
    steps: int,
    nodes: int,
    machine: MachineModel,
    chem_substeps: int = 4,
    proc_grid: tuple[int, int] | None = None,
    overlap: bool = True,
) -> float:
    """T(P) of the airshed smog model's fused step loop.

    The kernel layer runs each step as one declared sequence: the three
    species transports form a fusion group whose ghost refreshes *pack*
    into a single slab per neighbour per direction carrying all three
    arrays (modelled like the CFD packed exchange, with the transport
    compute hiding the wire time when *overlap* holds), and the
    copy-back/emissions/chemistry chain is pure local compute — fusion
    changes its host time, never its virtual cost.  The per-step ozone
    maximum adds one allreduce.
    """
    from repro.apps.smog import CHEMISTRY_FLOPS, TRANSPORT_FLOPS

    proc_grid = proc_grid or choose_proc_grid(nodes, 2)
    pr, pc = proc_grid
    cells = nx * ny / nodes
    transport_compute = 3 * TRANSPORT_FLOPS * cells * machine.flop_time
    # Copy-backs are uncharged moves; emissions + sub-stepped chemistry
    # charge per cell.
    local_compute = (2.0 + CHEMISTRY_FLOPS * chem_substeps) * cells * machine.flop_time
    # Packed exchange: 3 species in one slab per direction (ghost rim included).
    slabs = (3 * (ny / pc + 2) * 8.0, 3 * (nx / pr + 2) * 8.0)
    if overlap:
        per_step = overlapped_exchange_time(
            machine, nodes, proc_grid, slabs, transport_compute
        )
    else:
        per_step = transport_compute + exchange_time(machine, nodes, proc_grid, slabs)
    per_step += local_compute + allreduce_time(machine, nodes)
    # Final ozone-burden sum reduction.
    return steps * per_step + allreduce_time(machine, nodes)


def predict_cfd(
    nx: int,
    ny: int,
    steps: int,
    nodes: int,
    machine: MachineModel,
    proc_grid: tuple[int, int] | None = None,
    cfl_interval: int = 1,
    overlap: bool = True,
) -> float:
    """T(P) of the compressible-flow step loop (packed exchange).

    With *overlap* (the application default) the Lax-Friedrichs update
    of the deep cells hides the packed slabs' wire time; the CFL wave
    speed (computed from interior cells before the exchange) and its
    max-reduction stay on the critical path.
    """
    from repro.apps.cfd import FLOPS_PER_CELL

    proc_grid = proc_grid or choose_proc_grid(nodes, 2)
    pr, pc = proc_grid
    cells = nx * ny / nodes
    step_compute = FLOPS_PER_CELL * cells * machine.flop_time
    # Packed exchange: 4 state components in one slab per direction.
    slabs = (4 * (ny / pc + 2) * 8.0, 4 * (nx / pr + 2) * 8.0)
    if overlap:
        per_step = overlapped_exchange_time(
            machine, nodes, proc_grid, slabs, step_compute
        )
    else:
        per_step = step_compute + exchange_time(machine, nodes, proc_grid, slabs)
    reduces = math.ceil(steps / cfl_interval)
    cfl = reduces * (6.0 * cells * machine.flop_time + allreduce_time(machine, nodes))
    return steps * per_step + cfl
