"""Fusion and exchange planning for par-loops.

Given the queued loops, the planner forms **groups** of adjacent loops
that may legally execute tile-interleaved, and derives each group's
**exchange plan**: which grids need a ghost refresh, which refreshes are
redundant (hoisted — the grid's ghosts are still valid from an earlier
group), and how the remaining refreshes pack into combined messages.

The plan is a pure function of the declared access sets, *not* of how
the engine executes a group: the tile budget changes only how many row
blocks the bodies are walked in, never the grouping, the exchanges, or
the charge sequence — that is what keeps every tile budget bitwise- and
virtual-clock-identical to running each loop once over its whole region.

Legality (for loops sharing one region), per pair of
an earlier loop A and a candidate B:

- A writes grid d and B reads d with halo > 0 → **break** (B's halo read
  needs a ghost refresh of A's result first; "a WRITE between two READs
  breaks fusion").
- A reads d with halo > 0 and B writes d → **break** (tile-interleaving
  would let B overwrite cells a later tile of A still reads).
- A and B both read d with halo > 0 under different ghost keys →
  **break** (a group performs all its refreshes and edge fills before
  any body runs, so A would read the ghosts B's key filled).
- All halo-0 interactions compose: per point, tile-interleaved order
  equals loop order, because kernel bodies are elementwise.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.comm.boundary import checked_geometry, exchange_plan_key
from repro.kernels.ir import Arg, ParLoop, region_size, split_deep_shell

if TYPE_CHECKING:  # import cycle guard: core.grid is above us in layering
    from repro.core.grid import DistGrid


class LoopGroup:
    """Adjacent loops that execute as one fused region walk.

    A pure function of its loops' declarations and of *overlap*, the
    exchange mode they resolved to when it was built, so everything here
    is derived once — and the engine keeps the groups of a loop sequence
    it is handed again (:meth:`repro.kernels.runtime.KernelEngine.flush`).
    Ghost validity is not in here: :func:`plan_exchanges` reads it at
    every run.  *requests* are the ghost refreshes the group may need,
    one per distinct (grid, ghost key) in first-seen order — a refresh
    serves every reader — each with the geometry key it packs under;
    *charges* the ``(flops per point, label)`` of every charging loop, in
    declaration order; *walk* the engine's execution walk, once built.
    The exchange geometry of each pack a run performs is validated and
    looked up on its first run (:meth:`pack_geometry`) and kept.
    """

    def __init__(self, loops: list[ParLoop], overlap: bool):
        self.loops = loops
        self.overlap = overlap
        self.region = loops[0].region
        self.points = region_size(self.region)
        self.writes: list[DistGrid] = [grid for loop in loops for grid in loop.writes]
        first: dict[tuple, Arg] = {}
        for loop in loops:
            for a in loop.args:
                if a.needs_exchange:
                    first.setdefault((id(a.grid), a.ghost_key), a)
        self.requests = [
            (a, exchange_plan_key(a.grid.local, a.grid.cart, a.grid.ghost, a.periodic))
            for a in first.values()
        ]
        self.charges = [
            (loop.flops_per_point, loop.label) for loop in loops if loop.flops_per_point
        ]
        self.walk: tuple | None = None
        #: (pack key, packed?) -> the pack's exchange geometry
        self._geometry: dict[tuple, tuple] = {}
        #: an overlapped run's charge phases: deep points, then each shell's
        self.phase_points: tuple[int, ...] = ()
        if overlap and self.requests:
            deep, shells = split_deep_shell(
                self.region, max(1, *(loop.halo_max for loop in loops)), loops[0].shape
            )
            self.phase_points = tuple(map(region_size, (deep, *shells)))

    def pack_geometry(self, comm, pack: list[Arg], pack_key: tuple, overlap: bool) -> tuple:
        """The exchange geometry of *pack* (due args sharing *pack_key*),
        checked by :func:`~repro.comm.boundary.checked_geometry` the first
        time a run performs it.  A group's exchange mode is fixed when it
        is built, so the key is the pack key and whether several arrays
        travel together."""
        key = (pack_key, len(pack) > 1)
        axes = self._geometry.get(key)
        if axes is None:
            grid = pack[0].grid
            axes = self._geometry[key] = checked_geometry(
                comm,
                [a.grid.local for a in pack],
                grid.cart,
                grid.ghost,
                pack[0].periodic,
                overlap=overlap,
            )
        return axes


def can_fuse(group: list[ParLoop], loop: ParLoop) -> bool:
    """May *loop* join the loops of *group* (tile-interleaved execution
    stays bitwise-identical to loop-by-loop execution)?"""
    head = group[0]
    if loop.region != head.region or loop.shape != head.shape:
        return False
    for prev in group:
        prev_writes = {id(grid) for grid in prev.writes}
        prev_halo_reads = {id(a.grid): a.ghost_key for a in prev.args if a.halo > 0}
        for a in loop.args:
            if a.halo > 0 and id(a.grid) in prev_writes:
                return False
            if a.mode.writes and id(a.grid) in prev_halo_reads:
                return False
            if a.halo > 0 and prev_halo_reads.get(id(a.grid), a.ghost_key) != a.ghost_key:
                return False
    return True


def build_groups(loops: list[ParLoop]) -> list[LoopGroup]:
    """Greedy in-order grouping: each loop joins the current group when
    legal, else starts a new one.  Order is preserved — groups never
    reorder loops, so a group walked as one tile runs exactly the
    declared sequence."""
    groups: list[list[ParLoop]] = []
    for loop in loops:
        if groups and can_fuse(groups[-1], loop):
            groups[-1].append(loop)
        else:
            groups.append([loop])
    return [LoopGroup(group, group[0].mesh.overlap) for group in groups]


@dataclass
class ExchangePlan:
    """The ghost refreshes one run of a group performs.

    *packs* are ``(pack key, args)`` pairs, the args of one geometry
    refreshed by one exchange — several pack into one message per
    neighbour per direction covering every grid.
    *fills* are the physical-edge ghost fills to apply after the
    refresh.  *hoisted* counts reads whose ghosts were already valid;
    *performed* lists the args whose grid to mark clean under their key.
    """

    packs: list[tuple[tuple, list[Arg]]] = field(default_factory=list)
    fills: list[Arg] = field(default_factory=list)
    hoisted: int = 0
    performed: list[Arg] = field(default_factory=list)


def plan_exchanges(group: LoopGroup, epoch: object = None) -> ExchangePlan:
    """This run's exchange plan: the group's requests checked against
    each grid's clean ghost key.  Due requests pack together when their
    arrays stack and their exchanges coincide
    (:func:`repro.comm.boundary.exchange_plan_key`); first-seen order is
    kept across packs and within one, so the message schedule is
    deterministic.  *epoch* is ignored: perfbench's ``kernels.plan_us``
    probe, which a PR outside ``perfbench/`` may not edit, still passes
    one."""
    plan = ExchangePlan()
    packs: dict[tuple, list[Arg]] = {}
    for a, pack_key in group.requests:
        if a.grid.clean == a.ghost_key:
            plan.hoisted += 1
            continue
        plan.performed.append(a)
        packs.setdefault(pack_key, []).append(a)
        if a.edges is not None:
            plan.fills.append(a)
    plan.packs = list(packs.items())
    return plan
