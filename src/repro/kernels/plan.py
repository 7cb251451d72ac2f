"""Fusion and exchange planning for par-loops.

Given the queued loops, the planner forms **groups** of adjacent loops
that may legally execute tile-interleaved, and derives each group's
**exchange plan**: which dats need a ghost refresh, which refreshes are
redundant (hoisted — the dat's ghosts are still valid from an earlier
group), and how the remaining refreshes pack into combined messages.

The plan is a pure function of the declared access sets, *not* of the
fusion switch: ``fusion_forced(False)`` changes only how group bodies
are walked (loop-by-loop instead of tile-interleaved), never the
grouping, the exchanges, or the charge sequence — that is what makes the
fused path bitwise- and virtual-clock-identical to the unfused one.

Legality (for loops sharing one region and overlap mode), per pair of
an earlier loop A and a candidate B:

- A writes dat d and B reads d with halo > 0 → **break** (B's halo read
  needs a ghost refresh of A's result first; "a WRITE between two READs
  breaks fusion").
- A reads d with halo > 0 and B writes d → **break** (tile-interleaving
  would let B overwrite cells a later tile of A still reads).
- All halo-0 interactions compose: per point, tile-interleaved order
  equals loop order, because kernel bodies are elementwise.

Loops whose write set is undeclared (legacy region kernels) fuse with
nothing.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.comm.boundary import dedup_exchange_requests
from repro.kernels.ir import Arg, Dat, ParLoop


@dataclass
class LoopGroup:
    """Adjacent loops that execute as one fused region walk."""

    loops: list[ParLoop]

    @property
    def region(self) -> tuple[slice, ...]:
        return self.loops[0].region

    @property
    def shape(self) -> tuple[int, ...]:
        return self.loops[0].shape

    @property
    def overlap(self) -> bool:
        return self.loops[0].overlap

    @property
    def halo_max(self) -> int:
        return max(loop.halo_max for loop in self.loops)

    @property
    def writes(self) -> list[Dat]:
        out: list[Dat] = []
        for loop in self.loops:
            for a in loop.args:
                if a.mode.writes and a.dat not in out:
                    out.append(a.dat)
        return out


def can_fuse(group: LoopGroup, loop: ParLoop) -> bool:
    """May *loop* join *group* (tile-interleaved execution stays
    bitwise-identical to loop-by-loop execution)?"""
    head = group.loops[0]
    if loop.writes_undeclared or any(p.writes_undeclared for p in group.loops):
        return False
    if loop.region != head.region or loop.shape != head.shape:
        return False
    if loop.overlap != head.overlap:
        return False
    for prev in group.loops:
        prev_writes = {id(a.dat) for a in prev.args if a.mode.writes}
        prev_halo_reads = {id(a.dat) for a in prev.args if a.mode.reads and a.halo > 0}
        for a in loop.args:
            if a.mode.reads and a.halo > 0 and id(a.dat) in prev_writes:
                return False
            if a.mode.writes and id(a.dat) in prev_halo_reads:
                return False
    return True


def build_groups(loops: list[ParLoop]) -> list[LoopGroup]:
    """Greedy in-order grouping: each loop joins the current group when
    legal, else starts a new one.  Order is preserved — groups never
    reorder loops, so unfused execution is exactly the declared
    sequence."""
    groups: list[LoopGroup] = []
    for loop in loops:
        if groups and can_fuse(groups[-1], loop):
            groups[-1].loops.append(loop)
        else:
            groups.append(LoopGroup([loop]))
    return groups


@dataclass
class ExchangePlan:
    """The ghost refreshes one group performs.

    *packs* are lists of same-geometry args combined into one
    ``exchange_ghosts_many`` (one message per neighbour per direction
    covering every dat); singleton packs use the unpacked variant.
    *serial* args demand the axis-serialised blocking exchange (correct
    corner ghosts).  *fills* are the physical-edge ghost fills to apply
    after the refresh.  *hoisted* counts reads whose ghosts were already
    valid; *performed* lists ``(dat, key)`` pairs to mark clean.
    """

    packs: list[list[Arg]] = field(default_factory=list)
    serial: list[Arg] = field(default_factory=list)
    fills: list[Arg] = field(default_factory=list)
    hoisted: int = 0
    performed: list[tuple[Dat, tuple]] = field(default_factory=list)

    @property
    def empty(self) -> bool:
        return not self.packs and not self.serial


def plan_packs(args: list[Arg]) -> list[list[Arg]]:
    """Combine exchange requests into packed-message groups.

    Args pack together when their arrays stack (same local shape, dtype,
    ghost width) and their exchanges coincide (same periodicity, same
    process grid) — :func:`repro.comm.boundary.dedup_exchange_requests`
    holds the geometry rule.  First-seen order is preserved both across
    packs and within one, so the message schedule is deterministic.
    """
    return dedup_exchange_requests(args)


def plan_exchanges(group: LoopGroup, epoch: int) -> ExchangePlan:
    """Derive the group's exchange plan against the current validity
    *epoch* (see :class:`repro.kernels.runtime.KernelEngine`)."""
    plan = ExchangePlan()
    needed: list[Arg] = []
    seen: set[tuple[int, tuple]] = set()
    for loop in group.loops:
        for a in loop.args:
            if not a.needs_exchange:
                continue
            ident = (id(a.dat), a.ghost_key)
            if ident in seen:
                continue  # within-group dedup: one refresh serves all readers
            seen.add(ident)
            if not a.fresh and a.dat.clean.get(a.ghost_key) == epoch:
                plan.hoisted += 1
                continue
            needed.append(a)
            if not a.fresh:
                plan.performed.append((a.dat, a.ghost_key))
            if a.edges is not None:
                plan.fills.append(a)
    plan.serial = [a for a in needed if a.corners]
    plan.packs = plan_packs([a for a in needed if not a.corners])
    return plan
