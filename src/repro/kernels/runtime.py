"""The par-loop execution engine: queueing, fusion, exchange hoisting.

One :class:`KernelEngine` lives on each rank's ``MeshContext``.  Loops
submitted via :meth:`KernelEngine.submit` execute immediately unless a
``with engine.fuse():`` block is open, in which case they queue and
flush together at block exit — giving the planner a window of adjacent
loops to fuse and a wider scope for exchange dedup.  All state (queue,
validity epoch, fuse depth) is per rank: under the threads backend every
rank shares one process, and any cross-rank sharing here would let one
rank's writes perturb another rank's message pattern.

**A group is walked twice: once for the virtual clock, once for the
values.**  The *accounting walk* is the modelled machine's schedule —
post the exchanges, charge the deep cells (whose stencil reads stay in
owned data) while the slabs travel, ``wait()``, charge each shell tile —
and it alone decides clocks, trace events and message order.  The
*execution walk* then runs every loop body over the region, after all of
the group's charges and waits.  It does not follow the deep/shell split
(a run-to-block engine runs one rank at a time and the process engine
delivers at send time, so the host has no transfer to hide behind); it
cuts the region by *cache block* — row blocks holding
:data:`_TILE_BYTES` of the group's arrays — for every group, one loop or
many, views kernel or region kernel, because a body's temporaries (5–40
region-sized arrays in the mesh applications) are what falls out of
cache on a whole-region call.  Kernel bodies are elementwise, so the
blocks compute what one call did, bit for bit; a region inside the
budget is one call.

**The fusion switch changes execution, never the plan.**  Groups,
exchange packs, hoists and the charge sequence are computed identically
whether :func:`fusion_forced` has fusion on or off; the switch only
selects how the execution walk covers the region —

- *fused*: the region is tiled into cache-sized row blocks and every
  loop body runs per tile (loop-interleaved, hot data stays resident);
- *unfused*: each loop body runs once over the whole region, in order.

Because kernel bodies are elementwise, the two walks compute the same
value at every point in the same per-point order, so results are
bitwise-identical — and since neither communication nor charges depend
on the switch, virtual clocks and traces are identical too.  That
invariant is what lets ``tests/test_kernels.py`` gate fusion with the
digest machinery across all four backends.
"""

from __future__ import annotations

import contextlib
from collections.abc import Iterator
from functools import lru_cache

from repro.comm.boundary import (
    exchange_ghosts,
    exchange_ghosts_many,
    exchange_ghosts_many_start,
    exchange_ghosts_start,
)
from repro.kernels.ir import (
    ParLoop,
    build_views,
    region_size,
    split_deep_shell,
)
from repro.kernels.plan import LoopGroup, build_groups, plan_exchanges
from repro.obs.metrics import counter_handle

#: row-block footprint: bytes of *group arrays* walked per tile.  What a
#: body allocates is not counted and is what must stay resident: at 1 MiB
#: of declared arrays the temporaries still fit a 4 MiB L2, at 4 MiB only
#: the arrays themselves do (docs/kernel_layer.md has the per-case table).
_TILE_BYTES = 1 << 20

_fusion_enabled = True

_LOOPS = counter_handle("core.kernels.loops", help="par-loops declared")
_GROUPS = counter_handle("core.kernels.groups", help="fusion groups executed")
_LOOPS_FUSED = counter_handle(
    "core.kernels.loops_fused",
    help="par-loops executed tile-interleaved with at least one neighbour",
)
_EXCHANGES = counter_handle(
    "core.kernels.exchanges", help="ghost exchanges performed (packed counts once)"
)
_EXCHANGES_HOISTED = counter_handle(
    "core.kernels.exchanges_hoisted",
    help="ghost exchanges skipped because the dat's halo was still valid",
)
_DATS_PACKED = counter_handle(
    "core.kernels.dats_packed",
    help="dats whose refresh rode a packed multi-array exchange",
)
_TILES = counter_handle("core.kernels.tiles", help="row-block tiles executed")


def fusion_enabled() -> bool:
    """True when fused (tile-interleaved) group execution is active."""
    return _fusion_enabled


@contextlib.contextmanager
def fusion_forced(flag: bool) -> Iterator[None]:
    """Force fusion on/off for the duration of the block — the A/B lever
    of the fused-vs-unfused identity tests.

    The flag is module state: thread ranks share it and forked rank
    processes inherit it.  Rank processes started by ``spawn`` or
    ``forkserver`` import the module afresh and run fused, which the
    identity contract makes bitwise-identical.
    """
    global _fusion_enabled
    previous = _fusion_enabled
    _fusion_enabled = bool(flag)
    try:
        yield
    finally:
        _fusion_enabled = previous


@lru_cache(maxsize=1024)
def _phase_points(
    bounds: tuple[tuple[int, int], ...], ghost: int, shape: tuple[int, ...]
) -> tuple[int, ...]:
    """Point counts of an overlapped group's charge phases: the deep
    tile first, then each shell tile (:func:`split_deep_shell` order).
    *bounds* are the region's ``(start, stop)`` pairs — slices do not
    hash — and the result is geometry only, so it is derived once per
    distinct region instead of once per sweep."""
    deep, shells = split_deep_shell(
        tuple(slice(lo, hi) for lo, hi in bounds), ghost, shape
    )
    return (region_size(deep), *(region_size(tile) for tile in shells))


def _row_tiles(
    region: tuple[slice, ...], group: LoopGroup
) -> list[tuple[slice, ...]]:
    """Tile *region* along axis 0 into row blocks whose combined
    working set (all distinct group arrays) fits the tile budget."""
    s0 = region[0]
    nrows = s0.stop - s0.start
    row_elems = region_size((slice(0, 1),) + region[1:])
    seen: set[int] = set()
    row_bytes = 0
    for loop in group.loops:
        for a in loop.args:
            if id(a.grid.local) in seen:
                continue
            seen.add(id(a.grid.local))
            row_bytes += row_elems * a.grid.local.itemsize
    rows_per_tile = max(1, _TILE_BYTES // max(row_bytes, 1))
    if rows_per_tile >= nrows:
        return [region]
    return [
        (slice(lo, min(lo + rows_per_tile, s0.stop)),) + region[1:]
        for lo in range(s0.start, s0.stop, rows_per_tile)
    ]


class KernelEngine:
    """Per-rank par-loop queue, planner driver, and executor."""

    def __init__(self, mesh):
        self.mesh = mesh
        self.queue: list[ParLoop] = []
        self._fuse_depth = 0
        #: validity epoch: bumped whenever a loop with an undeclared
        #: write set runs, invalidating every dat's ghost cleanliness
        #: (a raw write could have hit any grid).
        self.epoch = 0

    # -- submission -----------------------------------------------------------
    def submit(self, loop: ParLoop) -> None:
        """Queue one loop; executes immediately outside a fuse block."""
        _LOOPS.inc()
        self.queue.append(loop)
        if self._fuse_depth == 0:
            self.flush()

    @contextlib.contextmanager
    def fuse(self) -> Iterator[None]:
        """Batch the loops declared inside the block into one flush, so
        adjacent compatible loops fuse and exchanges dedup across them."""
        self._fuse_depth += 1
        try:
            yield
        finally:
            self._fuse_depth -= 1
            if self._fuse_depth == 0:
                self.flush()

    def flush(self) -> None:
        """Plan and execute every queued loop, in declaration order."""
        if not self.queue:
            return
        loops, self.queue = self.queue, []
        for group in build_groups(loops):
            self._run_group(group)

    # -- write tracking for non-kernel operations -----------------------------
    def note_write(self, grid) -> None:
        """Record that *grid* was written outside any kernel (row/col
        ops, redistribution targets, file input): its ghosts are stale."""
        dat = getattr(grid, "_kernel_dat", None)
        if dat is not None:
            dat.clean.clear()

    # -- execution ------------------------------------------------------------
    def _run_group(self, group: LoopGroup) -> None:
        comm = self.mesh.comm
        plan = plan_exchanges(group, self.epoch)
        _GROUPS.inc()
        if plan.hoisted:
            _EXCHANGES_HOISTED.inc(plan.hoisted)
        region = group.region
        use_overlap = group.overlap and not plan.empty
        if use_overlap:
            handles = []
            for a in plan.serial:
                # corner-correct requests never reach the overlap path
                # (legacy shims request corners only in blocking mode),
                # but stay safe if one does: exchange before compute.
                exchange_ghosts(comm, a.local, a.cart, a.ghost, a.periodic)
                _EXCHANGES.inc()
            for pack in plan.packs:
                first = pack[0]
                if len(pack) == 1:
                    handles.append(
                        exchange_ghosts_start(
                            comm, first.local, first.cart, first.ghost, first.periodic
                        )
                    )
                else:
                    handles.append(
                        exchange_ghosts_many_start(
                            comm,
                            [a.local for a in pack],
                            first.cart,
                            first.ghost,
                            first.periodic,
                        )
                    )
                    _DATS_PACKED.inc(len(pack))
                _EXCHANGES.inc()
            for a in plan.fills:
                # physical-edge ghosts have no neighbour; filling them
                # does not race the in-flight slabs.
                a.grid.fill_edge_ghosts(a.edges)
            deep_points, *shell_points = _phase_points(
                tuple((s.start, s.stop) for s in region),
                max(group.halo_max, 1),
                group.shape,
            )
            self._charge_phase(group, deep_points)
            for handle in handles:
                handle.wait()
            for npoints in shell_points:
                self._charge_phase(group, npoints)
        else:
            for a in plan.serial:
                exchange_ghosts(comm, a.local, a.cart, a.ghost, a.periodic)
                _EXCHANGES.inc()
            for pack in plan.packs:
                first = pack[0]
                if len(pack) == 1:
                    exchange_ghosts(
                        comm, first.local, first.cart, first.ghost, first.periodic
                    )
                else:
                    exchange_ghosts_many(
                        comm,
                        [a.local for a in pack],
                        first.cart,
                        first.ghost,
                        first.periodic,
                    )
                    _DATS_PACKED.inc(len(pack))
                _EXCHANGES.inc()
            for a in plan.fills:
                a.grid.fill_edge_ghosts(a.edges)
            self._charge_phase(group, region_size(region))
        self._execute(group, region)
        # Post-state: refreshed dats are clean at this epoch, written
        # dats are dirty (clean marks land first, so a dat both read and
        # written in the group correctly ends dirty).
        for dat, key in plan.performed:
            dat.clean[key] = self.epoch
        for dat in group.writes:
            dat.clean.clear()
        if any(loop.writes_undeclared for loop in group.loops):
            self.epoch += 1

    def _charge_phase(self, group: LoopGroup, npoints: int) -> None:
        """The accounting walk's step: charge every group loop for one
        phase of *npoints* points.

        The charge sequence (one charge per loop, declaration order,
        zero-point phases silent) is fixed here and shared by both
        fusion modes — the virtual-clock half of the A/B identity.
        """
        if npoints == 0:
            return
        comm = self.mesh.comm
        working_set = self.mesh.working_set
        for loop in group.loops:
            if loop.flops_per_point:
                comm.charge(
                    loop.flops_per_point * npoints,
                    label=loop.label,
                    working_set_bytes=working_set,
                )

    def _execute(self, group: LoopGroup, region: tuple[slice, ...]) -> None:
        """The execution walk: run every group body over *region*, row
        block by row block, after all of the group's charges and waits."""
        if region_size(region) == 0:
            return
        tiles = [region]
        if fusion_enabled():
            tiles = _row_tiles(region, group)
            _TILES.inc(len(tiles))
            interleaved = len(group.loops)
            if interleaved > 1:
                _LOOPS_FUSED.inc(interleaved)
        for tile in tiles:
            for loop in group.loops:
                self._run_body(loop, tile)

    def _run_body(self, loop: ParLoop, region: tuple[slice, ...]) -> None:
        kernel = loop.kernel
        if kernel.kind == "region":
            kernel.fn(region)
            return
        kernel.fn(*build_views(loop, region))
