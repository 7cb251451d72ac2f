"""The par-loop execution engine: queueing, fusion, exchange hoisting.

One :class:`KernelEngine` lives on each rank's ``MeshContext``.  Loops
submitted via :meth:`KernelEngine.submit` (calling a declared
:class:`~repro.kernels.ir.ParLoop` does that) execute immediately unless
a ``with engine.fuse():`` block is open, in which case they queue and
flush together at block exit — giving the planner a window of adjacent
loops to fuse and a wider scope for exchange dedup.  All state (queue,
fuse depth, remembered plans) is per rank: under the threads backend
every rank shares one process, and any cross-rank sharing here would let
one rank's writes perturb another rank's message pattern.

**Planned once, run many times.**  What follows from the declarations
alone — grouping, exchange requests and pack keys, charges, phase point
counts, row tiles, the views each body is called on — is derived when a
:class:`~repro.kernels.plan.LoopGroup` is built, and the engine keeps
the groups of every sequence of loops it is handed again (a time loop
submits the same loop objects every sweep).  State is read at every run:
which ghosts are valid (``grid.clean``) and the mesh's exchange mode
(``mesh.overlap``).

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

**The tile budget changes execution, never the plan.**  Groups,
exchange packs, hoists and the charge sequence follow from the
declarations alone; :data:`_TILE_BYTES` only decides how many row blocks
the execution walk cuts a region into.  Kernel bodies are elementwise (a
loop's outputs are disjoint from its stencil inputs, paper §3.1), so
every budget — one-row tiles, or one past every region, which runs each
body once over the whole region in declaration order — computes the same
value at every point in the same per-point order, and since neither
communication nor charges read the budget, virtual clocks and traces are
identical too.  ``tests/test_kernels.py::TestFusionIdentity`` holds the
five mesh applications to that.
"""

from __future__ import annotations

import contextlib
from collections.abc import Iterator

from repro.comm.boundary import run_exchange
from repro.kernels.ir import ParLoop, build_views, region_size
from repro.kernels.plan import LoopGroup, build_groups, plan_exchanges
from repro.obs.metrics import counter_handle

#: row-block footprint: bytes of *group arrays* walked per tile.  What a
#: body allocates is not counted and is what must stay resident: at 1 MiB
#: of declared arrays the temporaries still fit a 4 MiB L2, at 4 MiB only
#: the arrays themselves do (docs/kernel_layer.md has the per-case table).
_TILE_BYTES = 1 << 20

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
    help="ghost exchanges skipped because the grid's halo was still valid",
)
_DATS_PACKED = counter_handle(
    "core.kernels.dats_packed",
    help="grids whose refresh rode a packed multi-array exchange",
)
_TILES = counter_handle("core.kernels.tiles", help="row-block tiles executed")


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


def _walk(group: LoopGroup) -> tuple[int, list[tuple]]:
    """The group's execution walk — ``(tile count, [(body, args), ...])``,
    tile-major over its row tiles — built on first use and kept on the
    group: the views are of ``grid.local``, which a grid never rebinds,
    so they stay valid."""
    walk = group.walk
    if walk is None:
        tiles = _row_tiles(group.region, group)
        walk = group.walk = (
            len(tiles),
            [
                (
                    loop.kernel.fn,
                    (tile,) if loop.kernel.kind == "region" else tuple(build_views(loop, tile)),
                )
                for tile in tiles
                for loop in group.loops
            ],
        )
    return walk


class KernelEngine:
    """Per-rank par-loop queue, planner driver, and executor."""

    def __init__(self, mesh):
        self.mesh = mesh
        #: the rank's per-run tallies: the ``core.kernels.*`` counts land
        #: in the registry once, when the run ends
        self._tallies = mesh.comm.tallies
        self.queue: list[ParLoop] = []
        self._fuse_depth = 0
        #: the groups of every flushed sequence of loops that had all run
        #: before, by ``(mesh.overlap, *loops)``.  A sequence holding a
        #: loop on its first run (every ``mesh.parloop`` call) is planned
        #: and forgotten, so one-shot loops leave nothing behind; what is
        #: kept dies with this rank's program.
        self._plans: dict[tuple, list[LoopGroup]] = {}

    # -- submission -----------------------------------------------------------
    def submit(self, loop: ParLoop) -> None:
        """Queue one loop; executes immediately outside a fuse block."""
        self._tallies[_LOOPS] += 1
        loop.runs += 1
        self.queue.append(loop)
        if self._fuse_depth == 0:
            self.flush()

    @contextlib.contextmanager
    def fuse(self) -> Iterator[None]:
        """Batch the loops submitted inside the block into one flush, so
        adjacent compatible loops fuse and exchanges dedup across them."""
        self._fuse_depth += 1
        try:
            yield
        finally:
            self._fuse_depth -= 1
            if self._fuse_depth == 0:
                self.flush()

    def flush(self) -> None:
        """Plan (or recall the plan of) and execute every queued loop, in
        submission order."""
        if not self.queue:
            return
        loops, self.queue = self.queue, []
        if any(loop.runs == 1 for loop in loops):
            groups = build_groups(loops)
        else:
            key = (self.mesh.overlap, *loops)
            groups = self._plans.get(key)
            if groups is None:
                groups = self._plans[key] = build_groups(loops)
        for group in groups:
            self._run_group(group)

    # -- write tracking for non-kernel operations -----------------------------
    def note_write(self, grid) -> None:
        """Record that *grid* was written outside any kernel (row/col
        ops, redistribution targets, file input): its ghosts are stale."""
        grid.clean = None

    # -- execution ------------------------------------------------------------
    def _run_group(self, group: LoopGroup) -> None:
        comm = self.mesh.comm
        plan = plan_exchanges(group)
        tallies = self._tallies
        tallies[_GROUPS] += 1
        if plan.hoisted:
            tallies[_EXCHANGES_HOISTED] += plan.hoisted
        overlapped = group.overlap and bool(plan.packs)
        handles = []
        for pack_key, pack in plan.packs:
            axes = group.pack_geometry(comm, pack, pack_key, overlapped)
            handles.append(
                run_exchange(comm, [a.grid.local for a in pack], axes, overlap=overlapped)
            )
            if len(pack) > 1:
                tallies[_DATS_PACKED] += len(pack)
        if plan.packs:
            tallies[_EXCHANGES] += len(plan.packs)
        for a in plan.fills:
            # physical-edge ghosts have no neighbour; filling them does
            # not race in-flight slabs.
            a.grid.fill_edge_ghosts(a.edges)
        if overlapped:
            # the overlapped pipeline: deep cells (whose stencil reads
            # stay in owned data) while the slabs travel, then the shells
            deep_points, *shell_points = group.phase_points
            self._charge_phase(group, deep_points)
            for handle in handles:
                handle.wait()
            for npoints in shell_points:
                self._charge_phase(group, npoints)
        else:
            self._charge_phase(group, group.points)
        self._execute(group)
        # Post-state: refreshed grids are clean under the key they were
        # refreshed with, written grids are dirty (clean marks land first,
        # so a grid both read and written in the group correctly ends dirty).
        for a in plan.performed:
            a.grid.clean = a.ghost_key
        for grid in group.writes:
            grid.clean = None

    def _charge_phase(self, group: LoopGroup, npoints: int) -> None:
        """The accounting walk's step: charge every group loop for one
        phase of *npoints* points.

        The charge sequence (one charge per loop, declaration order,
        zero-point phases silent) is fixed here, whatever the tile
        budget — the virtual-clock half of the tiling identity.
        """
        if npoints == 0:
            return
        comm = self.mesh.comm
        working_set = self.mesh.working_set
        for flops_per_point, label in group.charges:
            comm.charge(flops_per_point * npoints, label=label, working_set_bytes=working_set)

    def _execute(self, group: LoopGroup) -> None:
        """The execution walk: run every group body over the region, row
        block by row block, after all of the group's charges and waits."""
        if group.points == 0:
            return
        ntiles, calls = _walk(group)
        self._tallies[_TILES] += ntiles
        if len(group.loops) > 1:
            self._tallies[_LOOPS_FUSED] += len(group.loops)
        for body, args in calls:
            body(*args)
