"""The par-loop IR: access modes, arguments, kernels, loops.

A grid operation (paper §3.1) is *declared*, so the runtime sees across
sweeps (the PyOP2 Sets/Dats/Kernels move, and the access-mode vocabulary
of Danelutto & Torquati's state-access-pattern work): an :class:`Arg`
binds a distributed grid to one loop with an access mode
(:data:`READ`/:data:`WRITE`/:data:`RW`/:data:`INC`) and a declared halo
depth, and a :class:`ParLoop` pairs a kernel body with its argument
list.  A body is a plain callable of one of two kinds: a
:class:`Kernel` is called on one view per argument, a
:class:`RegionKernel` on the region's slices.  The runtime
(:mod:`repro.kernels.runtime`) then fuses adjacent loops whose access
sets compose and hoists ghost exchanges that feed multiple loops —
legality rules live in :mod:`repro.kernels.plan`.

Layering: this module sits below :mod:`repro.core.meshspectral` (which
re-exports :class:`StencilView` and :func:`split_deep_shell`) and
imports only errors + numpy.
"""

from __future__ import annotations

import enum
from collections.abc import Callable
from typing import TYPE_CHECKING, Any

import numpy as np

from repro.errors import ArchetypeError

if TYPE_CHECKING:  # import cycle guard: core.grid is above us in layering
    from repro.core.grid import DistGrid


class Access(enum.Enum):
    """How one loop argument touches its grid (per point)."""

    READ = "read"
    WRITE = "write"
    RW = "rw"
    INC = "inc"

    @property
    def reads(self) -> bool:
        return self is not Access.WRITE

    @property
    def writes(self) -> bool:
        return self is not Access.READ


READ = Access.READ
WRITE = Access.WRITE
RW = Access.RW
INC = Access.INC


class Arg:
    """One loop argument: a grid bound to an access mode.

    *halo* is the stencil radius the kernel body reads around each
    point (0 = pointwise).  It drives fusion legality and the
    deep/shell split; the exchange itself always refreshes the grid's
    full ghost width (slab geometry is fixed by the allocation).
    *periodic*/*edges* describe the ghost configuration a halo read
    needs (``periodic`` is one flag or one per axis; ``edges`` is
    ``None``, or ``"copy"`` / ``"zero"`` as in
    :meth:`DistGrid.fill_edge_ghosts`).

    Derived here: *needs_exchange* (the planner owes a ghost refresh) and
    *ghost_key* (two refreshes with equal keys are interchangeable).
    """

    __slots__ = ("grid", "mode", "halo", "periodic", "edges", "needs_exchange", "ghost_key")

    def __init__(
        self,
        grid: DistGrid,
        mode: Access,
        halo: int = 0,
        periodic: tuple[bool, ...] | bool = False,
        edges: str | None = None,
    ):
        if halo < 0:
            raise ArchetypeError(f"negative halo {halo}")
        if halo > 0 and mode is not READ:
            raise ArchetypeError(
                "halo reads require mode READ; writes are pointwise "
                "(paper §3.1: outputs disjoint from stencil inputs)"
            )
        if halo > 0 and grid.ghost < max(1, halo):
            raise ArchetypeError(
                f"declared halo {halo} exceeds grid ghost width {grid.ghost}"
            )
        if edges not in (None, "copy", "zero"):
            raise ArchetypeError(f"edges must be None, 'copy' or 'zero', got {edges!r}")
        if isinstance(periodic, bool):
            periodic = (periodic,) * grid.ndim
        elif len(periodic) != grid.ndim:
            raise ArchetypeError(
                f"periodic flags {periodic} do not match grid rank {grid.ndim}"
            )
        self.grid = grid
        self.mode = mode
        self.halo = halo
        self.periodic = tuple(map(bool, periodic))
        self.edges = edges
        self.needs_exchange = mode.reads and halo > 0
        self.ghost_key = (self.periodic, edges)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Arg({self.mode.name}, halo={self.halo})"


class Kernel:
    """A kernel body called per region as ``fn(*views)``.

    Views follow the argument order: plain aligned interior views for
    halo-0 arguments, :class:`StencilView` for halo reads.  The body
    must be *elementwise* (each output point depends only on the view
    values at that point / its declared halo), which is exactly what
    makes tiled fused execution bitwise-identical to one whole-region
    call.
    """

    __slots__ = ("fn", "name")

    kind = "views"

    def __init__(self, fn: Callable[..., None], name: str = "kernel"):
        self.fn = fn
        self.name = name


class RegionKernel(Kernel):
    """A kernel body called as ``fn(region)`` with interior-coordinate
    slices; the body slices its own grids, so the loop's arguments are
    its whole declaration and must name what it writes.  Same
    elementwise/tiling-safety contract as :class:`Kernel`."""

    kind = "region"


class ParLoop:
    """One declared parallel loop: kernel + args + iteration region.

    Built by :meth:`repro.core.meshspectral.MeshContext.loop`, above the
    time loop; calling it submits it to its mesh's engine, any number of
    times.  Declaration validates and derives what depends only on what
    was declared: the *region* — the owned interior of the first
    argument's grid intersected with *margin* cells from the **global**
    edge — *halo_max* and the grids it *writes*.  Ghost validity and the
    exchange mode (``mesh.overlap``) are state, read at every run.
    """

    def __init__(
        self,
        mesh: Any,
        kernel: Kernel,
        args: list[Arg],
        margin: int | tuple[int, ...] = 0,
        flops_per_point: float = 0.0,
        label: str | None = None,
    ):
        if not args:
            raise ArchetypeError("a par-loop needs at least one argument")
        anchor = args[0].grid
        for a in args[1:]:
            if a.grid.layout.rects != anchor.layout.rects:
                raise ArchetypeError(
                    "grids in one operation must share a distribution; "
                    "redistribute first"
                )
        # §3.1: an output may never alias a stencil (halo > 0) input.
        writes = [a for a in args if a.mode.writes]
        halo_reads = [a for a in args if a.halo > 0]
        for a in halo_reads:
            if any(w.grid.local is a.grid.local for w in writes):
                raise ArchetypeError(
                    "grid operations reading neighbours require output "
                    "disjoint from inputs (paper §3.1)"
                )
        self.label = label or kernel.name
        if kernel.kind == "region" and not writes:
            raise ArchetypeError(
                f"region-kernel loop {self.label!r} declares no write: its body "
                "slices its own grids, so the arguments must name what it writes"
            )
        self.mesh = mesh
        self.kernel = kernel
        self.args = args
        self.region = anchor.interior_intersection(margin)
        self.halo_max = max([a.halo for a in halo_reads], default=0)
        self.writes = [a.grid for a in writes]
        self.flops_per_point = float(flops_per_point)
        #: submissions so far; the engine keeps a plan from the second on
        self.runs = 0

    def __call__(self) -> None:
        """Submit the loop: it runs now, or when an open ``mesh.fuse()`` ends."""
        self.mesh.kernels.submit(self)

    @property
    def shape(self) -> tuple[int, ...]:
        """The owned section's shape (what a deep/shell split measures)."""
        return self.args[0].grid.owned_shape()


class StencilView:
    """Shifted-neighbour access for stencil updates.

    Indexing with an offset tuple returns the input array shifted by that
    offset, aligned with the output region: ``u[-1, 0]`` is "the value one
    row up from each updated point".  Offsets beyond the ghost width (or
    the declared halo, when one is given) raise.
    """

    def __init__(
        self, grid: DistGrid, region: tuple[slice, ...], halo: int | None = None
    ):
        self._arr = grid.local
        self._ghost = grid.ghost if halo is None else min(halo, grid.ghost)
        # region is expressed in interior coordinates; shift to ghosted.
        g = grid.ghost
        self._region = tuple(
            slice(s.start + g, s.stop + g) for s in region
        )

    def __getitem__(self, offsets: tuple[int, ...] | int) -> np.ndarray:
        if isinstance(offsets, int):
            offsets = (offsets,)
        if len(offsets) != self._arr.ndim:
            raise ArchetypeError(
                f"stencil offset {offsets} does not match grid rank {self._arr.ndim}"
            )
        ghost = self._ghost
        index = []
        for s, o in zip(self._region, offsets):
            if abs(o) > ghost:
                raise ArchetypeError(f"stencil offset {offsets} exceeds ghost width {ghost}")
            index.append(slice(s.start + o, s.stop + o))
        return self._arr[tuple(index)]


def split_deep_shell(
    region: tuple[slice, ...], ghost: int, shape: tuple[int, ...]
) -> tuple[tuple[slice, ...], list[tuple[slice, ...]]]:
    """Split *region* (slices into an owned section of *shape*) for
    compute/communication overlap.

    Returns ``(deep, shells)``: *deep* is the subregion whose cells lie at
    least *ghost* from every owned-section edge — stencil reads of radius
    up to *ghost* from a deep cell never touch a ghost layer, so deep
    cells can be updated while the exchange is in flight; *shells* are
    disjoint tiles covering the rest of the region, updated after the
    exchange completes.  Together they tile *region* exactly, so charging
    per tile sums to the one-region charge.
    """
    deep = []
    for s, n in zip(region, shape):
        lo = min(max(s.start, ghost), s.stop)
        hi = max(min(s.stop, n - ghost), lo)
        deep.append(slice(lo, hi))
    shells: list[tuple[slice, ...]] = []
    for d, (s, ds) in enumerate(zip(region, deep)):
        # Axes before d take the deep band, axis d one of the two shell
        # slabs, axes after d the full region extent: every non-deep cell
        # lands in exactly one tile (indexed by its first non-deep axis).
        prefix = tuple(deep[:d])
        suffix = tuple(region[d + 1 :])
        if s.start < ds.start:
            shells.append(prefix + (slice(s.start, ds.start),) + suffix)
        if ds.stop < s.stop:
            shells.append(prefix + (slice(ds.stop, s.stop),) + suffix)
    return tuple(deep), shells


def region_size(region: tuple[slice, ...]) -> int:
    """Number of points in a region of slices."""
    n = 1
    for s in region:
        n *= max(s.stop - s.start, 0)
    return n


def build_views(loop: ParLoop, region: tuple[slice, ...]) -> list[Any]:
    """Materialise the kernel-body views for one region, in arg order."""
    views: list[Any] = []
    for a in loop.args:
        if a.mode is READ and a.halo > 0:
            views.append(StencilView(a.grid, region, halo=a.halo))
        else:
            views.append(a.grid.interior[region])
    return views
