"""Block-distributed N-dimensional grids with ghost boundaries.

A :class:`DistGrid` is the mesh-spectral archetype's data object: a global
N-d array distributed in regular contiguous blocks over a Cartesian
process grid (paper §3.2), each local section surrounded by an optional
*ghost boundary* of shadow copies refreshed by
:func:`repro.comm.boundary.exchange_ghosts`.
"""

from __future__ import annotations

from operator import attrgetter
from typing import Any, Callable

import numpy as np

from repro.errors import DistributionError
from repro.comm.boundary import exchange_ghosts
from repro.comm.communicator import Comm
from repro.comm.layout import Geometry, Rect, geometry
from repro.comm.redistribute import gather_to_root, redistribute, scatter_from_root


class DistGrid:
    """One rank's handle on a block-distributed global grid.

    Attributes
    ----------
    geometry:
        The interned :class:`~repro.comm.layout.Geometry` (global shape,
        process grid, ghost width) every grid of this distribution
        shares; ``global_shape``, ``ghost``, ``cart``, ``layout`` and
        ``rect`` are read off it, so a grid derives nothing.
    local:
        This rank's section *including* ghost layers; mutate freely, then
        call :meth:`exchange` before any stencil read of neighbours.
    clean:
        The ghost key ``(periodic, edges)`` the kernel layer last
        refreshed this grid's ghosts under, or ``None`` when they are
        stale (:mod:`repro.kernels.plan` hoists a refresh under the
        clean key; a declared or noted write clears it).
    """

    clean: tuple | None = None

    def __init__(
        self,
        comm: Comm,
        global_shape: tuple[int, ...],
        dist: str | tuple[int, ...] = "blocks",
        ghost: int = 0,
        dtype: Any = np.float64,
        fill: float = 0.0,
    ):
        self.comm = comm
        self.geometry = geometry(tuple(global_shape), dist, comm.size, ghost)
        self.local = np.full(self.geometry.sites[comm.rank].local_shape, fill, dtype=dtype)

    @classmethod
    def _of(cls, comm: Comm, geom: Geometry, local: np.ndarray) -> "DistGrid":
        """A grid over *geom* holding *local* (ghost layers included)."""
        grid = cls.__new__(cls)
        grid.comm = comm
        grid.geometry = geom
        grid.local = local
        return grid

    # -- construction helpers ------------------------------------------------
    @classmethod
    def from_global(
        cls,
        comm: Comm,
        full: np.ndarray | None,
        dist: str | tuple[int, ...] = "blocks",
        ghost: int = 0,
        root: int = 0,
    ) -> "DistGrid":
        """Scatter an array held on *root* into a distributed grid."""
        shape = full.shape if comm.rank == root else None
        dtype = full.dtype if comm.rank == root else None
        shape = comm.bcast(shape, root=root)
        dtype = comm.bcast(dtype, root=root)
        grid = cls(comm, shape, dist=dist, ghost=ghost, dtype=dtype)
        grid.interior[...] = scatter_from_root(comm, full, grid.layout, root=root, dtype=dtype)
        return grid

    def like(self, fill: float = 0.0, dtype: Any = None) -> "DistGrid":
        """A new grid with this grid's shape/distribution/ghosts."""
        local = np.full(self.local.shape, fill, dtype=self.local.dtype if dtype is None else dtype)
        return DistGrid._of(self.comm, self.geometry, local)

    # -- geometry ----------------------------------------------------------------
    # read through C-level getters: a hot read enters no Python frame
    global_shape = property(attrgetter("geometry.global_shape"))
    ghost = property(attrgetter("geometry.ghost"))
    cart = property(attrgetter("geometry.cart"))
    layout = property(attrgetter("geometry.layout"))
    dtype = property(attrgetter("local.dtype"))

    @property
    def rect(self) -> Rect:
        """Global ``(lo, hi)`` bounds of this rank's owned section."""
        return self.geometry.layout.rects[self.comm.rank]

    @property
    def ndim(self) -> int:
        return len(self.geometry.global_shape)

    @property
    def interior(self) -> np.ndarray:
        """View of the owned section (ghost layers excluded)."""
        inner = self.geometry.inner
        return self.local if inner is None else self.local[inner]

    def owned_shape(self) -> tuple[int, ...]:
        return self.geometry.sites[self.comm.rank].owned_shape

    def axis_coords(self, axis: int) -> np.ndarray:
        """Global indices of the owned cells along *axis*."""
        lo, hi = self.rect[axis]
        return np.arange(lo, hi)

    def coord_arrays(self) -> tuple[np.ndarray, ...]:
        """Broadcastable global-index arrays for the owned section.

        ``xs, ys = grid.coord_arrays()`` lets vectorised initialisation
        write ``grid.interior[...] = f(xs, ys)``.
        """
        return np.ix_(*(self.axis_coords(d) for d in range(self.ndim)))

    def interior_intersection(
        self, margin: int | tuple[int, ...] = 1
    ) -> tuple[slice, ...]:
        """Local slices (into :attr:`interior`) of owned cells at least
        *margin* away from the *global* domain edge.

        This is the paper's ``x_intersect``/``y_intersect`` computation
        (Figure 14): grid operations that must skip the physical boundary
        update only this region.  *margin* may be per-axis (use 0 on
        periodic axes).  Empty slices result when a rank owns only
        boundary cells.
        """
        shape = self.geometry.global_shape
        if isinstance(margin, int):
            margin = (margin,) * len(shape)
        if len(margin) != len(shape):
            raise DistributionError(
                f"margin {margin} does not match grid rank {len(shape)}"
            )
        out = []
        for (lo, hi), n, m in zip(self.rect, shape, margin):
            glo = max(lo, m)
            ghi = min(hi, n - m)
            out.append(slice(glo - lo, max(ghi - lo, glo - lo)))
        return tuple(out)

    # -- communication -------------------------------------------------------------
    def exchange(self, periodic: tuple[bool, ...] | bool = False) -> None:
        """Refresh ghost layers from neighbouring ranks' edge values."""
        if self.ghost == 0:
            raise DistributionError("grid has no ghost layers to exchange")
        exchange_ghosts(self.comm, self.local, self.cart, self.ghost, periodic)

    def fill_edge_ghosts(self, mode: str = "copy") -> None:
        """Fill ghost cells on *physical* domain edges from own edge values.

        ``"copy"`` imposes a zero-gradient (outflow) condition; ``"zero"``
        clears them.  Interior-facing ghosts are owned by :meth:`exchange`
        and are not touched here.
        """
        if mode not in ("copy", "zero"):
            raise DistributionError(f"edge mode must be 'copy' or 'zero', got {mode!r}")
        if self.ghost == 0:
            raise DistributionError("grid has no ghost layers to fill")
        slabs = self.geometry.sites[self.comm.rank].edge_slabs
        local = self.local
        if mode == "copy":
            for dst, src in slabs:
                local[dst] = local[src]
        else:
            for dst, _ in slabs:
                local[dst] = 0.0

    def redistributed(self, dist: str | tuple[int, ...], ghost: int | None = None) -> "DistGrid":
        """A copy of the grid under a different distribution (paper Fig. 7).

        Without ghosts the grid adopts the array the redistribution
        assembles; with them that array is pasted into a fresh section."""
        comm, old = self.comm, self.geometry
        new = geometry(old.global_shape, dist, comm.size, old.ghost if ghost is None else ghost)
        moved = redistribute(comm, self.interior, old.layout, new.layout)
        if new.inner is None:
            return DistGrid._of(comm, new, moved)
        grid = DistGrid._of(comm, new, np.zeros(new.sites[comm.rank].local_shape, moved.dtype))
        grid.interior[...] = moved
        return grid

    def gather(self, root: int = 0) -> np.ndarray | None:
        """The full global array on *root* (``None`` elsewhere)."""
        return gather_to_root(self.comm, self.interior, self.geometry.layout, root=root)

    def allgather(self) -> np.ndarray:
        """The full global array on every rank (small grids only)."""
        full = self.gather(root=0)
        return self.comm.bcast(full, root=0)

    # -- convenience -----------------------------------------------------------------
    def fill_from(self, fn: Callable[..., np.ndarray]) -> None:
        """Initialise the owned section from global indices:
        ``grid.fill_from(lambda i, j: np.sin(i) * j)``."""
        self.interior[...] = fn(*self.coord_arrays())

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<DistGrid {self.global_shape} over {self.cart.dims} "
            f"ghost={self.ghost} rank={self.comm.rank}>"
        )
