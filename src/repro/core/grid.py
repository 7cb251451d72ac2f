"""Block-distributed N-dimensional grids with ghost boundaries.

A :class:`DistGrid` is the mesh-spectral archetype's data object: a global
N-d array distributed in regular contiguous blocks over a Cartesian
process grid (paper §3.2), each local section surrounded by an optional
*ghost boundary* of shadow copies refreshed by
:func:`repro.comm.boundary.exchange_ghosts`.
"""

from __future__ import annotations

from typing import Any, Callable

import numpy as np

from repro.errors import DistributionError
from repro.comm.boundary import exchange_ghosts
from repro.comm.cart import CartGrid, choose_proc_grid
from repro.comm.communicator import Comm
from repro.comm.layout import Layout, block_layout
from repro.comm.redistribute import gather_to_root, redistribute, scatter_from_root


def _resolve_proc_grid(
    comm: Comm, ndim: int, dist: str | tuple[int, ...]
) -> tuple[int, ...]:
    """Turn a distribution spec into explicit process-grid dims."""
    if isinstance(dist, tuple):
        grid = dist
    elif dist == "blocks":
        grid = choose_proc_grid(comm.size, ndim)
    elif dist == "rows":
        grid = (comm.size, *([1] * (ndim - 1)))
    elif dist == "cols":
        if ndim < 2:
            raise DistributionError("'cols' distribution needs >= 2 dimensions")
        grid = (1, comm.size, *([1] * (ndim - 2)))
    else:
        raise DistributionError(
            f"unknown distribution {dist!r}; use 'blocks', 'rows', 'cols' or dims"
        )
    if len(grid) != ndim:
        raise DistributionError(f"process grid {grid} does not match ndim {ndim}")
    n = 1
    for d in grid:
        n *= d
    if n != comm.size:
        raise DistributionError(
            f"process grid {grid} needs {n} ranks, communicator has {comm.size}"
        )
    return grid


class DistGrid:
    """One rank's handle on a block-distributed global grid.

    Attributes
    ----------
    local:
        This rank's section *including* ghost layers; mutate freely, then
        call :meth:`exchange` before any stencil read of neighbours.
    rect:
        Global ``(lo, hi)`` bounds of this rank's owned section.
    clean:
        The ghost key ``(periodic, edges)`` the kernel layer last
        refreshed this grid's ghosts under, or ``None`` when they are
        stale (:mod:`repro.kernels.plan` hoists a refresh under the
        clean key; a declared or noted write clears it).

    What the grid's shape fixes — ``rect``, the slices of the interior
    and the slabs of the physical-edge ghosts — is computed once, not on
    every access.  The grid keeps slices, never a second view of
    ``local``, so a copy (a pickled grid, say) cannot come apart.
    """

    clean: tuple | None = None
    #: (ghost slab, edge slab) pairs :meth:`fill_edge_ghosts` walks, in
    #: fill order; built on the first fill
    _edge_slabs: tuple | None = None

    def __init__(
        self,
        comm: Comm,
        global_shape: tuple[int, ...],
        dist: str | tuple[int, ...] = "blocks",
        ghost: int = 0,
        dtype: Any = np.float64,
        fill: float = 0.0,
    ):
        if ghost < 0:
            raise DistributionError(f"ghost width must be >= 0, got {ghost}")
        self.comm = comm
        self.global_shape = tuple(int(n) for n in global_shape)
        proc_grid = _resolve_proc_grid(comm, len(self.global_shape), dist)
        self.cart = CartGrid(proc_grid)
        self.layout: Layout = block_layout(self.global_shape, proc_grid)
        self.ghost = ghost
        self.dtype = np.dtype(dtype)
        shape = tuple(n + 2 * ghost for n in self.layout.shape(comm.rank))
        self.local = np.full(shape, fill, dtype=self.dtype)
        self.rect = self.layout.rect(comm.rank)
        if ghost:
            self._inner = tuple(slice(ghost, n - ghost) for n in shape)

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
        section = scatter_from_root(comm, full, grid.layout, root=root, dtype=dtype)
        grid.interior[...] = section
        return grid

    def like(self, fill: float = 0.0, dtype: Any = None) -> "DistGrid":
        """A new grid with this grid's shape/distribution/ghosts."""
        out = DistGrid.__new__(DistGrid)
        out.comm = self.comm
        out.global_shape = self.global_shape
        out.cart = self.cart
        out.layout = self.layout
        out.ghost = self.ghost
        out.dtype = np.dtype(dtype) if dtype is not None else self.dtype
        out.local = np.full(self.local.shape, fill, dtype=out.dtype)
        out.rect = self.rect
        if self.ghost:
            out._inner = self._inner
            out._edge_slabs = self._edge_slabs
        return out

    # -- geometry ----------------------------------------------------------------
    @property
    def ndim(self) -> int:
        return len(self.global_shape)

    @property
    def interior(self) -> np.ndarray:
        """View of the owned section (ghost layers excluded)."""
        if self.ghost == 0:
            return self.local
        return self.local[self._inner]

    def owned_shape(self) -> tuple[int, ...]:
        return self.layout.shape(self.comm.rank)

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
        if isinstance(margin, int):
            margin = tuple(margin for _ in range(self.ndim))
        if len(margin) != self.ndim:
            raise DistributionError(
                f"margin {margin} does not match grid rank {self.ndim}"
            )
        out = []
        for d in range(self.ndim):
            lo, hi = self.rect[d]
            glo = max(lo, margin[d])
            ghi = min(hi, self.global_shape[d] - margin[d])
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
        slabs = self._edge_slabs
        if slabs is None:
            slabs = self._edge_slabs = self._edge_slab_pairs()
        local = self.local
        if mode == "copy":
            for dst, src in slabs:
                local[dst] = local[src]
        else:
            for dst, _ in slabs:
                local[dst] = 0.0

    def _edge_slab_pairs(self) -> tuple:
        """Per axis, low edge then high: the ghost slab on each physical
        edge this rank owns and the owned edge slab a copy fill reads."""
        g = self.ghost
        ndim = self.ndim

        def slab(axis: int, start: int, stop: int) -> tuple[slice, ...]:
            return tuple(
                slice(start, stop) if d == axis else slice(None) for d in range(ndim)
            )

        pairs = []
        for axis in range(ndim):
            lo, hi = self.rect[axis]
            n = self.local.shape[axis]
            if lo == 0:
                pairs.append((slab(axis, 0, g), slab(axis, g, g + 1)))
            if hi == self.global_shape[axis]:
                pairs.append((slab(axis, n - g, n), slab(axis, n - g - 1, n - g)))
        return tuple(pairs)

    def redistributed(self, dist: str | tuple[int, ...], ghost: int | None = None) -> "DistGrid":
        """A copy of the grid under a different distribution (paper Fig. 7)."""
        new = DistGrid(
            self.comm,
            self.global_shape,
            dist=dist,
            ghost=self.ghost if ghost is None else ghost,
            dtype=self.dtype,
        )
        new.interior[...] = redistribute(
            self.comm, np.ascontiguousarray(self.interior), self.layout, new.layout
        )
        return new

    def gather(self, root: int = 0) -> np.ndarray | None:
        """The full global array on *root* (``None`` elsewhere)."""
        return gather_to_root(
            self.comm, np.ascontiguousarray(self.interior), self.layout, root=root
        )

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
