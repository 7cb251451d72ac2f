"""Data layouts: which rectangle of a global array each rank owns.

A :class:`Layout` assigns every rank a (possibly empty) axis-aligned
rectangle of a global index space.  The standard layouts of the paper are
provided as factories: by rows, by columns, by N-dimensional blocks over a
process grid, and single-owner (all data on one rank, used around
sequential file I/O).  Redistribution between any two layouts of the same
global shape is a pure function of their rectangle intersections
(:mod:`repro.comm.redistribute`).

A :class:`Geometry` — global shape, process grid, ghost width — is a
block distribution as one interned value, from which grids read their
process grid, layout and per-rank facts instead of deriving them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from itertools import combinations
from math import prod
from typing import NamedTuple

from repro.comm.cart import CartGrid, choose_proc_grid
from repro.errors import DistributionError
from repro.util.partition import block_bounds

#: a rectangle: per-dimension half-open (lo, hi) bounds
Rect = tuple[tuple[int, int], ...]


@dataclass(frozen=True)
class Layout:
    """Assignment of global-array rectangles to ranks.

    ``rects[r]`` is rank r's rectangle as per-dimension ``(lo, hi)``
    half-open bounds.  Rectangles of a valid distribution tile the global
    shape (disjoint cover); *replicated* layouts break disjointness
    deliberately and say so via ``replicated=True``.
    """

    global_shape: tuple[int, ...]
    rects: tuple[Rect, ...]
    name: str = "custom"
    replicated: bool = False

    @property
    def nranks(self) -> int:
        return len(self.rects)

    @property
    def ndim(self) -> int:
        return len(self.global_shape)

    def rect(self, rank: int) -> Rect:
        return self.rects[rank]

    def shape(self, rank: int) -> tuple[int, ...]:
        """Local array shape on *rank*."""
        return tuple(hi - lo for lo, hi in self.rects[rank])

    def size(self, rank: int) -> int:
        """Number of elements owned by *rank*."""
        return prod(self.shape(rank))

    def slices(self, rank: int) -> tuple[slice, ...]:
        """Global-array slices selecting *rank*'s rectangle."""
        return tuple(slice(lo, hi) for lo, hi in self.rects[rank])

    def owner_of(self, index: tuple[int, ...]) -> int:
        """Rank owning a global index (first owner for replicated layouts)."""
        if len(index) != self.ndim:
            raise DistributionError(
                f"index has {len(index)} dims, layout has {self.ndim}"
            )
        for rank, rect in enumerate(self.rects):
            if all(lo <= i < hi for i, (lo, hi) in zip(index, rect)):
                return rank
        raise DistributionError(f"global index {index} owned by no rank")

    def validate_tiling(self) -> None:
        """Check that rectangles disjointly cover the global shape.

        Raises :class:`DistributionError` on gaps or overlaps.  Skipped
        for replicated layouts (which overlap by design).
        """
        if self.replicated:
            return
        total = sum(self.size(r) for r in range(self.nranks))
        expected = prod(self.global_shape)
        if total != expected:
            raise DistributionError(
                f"layout {self.name!r} covers {total} elements of {expected}"
            )
        # Pairwise disjointness: with the count matching, any overlap
        # implies a gap, so the count check plus one overlap scan suffices
        # (an empty rectangle meets nothing).
        for a, b in combinations(range(self.nranks), 2):
            pairs = zip(self.rects[a], self.rects[b])
            if all(max(la, lb) < min(ha, hb) for (la, ha), (lb, hb) in pairs):
                raise DistributionError(f"layout {self.name!r}: ranks {a} and {b} overlap")


def _check_shape(global_shape: tuple[int, ...]) -> None:
    if global_shape and min(global_shape) < 0:
        raise DistributionError(f"negative extent in global shape {global_shape}")


def row_layout(global_shape: tuple[int, ...], nranks: int) -> Layout:
    """Distribute axis 0 in blocks; all other axes whole on every rank."""
    return geometry(tuple(global_shape), "rows", nranks, 0).layout


def col_layout(global_shape: tuple[int, ...], nranks: int) -> Layout:
    """Distribute axis 1 in blocks; all other axes whole on every rank."""
    return geometry(tuple(global_shape), "cols", nranks, 0).layout


def block_layout(global_shape: tuple[int, ...], proc_grid: tuple[int, ...]) -> Layout:
    """Distribute each axis ``d`` in blocks over ``proc_grid[d]`` parts,
    ranks in row-major order (:meth:`repro.comm.cart.CartGrid.coords`).

    Row, column and block layouts are the ghost-free geometry's, so
    repeated requests return one shared instance.
    """
    proc_grid = tuple(proc_grid)
    return geometry(tuple(global_shape), proc_grid, prod(proc_grid), 0).layout


def single_owner_layout(
    global_shape: tuple[int, ...], nranks: int, owner: int = 0
) -> Layout:
    """All data on one rank; every other rank owns an empty rectangle
    (built per call: a few tuple operations, keyed by no geometry)."""
    global_shape = tuple(global_shape)
    _check_shape(global_shape)
    if not 0 <= owner < nranks:
        raise DistributionError(f"owner {owner} out of range [0, {nranks})")
    rects = [((0, 0),) * len(global_shape)] * nranks
    rects[owner] = tuple(zip((0,) * len(global_shape), global_shape))
    return Layout(global_shape, tuple(rects), name=f"single_owner({owner})")


def replicated_layout(global_shape: tuple[int, ...], nranks: int) -> Layout:
    """Every rank holds the whole array (global variables, small tables)."""
    _check_shape(global_shape)
    full = tuple((0, n) for n in global_shape)
    return Layout(
        tuple(global_shape),
        tuple(full for _ in range(nranks)),
        name="replicated",
        replicated=True,
    )


# -- geometry: a block distribution with ghost layers, as one value -----------------

class Site(NamedTuple):
    """What a :class:`Geometry` fixes for one rank."""

    owned_shape: tuple[int, ...]
    #: the owned shape plus ``ghost`` layers on both sides of every axis
    local_shape: tuple[int, ...]
    #: per axis, low edge then high: the (ghost slab, owned edge slab)
    #: pair on each *physical* domain edge the rank's section touches
    edge_slabs: tuple[tuple[tuple[slice, ...], tuple[slice, ...]], ...]


def slab(ndim: int, axis: int, start: int, stop: int) -> tuple[slice, ...]:
    """Slices selecting ``start:stop`` along *axis*, everything elsewhere."""
    return tuple(slice(start, stop) if d == axis else slice(None) for d in range(ndim))


class _Sites(dict):
    """A geometry's ``rank -> Site`` table, each entry derived on its
    rank's first lookup, so a warm ``sites[rank]`` is one dict read.
    Ranks on threads may race to derive one; ``setdefault`` keeps one."""

    def __init__(self, layout: Layout, ghost: int):
        super().__init__()
        self.layout, self.ghost = layout, ghost

    def __missing__(self, rank: int) -> Site:
        g, rect = self.ghost, self.layout.rects[rank]
        owned = tuple(hi - lo for lo, hi in rect)
        local = tuple(n + 2 * g for n in owned)
        ndim, pairs = len(rect), []
        for axis, ((lo, hi), n) in enumerate(zip(rect, local)):
            if g and lo == 0:
                pairs.append((slab(ndim, axis, 0, g), slab(ndim, axis, g, g + 1)))
            if g and hi == self.layout.global_shape[axis]:
                pairs.append((slab(ndim, axis, n - g, n), slab(ndim, axis, n - g - 1, n - g)))
        return self.setdefault(rank, Site(owned, local, tuple(pairs)))


@dataclass(frozen=True)
class Geometry:
    """*global_shape* in blocks over the row-major process grid
    *proc_grid*, each rank's section ringed by *ghost* layers (the
    mesh-spectral distribution, paper §3.2).

    A value: it compares and hashes by those three fields; identity is
    only a shortcut.  Derived from them, once: the :class:`CartGrid` and
    block :class:`Layout` when built, a rank's :class:`Site` on its first
    lookup.  Facts are ints, slices and tuples, never an array, grid or
    communicator.  :func:`geometry` interns; unpickling re-interns.
    """

    global_shape: tuple[int, ...]
    proc_grid: tuple[int, ...]
    ghost: int
    cart: CartGrid = field(init=False, repr=False, compare=False)
    layout: Layout = field(init=False, repr=False, compare=False)
    #: the owned cells of a ghosted section, the same slices on every rank
    #: (stops count from the end); ``None`` without ghosts
    inner: tuple[slice, ...] | None = field(init=False, repr=False, compare=False)
    sites: dict[int, Site] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        shape, grid, g = self.global_shape, self.proc_grid, self.ghost
        _check_shape(shape)
        if g < 0:
            raise DistributionError(f"ghost width must be >= 0, got {g}")
        if len(grid) != len(shape):
            raise DistributionError(f"process grid {grid} does not match ndim {len(shape)}")
        cart = CartGrid(grid)
        rects = tuple(
            tuple(block_bounds(n, p, c) for n, p, c in zip(shape, grid, cart.coords(rank)))
            for rank in range(cart.nranks)
        )
        layout = Layout(shape, rects, name=f"blocks{grid}")
        derive = object.__setattr__  # a frozen value's derived fields, set once
        derive(self, "cart", cart)
        derive(self, "layout", layout)
        derive(self, "inner", tuple(slice(g, -g) for _ in shape) if g else None)
        derive(self, "sites", _Sites(layout, g))

    def __reduce__(self):
        return geometry, (self.global_shape, self.proc_grid, self.cart.nranks, self.ghost)


def resolve_proc_grid(nranks: int, ndim: int, dist: str | tuple[int, ...]) -> tuple[int, ...]:
    """Process-grid dims for *nranks* ranks under the distribution spec
    *dist*: ``"blocks"``, ``"rows"``, ``"cols"`` or explicit dims."""
    if isinstance(dist, tuple):
        grid = dist
    elif dist == "blocks":
        grid = choose_proc_grid(nranks, ndim)
    elif dist == "rows":
        grid = (nranks,) + (1,) * (ndim - 1)
    elif dist == "cols" and ndim >= 2:
        grid = (1, nranks) + (1,) * (ndim - 2)
    else:
        raise DistributionError(
            f"unknown distribution {dist!r} for {ndim} dims; use 'blocks', 'rows', "
            "'cols' (>= 2 dims) or dims"
        )
    if prod(grid) != nranks:
        raise DistributionError(
            f"process grid {grid} needs {prod(grid)} ranks, communicator has {nranks}"
        )
    return grid


@lru_cache(maxsize=256)
def geometry(global_shape: tuple, dist: str | tuple, nranks: int, ghost: int, /) -> Geometry:
    """The interned :class:`Geometry` of *global_shape* under the spec
    *dist* on *nranks* ranks with *ghost* layers — the one geometry
    cache.  A spec resolves to its process grid once, and every spec of
    one grid returns the geometry interned under that grid."""
    proc_grid = resolve_proc_grid(nranks, len(global_shape), dist)
    if proc_grid != dist:
        return geometry(global_shape, proc_grid, nranks, ghost)
    return Geometry(
        tuple(int(n) for n in global_shape), tuple(int(p) for p in proc_grid), int(ghost)
    )
