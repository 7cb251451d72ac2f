"""Ghost-boundary exchange (paper §4.3, Figure 8's companion operation).

Grid operations that read neighbouring points need each local section
surrounded by a *ghost boundary* holding shadow copies of the neighbours'
edge values.  ``exchange_ghosts`` refreshes those shadows: for every grid
axis, each rank swaps a ``ghost``-deep slab with its face neighbours.

Who talks to whom, under which tag, about which slab is static — a
function of the rank, the process grid, the local shape, the ghost width
and the periodicity — so every exchange reads it from one memoised
:func:`exchange_geometry` and only posts, waits and copies per call.

:func:`start_exchange` is the one entry point (:func:`exchange_ghosts` is
its blocking single-array spelling; the kernel layer calls its two
halves, :func:`checked_geometry` once per pack and :func:`run_exchange`
per run); it packs several arrays into one message per neighbour per
direction, and runs in one of two ways:

- the **blocking** exchange processes axes in order, each slab spanning
  the *full* extent of the other axes (ghost layers included), so after
  the final axis corner and edge ghost cells are correct too — the
  standard trick that makes one face-exchange pass sufficient for
  9-point/27-point stencils;
- the **overlapped** exchange (``overlap=True``) posts every face
  transfer at once and returns the in-flight :class:`GhostExchange`, so
  the caller can compute on interior cells while the slabs are in
  flight.  Because all slabs are extracted before any ghost is written,
  corner/edge ghost cells (which would need a second pass) are *stale*
  after the overlapped exchange — correct for star stencils, which read
  only axis-aligned neighbours, but not for box stencils.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from repro.errors import DistributionError
from repro.comm.cart import CartGrid
from repro.comm.communicator import Comm, MAX_USER_TAG
from repro.comm.layout import slab
from repro.runtime.request import Request

#: tag space reserved for boundary exchange (below the user-tag cap):
#: blocking single at +0, overlapped single at +16, blocking packed at
#: +32, overlapped packed at +48 — 2 tags per axis, up to 8 axes each.
_BOUNDARY_TAG_BASE = MAX_USER_TAG - 64
_OVERLAP_OFFSET = 16
_PACKED_OFFSET = 32


def _check_exchange_args(
    comm: Comm,
    shape: tuple[int, ...],
    ndim: int,
    grid: CartGrid,
    ghost: int,
    periodic: tuple[bool, ...] | bool,
) -> tuple[bool, ...]:
    if ghost < 1:
        raise DistributionError(f"ghost width must be >= 1, got {ghost}")
    if grid.nranks != comm.size:
        raise DistributionError(
            f"process grid has {grid.nranks} ranks, communicator {comm.size}"
        )
    if ndim != grid.ndim:
        raise DistributionError(
            f"local array is {ndim}-D but process grid is {grid.ndim}-D"
        )
    if any(n < 2 * ghost for n in shape):
        raise DistributionError(
            f"local shape {shape} too small for ghost width {ghost}"
        )
    if isinstance(periodic, bool):
        periodic = tuple(periodic for _ in range(grid.ndim))
    if len(periodic) != grid.ndim:
        raise DistributionError(
            f"periodic flags {periodic} do not match grid rank {grid.ndim}"
        )
    return periodic


#: one transfer of an exchange: (peer rank, tag, slab selector) — for a
#: receive the selector names the ghost slab the payload fills, for a
#: send the owned edge slab that travels
Transfer = tuple[int, int, tuple[slice, ...]]
#: one grid axis of an exchange: (receives, sends), each in posting order
AxisTransfers = tuple[tuple[Transfer, ...], tuple[Transfer, ...]]


@lru_cache(maxsize=1024)
def exchange_geometry(
    rank: int,
    dims: tuple[int, ...],
    shape: tuple[int, ...],
    ghost: int,
    periodic: tuple[bool, ...],
    tag_base: int,
) -> tuple[AxisTransfers, ...]:
    """The static half of a face exchange: per grid axis, *rank*'s
    ``(receives, sends)`` in posting order.

    Everything here is a pure function of the arguments — neighbours come
    from the process grid *dims*, tags from *tag_base* (2 per axis: even
    travels toward lower coordinates, odd toward higher), slabs from the
    ghosted local *shape* — and none of it changes between the sweeps of
    an iteration, so it is derived once per distinct key.  The key and
    the result hold ranks, ints and slices only: never an array, a grid
    or a communicator, so a cached entry pins no field memory.

    Per axis the receives come first (high ghost, then low) so a
    self-neighbouring periodic axis binds its own slabs to the
    already-posted patterns; a slab spans the *full* extent of the other
    axes, ghost layers included.
    """
    grid = CartGrid(dims)
    ndim = len(shape)
    axes = []
    for axis in range(grid.ndim):
        n = shape[axis]
        lo_nbr = grid.shift(rank, axis, -1, periodic[axis])
        hi_nbr = grid.shift(rank, axis, +1, periodic[axis])
        tag_lo = tag_base + 2 * axis  # travelling toward lower coords
        tag_hi = tag_lo + 1  # travelling toward higher
        recvs: list[Transfer] = []
        sends: list[Transfer] = []
        if hi_nbr is not None:
            recvs.append((hi_nbr, tag_lo, slab(ndim, axis, n - ghost, n)))
        if lo_nbr is not None:
            recvs.append((lo_nbr, tag_hi, slab(ndim, axis, 0, ghost)))
            sends.append((lo_nbr, tag_lo, slab(ndim, axis, ghost, 2 * ghost)))
        if hi_nbr is not None:
            sends.append((hi_nbr, tag_hi, slab(ndim, axis, n - 2 * ghost, n - ghost)))
        axes.append((tuple(recvs), tuple(sends)))
    return tuple(axes)


class GhostExchange:
    """The transfers of one ghost exchange over some of its axes.

    Every face transfer of the given axes (both directions, all receives
    before any send) is posted nonblocking before the constructor
    returns; :meth:`wait` completes them and writes the received slabs
    into the ghost layers.  Outgoing slabs are snapshotted at post time
    (messages copy-on-send), so the caller may update interior cells
    freely between start and wait.

    A blocking :func:`start_exchange` drives one of these per axis, in
    axis order, so each axis's slabs carry the ghosts the previous axis
    filled and corner/edge ghost cells come out right.  An overlapped one
    posts every axis at once and hands the object to the caller, who
    computes on cells that do not read ghosts while the slabs travel;
    there axes are *not* serialised, so ghost cells in the corner/edge
    regions (offsets along more than one axis) hold stale values
    afterwards — fine for star stencils, which never read them.

    *packed* stacks the slabs of all *locals_* into one message per
    neighbour per direction; otherwise *locals_* is a single array.
    """

    def __init__(
        self,
        comm: Comm,
        locals_: list[np.ndarray],
        axes: tuple[AxisTransfers, ...],
        packed: bool,
    ):
        self._comm = comm
        self._locals = locals_
        self._packed = packed
        self._requests: list[Request] = []
        #: receive bookkeeping: (request, ghost slab the payload fills)
        self._recvs: list[tuple[Request, tuple[slice, ...]]] = []
        for recvs, _ in axes:
            for peer, tag, sel in recvs:
                req = comm.irecv(peer, tag=tag)
                self._requests.append(req)
                self._recvs.append((req, sel))
        for _, sends in axes:
            for peer, tag, sel in sends:
                if packed:
                    # One buffer, filled slab by slab and frozen here, so
                    # the send shares it instead of copying it again
                    # (copy-on-write contract).
                    first = locals_[0][sel]
                    piece = np.empty((len(locals_), *first.shape), first.dtype)
                    for i, a in enumerate(locals_):
                        piece[i] = a[sel]
                    piece.flags.writeable = False
                else:
                    piece = locals_[0][sel]
                self._requests.append(comm.isend(peer, piece, tag=tag))
        self._done = not axes

    @property
    def done(self) -> bool:
        """True once :meth:`wait` has completed the exchange."""
        return self._done

    def wait(self) -> None:
        """Complete all transfers and fill the ghost layers (idempotent)."""
        if self._done:
            return
        self._comm.waitall(self._requests)
        for req, sel in self._recvs:
            if self._packed:
                for a, piece in zip(self._locals, req.payload):
                    a[sel] = piece
            else:
                self._locals[0][sel] = req.payload
        self._done = True


def checked_geometry(
    comm: Comm,
    arrays: list[np.ndarray],
    grid: CartGrid,
    ghost: int,
    periodic: tuple[bool, ...] | bool,
    *,
    overlap: bool,
) -> tuple[AxisTransfers, ...]:
    """Validate an exchange of *arrays* (see :func:`start_exchange`) and
    look its geometry up.  What this returns depends only on the arrays'
    shape and the arguments, so a caller that repeats one exchange — a
    :class:`repro.kernels.plan.LoopGroup`, per pack — asks once and hands
    the answer to :func:`run_exchange` at every run."""
    first = arrays[0]
    for arr in arrays[1:]:
        if arr.shape != first.shape:
            raise DistributionError(
                "a packed exchange needs same-shaped arrays; got "
                f"{arr.shape} vs {first.shape}"
            )
    periodic = _check_exchange_args(
        comm, first.shape, first.ndim, grid, ghost, periodic
    )
    offset = (_OVERLAP_OFFSET if overlap else 0) + (_PACKED_OFFSET if len(arrays) > 1 else 0)
    return exchange_geometry(
        comm.rank,
        tuple(grid.dims),
        first.shape,
        ghost,
        tuple(periodic),
        _BOUNDARY_TAG_BASE + offset,
    )


def run_exchange(
    comm: Comm,
    arrays: list[np.ndarray],
    axes: tuple[AxisTransfers, ...],
    *,
    overlap: bool,
) -> GhostExchange:
    """Run the exchange whose geometry :func:`checked_geometry` returned
    for *arrays* and *overlap*: every axis posted at once and the
    in-flight handle returned, or (without *overlap*) the axes completed
    one at a time and a done handle returned."""
    packed = len(arrays) > 1
    if overlap:
        return GhostExchange(comm, arrays, axes, packed)
    for axis in axes:
        handle = GhostExchange(comm, arrays, (axis,), packed)
        handle.wait()
    return handle


def start_exchange(
    comm: Comm,
    arrays: list[np.ndarray],
    grid: CartGrid,
    ghost: int = 1,
    periodic: tuple[bool, ...] | bool = False,
    *,
    overlap: bool,
) -> GhostExchange:
    """Refresh the ghost layers of *arrays* (same-shaped sections
    *including* ``ghost >= 1`` cells on each side of every axis) from the
    face neighbours on the Cartesian process grid *grid*
    (``grid.nranks == comm.size``); *periodic* is per axis, or one bool
    for all.

    Several arrays pack: their slabs travel stacked, one message per
    neighbour per direction — what production stencil codes do to
    amortise the per-message latency.  With *overlap* every axis is
    posted at once and the in-flight handle returned: compute on cells
    that do not read ghosts, then ``wait()``.  Without it the axes
    complete one at a time, so each axis's slabs carry the ghosts the
    previous one filled and corner ghosts come out right; the returned
    handle is already done.  On non-periodic physical edges the ghost
    cells are left untouched (they hold boundary conditions maintained
    by the application).
    """
    axes = checked_geometry(comm, arrays, grid, ghost, periodic, overlap=overlap)
    return run_exchange(comm, arrays, axes, overlap=overlap)


def exchange_ghosts(
    comm: Comm,
    local: np.ndarray,
    grid: CartGrid,
    ghost: int = 1,
    periodic: tuple[bool, ...] | bool = False,
) -> None:
    """Refresh the ghost layers of one array in place (blocking; see
    :func:`start_exchange`)."""
    start_exchange(comm, [local], grid, ghost, periodic, overlap=False)


def add_ghosts(section: np.ndarray, ghost: int, fill: float = 0.0) -> np.ndarray:
    """Return a copy of *section* padded with *ghost* cells per side."""
    if ghost < 0:
        raise DistributionError(f"ghost width must be >= 0, got {ghost}")
    padded = np.full(
        tuple(n + 2 * ghost for n in section.shape), fill, dtype=section.dtype
    )
    padded[interior(padded, ghost)] = section
    return padded


def interior(arr_with_ghosts: np.ndarray, ghost: int) -> tuple[slice, ...]:
    """Slices selecting the owned interior of a ghosted array."""
    return tuple(slice(ghost, n - ghost) for n in arr_with_ghosts.shape)


def strip_ghosts(arr_with_ghosts: np.ndarray, ghost: int) -> np.ndarray:
    """Copy of the owned interior (ghost layers removed)."""
    return arr_with_ghosts[interior(arr_with_ghosts, ghost)].copy()


# -- the kernel layer's packing rule ----------------------------------------------

def exchange_plan_key(
    local: np.ndarray,
    grid: CartGrid,
    ghost: int,
    periodic: tuple[bool, ...],
) -> tuple:
    """Geometry key under which two exchange requests are *packable*.

    Requests with equal keys extract identically-shaped slabs toward the
    same neighbours, so one buffer stacks them losslessly into one
    message per neighbour per direction (a packed :func:`start_exchange`).
    The dtype is part of the key — stacking mixed dtypes would silently
    upcast the packed buffer and change the bytes on the wire.
    (:class:`repro.kernels.plan.LoopGroup` keys each request once.)
    """
    return (
        tuple(local.shape),
        local.dtype.str,
        int(ghost),
        tuple(periodic),
        tuple(grid.dims),
    )
