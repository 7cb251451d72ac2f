"""General data redistribution between layouts (paper §4.3, Figure 7).

``redistribute(comm, local, old, new)`` moves a distributed array from one
:class:`~repro.comm.layout.Layout` to another.  Every rank intersects its
old rectangle with every rank's new rectangle, ships each non-empty
intersection with a pairwise all-to-all, and pastes received pieces into
its new local array.  Rows-to-columns redistribution (Figure 7), gathering
to a single owner (file output), and scattering from one (file input) are
all instances.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from repro.errors import DistributionError
from repro.comm.communicator import Comm
from repro.comm.layout import Layout, Rect, single_owner_layout
from repro.obs.metrics import COUNT_BUCKETS, counter_handle, histogram_handle

_CALLS = counter_handle(
    "comm.redistribute.calls", help="layout redistributions performed"
)
_BYTES = counter_handle(
    "comm.redistribute.bytes", help="payload bytes shipped by redistributions"
)
_PARCELS = histogram_handle(
    "comm.redistribute.parcels",
    buckets=COUNT_BUCKETS,
    help="non-empty parcels sent per rank per redistribution",
)
_VIRTUAL_SECONDS = histogram_handle(
    "comm.redistribute.virtual_seconds",
    help="per-rank virtual time inside the redistribution exchange",
)


def intersect(a: Rect, b: Rect) -> Rect | None:
    """Intersection of two rectangles, or ``None`` when empty (the one
    rule redistribution and partitioned file input share)."""
    out = []
    for (alo, ahi), (blo, bhi) in zip(a, b):
        lo, hi = max(alo, blo), min(ahi, bhi)
        if lo >= hi:
            return None
        out.append((lo, hi))
    return tuple(out)


def local_slices(rect: Rect, base: Rect) -> tuple[slice, ...]:
    """Slices selecting global rectangle *rect* inside a local array whose
    origin is *base*'s low corner."""
    return tuple(slice(lo - blo, hi - blo) for (lo, hi), (blo, _) in zip(rect, base))


@lru_cache(maxsize=1024)
def _transfers(old: Layout, new: Layout, rank: int) -> tuple:
    """The static half of a redistribution, for *rank*:
    ``(old_shape, new_shape, box, sends, pastes)``.  *box* selects the
    bounding box of the rectangles sent to *other* ranks in the old local
    array (``None`` when nothing leaves): what a call copies.
    ``sends[dest]`` is the rectangle *dest* gets with its slices — into
    the box's copy, or into the old local array for *rank* itself —
    ``pastes[src]`` the new local array's slices *src*'s piece fills;
    ``None`` where rectangles do not meet.  Pure in two (hashable)
    layouts and a rank, asked for again at every step of a time loop; it
    holds ints and slices only.  Keyed by layouts, not geometries: a
    :func:`redistribute` caller need not hold one.
    """
    my_old, my_new = old.rects[rank], new.rects[rank]
    overlaps = [intersect(my_old, rect) for rect in new.rects]
    away = [o for dest, o in enumerate(overlaps) if o is not None and dest != rank]
    # per axis, the lowest lo and highest hi of the rectangles sent away
    box = tuple((min(los), max(his)) for los, his in (zip(*ax) for ax in zip(*away))) or None
    sends = tuple(
        None
        if overlap is None
        else (overlap, local_slices(overlap, my_old if dest == rank else box))
        for dest, overlap in enumerate(overlaps)
    )
    pastes = []
    for rect in old.rects:
        overlap = intersect(rect, my_new)
        pastes.append(None if overlap is None else local_slices(overlap, my_new))
    return (
        old.shape(rank),
        new.shape(rank),
        None if box is None else local_slices(box, my_old),
        sends,
        tuple(pastes),
    )


def redistribute(
    comm: Comm,
    local: np.ndarray,
    old: Layout,
    new: Layout,
) -> np.ndarray:
    """Return this rank's local section under layout *new*.

    *local* must be this rank's section under layout *old* (shape
    ``old.shape(comm.rank)``).  Both layouts must describe the same global
    shape and the same number of ranks.  Works for any dimensionality.

    What leaves the rank is copied once, as a frozen snapshot of the box
    bounding every outgoing rectangle; each parcel is a read-only view of
    it, which the send shares (copy-on-write contract).  The rank's own
    piece is never sent and stays a view of *local*.
    """
    if old.global_shape != new.global_shape:
        raise DistributionError(
            f"layout shapes differ: {old.global_shape} vs {new.global_shape}"
        )
    if len(old.rects) != comm.size or len(new.rects) != comm.size:
        raise DistributionError(
            f"layouts sized for {old.nranks}/{new.nranks} ranks on a "
            f"{comm.size}-rank communicator"
        )
    local = np.asarray(local)
    old_shape, new_shape, box, sends, pastes = _transfers(old, new, comm.rank)
    if local.shape != old_shape:
        raise DistributionError(
            f"rank {comm.rank}: local shape {local.shape} does not match "
            f"old layout section {old_shape}"
        )

    entry_clock = comm.clock
    snapshot = None
    if box is not None:
        snapshot = local[box].copy()
        snapshot.flags.writeable = False
    # One parcel per destination: a list of (global_rect, block) pieces.
    outgoing: list[list[tuple[Rect, np.ndarray]] | None] = []
    parcels = 0
    parcel_bytes = 0
    for dest, send in enumerate(sends):
        if send is None:
            outgoing.append(None)
        else:
            overlap, where = send
            piece = local[where] if dest == comm.rank else snapshot[where]
            outgoing.append([(overlap, piece)])
            parcels += 1
            parcel_bytes += piece.nbytes

    incoming = comm.alltoall(outgoing)

    tallies, samples = comm.tallies, comm.samples
    tallies[_CALLS] += 1
    tallies[_BYTES] += parcel_bytes
    samples[_PARCELS].append(parcels)
    samples[_VIRTUAL_SECONDS].append(comm.clock - entry_clock)

    out = np.empty(new_shape, dtype=local.dtype)
    filled = 0
    for parcel, where in zip(incoming, pastes):
        if parcel is None:
            continue
        for _, piece in parcel:
            out[where] = piece
            filled += piece.size
    if filled != out.size:
        raise DistributionError(
            f"rank {comm.rank}: redistribution filled {filled} of {out.size} "
            "elements; source layout does not cover the target section"
        )
    return out


def gather_to_root(
    comm: Comm, local: np.ndarray, layout: Layout, root: int = 0
) -> np.ndarray | None:
    """Collect a distributed array onto *root* (returns ``None`` elsewhere).

    Convenience wrapper: redistribution to a single-owner layout.  Used by
    the archetypes' sequential file-output pattern.
    """
    target = single_owner_layout(layout.global_shape, comm.size, owner=root)
    assembled = redistribute(comm, local, layout, target)
    return assembled if comm.rank == root else None


def scatter_from_root(
    comm: Comm,
    full: np.ndarray | None,
    layout: Layout,
    root: int = 0,
    dtype: np.dtype | None = None,
) -> np.ndarray:
    """Distribute an array held on *root* according to *layout*.

    Non-root ranks pass ``full=None``; ``dtype`` must then be supplied (or
    it is broadcast from root).  Inverse of :func:`gather_to_root`.
    """
    if comm.rank == root:
        if full is None:
            raise DistributionError("root must supply the full array")
        full = np.asarray(full)
        if full.shape != layout.global_shape:
            raise DistributionError(
                f"full array shape {full.shape} does not match layout "
                f"{layout.global_shape}"
            )
        dtype = full.dtype
    dtype = comm.bcast(dtype, root=root)
    source = single_owner_layout(layout.global_shape, comm.size, owner=root)
    local = (
        full
        if comm.rank == root
        else np.empty(tuple(0 for _ in layout.global_shape), dtype=dtype)
    )
    return redistribute(comm, local, source, layout)
