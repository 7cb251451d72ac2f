"""Cartesian process grids (MPI_Cart-style helpers).

The mesh-spectral archetype arranges P processes as an ``NPX x NPY``
(or 3-D) grid; this module provides the rank <-> coordinates mapping,
neighbour shifts, and an ``MPI_Dims_create``-like factorisation that
chooses a near-square process grid for a given P.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import prod

from repro.errors import DistributionError


@dataclass(frozen=True)
class CartGrid:
    """A row-major Cartesian arrangement of ranks.

    ``dims`` gives the process count along each axis; rank 0 is at the
    origin and the *last* axis varies fastest (row-major); :meth:`coords`
    is the one rank-to-coordinates rule, which block layouts read too.
    """

    dims: tuple[int, ...]

    def __post_init__(self) -> None:
        if not self.dims or any(d < 1 for d in self.dims):
            raise DistributionError(f"invalid process grid dims {self.dims}")

    @property
    def nranks(self) -> int:
        return prod(self.dims)

    @property
    def ndim(self) -> int:
        return len(self.dims)

    def coords(self, rank: int) -> tuple[int, ...]:
        """Grid coordinates of *rank*."""
        if not 0 <= rank < self.nranks:
            raise DistributionError(f"rank {rank} out of range for grid {self.dims}")
        out = []
        rem = rank
        for d in reversed(self.dims):
            out.append(rem % d)
            rem //= d
        out.reverse()
        return tuple(out)

    def rank_of(self, coords: tuple[int, ...]) -> int:
        """Rank at the given grid coordinates."""
        if len(coords) != self.ndim:
            raise DistributionError(
                f"coords {coords} rank does not match grid {self.dims}"
            )
        rank = 0
        for c, d in zip(coords, self.dims):
            if not 0 <= c < d:
                raise DistributionError(f"coords {coords} outside grid {self.dims}")
            rank = rank * d + c
        return rank

    def shift(self, rank: int, axis: int, disp: int, periodic: bool = False) -> int | None:
        """Neighbour of *rank* displaced by *disp* along *axis*.

        Returns ``None`` when the displacement falls off a non-periodic
        edge (matching ``MPI_PROC_NULL``).
        """
        if not 0 <= axis < self.ndim:
            raise DistributionError(f"axis {axis} out of range for grid {self.dims}")
        coords = list(self.coords(rank))
        c = coords[axis] + disp
        if periodic:
            c %= self.dims[axis]
        elif not 0 <= c < self.dims[axis]:
            return None
        coords[axis] = c
        return self.rank_of(tuple(coords))


def choose_proc_grid(nprocs: int, ndim: int) -> tuple[int, ...]:
    """Factor *nprocs* into *ndim* near-equal dimensions (largest first).

    Mirrors ``MPI_Dims_create``: repeatedly assign the largest remaining
    prime factor to the currently smallest dimension, then sort
    descending so axis 0 (usually the longest data axis) gets the most
    processes.  A grid's "blocks" spec resolves here once, when its
    :func:`repro.comm.layout.geometry` is first interned.
    """
    if nprocs < 1 or ndim < 1:
        raise DistributionError(f"need nprocs >= 1 and ndim >= 1, got {nprocs}, {ndim}")
    if ndim == 1:
        return (nprocs,)
    if ndim == 2:
        # Exact: the divisor pair closest to square.
        best = 1
        d = 1
        while d * d <= nprocs:
            if nprocs % d == 0:
                best = d
            d += 1
        return (nprocs // best, best)
    dims = [1] * ndim
    factors = _prime_factors(nprocs)
    for f in sorted(factors, reverse=True):
        dims[dims.index(min(dims))] *= f
    return tuple(sorted(dims, reverse=True))


def _prime_factors(n: int) -> list[int]:
    out = []
    d = 2
    while d * d <= n:
        while n % d == 0:
            out.append(d)
            n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out
