"""Regular sampling used to choose splitters in one-deep merges/splits.

The paper leaves the splitter computation open ("there are several
approaches ... we do not give details"); the standard technique for the
sort applications is *regular sampling* (Shi & Schaeffer 1992, cited by
the paper): each part contributes ``s`` evenly spaced local samples, the
``p*s`` samples are sorted, and every ``s``-th sample becomes a splitter.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np


def sort_keys(keys: np.ndarray) -> None:
    """Sort *keys* in place, into the order a stable sort gives them.

    Bool and integer keys take NumPy's default sort: equal integers are
    indistinguishable, so every correct sort returns the same bytes, the
    default one several times sooner than timsort.  Other dtypes keep the
    stable sort: signed zeros, NaN payloads, equal records are observable.
    """
    keys.sort(kind=None if keys.dtype.kind in "biu" else "stable")


def sorted_keys(a: np.ndarray) -> np.ndarray:
    """A sorted copy of *a*, byte for byte ``np.sort(a, kind="stable")``."""
    out = np.array(a)
    sort_keys(out)
    return out


def regular_sample(sorted_local: np.ndarray, s: int) -> np.ndarray:
    """Return ``s`` evenly spaced samples from a locally sorted array.

    For an empty local array returns an empty sample.  Sample positions are
    ``floor(k * n / s)`` for ``k = 0..s-1``, i.e. include the minimum and
    spread towards (but exclude) the maximum.
    """
    arr = np.asarray(sorted_local)
    n = arr.shape[0]
    if n == 0 or s <= 0:
        return arr[:0]
    idx = (np.arange(s, dtype=np.int64) * n) // s
    return arr[idx]


def splitters_from_samples(samples: np.ndarray, p: int) -> np.ndarray:
    """Choose ``p - 1`` splitters from a pooled sample array.

    Sorts the pooled samples and picks evenly spaced order statistics.  With
    fewer samples than requested splitters, duplicates are allowed (some
    destination parts then receive no data, which is legal).
    """
    pooled = sorted_keys(np.asarray(samples).ravel())
    m = pooled.shape[0]
    if p <= 1 or m == 0:
        return pooled[:0]
    idx = (np.arange(1, p, dtype=np.int64) * m) // p
    return pooled[idx]


def pad_partition(pieces: list[np.ndarray], nparts: int, like: np.ndarray) -> list[np.ndarray]:
    """Pad a piece list with empty arrays up to *nparts* entries.

    Needed when the pooled sample was empty (globally empty input) and
    fewer splitters than ``nparts - 1`` could be chosen.
    """
    empty = np.asarray(like)[:0]
    return list(pieces) + [empty] * (nparts - len(pieces))


def partition_by_splitters(sorted_local: np.ndarray, splitters: Sequence) -> list[np.ndarray]:
    """Split a locally sorted array into ``len(splitters) + 1`` sorted pieces.

    Piece ``i`` holds the elements ``x`` with ``splitters[i-1] <= x <
    splitters[i]`` (boundary elements equal to a splitter go to the piece on
    its right, matching ``np.searchsorted(..., side="left")``).  The
    concatenation of the pieces equals the input.
    """
    arr = np.asarray(sorted_local)
    cuts = np.searchsorted(arr, np.asarray(splitters), side="left")
    bounds = [0, *cuts.tolist(), arr.shape[0]]
    return [arr[bounds[i] : bounds[i + 1]] for i in range(len(bounds) - 1)]
