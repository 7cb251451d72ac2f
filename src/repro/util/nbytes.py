"""Estimate the wire size of a message payload.

The performance model charges ``alpha + beta * nbytes`` per message, so we
need a cheap, deterministic size estimate for arbitrary payloads.  NumPy
arrays report their exact buffer size; containers are summed recursively;
scalars use fixed costs matching typical wire encodings.
"""

from __future__ import annotations

import numpy as np

_SCALAR_BYTES = 8
_OVERHEAD_BYTES = 16  # envelope: source, tag, length


def nbytes_of(obj: object) -> int:
    """Return an estimate of the number of bytes *obj* occupies on the wire.

    Deterministic and cheap (no pickling).  Containers include a small
    per-element overhead so that many tiny messages are not modelled as
    free.
    """
    return _OVERHEAD_BYTES + _nbytes(obj)


def _nbytes(obj: object) -> int:
    if obj is None:
        return 0
    if isinstance(obj, np.ndarray):
        return int(obj.nbytes)
    if isinstance(obj, np.generic):
        return int(obj.nbytes)
    if isinstance(obj, (bytes, bytearray)):
        return len(obj)
    if isinstance(obj, memoryview):
        # len() counts the first dimension's items, not bytes
        return obj.nbytes
    if isinstance(obj, str):
        return len(obj.encode("utf-8", errors="replace"))
    if isinstance(obj, (bool, int, float, complex)):
        return _SCALAR_BYTES
    if isinstance(obj, dict):
        return sum(_nbytes(k) + _nbytes(v) + 2 for k, v in obj.items())
    if isinstance(obj, (list, tuple, set, frozenset)):
        return sum(_nbytes(item) + 2 for item in obj)
    # Objects exposing nbytes (array-likes) are trusted.
    nbytes = getattr(obj, "nbytes", None)
    if isinstance(nbytes, (int, np.integer)):
        return int(nbytes)
    # Fallback: treat unknown objects as a fixed-size record.
    return 64
