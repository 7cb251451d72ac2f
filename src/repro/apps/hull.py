"""Planar convex hull — a one-deep divide-and-conquer application.

The paper lists the convex hull among problems "amenable to one-deep
solutions" (§2.5).  The one-deep structure: degenerate split (points
already distributed), local solve computes each part's hull with Andrew's
monotone chain, and the merge phase exchanges only hull vertices (tiny
compared to the input) and computes the hull of their union on every
rank — the replicated-parameters strategy of §2.2 taken to its limit,
since the "parameters" are the whole (small) merged result.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

from repro.core.onedeep import OneDeepDC, PhaseSpec
from repro.apps.sorting.common import sort_cost


#: relative rounding error of the float orientation determinant
#: (Shewchuk's orient2d bound, (3 + 16 eps) eps with eps = 2**-53) and an
#: absolute floor under which a product may have underflowed
_CROSS_REL_ERR = 3.4e-16
_CROSS_ABS_ERR = 1e-300


def cross(o: np.ndarray, a: np.ndarray, b: np.ndarray) -> float:
    """z-component of (a - o) x (b - o); > 0 for a counter-clockwise turn.

    The *sign* is exact.  The float determinant is returned when it
    clears its own rounding-error bound; a near-collinear triple (or one
    whose products underflow) is decided in rational arithmetic instead.
    Exact signs are what make the hull a function of the point *set*: a
    rank's local hull and the sequential chain look at the same triple
    through different subtractions, and with rounded signs one can call
    a turn collinear where the other sees it, so ``hull(hull(A) | hull(B))``
    could differ from ``hull(A | B)``.
    """
    left = (a[0] - o[0]) * (b[1] - o[1])
    right = (a[1] - o[1]) * (b[0] - o[0])
    det = float(left - right)
    if abs(det) > _CROSS_REL_ERR * (abs(left) + abs(right)) + _CROSS_ABS_ERR:
        return det
    ox, oy, ax, ay, bx, by = (Fraction(float(v)) for v in (*o, *a, *b))
    exact = (ax - ox) * (by - oy) - (ay - oy) * (bx - ox)
    if exact == 0:
        return 0.0
    # keep the sign even where the magnitude rounds to zero
    magnitude = max(abs(float(exact)), 5e-324)
    return magnitude if exact > 0 else -magnitude


def convex_hull(points: np.ndarray) -> np.ndarray:
    """Andrew's monotone chain: hull vertices in counter-clockwise order.

    Collinear boundary points are dropped.  Degenerate inputs (<= 2
    distinct points) return the distinct points sorted lexicographically.
    """
    pts = np.unique(np.asarray(points, dtype=float).reshape(-1, 2), axis=0)
    n = pts.shape[0]
    if n <= 2:
        return pts
    lower: list[np.ndarray] = []
    for p in pts:
        while len(lower) >= 2 and cross(lower[-2], lower[-1], p) <= 0:
            lower.pop()
        lower.append(p)
    upper: list[np.ndarray] = []
    for p in pts[::-1]:
        while len(upper) >= 2 and cross(upper[-2], upper[-1], p) <= 0:
            upper.pop()
        upper.append(p)
    hull = np.array(lower[:-1] + upper[:-1])
    if hull.shape[0] < 3:  # all points collinear
        return np.array([pts[0], pts[-1]])
    return hull


def hull_cost(n: int) -> float:
    """Analytic work of the monotone chain (sort-dominated)."""
    return sort_cost(n) + 6.0 * max(n, 0)


def one_deep_hull() -> OneDeepDC:
    """The one-deep convex hull archetype instance.

    After ``run(P, points)`` every rank returns the *same* global hull
    (counter-clockwise vertex array) — the merge is replicated.
    """
    merge = PhaseSpec(
        # The merge needs no separate parameters: every local hull is tiny.
        sample=lambda local_hull: None,
        params=lambda samples, n: None,
        # Replicate the local hull to every rank (an allgather expressed
        # in the archetype's all-to-all dataflow).
        partition=lambda params, local_hull, n: [local_hull] * n,
        combine=lambda hulls: convex_hull(
            np.vstack([np.asarray(h).reshape(-1, 2) for h in hulls])
        ),
        combine_cost=lambda combined: hull_cost(np.asarray(combined).reshape(-1, 2).shape[0] * 8),
    )
    return OneDeepDC(
        solve=convex_hull,
        solve_cost=lambda pts: hull_cost(np.asarray(pts).reshape(-1, 2).shape[0]),
        merge=merge,
    )


def hull_area(hull: np.ndarray) -> float:
    """Shoelace area of a counter-clockwise hull (0 for degenerate hulls)."""
    h = np.asarray(hull).reshape(-1, 2)
    if h.shape[0] < 3:
        return 0.0
    x, y = h[:, 0], h[:, 1]
    return 0.5 * float(np.sum(x * np.roll(y, -1) - np.roll(x, -1) * y))


def point_in_hull(hull: np.ndarray, point: np.ndarray, tol: float = 1e-9) -> bool:
    """Is *point* inside (or on) a counter-clockwise hull?"""
    h = np.asarray(hull).reshape(-1, 2)
    p = np.asarray(point, dtype=float)
    if h.shape[0] == 0:
        return False
    if h.shape[0] == 1:
        return bool(np.allclose(h[0], p, atol=tol))
    if h.shape[0] == 2:
        d = h[1] - h[0]
        t = np.dot(p - h[0], d) / max(float(np.dot(d, d)), tol)
        proj = h[0] + np.clip(t, 0.0, 1.0) * d
        return bool(np.linalg.norm(p - proj) <= math.sqrt(tol))
    for i in range(h.shape[0]):
        if cross(h[i], h[(i + 1) % h.shape[0]], p) < -tol:
            return False
    return True
