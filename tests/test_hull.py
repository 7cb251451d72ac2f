"""Planar convex hull."""

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from repro.apps.hull import (
    convex_hull,
    cross,
    hull_area,
    one_deep_hull,
    point_in_hull,
)

points_strategy = hnp.arrays(
    dtype=np.float64,
    shape=st.tuples(st.integers(1, 120), st.just(2)),
    elements=st.floats(-100, 100, allow_nan=False, allow_infinity=False),
)


class TestCross:
    def test_sign_survives_underflow(self):
        o, a, b = np.array([-8.9e-164, 0.0]), np.array([0.0, -4.7e-229]), np.zeros(2)
        assert cross(o, a, b) > 0  # the float products round to 0 - 0
        assert cross(o, b, a) < 0

    def test_exactly_collinear_is_zero(self):
        pts = [np.array([0.1 * k, 0.3 * k]) for k in (1, 2, 4)]
        assert cross(*pts) == 0.0

    def test_near_collinear_sign_is_exact(self):
        # the middle point sits one ulp above the diagonal
        o, b = np.array([0.0, 0.0]), np.array([2.0, 2.0])
        above = np.array([1.0, np.nextafter(1.0, 2.0)])
        assert cross(o, b, above) > 0
        assert cross(o, above, b) < 0

    def test_clear_turns_are_the_float_determinant(self):
        assert cross(np.zeros(2), np.array([1.0, 0.0]), np.array([0.0, 1.0])) == 1.0


class TestConvexHull:
    def test_square(self):
        pts = np.array([[0, 0], [1, 0], [1, 1], [0, 1], [0.5, 0.5]])
        hull = convex_hull(pts)
        assert hull.shape == (4, 2)
        assert hull_area(hull) == pytest.approx(1.0)

    def test_collinear(self):
        pts = np.array([[0, 0], [1, 1], [2, 2], [3, 3]])
        hull = convex_hull(pts)
        assert hull.shape == (2, 2)
        assert hull_area(hull) == 0.0

    def test_single_and_pair(self):
        assert convex_hull(np.array([[1.0, 2.0]])).shape == (1, 2)
        assert convex_hull(np.array([[0, 0], [1, 1]])).shape == (2, 2)

    def test_duplicates_removed(self):
        pts = np.array([[0, 0], [0, 0], [1, 0], [0, 1], [1, 0]])
        hull = convex_hull(pts)
        assert hull.shape == (3, 2)

    @given(pts=points_strategy)
    @settings(max_examples=50)
    def test_all_points_inside(self, pts):
        hull = convex_hull(pts)
        for p in pts:
            assert point_in_hull(hull, p, tol=1e-7)

    @given(pts=points_strategy)
    @settings(max_examples=30)
    def test_idempotent(self, pts):
        hull = convex_hull(pts)
        again = convex_hull(hull)
        assert np.allclose(np.sort(hull, axis=0), np.sort(again, axis=0))

    @given(pts=points_strategy)
    @settings(max_examples=30)
    def test_counterclockwise(self, pts):
        hull = convex_hull(pts)
        assert hull_area(hull) >= 0.0

    def test_area_matches_scipy(self, rng):
        import scipy.spatial

        pts = rng.normal(size=(300, 2))
        ours = hull_area(convex_hull(pts))
        theirs = scipy.spatial.ConvexHull(pts).volume  # 2-D "volume" is area
        assert ours == pytest.approx(theirs)


class TestOneDeepHull:
    @pytest.mark.parametrize("p", [1, 2, 4, 7])
    def test_matches_sequential(self, p, rng):
        pts = rng.normal(size=(500, 2))
        expected = convex_hull(pts)
        res = one_deep_hull().run(p, pts)
        for v in res.values:
            assert np.allclose(v, expected)

    @given(pts=points_strategy, p=st.integers(1, 5))
    @example(
        pts=np.array(
            [[-1.0, 0.0], [0.0, 0.0], [-8.9e-164, 0.0], [0.0, -4.7e-229], [0.0, 0.0]]
        ),
        p=2,
    )
    @settings(max_examples=20, deadline=None)
    def test_property(self, pts, p):
        """The merge is a homomorphism: the hull of the ranks' hulls is
        the hull of all points, for any input the strategy can draw.

        The pinned example once gave 2 points in parallel and 3
        sequentially: ``8.9e-164 * 4.7e-229`` underflows, so the rank
        holding the last three points saw a zero cross product, called
        them collinear and dropped ``(0, -4.7e-229)``, while the
        sequential chain met that point beside ``(-1, 0)`` and kept it.
        :func:`repro.apps.hull.cross` now decides such triples exactly,
        so the strategy stays unbounded (subnormals included).
        """
        expected = convex_hull(pts)
        res = one_deep_hull().run(p, pts)
        assert np.allclose(
            np.sort(res.values[0], axis=0), np.sort(expected, axis=0)
        )

    def test_replicated_result_on_all_ranks(self, rng):
        pts = rng.uniform(-5, 5, size=(200, 2))
        res = one_deep_hull().run(5, pts)
        for v in res.values[1:]:
            assert np.array_equal(v, res.values[0])
