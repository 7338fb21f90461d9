import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nulldist import (
    comparison_angle,
    l2k_time_separation,
    point_on_side,
    realize_timelike_triangle,
)
from nulldist.errors import (
    ModelConstraintError,
    ParameterError,
    UndefinedAngleError,
    UnsupportedRegimeError,
)
from nulldist.model_spaces import (
    _future_unit_timelike,
    chart_point,
    embedded_time_separation,
    geodesic_point,
)

# frozen from an independent hyperboloid-model solve (bisection on the leg
# angle until the opposite side has length 1); matches the law of cosines
HYPERBOLIC_EQUILATERAL_ANGLE = 0.9187978721780272


class TestComparisonAngle:
    def test_flat_equilateral(self):
        assert comparison_angle(0.0, 1, 1, 1) == pytest.approx(math.pi / 3, abs=1e-15)

    def test_flat_collinear(self):
        assert comparison_angle(0.0, 2, 1, 1) == pytest.approx(math.pi, abs=1e-15)

    @pytest.mark.parametrize("k", [0.0, 1.0, -1.0])
    def test_rounded_degenerate_triangles_are_exact(self, k):
        # 0.1 + 0.2 != 0.3 in floating point: sides that add up only to
        # within an ulp still give the straight and the folded angle exactly,
        # while a genuinely thin triangle keeps its angle below pi
        assert comparison_angle(k, 0.3, 0.1, 0.2) == math.pi
        assert comparison_angle(k, 0.1, 0.3, 0.2) == 0.0
        assert comparison_angle(k, 0.3 - 1e-9, 0.1, 0.2) < math.pi - 1e-5

    def test_hyperbolic_equilateral_frozen(self):
        got = comparison_angle(-1.0, 1, 1, 1)
        assert got == pytest.approx(HYPERBOLIC_EQUILATERAL_ANGLE, abs=1e-12)
        assert got < math.pi / 3

    def test_hyperbolic_against_embedding_oracle(self):
        # independent: solve for the angle in the hyperboloid model
        def h_point(r, theta):
            return np.array(
                [math.cosh(r), math.sinh(r) * math.cos(theta), math.sinh(r) * math.sin(theta)]
            )

        def h_dist(p, q):
            g = np.array([1.0, -1.0, -1.0])
            return math.acosh(max(1.0, float(np.sum(g * p * q))))

        a, b, c = 0.9, 0.7, 1.2
        lo, hi = 0.0, math.pi
        for _ in range(80):
            mid = 0.5 * (lo + hi)
            if h_dist(h_point(b, 0.0), h_point(c, mid)) < a:
                lo = mid
            else:
                hi = mid
        assert comparison_angle(-1.0, a, b, c) == pytest.approx(0.5 * (lo + hi), abs=1e-10)

    def test_spherical_equilateral_smaller_than_pi(self):
        ang = comparison_angle(1.0, 1, 1, 1)
        assert math.pi / 3 < ang < math.pi

    def test_degenerate_side_error(self):
        with pytest.raises(UndefinedAngleError):
            comparison_angle(0.0, 1.0, 0.0, 1.0)

    def test_triangle_inequality_enforced(self):
        with pytest.raises(ModelConstraintError):
            comparison_angle(0.0, 3.0, 1.0, 1.0)

    def test_sphere_size_restriction(self):
        with pytest.raises(ModelConstraintError):
            comparison_angle(4.0, 1.2, 1.2, 1.2)

    def test_continuity_at_zero(self):
        for sides in [(1.0, 1.0, 1.0), (0.5, 0.7, 1.0), (1.3, 0.8, 0.9)]:
            base = comparison_angle(0.0, *sides)
            for k in (1e-6, -1e-6):
                assert comparison_angle(k, *sides) == pytest.approx(base, abs=1e-6)


class TestMinkowskiSeparation:
    def test_timelike(self):
        assert l2k_time_separation(0.0, (0, 0), (2, 1)) == pytest.approx(math.sqrt(3))

    def test_spacelike_zero(self):
        assert l2k_time_separation(0.0, (0, 0), (1, 2)) == 0.0

    def test_past_zero(self):
        assert l2k_time_separation(0.0, (2, 0), (0, 0)) == 0.0

    def test_null_zero(self):
        assert l2k_time_separation(0.0, (0, 0), (1, 1)) == 0.0


class TestCurvedSeparation:
    @pytest.mark.parametrize("K", [1.0, -1.0, 0.25, -0.25])
    def test_unit_speed_geodesic_additive(self, K):
        if K == 0:
            return
        base = chart_point(K, 0.0, 0.0)
        v = _future_unit_timelike(K, base, 0.45)
        p = geodesic_point(K, base, v, 0.4)
        q = geodesic_point(K, base, v, 1.1)
        s1 = embedded_time_separation(K, base, p)
        s2 = embedded_time_separation(K, p, q)
        s3 = embedded_time_separation(K, base, q)
        assert s1 == pytest.approx(0.4, abs=1e-8)
        assert s1 + s2 == pytest.approx(s3, abs=1e-8)

    def test_geodesic_integration_oracle(self):
        # integrate gamma'' = gamma / r^2 on the K = 1 hyperquadric by RK4 and
        # compare the proper time with the closed form
        K = 1.0
        base = chart_point(K, 0.0, 0.0)
        v = _future_unit_timelike(K, base, 0.0)

        def deriv(state):
            x, dx = state
            return np.array([dx, x])

        state = np.array([base, v])
        h = 1e-3
        for _ in range(1000):
            k1 = deriv(state)
            k2 = deriv(state + 0.5 * h * k1)
            k3 = deriv(state + 0.5 * h * k2)
            k4 = deriv(state + h * k3)
            state = state + (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
        assert embedded_time_separation(K, base, state[0]) == pytest.approx(1.0, abs=1e-9)

    def test_small_K_limit_matches_minkowski(self):
        pts = [((0.0, 0.0), (0.7, 0.2)), ((0.1, -0.3), (0.9, 0.1))]
        for p, q in pts:
            flat = l2k_time_separation(0.0, p, q)
            for K in (1e-6, -1e-6):
                assert l2k_time_separation(K, p, q) == pytest.approx(flat, abs=1e-6)

    def test_chart_bound_raises(self):
        with pytest.raises(UnsupportedRegimeError):
            chart_point(1.0, 0.0, 4.0)
        with pytest.raises(UnsupportedRegimeError):
            chart_point(-1.0, 4.0, 0.0)


class TestRealizeTriangle:
    def test_flat_canonical(self):
        tri = realize_timelike_triangle(0.0, 1.0, 1.0, 2.5)
        assert tri.y == pytest.approx([1.25, 0.75])
        # substitute into the flat formula
        assert l2k_time_separation(0.0, tri.x, tri.y) == pytest.approx(1.0, abs=1e-12)
        assert l2k_time_separation(0.0, tri.y, tri.z) == pytest.approx(1.0, abs=1e-12)
        assert l2k_time_separation(0.0, tri.x, tri.z) == pytest.approx(2.5, abs=1e-12)

    def test_degenerate_a_zero(self):
        tri = realize_timelike_triangle(0.0, 0.0, 0.0, 1.0)
        assert tri.y == pytest.approx([0.0, 0.0])

    def test_collinear_equality_case(self):
        tri = realize_timelike_triangle(0.0, 1.0, 1.0, 2.0)
        assert tri.y == pytest.approx([1.0, 0.0])

    def test_reverse_triangle_violation(self):
        with pytest.raises(ModelConstraintError):
            realize_timelike_triangle(0.0, 1.0, 1.5, 2.0)

    def test_size_restriction(self):
        with pytest.raises(ModelConstraintError):
            realize_timelike_triangle(1.0, 1.0, 1.0, 3.5)

    @pytest.mark.parametrize("K", [0.0, 0.6, -0.6])
    def test_remeasured_sides(self, K):
        a, b, c = 0.5, 0.7, 1.5
        tri = realize_timelike_triangle(K, a, b, c)
        pairs = [(tri.x, tri.y, a), (tri.y, tri.z, b), (tri.x, tri.z, c)]
        for p, q, want in pairs:
            assert l2k_time_separation(K, p, q) == pytest.approx(want, abs=1e-10)


class TestPointOnSide:
    def test_affine_midpoint(self):
        tri = realize_timelike_triangle(0.0, 1.0, 1.0, 2.5)
        assert point_on_side(tri, "xz", 1.25) == pytest.approx([1.25, 0.0])

    def test_s_zero_is_past_vertex(self):
        tri = realize_timelike_triangle(0.0, 1.0, 1.0, 2.5)
        assert point_on_side(tri, "xy", 0.0) == pytest.approx(tri.x)

    def test_xy_interpolation(self):
        tri = realize_timelike_triangle(0.0, 1.0, 1.0, 2.5)
        p = point_on_side(tri, "xy", 0.5)
        assert p == pytest.approx([0.625, 0.375])
        assert l2k_time_separation(0.0, tri.x, p) == pytest.approx(0.5, abs=1e-12)

    def test_out_of_range(self):
        tri = realize_timelike_triangle(0.0, 1.0, 1.0, 2.5)
        with pytest.raises(ParameterError):
            point_on_side(tri, "xy", 1.5)

    @pytest.mark.parametrize("K", [0.0, 0.5, -0.5])
    def test_separation_additive_along_sides(self, K):
        tri = realize_timelike_triangle(K, 0.8, 0.6, 1.6)
        for side, past, fut in (("xz", tri.x, tri.z), ("xy", tri.x, tri.y)):
            length = tri.side_length(side)
            s = 0.37 * length
            mid = point_on_side(tri, side, s)
            tol = 1e-12 if K == 0 else 1e-8
            assert l2k_time_separation(K, past, mid) == pytest.approx(s, abs=tol)
            assert l2k_time_separation(K, mid, fut) == pytest.approx(length - s, abs=tol)

    @given(st.floats(0.0, 1.0), st.floats(0.0, 1.0))
    @settings(max_examples=30, deadline=None)
    def test_flat_reverse_triangle_from_construction(self, fa, fb):
        a, b = 0.2 + fa, 0.2 + fb
        c = a + b + 0.5
        tri = realize_timelike_triangle(0.0, a, b, c)
        # measured sides satisfy the prescribed values
        assert l2k_time_separation(0.0, tri.x, tri.y) == pytest.approx(a, abs=1e-10)
        assert l2k_time_separation(0.0, tri.y, tri.z) == pytest.approx(b, abs=1e-10)
