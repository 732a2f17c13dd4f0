import math

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fqst import GeometryError, Point
from certificate_oracle import sq_dist
from certificate_oracle import MassPoint, angle_at, centroid

coords = st.floats(min_value=-100.0, max_value=100.0, allow_nan=False)
masses = st.floats(min_value=0.1, max_value=10.0, allow_nan=False)


@st.composite
def mass_points(draw, min_size=1, max_size=8):
    size = draw(st.integers(min_value=min_size, max_value=max_size))
    return [
        MassPoint(Point(draw(coords), draw(coords)), draw(masses)) for _ in range(size)
    ]


class TestCentroid:
    def test_two_unit_points(self):
        c = centroid([MassPoint(Point(0, 0), 1.0), MassPoint(Point(2, 4), 1.0)])
        assert c == Point(1.0, 2.0)

    def test_single_point(self):
        assert centroid([MassPoint(Point(3, 7), 5.0)]) == Point(3.0, 7.0)

    def test_three_points_weighted(self):
        c = centroid(
            [
                MassPoint(Point(0, 0), 1.0),
                MassPoint(Point(2, 4), 1.0),
                MassPoint(Point(9, 2), 2.0),
            ]
        )
        assert c == Point(5.0, 2.0)

    def test_empty_raises(self):
        with pytest.raises(GeometryError):
            centroid([])

    def test_nonpositive_mass_raises(self):
        with pytest.raises(GeometryError):
            MassPoint(Point(0, 0), 0.0)
        with pytest.raises(GeometryError):
            MassPoint(Point(0, 0), -1.0)

    @given(mass_points(), st.floats(min_value=-math.pi, max_value=math.pi), coords, coords)
    @settings(max_examples=200)
    def test_rigid_motion_equivariance(self, points, theta, tx, ty):
        cos_t, sin_t = math.cos(theta), math.sin(theta)

        def move(p: Point) -> Point:
            return Point(
                cos_t * p.x - sin_t * p.y + tx,
                sin_t * p.x + cos_t * p.y + ty,
            )

        before = move(centroid(points))
        after = centroid([MassPoint(move(mp.position), mp.mass) for mp in points])
        assert abs(before.x - after.x) <= 1e-9
        assert abs(before.y - after.y) <= 1e-9

    @given(mass_points())
    def test_equal_masses_match_arithmetic_mean(self, points):
        equalised = [MassPoint(mp.position, 2.5) for mp in points]
        c = centroid(equalised)
        mean_x = sum(mp.position.x for mp in points) / len(points)
        mean_y = sum(mp.position.y for mp in points) / len(points)
        assert abs(c.x - mean_x) <= 1e-9
        assert abs(c.y - mean_y) <= 1e-9

    @given(mass_points(min_size=2), st.data())
    @settings(max_examples=200)
    def test_mass_merging_associativity(self, points, data):
        cut = data.draw(st.integers(min_value=1, max_value=len(points) - 1))
        first, second = points[:cut], points[cut:]
        mass_first = sum(mp.mass for mp in first)
        mass_second = sum(mp.mass for mp in second)
        merged = centroid(
            [
                MassPoint(centroid(first), mass_first),
                MassPoint(centroid(second), mass_second),
            ]
        )
        direct = centroid(points)
        scale = 1.0 + max(abs(direct.x), abs(direct.y))
        assert abs(merged.x - direct.x) <= 1e-12 * scale
        assert abs(merged.y - direct.y) <= 1e-12 * scale


class TestSqDist:
    def test_worked_edge(self):
        assert sq_dist(Point(5, 2), Point(9, 2)) == 16.0

    def test_coincident(self):
        assert sq_dist(Point(3, 3), Point(3, 3)) == 0.0

    def test_three_four_five(self):
        assert sq_dist(Point(0, 0), Point(3, 4)) == 25.0

    @given(coords, coords, coords, coords)
    def test_symmetry(self, ax, ay, bx, by):
        a, b = Point(ax, ay), Point(bx, by)
        assert sq_dist(a, b) == sq_dist(b, a)

    @given(coords, coords, coords, coords, st.floats(min_value=-4.0, max_value=4.0))
    def test_quadratic_scaling(self, ax, ay, bx, by, lam):
        a, b = Point(ax, ay), Point(bx, by)
        scaled = sq_dist(Point(ax * lam, ay * lam), Point(bx * lam, by * lam))
        expected = lam * lam * sq_dist(a, b)
        assert abs(scaled - expected) <= 1e-9 * (1.0 + abs(expected))


class TestAngleAt:
    def test_right_angle(self):
        assert angle_at(Point(0, 0), Point(1, 0), Point(0, 1)) == pytest.approx(
            math.pi / 2, abs=1e-15
        )

    def test_same_ray(self):
        assert angle_at(Point(0, 0), Point(1, 0), Point(2, 0)) == 0.0

    def test_near_pi_matches_high_precision_arccos(self):
        vertex, a, b = Point(0, 0), Point(1, 0), Point(-1, 1e-12)
        got = angle_at(vertex, a, b)
        with mpmath.workdps(60):
            ux, uy = mpmath.mpf(a.x), mpmath.mpf(a.y)
            vx, vy = mpmath.mpf(b.x), mpmath.mpf(b.y)
            dot = ux * vx + uy * vy
            norm = mpmath.sqrt((ux**2 + uy**2) * (vx**2 + vy**2))
            expected = float(mpmath.acos(dot / norm))
        assert abs(got - math.pi) <= 1e-6
        assert abs(got - expected) <= 1e-9

    def test_degenerate_raises(self):
        with pytest.raises(GeometryError):
            angle_at(Point(1, 1), Point(1, 1), Point(2, 2))
        with pytest.raises(GeometryError):
            angle_at(Point(1, 1), Point(2, 2), Point(1, 1))

    @given(coords, coords, coords, coords, coords, coords)
    def test_range_and_symmetry(self, vx, vy, ax, ay, bx, by):
        vertex, a, b = Point(vx, vy), Point(ax, ay), Point(bx, by)
        if (a.x == vertex.x and a.y == vertex.y) or (b.x == vertex.x and b.y == vertex.y):
            return
        angle = angle_at(vertex, a, b)
        assert 0.0 <= angle <= math.pi
        assert angle == angle_at(vertex, b, a)
