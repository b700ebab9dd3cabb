import itertools
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from isokit import (
    DegenerateTriangle,
    NonFinite,
    Point,
    ShapeClass,
    Triangle,
    area,
    brute_force_min_isosceles,
    can_cover,
    canonicalize,
    contains_point,
    contains_triangle,
    signed_area,
    triangle_from_sides,
    verify_triangle,
)
from isokit.geo import _angle_between
from isokit.oracle import _corner


def tri(ax, ay, bx, by, cx, cy):
    return Triangle(Point(ax, ay), Point(bx, by), Point(cx, cy))


# reasonably conditioned coordinates for property tests
coord = st.floats(min_value=-100.0, max_value=100.0, allow_nan=False, allow_infinity=False)


def well_conditioned(t: Triangle) -> bool:
    # keep needle triangles out: double precision cannot honor the 1e-9
    # relative invariants once the area-to-extent conditioning passes ~1e6
    xs = [p.x for p in t.vertices]
    ys = [p.y for p in t.vertices]
    diag2 = (max(xs) - min(xs)) ** 2 + (max(ys) - min(ys)) ** 2
    return diag2 > 1e-12 and area(t) > 1e-3 * diag2


# 1e8 sides of 5 * 2**-20 from the origin, in whole grid units
_OFFSET = (round(5e8 * math.cos(1.0)), round(5e8 * math.sin(1.0)))

triangles = st.builds(
    tri, coord, coord, coord, coord, coord, coord
).filter(well_conditioned)


class TestPoint:
    def test_rejects_nan(self):
        with pytest.raises(NonFinite):
            Point(float("nan"), 0.0)

    def test_rejects_inf(self):
        with pytest.raises(NonFinite):
            Point(0.0, float("inf"))


class TestArea:
    def test_345(self):
        assert area(tri(0, 0, 4, 0, 4, 3)) == pytest.approx(6.0, rel=1e-15)

    def test_right_unit(self):
        assert area(tri(0, 0, 1, 0, 0, 1)) == pytest.approx(0.5, rel=1e-15)

    def test_collinear_is_zero(self):
        assert area(tri(0, 0, 2, 0, 1, 0)) == 0.0

    @settings(max_examples=50, deadline=None)
    @given(t=triangles, angle=st.floats(0, 2 * math.pi), dx=coord, dy=coord)
    def test_rigid_motion_invariance(self, t, angle, dx, dy):
        ca, sa = math.cos(angle), math.sin(angle)

        def move(p):
            return Point(p.x * ca - p.y * sa + dx, p.x * sa + p.y * ca + dy)

        moved = Triangle(*(move(p) for p in t.vertices))
        assert area(moved) == pytest.approx(area(t), rel=1e-9, abs=1e-12)


class TestCanonicalize:
    def test_345_labels(self):
        # A sits opposite the shortest side: the vertex (0,0)
        ct = canonicalize(tri(0, 0, 4, 0, 4, 3))
        assert (ct.a, ct.b, ct.c) == pytest.approx((3.0, 4.0, 5.0), rel=1e-12)
        assert ct.tri.A == Point(0.0, 0.0)
        assert ct.tri.B == Point(4.0, 3.0)
        assert ct.tri.C == Point(4.0, 0.0)
        assert ct.shape_class is ShapeClass.SCALENE
        assert ct.gamma == pytest.approx(math.pi / 2, abs=1e-12)

    def test_relabeling_is_permutation(self):
        t = tri(0, 0, 4, 0, 4, 3)
        ct = canonicalize(t)
        assert sorted(ct.tri.vertices, key=lambda p: (p.x, p.y)) == sorted(
            t.vertices, key=lambda p: (p.x, p.y)
        )

    def test_equilateral(self):
        ct = canonicalize(tri(0, 0, 1, 0, 0.5, math.sqrt(3) / 2))
        assert ct.shape_class is ShapeClass.EQUILATERAL
        for s in (ct.a, ct.b, ct.c):
            assert s == pytest.approx(1.0, rel=1e-12)
        for ang in (ct.alpha, ct.beta, ct.gamma):
            assert ang == pytest.approx(math.pi / 3, abs=1e-12)

    def test_collinear_raises(self):
        with pytest.raises(DegenerateTriangle):
            canonicalize(tri(0, 0, 1, 0, 2, 0))

    @pytest.mark.parametrize("scale", [1.0, 1e6])
    @pytest.mark.parametrize("pair", ["ab", "bc"])
    @pytest.mark.parametrize("gap, shape", [(0.5e-9, ShapeClass.ISOSCELES), (2e-9, ShapeClass.SCALENE)])
    def test_shape_class_at_the_length_tolerance(self, scale, pair, gap, shape):
        # eps_len = 1e-9 is relative to the longest side c: two sides that
        # differ by half of eps_len * c tie, by twice of it they do not
        a, b, c = (0.8 - gap, 0.8, 1.0) if pair == "ab" else (0.8, 1.0 - gap, 1.0)
        ct = triangle_from_sides(a * scale, b * scale, c * scale)
        near = ct.b - ct.a if pair == "ab" else ct.c - ct.b
        assert near / ct.c == pytest.approx(gap, abs=1e-13)
        assert ct.shape_class is shape

    @pytest.mark.parametrize(
        "labeled",
        [
            # b = c: the tied vertices share y, so x orders them
            ((1, 5), (0, 0), (2, 0)),
            # b = c: x and y order the tied vertices oppositely
            ((0, 0), (3, 4), (4, 3)),
            # a = b, likewise
            ((3, 4), (4, -3), (0, 0)),
            # the second triangle on a 2**-20 grid, 1e8 sides from the origin:
            # the offset adds exactly, so the tie stays exact
            tuple(((_OFFSET[0] + x) * 2.0**-20, (_OFFSET[1] + y) * 2.0**-20) for x, y in ((0, 0), (3, 4), (4, 3))),
        ],
    )
    def test_exact_length_ties_break_on_x_then_y(self, labeled):
        # `labeled` lists A, B, C in the (length, x, y) order
        want = tuple(Point(float(x), float(y)) for x, y in labeled)
        for order in itertools.permutations(want):
            ct = canonicalize(Triangle(*order))
            assert ct.a == ct.b or ct.b == ct.c  # bitwise, so the tie-break decides
            assert (ct.tri.A, ct.tri.B, ct.tri.C) == want, order

    @settings(max_examples=100, deadline=None)
    @given(t=triangles)
    def test_invariants(self, t):
        ct = canonicalize(t)
        assert ct.a <= ct.b <= ct.c
        # rounding may wobble angle order by ~1 ulp when sides nearly tie
        assert ct.alpha <= ct.beta + 1e-12 and ct.beta <= ct.gamma + 1e-12
        assert ct.alpha + ct.beta + ct.gamma == pytest.approx(math.pi, abs=1e-9)
        # law of sines
        k = ct.a / math.sin(ct.alpha)
        assert ct.b / math.sin(ct.beta) == pytest.approx(k, rel=1e-9)
        assert ct.c / math.sin(ct.gamma) == pytest.approx(k, rel=1e-9)

    @settings(max_examples=100, deadline=None)
    @given(t=triangles)
    def test_idempotent(self, t):
        once = canonicalize(t)
        twice = canonicalize(once.tri)
        assert twice.tri == once.tri
        assert (twice.a, twice.b, twice.c) == (once.a, once.b, once.c)
        assert (twice.alpha, twice.beta, twice.gamma) == (once.alpha, once.beta, once.gamma)
        assert twice.shape_class is once.shape_class


class TestContainsPoint:
    t = tri(0, 0, 1, 0, 0, 1)

    def test_interior(self):
        assert contains_point(self.t, Point(0.25, 0.25))

    def test_boundary(self):
        assert contains_point(self.t, Point(0.5, 0.5))

    def test_outside(self):
        assert not contains_point(self.t, Point(1.0, 1.0))

    def test_vertices_count(self):
        for v in self.t.vertices:
            assert contains_point(self.t, v)

    def test_orientation_independent(self):
        flipped = Triangle(self.t.A, self.t.C, self.t.B)
        assert contains_point(flipped, Point(0.25, 0.25))
        assert not contains_point(flipped, Point(1.0, 1.0))

    def test_far_point_is_outside(self):
        # the degeneracy threshold and the slack come from the triangle
        # alone; with p in their bounding box, this proper triangle counted
        # as degenerate
        assert not contains_point(self.t, Point(1e6, 1e6))
        assert not contains_point(self.t, Point(-1e6, 0.5))


class TestContainsTriangle:
    def test_small_inner(self):
        assert contains_triangle(tri(0, 0, 10, 0, 0, 10), tri(1, 1, 2, 1, 1, 2))

    def test_reflexive(self):
        t = tri(0, 0, 10, 0, 0, 10)
        assert contains_triangle(t, t)

    def test_larger_inner(self):
        assert not contains_triangle(tri(0, 0, 1, 0, 0, 1), tri(0, 0, 2, 0, 0, 2))

    @settings(max_examples=50, deadline=None)
    @given(t=triangles)
    def test_mutual_containment_implies_equal_area(self, t):
        # the only mutual containment for triangles is vertex-set equality
        perm = Triangle(t.B, t.C, t.A)
        assert contains_triangle(t, perm) and contains_triangle(perm, t)
        assert area(perm) == pytest.approx(area(t), rel=1e-12)


def test_signed_area_orientation():
    assert signed_area(tri(0, 0, 1, 0, 0, 1)) > 0
    assert signed_area(tri(0, 0, 0, 1, 1, 0)) < 0


# every function that needs a proper triangle uses one check
_ENTRY_POINTS = {
    "canonicalize": canonicalize,
    "brute_force_min_isosceles": brute_force_min_isosceles,
    "can_cover": lambda t: can_cover(t, t),
    "contains_point": lambda t: contains_point(t, t.A),
}


@pytest.mark.parametrize("entry", list(_ENTRY_POINTS))
def test_one_degeneracy_threshold(entry):
    # area h/2 against the threshold 1e-12 * (1 + h^2): the boundary is h = 2e-12
    below, above = (tri(0.0, 0.0, 1.0, 0.0, 0.5, 2e-12 * f) for f in (0.999, 1.001))
    with pytest.raises(DegenerateTriangle) as exc:
        _ENTRY_POINTS[entry](below)
    assert str(exc.value) == f"triangle area {area(below)} is below threshold"
    _ENTRY_POINTS[entry](above)


@pytest.mark.parametrize("entry", list(_ENTRY_POINTS))
@pytest.mark.parametrize(
    "extent",
    # the threshold overflows to inf; its squares overflow; the area overflows too
    [1e154, 1e200, 1e300],
)
def test_overflowing_triangle_is_non_finite(entry, extent):
    with pytest.raises(NonFinite):
        _ENTRY_POINTS[entry](tri(0.0, 0.0, extent, 0.0, 0.0, extent))
    # the same shape a little smaller is accepted
    _ENTRY_POINTS[entry](tri(0.0, 0.0, 1e153, 0.0, 0.0, 1e153))


def small_triangle(s):
    return tri(0.0, 0.0, 1.5 * s, 0.0, s, 0.8 * s)


@pytest.mark.parametrize("entry", list(_ENTRY_POINTS))
@pytest.mark.parametrize("s", [1e-154, 1e-155, 1e-160])
def test_subnormal_area_is_degenerate(entry, s):
    # the area 0.6 s^2 is a subnormal float, and the threshold underflows
    # to 0 or near it; the same shape a little larger is accepted
    with pytest.raises(DegenerateTriangle):
        _ENTRY_POINTS[entry](small_triangle(s))
    _ENTRY_POINTS[entry](small_triangle(1e-153))


@pytest.mark.parametrize("s", [1e-150, 1e-153])
def test_smallest_normal_areas_verify(s):
    report = verify_triangle(canonicalize(small_triangle(s)))
    assert abs(report.relative_gap) <= 1e-15
    assert all(report.flags.values())


def test_needle_corner_angle():
    # acos of the rays' dot product, 1 - 5e-19, rounds to acos(1) = 0
    theta = 1e-9
    rays = [(1.0, 0.0), (math.cos(theta), math.sin(theta))]
    assert _angle_between(*rays[0], *rays[1]) == pytest.approx(theta, rel=1e-15, abs=0.0)
    _, angle = _corner([(0.0, 0.0), *rays], 0)
    assert angle == pytest.approx(theta, rel=1e-15, abs=0.0)
