"""The oracle on input outside the default sampler's reach: needles, far
offsets, extreme scales, and rigid motions.

Each case is compared with the closed form on the same shape posed at the
origin, so a gap measures the oracle alone.
"""

import math

import pytest

from isokit import (
    Point,
    Triangle,
    brute_force_min_isosceles,
    canonicalize,
    minimum_isosceles_container,
    sample_canonical_triangles,
    triangle_from_angles,
    verify_triangle,
)

GAP_TOL = 1e-9
# right triangle with legs 4 and 3 on the axes; its minimum container ABC'
# has area 7.5 and integer vertices, so offsets up to 1e8 stay exact
T345 = ((0.0, 0.0), (4.0, 0.0), (0.0, 3.0))


def closed_form_area(pts) -> float:
    """Closed-form minimum area of the triangle `pts` (posed at the origin)."""
    tri = Triangle(*(Point(x, y) for x, y in pts))
    return minimum_isosceles_container(canonicalize(tri)).min_area


def oracle_gap(pts, reference: float) -> float:
    tri = Triangle(*(Point(x, y) for x, y in pts))
    return (brute_force_min_isosceles(tri).min_area - reference) / reference


@pytest.mark.parametrize("alpha_deg, beta_deg", [(0.1, 30.0), (0.03, 80.0)])
def test_needle(alpha_deg, beta_deg):
    ct = triangle_from_angles(math.radians(alpha_deg), math.radians(beta_deg))
    rep = verify_triangle(ct)
    assert abs(rep.relative_gap) <= GAP_TOL
    assert rep.boundary_invariants_ok


@pytest.mark.parametrize("offset", [1e7, 1e8])
def test_345_far_offset(offset):
    pts = [(x + offset, y + offset) for x, y in T345]
    assert abs(oracle_gap(pts, closed_form_area(T345))) <= GAP_TOL


@pytest.mark.parametrize("scale", [1e-6, 1e12])
def test_scale(scale):
    base = [(p.x, p.y) for p in triangle_from_angles(0.4, 1.1).tri.vertices]
    pts = [(scale * x, scale * y) for x, y in base]
    assert abs(oracle_gap(pts, closed_form_area(pts))) <= GAP_TOL


def test_rotated_reflected_copy():
    base = [(p.x, p.y) for p in triangle_from_angles(0.6, 1.05).tri.vertices]
    c, s = math.cos(2.2), math.sin(2.2)
    moved = [(c * x + s * y + 3.0, s * x - c * y - 1.0) for x, y in base]
    a0 = brute_force_min_isosceles(Triangle(*(Point(x, y) for x, y in base))).min_area
    a1 = brute_force_min_isosceles(Triangle(*(Point(x, y) for x, y in moved))).min_area
    assert a1 == pytest.approx(a0, rel=1e-12)


def test_default_sampler_seed_1716262142():
    # the batch `isokit verify --samples 20 --seed 1716262142` checks
    for ct in sample_canonical_triangles(seed=1716262142, count=20):
        rep = verify_triangle(ct)
        assert abs(rep.relative_gap) <= GAP_TOL
        assert all(rep.flags.values()), rep.flags
