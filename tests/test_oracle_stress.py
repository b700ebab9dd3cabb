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
    brute_force_min_isosceles_batch,
    canonicalize,
    min_triangle_for_shape,
    minimum_isosceles_container,
    sample_canonical_triangles,
    triangle_from_angles,
    verify_triangle,
)

GAP_TOL = 1e-9
# right triangle with legs 4 and 3 on the axes; its minimum container ABC'
# has area 7.5 and integer vertices, so offsets up to 1e8 stay exact
T345 = ((0.0, 0.0), (4.0, 0.0), (0.0, 3.0))
NEEDLES = [(0.1, 30.0), (0.03, 80.0)]  # (alpha, beta) in degrees
OFFSETS = [1e7, 1e8]
SCALES = [1e-6, 1e12]
SAMPLER_SEED = 1716262142


def triangle(pts) -> Triangle:
    return Triangle(*(Point(x, y) for x, y in pts))


def needle(alpha_deg: float, beta_deg: float):
    return triangle_from_angles(math.radians(alpha_deg), math.radians(beta_deg))


def far_345(offset: float) -> list[tuple[float, float]]:
    return [(x + offset, y + offset) for x, y in T345]


def scaled(scale: float) -> list[tuple[float, float]]:
    base = [(p.x, p.y) for p in triangle_from_angles(0.4, 1.1).tri.vertices]
    return [(scale * x, scale * y) for x, y in base]


def rigid_pair() -> tuple[Triangle, Triangle]:
    """A triangle and a rotated, reflected and moved copy of it."""
    base = [(p.x, p.y) for p in triangle_from_angles(0.6, 1.05).tri.vertices]
    c, s = math.cos(2.2), math.sin(2.2)
    moved = [(c * x + s * y + 3.0, s * x - c * y - 1.0) for x, y in base]
    return triangle(base), triangle(moved)


def closed_form_area(pts) -> float:
    """Closed-form minimum area of the triangle `pts` (posed at the origin)."""
    return minimum_isosceles_container(canonicalize(triangle(pts))).min_area


def oracle_gap(pts, reference: float) -> float:
    return (brute_force_min_isosceles(triangle(pts)).min_area - reference) / reference


@pytest.mark.parametrize("alpha_deg, beta_deg", NEEDLES)
def test_needle(alpha_deg, beta_deg):
    rep = verify_triangle(needle(alpha_deg, beta_deg))
    assert abs(rep.relative_gap) <= GAP_TOL
    assert rep.boundary_invariants_ok


@pytest.mark.parametrize("offset", OFFSETS)
def test_345_far_offset(offset):
    assert abs(oracle_gap(far_345(offset), closed_form_area(T345))) <= GAP_TOL


@pytest.mark.parametrize("scale", SCALES)
def test_scale(scale):
    pts = scaled(scale)
    assert abs(oracle_gap(pts, closed_form_area(pts))) <= GAP_TOL


def test_rotated_reflected_copy():
    a0, a1 = (brute_force_min_isosceles(t).min_area for t in rigid_pair())
    assert a1 == pytest.approx(a0, rel=1e-12)


def test_default_sampler_seed_1716262142():
    # the batch `isokit verify --samples 20 --seed 1716262142` checks
    for ct in sample_canonical_triangles(seed=SAMPLER_SEED, count=20):
        rep = verify_triangle(ct)
        assert abs(rep.relative_gap) <= GAP_TOL
        assert all(rep.flags.values()), rep.flags


def test_batch_results_match_single_searches():
    # every input above in one batch: each result must equal the same
    # triangle searched alone, and the batch searched in reverse order; a
    # normalisation or an argmin shared across the batch would break both
    batch = [
        *(needle(*angles).tri for angles in NEEDLES),
        *(triangle(far_345(offset)) for offset in OFFSETS),
        *(triangle(scaled(scale)) for scale in SCALES),
        *rigid_pair(),
        *(ct.tri for ct in sample_canonical_triangles(seed=SAMPLER_SEED, count=20)),
    ]
    together = brute_force_min_isosceles_batch(batch)
    assert len(together) == len(batch) == 28
    for t, result in zip(batch, together):
        assert result == brute_force_min_isosceles(t)
    assert brute_force_min_isosceles_batch(batch[::-1])[::-1] == together


def far_posed(tri: Triangle, factor: float, direction: float) -> Triangle:
    """`tri` moved by `factor` times its longest side along `direction`."""
    v = tri.vertices
    d = factor * max(math.hypot(v[i].x - v[i - 1].x, v[i].y - v[i - 1].y) for i in range(3))
    return triangle([(p.x + d * math.cos(direction), p.y + d * math.sin(direction)) for p in v])


def test_witness_matches_min_triangle_for_shape():
    # the batch builds each witness from the support values its own search
    # computed; min_triangle_for_shape computes them again for the result's
    # shape, so the two triangles may differ by rounding alone
    sampled = [ct.tri for ct in sample_canonical_triangles(seed=SAMPLER_SEED, count=20)]
    batch = [
        *sampled,
        *(needle(*angles).tri for angles in NEEDLES),
        *(triangle(far_345(offset)) for offset in OFFSETS),
        *(far_posed(t, 10.0 ** (3 + i % 6), 0.7 * i) for i, t in enumerate(sampled)),
    ]
    for t, result in zip(batch, brute_force_min_isosceles_batch(batch)):
        again = min_triangle_for_shape(t, result.params)
        w = again.vertices
        size = max(math.hypot(w[i].x - w[i - 1].x, w[i].y - w[i - 1].y) for i in range(3))
        for p, q in zip(result.witness.vertices, w):
            assert math.hypot(p.x - q.x, p.y - q.y) <= 1e-12 * size


@pytest.mark.xfail(strict=True, reason="known defect: the needle gap grows like 1e-16 over the smallest angle")
def test_needle_1e9_gap():
    # relative_gap is 3.3e-7 here; the cause is not yet established
    assert abs(verify_triangle(triangle_from_angles(1e-9, 0.3)).relative_gap) <= GAP_TOL
