"""The oracle on input outside the default sampler's reach: needles, far
offsets, extreme scales, and rigid motions.

A far-posed or scaled case is compared with the exact minimum of its own
float vertices (`referee`), so a gap measures the oracle alone.
"""

import itertools
import math
from fractions import Fraction

import pytest

from isokit import (
    OracleResult,
    Point,
    Triangle,
    brute_force_min_isosceles,
    brute_force_min_isosceles_batch,
    canonicalize,
    contains_triangle,
    sample_canonical_triangles,
    signed_area,
    triangle_from_angles,
    verify_triangle,
)
from isokit.oracle import _witness_vertices
from referee import (
    dist,
    exact_min_area_squared,
    longest_side,
    min_triangle_for_shape,
    obtuse_needles,
    rigid_motion,
    triangle,
    wide_probe,
    within,
)

# `isokit verify`'s bound on |gap|, `cli.GAP_TOL`; the largest |gap|
# measured on the inputs below is 9.8e-16, on a sampler row
GAP_TOL = 1e-11
# right triangle with legs 4 and 3 on the axes; its minimum container ABC'
# has area 7.5 and integer vertices, so offsets up to 1e8 stay exact
T345 = ((0.0, 0.0), (4.0, 0.0), (0.0, 3.0))
NEEDLES = [(0.1, 30.0), (0.03, 80.0)]  # (alpha, beta) in degrees
OFFSETS = [1e7, 1e8]
SCALES = [1e-6, 1e12]
SAMPLER_SEED = 1716262142


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


def oracle_within_exact(pts) -> bool:
    t = triangle(pts)
    return within(brute_force_min_isosceles(t).min_area, exact_min_area_squared(canonicalize(t)), GAP_TOL)


@pytest.mark.parametrize("alpha_deg, beta_deg", NEEDLES)
def test_needle(alpha_deg, beta_deg):
    rep = verify_triangle(needle(alpha_deg, beta_deg))
    assert abs(rep.relative_gap) <= GAP_TOL
    assert all(rep.flags[k] for k in ("vertices_on_boundary", "sides_touch", "one_per_arc", "shared_vertex")), rep.flags


@pytest.mark.parametrize("offset", OFFSETS)
def test_345_far_offset(offset):
    assert oracle_within_exact(far_345(offset))


@pytest.mark.parametrize("scale", SCALES)
def test_scale(scale):
    assert oracle_within_exact(scaled(scale))


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


# exact float maps of the plane, each with the power of two it scales areas by
EXACT_MAPS = {
    "quarter-turn": (lambda x, y: (-y, x), 0),
    "reflection": (lambda x, y: (x, -y), 0),
    "swap": (lambda x, y: (y, x), 0),
    "scale-2^40": (lambda x, y: (math.ldexp(x, 40), math.ldexp(y, 40)), 80),
    "scale-2^-30": (lambda x, y: (math.ldexp(x, -30), math.ldexp(y, -30)), -60),
}


@pytest.fixture(scope="module")
def symmetry_inputs():
    cts = sample_canonical_triangles(seed=5, count=200, min_angle=math.radians(0.5), scalene_margin=math.radians(0.01))
    tris = [ct.tri for ct in cts]
    return tris, [r.min_area for r in brute_force_min_isosceles_batch(tris)]


@pytest.mark.parametrize("name", EXACT_MAPS)
def test_area_invariant_under_exact_maps(symmetry_inputs, name):
    # the search builds every direction from the side vectors, which these
    # maps take exactly, so the area must come out bit for bit the same
    f, area_exponent = EXACT_MAPS[name]
    tris, areas = symmetry_inputs
    mapped = [triangle(f(p.x, p.y) for p in t.vertices) for t in tris]
    assert [r.min_area for r in brute_force_min_isosceles_batch(mapped)] == [math.ldexp(a, area_exponent) for a in areas]


def test_area_invariant_under_vertex_order(symmetry_inputs):
    # moved off the origin, where the sampler puts a vertex, so that the
    # centroid's sums depend on the order unless they are exactly rounded
    moved = [triangle((p.x + 0.1, p.y + 0.7) for p in t.vertices) for t in symmetry_inputs[0]]
    areas = [r.min_area for r in brute_force_min_isosceles_batch(moved)]
    for order in itertools.permutations(range(3)):
        reordered = [Triangle(*(t.vertices[i] for i in order)) for t in moved]
        assert [r.min_area for r in brute_force_min_isosceles_batch(reordered)] == areas, order


def witness_batch() -> list[Triangle]:
    """The sampled, needle and far-345 inputs above, plus copies of the
    sampled ones moved 10^(3 + i % 6) longest sides along direction 0.7 i."""
    sampled = [ct.tri for ct in sample_canonical_triangles(seed=SAMPLER_SEED, count=20)]
    far = []
    for i, t in enumerate(sampled):
        d = 10.0 ** (3 + i % 6) * longest_side(t)
        far.append(rigid_motion(t, 0.0, d * math.cos(0.7 * i), d * math.sin(0.7 * i)))
    return [
        *sampled,
        *(needle(*angles).tri for angles in NEEDLES),
        *(triangle(far_345(offset)) for offset in OFFSETS),
        *far,
    ]


def test_witness_matches_min_triangle_for_shape():
    # the batch builds each witness from the support values its own search
    # computed; the supporting-line construction computes them again for
    # the result's shape, so the two triangles may differ by rounding alone
    batch = witness_batch()
    for t, result in zip(batch, brute_force_min_isosceles_batch(batch)):
        again = min_triangle_for_shape(t, (result.tan_half_apex, result.rotation))
        size = longest_side(again)
        for p, q in zip(result.witness.vertices, again.vertices):
            assert dist(p, q) <= 1e-12 * size


def axis_posed(seed: int = 3, count: int = 500) -> list[Triangle]:
    """Sampler rows turned about their vertex A, the origin, so that the
    oracle's axis lands on +x, or a rounding of it just above or below."""
    tris = [ct.tri for ct in sample_canonical_triangles(seed=seed, count=count)]
    return [rigid_motion(t, -result.rotation) for t, result in zip(tris, brute_force_min_isosceles_batch(tris))]


def test_result_reports_its_shape():
    # the apex angle bounds a triangle (tan(delta/2) finite and positive)
    # and the rotation is reduced to one turn, also where the axis sits a
    # rounding below +x
    for result in brute_force_min_isosceles_batch([*witness_batch(), *axis_posed()]):
        assert 0.0 < result.tan_half_apex < math.inf
        assert 0.0 <= result.rotation < 2 * math.pi


def test_rotation_just_below_zero_is_zero():
    # atan2 gives -1e-16, and -1e-16 mod 2 pi rounds up to 2 pi itself
    ct = triangle_from_angles(0.4, 1.1)
    assert ct.tri.A == Point(0.0, 0.0) and ct.tri.B.y == 0.0 and signed_area(ct.tri) > 0.0
    result = OracleResult(ct, 1.0, 1.0, (1.0, -1e-16), (1.0, 1.0, 1.0))
    assert result.rotation == 0.0


def test_area_is_its_witness_area():
    # the reported area is the one the search minimised, and the witness is
    # built from the same t, axis and supports: on the unit copy the two
    # agree, measured exactly on the witness's float vertices
    families = [witness_batch(), [ct.tri for ct in wide_probe()], [ct.tri for ct in obtuse_needles()]]
    for result in brute_force_min_isosceles_batch([t for family in families for t in family]):
        w = _witness_vertices(0.0, 0.0, *result.supports, result.tan_half_apex, *result.axis)
        (x0, y0), (x1, y1), (x2, y2) = ((Fraction(x), Fraction(y)) for x, y in w)
        area = abs((x1 - x0) * (y2 - y0) - (x2 - x0) * (y1 - y0)) / 2
        searched = Fraction(result.min_area) / Fraction(result.input.c) ** 2
        assert abs(area - searched) <= Fraction(1e-14) * searched


def test_witness_holds_input_and_sides_touch():
    # each witness side has every input vertex on its inner side and passes
    # through one of them, up to rounding: the search builds it from the
    # support values of the input itself.  A far pose rounds the witness
    # vertices to a unit in the last place of the offset, so the inner side
    # allows that much beyond the relative 1e-12.
    batch = witness_batch()
    assert len(batch) == 44
    for t, result in zip(batch, brute_force_min_isosceles_batch(batch)):
        w = result.witness.vertices
        size = longest_side(result.witness)
        slack = 1e-12 * size + max(math.ulp(c) for p in t.vertices for c in (p.x, p.y))
        turn = math.copysign(1.0, signed_area(result.witness))
        for i in range(3):
            q0, q1 = w[i - 1], w[i]
            ex, ey = q1.x - q0.x, q1.y - q0.y
            inward = [turn * (ex * (p.y - q0.y) - ey * (p.x - q0.x)) / math.hypot(ex, ey) for p in t.vertices]
            assert min(inward) >= -slack
            assert min(map(abs, inward)) <= 1e-12 * size


@pytest.mark.xfail(strict=True, reason="known defect: far-posed witness vertices are rounded outside the input")
def test_witness_contains_input():
    # 2 of the 20 far-posed inputs have a vertex about 0.1 unit in the last
    # place of the offset outside the float witness, beyond contains_triangle's
    # slack of about 1e-12 of the size
    batch = witness_batch()
    for t, result in zip(batch, brute_force_min_isosceles_batch(batch)):
        assert contains_triangle(result.witness, t)


def test_needle_1e9_gap():
    # near a flush rotation the area has a kink in the axis angle, so an
    # axis rounded as an angle would cost about one ulp over the smallest
    # angle in relative area (3.3e-7 here); the search keeps its axes as
    # unit vectors, and the measured gap is -1.5e-16
    assert abs(verify_triangle(triangle_from_angles(1e-9, 0.3)).relative_gap) <= GAP_TOL
