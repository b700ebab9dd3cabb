import math
from fractions import Fraction

import pytest

from isokit import (
    BracketFailure,
    GeometryError,
    InvalidRegime,
    InvalidSides,
    Kind,
    NotScalene,
    SELF_CONTAINER,
    ShapeClass,
    all_special_containers,
    alpha_star,
    alpha_star_equation,
    brute_force_min_isosceles,
    brute_force_min_isosceles_batch,
    canonicalize,
    eq1_residual,
    first_kind,
    first_kind_ratio,
    minimum_isosceles_container,
    ratio_crossing,
    sample_canonical_triangles,
    t_star,
    triangle_at_crossing,
    triangle_from_angles,
    triangle_from_sides,
    verify_triangles,
    Point,
    Triangle,
)
from isokit.minimize import _bisect

SQRT2 = math.sqrt(2.0)
PHI = 0.5 * (1.0 + math.sqrt(5.0))

# root of sin(a)sin(2a) - sin^2(3a) on [36, 45] deg, frozen from a 40-digit
# independent computation (mpmath findroot)
ALPHA_STAR_DEG = 41.83161869265986


@pytest.fixture(scope="module")
def batch():
    return sample_canonical_triangles(seed=11, count=500)


@pytest.fixture(scope="module")
def big_batch():
    return sample_canonical_triangles(seed=13, count=10_000)


class TestMinimumContainer:
    def test_345(self):
        res = minimum_isosceles_container(triangle_from_sides(3, 4, 5))
        assert len(res.minimizers) == 1
        assert res.minimizers[0].label == "ABC'"
        assert res.min_ratio == pytest.approx(1.25, rel=1e-12)
        assert res.min_area == pytest.approx(7.5, rel=1e-12)
        areas = sorted(c.area for c in res.candidates)
        assert areas == pytest.approx([7.5, 7.68, 8.0], rel=1e-12)

    def test_equilateral_self(self):
        res = minimum_isosceles_container(triangle_from_sides(1, 1, 1))
        assert res.is_self
        assert res.minimizers == (SELF_CONTAINER,)
        assert res.min_ratio == 1.0
        assert len(res.minimizers) == 1
        assert res.candidates == ()

    def test_isosceles_self(self):
        res = minimum_isosceles_container(triangle_from_sides(1, 1, math.sqrt(2)))
        assert res.is_self
        assert res.min_ratio == 1.0

    def test_candidate_variants(self):
        res = minimum_isosceles_container(triangle_from_sides(4, 5, 6))
        assert [c.label for c in res.candidates] == ["AB'C", "ABC'", "AB1C"]

    def test_candidates_suffice_batch(self, batch):
        # the minimum over all special containers is already attained among
        # the three candidates
        for ct in batch:
            res = minimum_isosceles_container(ct)
            best_all = min(sc.area for sc in all_special_containers(ct))
            assert res.min_area <= best_all * (1 + 1e-9)

    def test_minimizer_kind_restrictions(self, big_batch):
        # no third-kind minimizer, and no second-kind minimizer other than AB1C
        for ct in big_batch:
            res = minimum_isosceles_container(ct)
            ranked = sorted(all_special_containers(ct), key=lambda sc: sc.area)
            best = ranked[0]
            assert best.kind is not Kind.THIRD
            if best.kind is Kind.SECOND:
                assert best.label == "AB1C"
            assert best.area == pytest.approx(res.min_area, rel=1e-9)

    def test_obtuse_abprime_dominated(self, batch):
        # for non-acute input AB'C never wins against AB1C
        for ct in batch:
            if ct.gamma <= math.pi / 2:
                continue
            by_label = {c.label: c for c in minimum_isosceles_container(ct).candidates}
            assert by_label["AB'C"].area > by_label["AB1C"].area

    def test_sqrt2_bound_batch(self, batch):
        for ct in batch:
            assert minimum_isosceles_container(ct).min_ratio < SQRT2 - 1e-9

    def test_scaling_invariance(self, batch):
        for ct in batch[:50]:
            lam = 3.7
            scaled = canonicalize(
                Triangle(*(Point(p.x * lam, p.y * lam) for p in ct.tri.vertices))
            )
            res0 = minimum_isosceles_container(ct)
            res1 = minimum_isosceles_container(scaled)
            assert res1.min_area == pytest.approx(lam**2 * res0.min_area, rel=1e-9)
            assert [m.label for m in res1.minimizers] == [m.label for m in res0.minimizers]


class TestAlphaStar:
    def test_bracket_sign_change(self):
        assert alpha_star_equation(math.radians(36.0)) < 0
        assert alpha_star_equation(math.radians(45.0)) > 0

    def test_root_value(self):
        root = alpha_star()
        assert math.degrees(root) == pytest.approx(ALPHA_STAR_DEG, abs=1e-10)

    def test_residual_at_root(self):
        assert abs(alpha_star_equation(alpha_star())) < 1e-12

    @pytest.mark.parametrize("root", [0.0, 1.0])
    def test_endpoint_root_is_returned(self, root):
        # an exact root at either end is returned at once, without bisecting
        seen = []

        def f(x):
            seen.append(x)
            return x - root

        assert _bisect(f, 0.0, 1.0) == root
        assert seen == [0.0, 1.0]

    def test_bracket_failure_guard(self):
        with pytest.raises(BracketFailure):
            _bisect(lambda x: 1.0 + x * x, 0.0, 1.0)


class TestTStar:
    def test_angles(self):
        ts = t_star()
        root = alpha_star()
        assert ts.alpha == pytest.approx(root, abs=1e-12)
        assert ts.beta == pytest.approx(math.pi - 3 * root, abs=1e-12)
        assert ts.gamma == pytest.approx(2 * root, abs=1e-12)
        assert ts.alpha + ts.beta + ts.gamma == pytest.approx(math.pi, abs=1e-12)

    def test_sides_law_of_sines(self):
        ts = t_star()
        root = alpha_star()
        want = (math.sin(root), math.sin(math.pi - 3 * root), math.sin(2 * root))
        assert (ts.a, ts.b, ts.c) == pytest.approx(want, rel=1e-12)
        # quoted to about 4-5 significant decimals
        assert (ts.a, ts.b, ts.c) == pytest.approx((0.66702, 0.81423, 0.99389), abs=2e-4)

    def test_b2_equals_ac(self):
        ts = t_star()
        assert ts.b**2 == pytest.approx(ts.a * ts.c, rel=1e-9)

    def test_three_minimizers(self):
        res = minimum_isosceles_container(t_star())
        assert len(res.minimizers) == 3
        areas = [c.area for c in res.candidates]
        for x in areas:
            for y in areas:
                assert abs(x - y) <= 1e-9 * max(x, y)


class TestEq1Residual:
    def test_t_star_zero(self):
        assert abs(eq1_residual(t_star())) < 1e-9

    def test_345_nonzero(self):
        # areas 7.5 (ABC') vs 7.68 (AB1C) are apart, so the residual is not 0
        r = eq1_residual(triangle_from_sides(3, 4, 5))
        assert r == pytest.approx(-0.12, abs=1e-12)

    def test_zero_residual_implies_equal_areas(self):
        # crossing triangles are exactly the residual-zero family
        for beta_deg in (10.0, 20.0, 30.0, 40.0):
            ct = triangle_at_crossing(math.radians(beta_deg))
            assert abs(eq1_residual(ct)) < 1e-12
            by_label = {c.label: c for c in minimum_isosceles_container(ct).candidates}
            assert by_label["ABC'"].area == pytest.approx(by_label["AB1C"].area, rel=1e-9)

    def test_not_scalene(self):
        with pytest.raises(NotScalene):
            eq1_residual(triangle_from_sides(1, 1, 1))


class TestRatioCurves:
    def test_crossing_consistency(self):
        for beta_deg in (1.0, 5.0, 20.0, 40.0):
            beta = math.radians(beta_deg)
            z = ratio_crossing(beta)
            assert 0 < z < beta
            f_z = math.sin(z + beta) / math.sin(beta)
            g_z = 1.0 / (0.5 + math.tan(z) / (2.0 * math.tan(beta)))
            assert f_z == pytest.approx(g_z, abs=1e-9)
            assert f_z == pytest.approx(math.sqrt(2.0 * math.cos(z)), rel=1e-9)

    def test_monotone_curves(self):
        # the curves are the ratios of the ABC' and AB1C containers: at fixed
        # beta, ABC' grows and AB1C shrinks with alpha, and they swap order
        # at the crossing
        beta = math.radians(10.0)
        z = ratio_crossing(beta)
        fs, gs = [], []
        for i in range(1, 64):
            alpha = beta * i / 64.0
            ct = triangle_from_angles(alpha, beta)
            by_label = {c.label: c.ratio for c in minimum_isosceles_container(ct).candidates}
            fs.append(by_label["ABC'"])
            gs.append(by_label["AB1C"])
            assert (by_label["ABC'"] < by_label["AB1C"]) == (alpha < z)
        assert all(x < y for x, y in zip(fs, fs[1:]))
        assert all(x > y for x, y in zip(gs, gs[1:]))

    def test_beta_one_degree_near_sqrt2(self):
        z = ratio_crossing(math.radians(1.0))
        f_z = math.sin(z + math.radians(1.0)) / math.sin(math.radians(1.0))
        assert abs(f_z - SQRT2) < 0.01

    def test_invalid_regime(self):
        with pytest.raises(InvalidRegime):
            ratio_crossing(math.radians(45.0))
        with pytest.raises(InvalidRegime):
            ratio_crossing(0.0)

    def test_crossing_triangle_min_ratio(self):
        # the minimum ratio of the crossing triangle is the crossing value,
        # approaching sqrt(2) from below as beta -> 0
        prev = 0.0
        for beta_deg in (8.0, 4.0, 2.0, 1.0, 0.5, 0.25):
            ct = triangle_at_crossing(math.radians(beta_deg))
            ratio = minimum_isosceles_container(ct).min_ratio
            assert prev < ratio < SQRT2 - 1e-9
            prev = ratio
        assert prev > 1.41


class TestFirstKindRatio:
    def test_on_parabola(self):
        assert first_kind_ratio(1.2, 1.44) == pytest.approx(1.2, rel=1e-12)

    def test_near_phi(self):
        r = first_kind_ratio(1.6180, 2.6179)
        assert r == pytest.approx(1.6180, abs=1e-3)
        assert r < PHI

    def test_piecewise_branch(self):
        assert first_kind_ratio(1.5, 2.0) == pytest.approx(4.0 / 3.0, rel=1e-12)

    def test_matches_first_kind_constructions(self):
        for b, c in ((1.5, 2.0), (1.2, 1.9), (1.05, 1.6), (1.31, 1.7161)):
            ct = triangle_from_sides(1.0, b, c)
            best = min(sc.ratio for sc in first_kind(ct))
            assert first_kind_ratio(b, c) == pytest.approx(best, rel=1e-9)

    def test_invalid_sides(self):
        with pytest.raises(InvalidSides):
            first_kind_ratio(0.9, 1.5)
        with pytest.raises(InvalidSides):
            first_kind_ratio(1.5, 1.2)
        with pytest.raises(InvalidSides):
            first_kind_ratio(1.5, 2.6)

    def test_below_phi_everywhere(self):
        import numpy as np

        rng = np.random.default_rng(3)
        for _ in range(2000):
            b = 1.0 + 1.4 * rng.random()
            c = b + (min(b + 1.0, 2.0 + 0.0) - b) * rng.random()  # c in (b, b+1)
            c = b + (1.0 - 1e-9) * (c - b) + 1e-12
            if not 1.0 < b < c < b + 1.0:
                continue
            assert first_kind_ratio(b, c) < PHI

    def test_supremum_approached_on_parabola(self):
        # r(b, b^2) = b climbs beyond 1.61 as b -> phi
        vals = [first_kind_ratio(b, b * b) for b in (1.55, 1.60, 1.615, PHI - 1e-4)]
        assert all(x < y for x, y in zip(vals, vals[1:]))
        assert vals[-1] > 1.61
        assert all(v < PHI for v in vals)


def exact_min_ratio_squared(ct) -> tuple[Fraction, str]:
    """The squared minimum container ratio of `ct` and the label of the
    container that attains it, in exact rational arithmetic on the float
    vertices.  With a <= b <= c the candidate ratios are b/a (AB'C), c/b
    (ABC') and (b^2 + c^2 - a^2)/c^2 (AB1C); the squared sides are exact
    rationals in the coordinates, so every comparison is exact."""
    pts = [(Fraction(p.x), Fraction(p.y)) for p in ct.tri.vertices]
    a2, b2, c2 = sorted((x1 - x0) ** 2 + (y1 - y0) ** 2 for (x0, y0), (x1, y1) in zip(pts, pts[1:] + pts[:1]))
    candidates = {"AB'C": b2 / a2, "ABC'": c2 / b2, "AB1C": ((b2 + c2 - a2) / c2) ** 2}
    label = min(candidates, key=candidates.get)
    return candidates[label], label


def exact_min_area_squared(ct) -> Fraction:
    """The squared minimum container area of `ct`, exactly: the squared
    minimum ratio times the squared shoelace area of the float vertices."""
    (x0, y0), (x1, y1), (x2, y2) = ((Fraction(p.x), Fraction(p.y)) for p in ct.tri.vertices)
    twice_area = (x1 - x0) * (y2 - y0) - (x2 - x0) * (y1 - y0)
    return exact_min_ratio_squared(ct)[0] * twice_area**2 / 4


EXACT_REFEREE_INPUTS = pytest.mark.parametrize(
    "cts",
    [
        lambda: sample_canonical_triangles(seed=42, count=2000),
        lambda: sample_canonical_triangles(
            seed=7, count=1000, min_angle=math.radians(0.01), scalene_margin=math.radians(1e-6)
        ),
        lambda: [triangle_from_angles(1e-9, 0.3), triangle_from_angles(1e-6, 2e-4)],
    ],
    ids=["default-seed-42", "fine-margins-seed-7", "needles"],
)


def rotated_needles(seed: int = 2001, count: int = 200) -> list:
    """Scalene needles of circumdiameter 1: smallest angle log-uniform in
    [1e-9, 1e-3], the middle one uniform in [0.01, 0.5] (so the two long
    sides differ by more than ``eps_len``), turned by a uniform rotation
    about the origin, which leaves no side on an axis."""
    import numpy as np

    rng = np.random.default_rng(seed)
    alphas = 10.0 ** rng.uniform(-9.0, -3.0, count)
    betas = rng.uniform(0.01, 0.5, count)
    thetas = rng.uniform(0.0, 2.0 * math.pi, count)
    cts = []
    for alpha, beta, theta in zip(alphas.tolist(), betas.tolist(), thetas.tolist()):
        c, s = math.cos(theta), math.sin(theta)
        tri = triangle_from_angles(alpha, beta).tri
        cts.append(canonicalize(Triangle(*(Point(c * p.x - s * p.y, s * p.x + c * p.y) for p in tri.vertices))))
    return cts


def wide_probe(seed: int = 2002, count: int = 1000) -> list:
    """Scalene inputs across the accepted domain: smallest angle
    log-uniform in [1e-12, pi/3], the middle one uniform between it and the
    largest, circumdiameter 10^U(-100, 100), a uniform rotation and an
    offset in a uniform direction of 10^U(0, 12) circumdiameters.  Draws
    that `canonicalize` rejects or finds not scalene are drawn again."""
    import numpy as np

    rng = np.random.default_rng(seed)
    cts = []
    while len(cts) < count:
        alpha = 10.0 ** rng.uniform(-12.0, math.log10(math.pi / 3.0))
        beta = rng.uniform(alpha, 0.5 * (math.pi - alpha))
        size = 10.0 ** rng.uniform(-100.0, 100.0)
        offset = size * 10.0 ** rng.uniform(0.0, 12.0)
        theta, phi = rng.uniform(0.0, 2.0 * math.pi, 2)
        b, c = size * math.sin(beta), size * math.sin(alpha + beta)
        cos, sin = math.cos(theta), math.sin(theta)
        ox, oy = offset * math.cos(phi), offset * math.sin(phi)
        pts = ((0.0, 0.0), (c, 0.0), (b * math.cos(alpha), b * math.sin(alpha)))
        try:
            ct = canonicalize(Triangle(*(Point(ox + cos * x - sin * y, oy + sin * x + cos * y) for x, y in pts)))
        except GeometryError:
            continue
        if ct.shape_class is ShapeClass.SCALENE:
            cts.append(ct)
    return cts


# relative bound of both areas on `rotated_needles`, 3.7 times the closed
# form's worst measured there (2.7e-15) and 3.1 times the oracle's
# (3.2e-15): the cross product at the largest angle is conditioned by that
# angle's sine, at least the middle angle's
ROTATED_NEEDLE_AREA_TOL = 1e-14
# relative bound of both areas on `wide_probe`: 8 times the worst measured
# there (2.4e-15, closed form and oracle alike), and 3.8 times the worst
# of the same draw on seeds 3, 7 and 11 (5.3e-15)
WIDE_PROBE_AREA_TOL = 2e-14

POSED_AREA_INPUTS = pytest.mark.parametrize(
    "cts, tol",
    [(rotated_needles, ROTATED_NEEDLE_AREA_TOL), (wide_probe, WIDE_PROBE_AREA_TOL)],
    ids=["rotated-needles", "wide-probe"],
)


class TestExactReferee:
    @EXACT_REFEREE_INPUTS
    def test_closed_form_matches_exact_minimum(self, cts):
        # measured on these 3002 inputs: at most 5.5e-16 relative
        for ct in cts():
            result = minimum_isosceles_container(ct)
            exact, label = exact_min_ratio_squared(ct)
            assert abs(Fraction(result.min_ratio) ** 2 - exact) <= Fraction(1e-15) * exact
            assert label in {m.label for m in result.minimizers}

    @EXACT_REFEREE_INPUTS
    def test_oracle_matches_exact_minimum(self, cts):
        # the oracle's area within 2e-15 relative of the exact minimum;
        # measured on these 3002 inputs: at most 1.03e-15
        cts = cts()
        lo, hi = (1 - Fraction(2e-15)) ** 2, (1 + Fraction(2e-15)) ** 2
        for ct, result in zip(cts, brute_force_min_isosceles_batch(ct.tri for ct in cts)):
            exact = exact_min_area_squared(ct)
            assert lo * exact <= Fraction(result.min_area) ** 2 <= hi * exact

    @POSED_AREA_INPUTS
    def test_closed_form_area_on_rotated_needles(self, cts, tol):
        lo, hi = (1 - Fraction(tol)) ** 2, (1 + Fraction(tol)) ** 2
        for ct in cts():
            exact = exact_min_area_squared(ct)
            assert lo * exact <= Fraction(minimum_isosceles_container(ct).min_area) ** 2 <= hi * exact

    @POSED_AREA_INPUTS
    def test_oracle_area_on_rotated_needles(self, cts, tol):
        cts = cts()
        lo, hi = (1 - Fraction(tol)) ** 2, (1 + Fraction(tol)) ** 2
        for ct, result in zip(cts, brute_force_min_isosceles_batch(ct.tri for ct in cts)):
            exact = exact_min_area_squared(ct)
            assert lo * exact <= Fraction(result.min_area) ** 2 <= hi * exact


def test_batch_rows_are_single_calls():
    # every row is padded to the batch's widest row of candidate apex angles
    # and expanded to nine flush axes per candidate; neither may leak into
    # another row: on hard input, each row of one batch is, bit for bit, the
    # result its triangle gets alone
    near_right = [
        triangle_from_angles(alpha, 0.5 * math.pi - alpha + sign * 10.0**-k)
        for alpha in (0.2, 0.35, 0.5, 0.65, 0.9, 1.1, 1.25, 1.4)
        for k in (2, 4, 6, 8, 10, 12)
        for sign in (1.0, -1.0)
    ]
    tris = [ct.tri for ct in wide_probe()[:64] + rotated_needles() + near_right]
    for tri, result in zip(tris, brute_force_min_isosceles_batch(tris)):
        assert brute_force_min_isosceles(tri) == result


# `wide_probe` inputs on which two posed witness vertices round to one
# point, so a check on the posed witness would divide by that zero side
WIDE_PROBE_ZERO_SIDE_WITNESSES = (430, 484, 509, 736, 776)


def test_verify_reports_on_zero_side_witnesses():
    cts = wide_probe()
    picked = [cts[i] for i in WIDE_PROBE_ZERO_SIDE_WITNESSES]
    reports = verify_triangles(picked)
    assert [report.input for report in reports] == picked


def test_wide_probe_witness_flags_hold():
    # the checks run on the unit copy the search ran on, so no size, offset
    # or rotation of the accepted domain leaves a flag False
    reports = verify_triangles(wide_probe())
    assert len(reports) == 1000
    assert [i for i, report in enumerate(reports) if not all(report.flags.values())] == []
