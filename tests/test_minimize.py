import math

import pytest

from isokit import (
    BracketFailure,
    InvalidRegime,
    InvalidSides,
    Kind,
    NotScalene,
    SELF_CONTAINER,
    all_special_containers,
    alpha_star,
    alpha_star_equation,
    canonicalize,
    eq1_residual,
    first_kind,
    first_kind_ratio,
    minimum_isosceles_container,
    ratio_curves,
    sample_canonical_triangles,
    t_star,
    triangle_at_crossing,
    triangle_from_sides,
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
        root = alpha_star(1e-12)
        assert math.degrees(root) == pytest.approx(ALPHA_STAR_DEG, abs=1e-10)

    def test_residual_at_root(self):
        assert abs(alpha_star_equation(alpha_star(1e-12))) < 1e-12

    def test_tol_validation(self):
        with pytest.raises(ValueError):
            alpha_star(0.0)
        with pytest.raises(ValueError):
            alpha_star(1e-300)  # below the float spacing at the bracket
        with pytest.raises(ValueError):
            alpha_star(1e-2)

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
            points, z = ratio_curves(beta, n_samples=32)
            assert 0 < z < beta
            pz = [p for p in points]  # sampled curve, plus evaluate at z
            f_z = math.sin(z + beta) / math.sin(beta)
            g_z = 1.0 / (0.5 + math.tan(z) / (2.0 * math.tan(beta)))
            assert f_z == pytest.approx(g_z, abs=1e-9)
            assert f_z == pytest.approx(math.sqrt(2.0 * math.cos(z)), rel=1e-9)
            assert len(pz) == 32

    def test_monotone_curves(self):
        points, _ = ratio_curves(math.radians(10.0), n_samples=64)
        fs = [p.ratio_f for p in points]
        gs = [p.ratio_g for p in points]
        assert all(x < y for x, y in zip(fs, fs[1:]))
        assert all(x > y for x, y in zip(gs, gs[1:]))

    def test_beta_one_degree_near_sqrt2(self):
        _, z = ratio_curves(math.radians(1.0))
        f_z = math.sin(z + math.radians(1.0)) / math.sin(math.radians(1.0))
        assert abs(f_z - SQRT2) < 0.01

    def test_point_fields(self):
        points, _ = ratio_curves(math.radians(15.0), n_samples=8)
        for p in points:
            assert p.gamma == pytest.approx(math.pi - p.alpha - p.beta, abs=1e-15)
            assert p.ratio_f == pytest.approx(math.sin(p.gamma) / math.sin(p.beta), rel=1e-12)

    def test_invalid_regime(self):
        with pytest.raises(InvalidRegime):
            ratio_curves(math.radians(45.0))
        with pytest.raises(InvalidRegime):
            ratio_curves(0.0)

    def test_samples_validation(self):
        with pytest.raises(ValueError):
            ratio_curves(math.radians(10.0), n_samples=2)

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
