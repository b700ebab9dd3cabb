import math
import random
import statistics

import pytest

from isokit import (
    DegenerateTriangle,
    DEFAULT_MIN_ANGLE,
    DEFAULT_SCALENE_MARGIN,
    ShapeClass,
    sample_canonical_triangles,
    triangle_from_angles,
    triangle_from_sides,
)
from isokit.sampling import _draw_angles


def one_triple(rng, min_angle=DEFAULT_MIN_ANGLE, scalene_margin=DEFAULT_SCALENE_MARGIN):
    """(alpha, beta, gamma) of a one-row `_draw_angles` draw."""
    (alpha,), (beta,) = _draw_angles(rng, 1, min_angle, scalene_margin)
    return alpha, beta, math.pi - alpha - beta


def test_batch_deterministic():
    a = sample_canonical_triangles(seed=42, count=10)
    b = sample_canonical_triangles(seed=42, count=10)
    for x, y in zip(a, b):
        assert x.tri == y.tri


def test_batch_seed_sensitivity():
    a = sample_canonical_triangles(seed=1, count=5)
    b = sample_canonical_triangles(seed=2, count=5)
    assert any(x.tri != y.tri for x, y in zip(a, b))


@pytest.mark.parametrize(
    "seed, count, error", [(-1, 1, ValueError), (1.5, 1, TypeError), ("a", 1, TypeError), (1, -1, ValueError)]
)
def test_seed_and_count_are_checked(seed, count, error):
    # random.Random alone would take a float or string seed, and would give
    # seed -s the triangles of seed s
    with pytest.raises(error):
        sample_canonical_triangles(seed, count)


def test_zero_margin_draw_is_uniform_on_the_simplex():
    # the sorted angles of a uniform point on the simplex alpha + beta +
    # gamma = pi have means pi (1/9, 5/18, 11/18), the means of the order
    # statistics of three uniform spacings; 0.005 pi is over 8 standard errors
    alphas, betas = _draw_angles(random.Random(1), 30_000, 0.0, 0.0)
    gammas = [math.pi - a - b for a, b in zip(alphas, betas)]
    for angles, mean in zip((alphas, betas, gammas), (1 / 9, 5 / 18, 11 / 18)):
        assert abs(statistics.fmean(angles) - math.pi * mean) <= 0.005 * math.pi


def test_margins_respected():
    rng = random.Random(0)
    for _ in range(200):
        al, be, ga = one_triple(rng)
        assert al >= math.radians(5.0)
        assert be - al >= math.radians(1.0)
        assert ga - be >= math.radians(1.0)
        assert al + be + ga == pytest.approx(math.pi, abs=1e-12)


@pytest.mark.parametrize(
    "min_angle, scalene_margin", [(30, 30), (60, 0), (0, 60), (70, -10), (math.nan, 0), (0, math.nan)]
)
def test_infeasible_margins_raise(min_angle, scalene_margin):
    # 3 * min_angle + 3 * scalene_margin >= 180 degrees leaves no triangle
    # to draw from, and neither does a NaN margin
    with pytest.raises(ValueError, match="leave no triangle"):
        sample_canonical_triangles(
            0, 1, min_angle=math.radians(min_angle), scalene_margin=math.radians(scalene_margin)
        )


class _SpyRandom(random.Random):
    """A `random.Random` that counts its `random()` calls."""

    calls = 0

    def random(self):
        self.calls += 1
        return super().random()


def test_batch_is_sequential_single_draws():
    # one formula: the batch maps the same draws that one-row draws map
    rng = random.Random(11)
    singles = [triangle_from_angles(*one_triple(rng)[:2]) for _ in range(50)]
    assert [ct.tri for ct in sample_canonical_triangles(11, 50)] == [ct.tri for ct in singles]


def test_margins_near_the_bound(monkeypatch):
    # 3 * min_angle + 3 * scalene_margin within 3 degrees of 180: the allowed
    # triples are a sliver of the simplex, and still cost two uniforms each
    for min_angle, scalene_margin in ((59.95, 0.0), (50.0, 9.0)):
        lo, gap = math.radians(min_angle), math.radians(scalene_margin)
        spy = _SpyRandom(0)
        for _ in range(100):
            al, be, ga = one_triple(spy, lo, gap)
            assert al >= lo and be - al >= gap - 1e-12 and ga - be >= gap - 1e-12
        assert spy.calls == 200

        spy = _SpyRandom(0)
        monkeypatch.setattr(random, "Random", lambda seed: spy)
        for ct in sample_canonical_triangles(0, 100, min_angle=lo, scalene_margin=gap):
            al, be, ga = sorted((ct.alpha, ct.beta, ct.gamma))
            assert al >= lo - 1e-12 and min(be - al, ga - be) >= gap - 1e-12
        assert spy.calls == 200
        monkeypatch.undo()


def test_batch_is_scalene():
    for ct in sample_canonical_triangles(seed=3, count=50):
        assert ct.shape_class is ShapeClass.SCALENE


def test_triangle_from_angles_scale():
    ct = triangle_from_angles(math.radians(40), math.radians(60), scale=2.0)
    # circumdiameter 2: sides are 2 sin(angle)
    assert ct.a == pytest.approx(2 * math.sin(math.radians(40)), rel=1e-12)
    assert ct.c == pytest.approx(2 * math.sin(math.radians(80)), rel=1e-12)


def test_triangle_from_angles_validation():
    with pytest.raises(ValueError):
        triangle_from_angles(math.radians(120), math.radians(70))
    with pytest.raises(ValueError):
        triangle_from_angles(-0.1, 0.5)


@pytest.mark.parametrize(
    "alpha, beta", [(math.nan, 1.0), (1.0, math.nan), (math.nan, -1.0), (math.nan, math.inf), (math.inf, math.nan)]
)
def test_triangle_from_angles_rejects_nan_angles(alpha, beta):
    # a NaN angle is not positive, whichever argument holds it
    with pytest.raises(ValueError, match="angles must be positive"):
        triangle_from_angles(alpha, beta)


@pytest.mark.parametrize("scale", [-2.0, 0.0, math.nan])
def test_triangle_from_angles_rejects_nonpositive_scale(scale):
    # a negative circumdiameter would build the reflected triangle
    with pytest.raises(ValueError, match="scale"):
        triangle_from_angles(math.radians(50), math.radians(60), scale)


def test_triangle_from_sides_validation():
    with pytest.raises(ValueError):
        triangle_from_sides(1.0, 2.0, 3.5)
    with pytest.raises(ValueError):
        triangle_from_sides(0.0, 1.0, 1.0)


def test_triangle_from_sides_lengths():
    ct = triangle_from_sides(4.0, 5.0, 6.0)
    assert (ct.a, ct.b, ct.c) == pytest.approx((4.0, 5.0, 6.0), rel=1e-12)


def test_sides_with_subnormal_area_raise():
    # the area of these sides is about 3.6e-321, a subnormal float
    with pytest.raises(DegenerateTriangle):
        triangle_from_sides(1e-160, 1.2e-160, 1.5e-160)
    ct = triangle_from_sides(1e-150, 1.2e-150, 1.5e-150)
    assert ct.b / ct.a == pytest.approx(1.2, rel=1e-15)
