import math

import numpy as np
import pytest

from isokit import (
    ShapeClass,
    sample_canonical_triangles,
    sample_scalene_angles,
    triangle_from_angles,
    triangle_from_sides,
)


def test_batch_deterministic():
    a = sample_canonical_triangles(seed=42, count=10)
    b = sample_canonical_triangles(seed=42, count=10)
    for x, y in zip(a, b):
        assert x.tri == y.tri


def test_batch_seed_sensitivity():
    a = sample_canonical_triangles(seed=1, count=5)
    b = sample_canonical_triangles(seed=2, count=5)
    assert any(x.tri != y.tri for x, y in zip(a, b))


def test_margins_respected():
    rng = np.random.default_rng(0)
    for _ in range(200):
        al, be, ga = sample_scalene_angles(rng)
        assert al >= math.radians(5.0)
        assert be - al >= math.radians(1.0)
        assert ga - be >= math.radians(1.0)
        assert al + be + ga == pytest.approx(math.pi, abs=1e-12)


@pytest.mark.parametrize("min_angle, scalene_margin", [(30, 30), (60, 0), (0, 60), (70, -10)])
def test_infeasible_margins_raise(min_angle, scalene_margin):
    # 3 * min_angle + 3 * scalene_margin >= 180 degrees leaves no triangle
    # to accept, so a rejection loop that kept drawing would never return
    with pytest.raises(ValueError, match="scalene_margin"):
        sample_canonical_triangles(
            0, 1, min_angle=math.radians(min_angle), scalene_margin=math.radians(scalene_margin)
        )


def test_margins_near_the_bound():
    # 3 * 50 + 3 * 9 = 177 degrees: one draw in about 3600 is accepted
    (ct,) = sample_canonical_triangles(0, 1, min_angle=math.radians(50), scalene_margin=math.radians(9))
    al, be, ga = sorted((ct.alpha, ct.beta, ct.gamma))
    assert al >= math.radians(50)
    assert min(be - al, ga - be) >= math.radians(9) - 1e-12


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


def test_triangle_from_sides_validation():
    with pytest.raises(ValueError):
        triangle_from_sides(1.0, 2.0, 3.5)
    with pytest.raises(ValueError):
        triangle_from_sides(0.0, 1.0, 1.0)


def test_triangle_from_sides_lengths():
    ct = triangle_from_sides(4.0, 5.0, 6.0)
    assert (ct.a, ct.b, ct.c) == pytest.approx((4.0, 5.0, 6.0), rel=1e-12)
