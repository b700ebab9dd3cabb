"""Areas that do not depend on where the input sits.

The closed form and the oracle must report the same minimum for a triangle
posed far from the origin as for the same shape near it.  The inputs are
far-posed triangles written as `repr` coordinates, which read back exactly;
at such offsets a constructed vertex is rounded to the offset's precision,
so an area measured on it drifts by up to about 1e-8.
"""

import math

import pytest

from isokit import (
    Point,
    Triangle,
    can_cover,
    canonicalize,
    minimum_isosceles_container,
    t_star,
    verify_triangle,
)


def _triangle(*coords):
    return Triangle(*(Point(float(x), float(y)) for x, y in coords))


def _side_ratio_minimum(tri):
    """min(b/a, c/b, 2b cos(alpha)/c) from the side lengths a <= b <= c."""
    v = tri.vertices
    a, b, c = sorted(math.hypot(v[i].x - v[i - 1].x, v[i].y - v[i - 1].y) for i in range(3))
    cos_alpha = (b * b + c * c - a * a) / (2.0 * b * c)
    return min(b / a, c / b, 2.0 * b * cos_alpha / c)


def test_t_star_far_away_keeps_three_minimizers():
    # the three side ratios of T* agree to 4e-10 at this pose, inside eps_tie
    ts = t_star()
    dx, dy = 1e8 * math.cos(1.1), 1e8 * math.sin(1.1)
    moved = Triangle(*(Point(p.x + dx, p.y + dy) for p in ts.tri.vertices))
    res = minimum_isosceles_container(canonicalize(moved))
    assert sorted(m.label for m in res.minimizers) == sorted(["AB'C", "ABC'", "AB1C"])


# one far-posed input per candidate: AB'C, ABC' and AB1C win in turn
@pytest.mark.parametrize(
    "coords",
    [
        [
            ("14067779869478.469", "-6434953724064.225"),
            ("14067780148499.766", "-6434953640847.329"),
            ("14067779906059.316", "-6434953435206.17"),
        ],
        [
            ("-2433983406246.908", "-1544260336165.9453"),
            ("-2433983336415.9473", "-1544260262033.7764"),
            ("-2433983413282.521", "-1544260327963.179"),
        ],
        [
            ("5.320838122438464e+19", "-9.875135746806628e+18"),
            ("5.320838108049153e+19", "-9.875135308527006e+18"),
            ("5.320838073035857e+19", "-9.87513542483545e+18"),
        ],
    ],
)
def test_far_posed_closed_form_ratio(coords):
    tri = _triangle(*coords)
    res = minimum_isosceles_container(canonicalize(tri))
    assert res.min_ratio == pytest.approx(_side_ratio_minimum(tri), rel=1e-12, abs=0.0)


@pytest.mark.parametrize(
    "coords",
    [
        [
            ("-37630459.437593326", "-40475818.08023637"),
            ("-37630459.02432898", "-40475819.041341834"),
            ("-37630458.229502335", "-40475821.75969137"),
        ],
        [
            ("-46875522908.49011", "142182082341.01892"),
            ("-46875522768.52724", "142182082434.22107"),
            ("-46875523851.12376", "142182083562.79944"),
        ],
        [
            ("6728443928167747.0", "3383273340558538.0"),
            ("6728443359525662.0", "3383275578190277.5"),
            ("6728443444089633.0", "3383275564047685.0"),
        ],
    ],
)
def test_far_posed_oracle_matches_closed_form(coords):
    rep = verify_triangle(canonicalize(_triangle(*coords)))
    assert abs(rep.relative_gap) <= 1e-11


@pytest.mark.xfail(strict=True, reason="known defect: the far-posed minimizer misses can_cover's slack")
def test_far_posed_minimizer_covers_input():
    # input 216 of perfbench's closed_form seed-1 pool, at about 5e7 longest
    # sides from the origin: the closed-form minimizer ABC' contains the
    # input by construction, but its vertex, rounded at the offset, misses
    # can_cover's 1e-9 relative slack
    ct = canonicalize(
        _triangle(
            ("-38212.96552254361", "38526.798090910714"),
            ("-38212.964850698816", "38526.79835648102"),
            ("-38212.96487399427", "38526.79841996756"),
        )
    )
    (minimizer,) = minimum_isosceles_container(ct).minimizers
    assert can_cover(minimizer.tri, ct.tri)
