"""Seeded random triangle generation for batch verification.

Angle triples are uniform on the ordered simplex alpha <= beta <= gamma,
alpha + beta + gamma = pi, restricted to a minimum angle and a pairwise
scalene margin, so near-degenerate and near-isosceles inputs (where
tolerance flags dominate) stay out of the default batches.  That region is
the ordered simplex shrunk and shifted, so one Dirichlet(1, 1, 1) draw per
triangle, mapped onto it, samples it: a margin close to its bound costs no
more than the default.  The draw is the sorted spacings of two uniforms from
the standard library's `random.Random(seed)`, whose `random()` stream
Python keeps the same for a given seed across versions.
"""

from __future__ import annotations

import math
import operator
from typing import TYPE_CHECKING

from .geo import CanonicalTriangle, Point, Triangle, canonicalize

if TYPE_CHECKING:
    import random

__all__ = [
    "DEFAULT_MIN_ANGLE",
    "DEFAULT_SCALENE_MARGIN",
    "triangle_from_angles",
    "triangle_from_sides",
    "sample_canonical_triangles",
]

DEFAULT_MIN_ANGLE = math.radians(5.0)
DEFAULT_SCALENE_MARGIN = math.radians(1.0)


def _draw_angles(
    rng: random.Random, size: int, min_angle: float, scalene_margin: float
) -> tuple[list[float], list[float]]:
    """(alpha, beta) lists of `size` triangles, two `rng.random()` calls
    each, uniform on the triples alpha <= beta <= gamma with alpha >=
    min_angle and both gaps >= scalene_margin.  The sorted spacings x of two
    uniforms u <= v, (u, v - u, 1 - v), are a sorted Dirichlet(1, 1, 1) draw;
    times pi, they map to alpha = m + s x0, beta = m + g + s x1 (and gamma =
    m + 2g + s x2), with m = min_angle+, g = scalene_margin+, x+ = max(x, 0)
    and s = (pi - 3m - 3g) / pi.  Margins that leave s at or below 0, or
    NaN, raise `ValueError`."""
    m, g = max(min_angle, 0.0), max(scalene_margin, 0.0)
    s = (math.pi - 3.0 * m - 3.0 * g) / math.pi
    if not s > 0.0:  # NaN margins leave no triangle either
        raise ValueError(
            f"min_angle {min_angle:.6g} and scalene_margin {scalene_margin:.6g} (radians) leave no "
            "triangle: 3 * min_angle + 3 * scalene_margin must be below pi, negative values counting as 0"
        )
    alphas, betas = [], []
    for _ in range(size):
        u, v = sorted((rng.random(), rng.random()))
        x0, x1 = sorted((u, v - u, 1.0 - v))[:2]
        alphas.append(m + s * (math.pi * x0))
        betas.append(m + g + s * (math.pi * x1))
    return alphas, betas


def _bad_angles(alpha: float, beta: float) -> bool:
    """Whether alpha, beta and pi - alpha - beta are not all positive (a NaN is not)."""
    return not (alpha > 0.0 and beta > 0.0 and math.pi - alpha - beta > 0.0)


def triangle_from_angles(alpha: float, beta: float, scale: float = 1.0) -> CanonicalTriangle:
    """Triangle with the given two angles (third is pi - alpha - beta) and
    circumdiameter `scale` (positive), longest-side-on-x-axis position."""
    if _bad_angles(alpha, beta):
        raise ValueError(f"angles must be positive with alpha + beta < pi, got {alpha}, {beta}")
    if not scale > 0.0:
        raise ValueError(f"scale (circumdiameter) must be positive, got {scale}")
    b = scale * math.sin(beta)
    c = scale * math.sin(math.pi - alpha - beta)
    tri = Triangle(
        Point(0.0, 0.0),
        Point(c, 0.0),
        Point(b * math.cos(alpha), b * math.sin(alpha)),
    )
    return canonicalize(tri)


def triangle_from_sides(a: float, b: float, c: float) -> CanonicalTriangle:
    """Triangle with the given side lengths, first side on the x-axis."""
    if min(a, b, c) <= 0.0:
        raise ValueError(f"side lengths must be positive, got {a}, {b}, {c}")
    # place |AB| = c on the axis; C follows from the two remaining lengths
    x = (b * b + c * c - a * a) / (2.0 * c)
    y2 = b * b - x * x
    if y2 <= 0.0:
        raise ValueError(f"sides ({a}, {b}, {c}) violate the triangle inequality")
    tri = Triangle(Point(0.0, 0.0), Point(c, 0.0), Point(x, math.sqrt(y2)))
    return canonicalize(tri)


def sample_canonical_triangles(
    seed: int,
    count: int,
    min_angle: float = DEFAULT_MIN_ANGLE,
    scalene_margin: float = DEFAULT_SCALENE_MARGIN,
) -> list[CanonicalTriangle]:
    """Deterministic batch of scalene triangles, circumdiameter 1, for the
    given seed: the angles of `_draw_angles`, all drawn from one
    `random.Random(seed)`.  `seed` and `count` must be integers
    (`TypeError`) and not negative (`ValueError`); `random.Random` alone
    would take a float seed and give -seed the triangles of seed."""
    # imported on first use, like numpy in the oracle's search, so that
    # `import isokit` does not load it
    import random

    seed, count = operator.index(seed), operator.index(count)
    if seed < 0 or count < 0:
        raise ValueError(f"seed and count must not be negative, got {seed} and {count}")
    alphas, betas = _draw_angles(random.Random(seed), count, min_angle, scalene_margin)
    return [triangle_from_angles(a, b) for a, b in zip(alphas, betas)]
