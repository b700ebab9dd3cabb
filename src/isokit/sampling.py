"""Seeded random triangle generation for batch verification.

Angles are drawn uniformly from the simplex alpha + beta + gamma = pi and
rejection-filtered to keep a minimum angle and a pairwise scalene margin, so
near-degenerate and near-isosceles inputs (where tolerance flags dominate)
stay out of the default batches.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING

from .geo import DEFAULT_TOLERANCES, CanonicalTriangle, Point, Tolerances, Triangle, canonicalize

if TYPE_CHECKING:
    import numpy as np

__all__ = [
    "DEFAULT_MIN_ANGLE",
    "DEFAULT_SCALENE_MARGIN",
    "sample_scalene_angles",
    "triangle_from_angles",
    "triangle_from_sides",
    "sample_canonical_triangles",
]

DEFAULT_MIN_ANGLE = math.radians(5.0)
DEFAULT_SCALENE_MARGIN = math.radians(1.0)


def sample_scalene_angles(
    rng: np.random.Generator,
    min_angle: float = DEFAULT_MIN_ANGLE,
    scalene_margin: float = DEFAULT_SCALENE_MARGIN,
) -> tuple[float, float, float]:
    """One angle triple, ascending, uniform on the simplex subject to the
    margins.

    The accepted triples alpha <= beta <= gamma are those with
    alpha >= min_angle and both gaps >= scalene_margin: the ordered simplex
    shrunk by the factor (pi - 3 min_angle+ - 3 scalene_margin+) / pi, where
    x+ = max(x, 0).  A draw is accepted with that factor squared, so margins
    that leave the factor at or below 0 raise `ValueError` instead of looping
    forever.
    """
    if 3.0 * max(min_angle, 0.0) + 3.0 * max(scalene_margin, 0.0) >= math.pi:
        raise ValueError(
            f"min_angle {min_angle:.6g} and scalene_margin {scalene_margin:.6g} (radians) leave no "
            "triangle: 3 * min_angle + 3 * scalene_margin must be below pi, negative values counting as 0"
        )
    while True:
        angles = sorted((math.pi * rng.dirichlet((1.0, 1.0, 1.0))).tolist())
        if angles[0] < min_angle:
            continue
        if angles[1] - angles[0] < scalene_margin or angles[2] - angles[1] < scalene_margin:
            continue
        return angles[0], angles[1], angles[2]


def triangle_from_angles(
    alpha: float,
    beta: float,
    scale: float = 1.0,
    tol: Tolerances = DEFAULT_TOLERANCES,
) -> CanonicalTriangle:
    """Triangle with the given two angles (third is pi - alpha - beta) and
    circumdiameter `scale`, longest-side-on-x-axis position."""
    gamma = math.pi - alpha - beta
    if min(alpha, beta, gamma) <= 0.0:
        raise ValueError(f"angles must be positive with alpha + beta < pi, got {alpha}, {beta}")
    b = scale * math.sin(beta)
    c = scale * math.sin(gamma)
    tri = Triangle(
        Point(0.0, 0.0),
        Point(c, 0.0),
        Point(b * math.cos(alpha), b * math.sin(alpha)),
    )
    return canonicalize(tri, tol)


def triangle_from_sides(
    a: float, b: float, c: float, tol: Tolerances = DEFAULT_TOLERANCES
) -> CanonicalTriangle:
    """Triangle with the given side lengths, first side on the x-axis."""
    if min(a, b, c) <= 0.0:
        raise ValueError(f"side lengths must be positive, got {a}, {b}, {c}")
    # place |AB| = c on the axis; C follows from the two remaining lengths
    x = (b * b + c * c - a * a) / (2.0 * c)
    y2 = b * b - x * x
    if y2 <= 0.0:
        raise ValueError(f"sides ({a}, {b}, {c}) violate the triangle inequality")
    tri = Triangle(Point(0.0, 0.0), Point(c, 0.0), Point(x, math.sqrt(y2)))
    return canonicalize(tri, tol)


def sample_canonical_triangles(
    seed: int,
    count: int,
    min_angle: float = DEFAULT_MIN_ANGLE,
    scalene_margin: float = DEFAULT_SCALENE_MARGIN,
    tol: Tolerances = DEFAULT_TOLERANCES,
) -> list[CanonicalTriangle]:
    """Deterministic batch of scalene triangles, circumdiameter 1, for the
    given seed."""
    # imported on first use, so that `import isokit` does not load numpy
    import numpy as np

    rng = np.random.default_rng(seed)
    out = []
    for _ in range(count):
        alpha, beta, _ = sample_scalene_angles(rng, min_angle, scalene_margin)
        out.append(triangle_from_angles(alpha, beta, 1.0, tol))
    return out
