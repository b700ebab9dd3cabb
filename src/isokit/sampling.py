"""Seeded random triangle generation for batch verification.

Angle triples are uniform on the ordered simplex alpha <= beta <= gamma,
alpha + beta + gamma = pi, restricted to a minimum angle and a pairwise
scalene margin, so near-degenerate and near-isosceles inputs (where
tolerance flags dominate) stay out of the default batches.  That region is
the ordered simplex shrunk and shifted, so one Dirichlet draw per triangle,
mapped onto it, samples it: a margin close to its bound costs no more than
the default.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING

from .geo import CanonicalTriangle, Point, Triangle, canonicalize

if TYPE_CHECKING:
    import numpy as np

__all__ = [
    "DEFAULT_MIN_ANGLE",
    "DEFAULT_SCALENE_MARGIN",
    "triangle_from_angles",
    "triangle_from_sides",
    "sample_canonical_triangles",
]

DEFAULT_MIN_ANGLE = math.radians(5.0)
DEFAULT_SCALENE_MARGIN = math.radians(1.0)


def _draw_angles(rng: np.random.Generator, size: int, min_angle: float, scalene_margin: float):
    """(alpha, beta) arrays of `size` triangles from one Dirichlet call,
    uniform on the triples alpha <= beta <= gamma with alpha >= min_angle and
    both gaps >= scalene_margin: each sorted Dirichlet(1, 1, 1) draw x, times
    pi, maps to alpha = m + s x0, beta = m + g + s x1 (and gamma =
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
    x = math.pi * rng.dirichlet((1.0, 1.0, 1.0), size)
    x.sort(axis=-1)
    return m + s * x[..., 0], m + g + s * x[..., 1]


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
    given seed: the angles of `_draw_angles`, all drawn in one call."""
    # imported on first use, so that `import isokit` does not load numpy
    import numpy as np

    alphas, betas = _draw_angles(np.random.default_rng(seed), count, min_angle, scalene_margin)
    return [triangle_from_angles(a, b) for a, b in zip(alphas.tolist(), betas.tolist())]
