"""Planar primitives: tolerances, points, triangles, canonical labeling
and containment predicates, and the input checks and interior angle that
every other module shares.

Angles are radians throughout; degrees appear only at the CLI boundary.
Every type is immutable and every function is pure, so the whole module is
safe to use concurrently without locking.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from enum import Enum

__all__ = [
    "GeometryError",
    "NonFinite",
    "DegenerateTriangle",
    "NotScalene",
    "Tolerances",
    "DEFAULT_TOLERANCES",
    "Point",
    "Triangle",
    "ShapeClass",
    "CanonicalTriangle",
    "signed_area",
    "area",
    "canonicalize",
    "contains_point",
    "contains_triangle",
]


class GeometryError(ValueError):
    """A geometric precondition was violated."""


class NonFinite(GeometryError):
    """A coordinate is NaN or infinite."""


class DegenerateTriangle(GeometryError):
    """Unsigned area is at or below the degeneracy threshold."""


class NotScalene(GeometryError):
    """The operation needs three pairwise-distinct side lengths."""


# a triangle whose area is at most this times its squared bounding-box
# diagonal is degenerate, and so is one whose area is a subnormal float
_EPS_AREA_FACTOR = 1e-12
_MIN_NORMAL = sys.float_info.min


@dataclass(frozen=True)
class Tolerances:
    """The four fixed tolerances, each read by the one function it decides.

    ``eps_len`` (relative to the longest side) decides which side lengths
    count as equal in `canonicalize`; ``eps_angle`` (absolute radians) how
    near 90 degrees `third_kind` drops the containers replacing A or B;
    ``eps_num`` (relative) the slack of `can_cover`; and ``eps_tie``
    (relative) which candidates `minimum_isosceles_container` reports as
    tied minimizers.  Only `DEFAULT_TOLERANCES` is ever built: no function
    takes a tolerance argument.  The degeneracy threshold is not among
    them: it is the fixed ``_EPS_AREA_FACTOR`` times the squared
    bounding-box diagonal.
    """

    eps_len: float = 1e-9
    eps_angle: float = 1e-9
    eps_num: float = 1e-9
    eps_tie: float = 1e-9


DEFAULT_TOLERANCES = Tolerances()


# Point, the records below and those of containers, minimize and oracle fill
# their dict in one call: a frozen dataclass's generated __init__ sets each
# field through object.__setattr__, which cost more than the arithmetic
@dataclass(frozen=True, init=False)
class Point:
    x: float
    y: float

    def __init__(self, x: float, y: float) -> None:
        if not (math.isfinite(x) and math.isfinite(y)):
            raise NonFinite(f"non-finite coordinate ({x}, {y})")
        self.__dict__.update(x=x, y=y)


@dataclass(frozen=True, init=False)
class Triangle:
    """Three labeled vertices.

    The type itself admits collinear vertex sets so that `area` can be used
    as a degeneracy test; operations that need a proper triangle raise
    `DegenerateTriangle` instead.
    """

    A: Point
    B: Point
    C: Point

    def __init__(self, A: Point, B: Point, C: Point) -> None:
        self.__dict__.update(A=A, B=B, C=C)

    @property
    def vertices(self) -> tuple[Point, Point, Point]:
        return (self.A, self.B, self.C)


class ShapeClass(Enum):
    SCALENE = "scalene"
    ISOSCELES = "isosceles"
    EQUILATERAL = "equilateral"


# read through these aliases: reading an Enum member off its class costs
# about 0.17 us on Python 3.11
_SCALENE, _ISOSCELES, _EQUILATERAL = ShapeClass.SCALENE, ShapeClass.ISOSCELES, ShapeClass.EQUILATERAL


@dataclass(frozen=True, init=False)
class CanonicalTriangle:
    """A triangle relabeled so that a = |BC| <= b = |AC| <= c = |AB|.

    The interior angles alpha, beta, gamma sit at A, B, C respectively, so
    alpha <= beta <= gamma.  Build instances via `canonicalize`.
    """

    tri: Triangle
    a: float
    b: float
    c: float
    alpha: float
    beta: float
    gamma: float
    area: float
    shape_class: ShapeClass

    def __init__(
        self, tri: Triangle, a: float, b: float, c: float, alpha: float, beta: float, gamma: float, area: float, shape_class: ShapeClass
    ) -> None:
        self.__dict__.update(tri=tri, a=a, b=b, c=c, alpha=alpha, beta=beta, gamma=gamma, area=area, shape_class=shape_class)


def signed_area(t: Triangle) -> float:
    """Shoelace area; positive when A, B, C wind counter-clockwise."""
    return 0.5 * (
        (t.B.x - t.A.x) * (t.C.y - t.A.y) - (t.B.y - t.A.y) * (t.C.x - t.A.x)
    )


def area(t: Triangle) -> float:
    """Unsigned shoelace area; 0 is a legal return for collinear input."""
    return abs(signed_area(t))


def _span(u: float, v: float, w: float) -> float:
    """max(u, v, w) - min(u, v, w), by comparisons: the builtins' calls
    cost more than the rest of `_eps_area`."""
    lo, hi = (u, v) if u < v else (v, u)
    return (w if w > hi else hi) - (w if w < lo else lo)


def _eps_area(t: Triangle) -> float:
    """Absolute degeneracy threshold for `t`: ``_EPS_AREA_FACTOR`` times the
    squared diagonal of its bounding box, or inf where that overflows."""
    A, B, C = t.A, t.B, t.C
    # `** 2`, not `x * x`, which differs from it in the last bit on about one
    # input in a thousand; a float's ** raises where its * gives inf
    try:
        return _EPS_AREA_FACTOR * (_span(A.x, B.x, C.x) ** 2 + _span(A.y, B.y, C.y) ** 2)
    except OverflowError:
        return math.inf


def _check_nondegenerate(t: Triangle) -> float:
    """Raise `NonFinite` if `t`'s area or `_eps_area` overflows, and
    `DegenerateTriangle` unless the area exceeds `_eps_area` and is a
    normal float (below an extent of about 1e-154 the threshold underflows);
    return its `signed_area`."""
    signed, eps = signed_area(t), _eps_area(t)
    if not (math.isfinite(signed) and math.isfinite(eps)):
        raise NonFinite(f"triangle area {abs(signed)} or its threshold {eps} is not finite")
    if abs(signed) <= eps or abs(signed) < _MIN_NORMAL:
        raise DegenerateTriangle(f"triangle area {abs(signed)} is below threshold")
    return signed


def _check_scalene(ct: CanonicalTriangle) -> None:
    """Raise `NotScalene` unless `ct` has three distinct side lengths."""
    if ct.shape_class is not _SCALENE:
        raise NotScalene(f"need a scalene triangle, got {ct.shape_class.value}")


def _angle_between(ux: float, uy: float, vx: float, vy: float) -> float:
    """The angle in [0, pi] between the vectors (ux, uy) and (vx, vy)."""
    # atan2 of (|cross|, dot) stays accurate even for needle triangles,
    # where the law of cosines, or acos of a dot product, loses the small
    # angles to cancellation
    return math.atan2(abs(ux * vy - uy * vx), ux * vx + uy * vy)


def canonicalize(t: Triangle) -> CanonicalTriangle:
    """Relabel vertices so side lengths satisfy a <= b <= c.

    The relabeling is a vertex permutation only; the point set is unchanged.
    Vertices are sorted by the length of their opposite side, and only exact
    length ties are broken lexicographically on vertex coordinates.  That
    keeps the operation idempotent: a length is computed from the same two
    points whatever their labels (swapping them only flips the signs of the
    differences), so a second call sees the same keys.  Lengths within
    ``DEFAULT_TOLERANCES.eps_len * c`` of each other only decide the shape
    class.
    """
    _check_nondegenerate(t)

    verts = t.vertices
    x0, y0, x1, y1, x2, y2 = t.A.x, t.A.y, t.B.x, t.B.y, t.C.x, t.C.y
    # dn is the length of the side opposite vertex n
    d0, d1, d2 = math.hypot(x1 - x2, y1 - y2), math.hypot(x2 - x0, y2 - y0), math.hypot(x0 - x1, y0 - y1)
    # exact length ties fall to the coordinates; the index ends the comparison
    (a, ax, ay, i), (b, bx, by, j), (c, cx, cy, k) = sorted(((d0, x0, y0, 0), (d1, x1, y1, 1), (d2, x2, y2, 2)))

    eps = DEFAULT_TOLERANCES.eps_len * c
    eq_ab = abs(a - b) <= eps
    eq_bc = abs(b - c) <= eps
    eq_ac = abs(a - c) <= eps
    if eq_ac:
        shape = _EQUILATERAL
    elif eq_ab or eq_bc:
        shape = _ISOSCELES
    else:
        shape = _SCALENE

    # twice the area, taken once at C: its angle is the largest, so its two
    # sides do not cancel in the cross product as a needle's sides at A do.
    # It is the |cross| of all three angles' atan2 (see `_angle_between`).
    cross = abs((ax - cx) * (by - cy) - (ay - cy) * (bx - cx))
    return CanonicalTriangle(
        tri=Triangle(verts[i], verts[j], verts[k]),
        a=a,
        b=b,
        c=c,
        alpha=math.atan2(cross, (bx - ax) * (cx - ax) + (by - ay) * (cy - ay)),
        beta=math.atan2(cross, (cx - bx) * (ax - bx) + (cy - by) * (ay - by)),
        gamma=math.atan2(cross, (ax - cx) * (bx - cx) + (ay - cy) * (by - cy)),
        area=0.5 * cross,
        shape_class=shape,
    )


def contains_point(t: Triangle, p: Point) -> bool:
    """Closed containment test with slack toward inclusion.

    A point on an edge or vertex counts as contained; the slack keeps exact
    shared edges from flipping to "outside" under rounding.  The degeneracy
    test and the slack depend on `t` alone, not on where `p` lies.
    """
    orient = 1.0 if _check_nondegenerate(t) > 0 else -1.0
    # each cross product is twice the signed area of the sub-triangle
    slack = 2.0 * _eps_area(t)
    va, vb, vc = t.vertices
    for q0, q1 in ((va, vb), (vb, vc), (vc, va)):
        cross = (q1.x - q0.x) * (p.y - q0.y) - (q1.y - q0.y) * (p.x - q0.x)
        if orient * cross < -slack:
            return False
    return True


def contains_triangle(outer: Triangle, inner: Triangle) -> bool:
    """True iff every vertex of `inner` lies in closed `outer` (convexity)."""
    return all(contains_point(outer, p) for p in inner.vertices)

