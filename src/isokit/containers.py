"""The nine named isosceles containers of a scalene triangle.

Each construction keeps two vertices of the input triangle ABC bitwise
intact and replaces the third, so "shares a side" is testable with exact
equality.  All constructions work in the input's own coordinate frame.

First kind   AB'C, ABC', ABC''   extend one side along a ray from a shared
                                 vertex until two sides are equal.
Second kind  AB1C, ABC1, ABC2    reflect a vertex across the foot of a
                                 perpendicular so the legs through the
                                 opposite vertex become equal.
Third kind   AbarBC, ABbarC,     the new vertex lies on the perpendicular
             ABCbar              bisector of a side of ABC; the two variants
                                 replacing A or B exist only when the
                                 largest angle is acute.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from enum import Enum

from .geo import (
    DEFAULT_TOLERANCES,
    CanonicalTriangle,
    NotScalene,
    Point,
    ShapeClass,
    Tolerances,
    Triangle,
    area,
)

__all__ = [
    "Kind",
    "ContainerVariant",
    "SpecialContainer",
    "NearRightAngleWarning",
    "first_kind",
    "second_kind",
    "third_kind",
    "all_special_containers",
]


class Kind(Enum):
    FIRST = "first"
    SECOND = "second"
    THIRD = "third"


class ContainerVariant(Enum):
    """Which auxiliary point replaces which vertex; values are display names."""

    FIRST_AB_PRIME_C = "AB'C"
    FIRST_ABC_PRIME = "ABC'"
    FIRST_ABC_DOUBLE_PRIME = "ABC''"
    SECOND_AB1_C = "AB1C"
    SECOND_ABC1 = "ABC1"
    SECOND_ABC2 = "ABC2"
    THIRD_ABAR_BC = "AbarBC"
    THIRD_A_BBAR_C = "ABbarC"
    THIRD_AB_CBAR = "ABCbar"


# slot of the replaced vertex in the container's (A, B, C) labeling, and the
# display label of the new auxiliary point (Unicode, for figures)
_NEW_VERTEX = {
    ContainerVariant.FIRST_AB_PRIME_C: (1, "B′"),
    ContainerVariant.FIRST_ABC_PRIME: (2, "C′"),
    ContainerVariant.FIRST_ABC_DOUBLE_PRIME: (2, "C″"),
    ContainerVariant.SECOND_AB1_C: (1, "B₁"),
    ContainerVariant.SECOND_ABC1: (2, "C₁"),
    ContainerVariant.SECOND_ABC2: (2, "C₂"),
    ContainerVariant.THIRD_ABAR_BC: (0, "Ā"),
    ContainerVariant.THIRD_A_BBAR_C: (1, "B̄"),
    ContainerVariant.THIRD_AB_CBAR: (2, "C̄"),
}


class NearRightAngleWarning(UserWarning):
    """The largest angle is within tolerance of 90 degrees, where the
    third-kind constructions replacing A or B blow up to infinity."""


@dataclass(frozen=True)
class SpecialContainer:
    """One isosceles container sharing a side and an endpoint angle with ABC.

    `tri` keeps the two original vertices in their input slots, with the new
    auxiliary point in the replaced slot.
    """

    variant: ContainerVariant
    kind: Kind
    tri: Triangle
    area: float
    ratio: float

    @property
    def label(self) -> str:
        return self.variant.value

    @property
    def new_vertex(self) -> Point:
        return self.tri.vertices[_NEW_VERTEX[self.variant][0]]

    @property
    def new_vertex_label(self) -> str:
        return _NEW_VERTEX[self.variant][1]


def _require_scalene(ct: CanonicalTriangle) -> None:
    if ct.shape_class is not ShapeClass.SCALENE:
        raise NotScalene(
            f"special containers need a scalene triangle, got {ct.shape_class.value}"
        )


def _along(origin: Point, towards: Point, length: float, base_length: float) -> Point:
    """Point on the ray origin->towards at the given distance from origin."""
    s = length / base_length
    return Point(origin.x + (towards.x - origin.x) * s, origin.y + (towards.y - origin.y) * s)


def _make(variant: ContainerVariant, kind: Kind, tri: Triangle, ref_area: float) -> SpecialContainer:
    ar = area(tri)
    return SpecialContainer(variant=variant, kind=kind, tri=tri, area=ar, ratio=ar / ref_area)


def first_kind(ct: CanonicalTriangle) -> list[SpecialContainer]:
    """The three first-kind containers; area ratios are b/a, c/b, c/a."""
    _require_scalene(ct)
    A, B, C = ct.tri.vertices
    # B' on ray CB with |B'C| = b;  C' on ray AC with |AC'| = c;
    # C'' on ray BC with |BC''| = c
    b_prime = _along(C, B, ct.b, ct.a)
    c_prime = _along(A, C, ct.c, ct.b)
    c_dprime = _along(B, C, ct.c, ct.a)
    return [
        _make(ContainerVariant.FIRST_AB_PRIME_C, Kind.FIRST, Triangle(A, b_prime, C), ct.area),
        _make(ContainerVariant.FIRST_ABC_PRIME, Kind.FIRST, Triangle(A, B, c_prime), ct.area),
        _make(ContainerVariant.FIRST_ABC_DOUBLE_PRIME, Kind.FIRST, Triangle(A, B, c_dprime), ct.area),
    ]


def _reflect_across_foot(apex: Point, base0: Point, base1: Point) -> Point:
    """Reflect base0 across the foot of the perpendicular from apex to the
    line base0-base1; the result is the second point on that line equidistant
    from apex."""
    ex, ey = base1.x - base0.x, base1.y - base0.y
    t = ((apex.x - base0.x) * ex + (apex.y - base0.y) * ey) / (ex * ex + ey * ey)
    return Point(base0.x + 2.0 * t * ex, base0.y + 2.0 * t * ey)


def second_kind(ct: CanonicalTriangle) -> list[SpecialContainer]:
    """The three second-kind containers; AB1C has ratio 2*b*cos(alpha)/c."""
    _require_scalene(ct)
    A, B, C = ct.tri.vertices
    # B1 on ray AB with |B1C| = b, B1 != A; C1 on ray AC with |BC1| = c,
    # C1 != A; C2 on ray BC with |AC2| = c, C2 != B
    b1 = _reflect_across_foot(C, A, B)
    c1 = _reflect_across_foot(B, A, C)
    c2 = _reflect_across_foot(A, B, C)
    return [
        _make(ContainerVariant.SECOND_AB1_C, Kind.SECOND, Triangle(A, b1, C), ct.area),
        _make(ContainerVariant.SECOND_ABC1, Kind.SECOND, Triangle(A, B, c1), ct.area),
        _make(ContainerVariant.SECOND_ABC2, Kind.SECOND, Triangle(A, B, c2), ct.area),
    ]


def third_kind(
    ct: CanonicalTriangle, tol: Tolerances = DEFAULT_TOLERANCES
) -> list[SpecialContainer]:
    """The third-kind containers: all three when gamma is acute, else only
    the one replacing C.

    At gamma exactly 90 degrees the constructions replacing A or B run to
    infinity, so within `tol.eps_angle` of the right angle they are excluded
    and a `NearRightAngleWarning` flags the tolerance sensitivity.
    """
    _require_scalene(ct)
    A, B, C = ct.tri.vertices
    a, b, c = ct.a, ct.b, ct.c
    cos_beta = (a * a + c * c - b * b) / (2.0 * a * c)
    cos_gamma = (a * a + b * b - c * c) / (2.0 * a * b)

    # C^ on line BC, equidistant from A and B; exists for every scalene input
    c_bar = _along(B, C, c / (2.0 * cos_beta), a)
    out = []
    near_right = abs(ct.gamma - 0.5 * math.pi) < tol.eps_angle
    if near_right:
        warnings.warn(
            "largest angle is within tolerance of 90 degrees; the containers "
            "replacing A or B are excluded but numerically unstable nearby",
            NearRightAngleWarning,
            stacklevel=2,
        )
    if ct.gamma < 0.5 * math.pi - tol.eps_angle:
        # A^ on line AC equidistant from B and C; B^ on line BC equidistant
        # from A and C.  Both land beyond the shared vertex (signed parameter
        # is negative), which is what makes the containment work.
        a_bar = _along(A, C, (b * b - c * c) / (2.0 * a * cos_gamma), b)
        b_bar = _along(B, C, (a * a - c * c) / (2.0 * b * cos_gamma), a)
        out.append(_make(ContainerVariant.THIRD_ABAR_BC, Kind.THIRD, Triangle(a_bar, B, C), ct.area))
        out.append(_make(ContainerVariant.THIRD_A_BBAR_C, Kind.THIRD, Triangle(A, b_bar, C), ct.area))
    out.append(_make(ContainerVariant.THIRD_AB_CBAR, Kind.THIRD, Triangle(A, B, c_bar), ct.area))
    return out


def all_special_containers(
    ct: CanonicalTriangle, tol: Tolerances = DEFAULT_TOLERANCES
) -> list[SpecialContainer]:
    """All special containers: nine for acute input, seven otherwise."""
    return first_kind(ct) + second_kind(ct) + third_kind(ct, tol)
