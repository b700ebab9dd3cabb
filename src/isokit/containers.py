"""The nine named isosceles containers of a scalene triangle.

A minimum container keeps a side PQ of the input triangle ABC and the angle
at P (Kiss, Pach & Somlai).  So every special container is the triangle PQX
with X = P + s*(R - P) on the ray from P through the third vertex R, and its
area is exactly s times the input's: the ratio is s.  P and Q keep their
input slots bitwise intact and X takes R's slot, so "shares a side" is
testable with exact equality.  All constructions work in the input's own
coordinate frame.  s depends only on where the apex is:

First kind   AB'C, ABC', ABC''   apex P, |PX| = |PQ|:  s = |PQ| / |PR|
Second kind  AB1C, ABC1, ABC2    apex Q, |QX| = |QP|:  s = 2 (Q-P).(R-P) / |PR|^2
Third kind   AbarBC, ABbarC,     apex X, |XP| = |XQ|:  s = |PQ|^2 / (2 (Q-P).(R-P));
             ABCbar              the two variants replacing A or B exist only
                                 when the largest angle is acute.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from enum import Enum

from .geo import DEFAULT_TOLERANCES, CanonicalTriangle, Point, Triangle, _check_scalene

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


# one row per variant: (kind, the slots (p, q, r) of P, Q and R in the input's
# (A, B, C) labeling, the Unicode figure label of the new vertex X); the
# container is PQX, with X on the ray from P through R, in R's slot
_RAYS = {
    ContainerVariant.FIRST_AB_PRIME_C: (Kind.FIRST, (2, 0, 1), "B′"),
    ContainerVariant.FIRST_ABC_PRIME: (Kind.FIRST, (0, 1, 2), "C′"),
    ContainerVariant.FIRST_ABC_DOUBLE_PRIME: (Kind.FIRST, (1, 0, 2), "C″"),
    ContainerVariant.SECOND_AB1_C: (Kind.SECOND, (0, 2, 1), "B₁"),
    ContainerVariant.SECOND_ABC1: (Kind.SECOND, (0, 1, 2), "C₁"),
    ContainerVariant.SECOND_ABC2: (Kind.SECOND, (1, 0, 2), "C₂"),
    ContainerVariant.THIRD_ABAR_BC: (Kind.THIRD, (2, 1, 0), "Ā"),
    ContainerVariant.THIRD_A_BBAR_C: (Kind.THIRD, (2, 0, 1), "B̄"),
    ContainerVariant.THIRD_AB_CBAR: (Kind.THIRD, (1, 0, 2), "C̄"),
}
# per kind, the (variant, kind, p, q, r) rows of its containers in `_RAYS` order
_ROWS = {kind: [(v, k, *pqr) for v, (k, pqr, _) in _RAYS.items() if k is kind] for kind in Kind}


class NearRightAngleWarning(UserWarning):
    """The largest angle is within tolerance of 90 degrees, where the
    third-kind constructions replacing A or B blow up to infinity."""


@dataclass(frozen=True, init=False)
class SpecialContainer:
    """One isosceles container sharing a side and an endpoint angle with ABC.

    `tri` keeps the two original vertices in their input slots, with the new
    auxiliary point in the replaced slot.
    """

    variant: ContainerVariant
    tri: Triangle
    area: float
    ratio: float

    def __init__(self, variant: ContainerVariant, tri: Triangle, area: float, ratio: float) -> None:
        self.__dict__.update(variant=variant, tri=tri, area=area, ratio=ratio)

    @property
    def kind(self) -> Kind:
        return _RAYS[self.variant][0]

    @property
    def label(self) -> str:
        return self.variant.value

    @property
    def new_vertex(self) -> Point:
        return self.tri.vertices[_RAYS[self.variant][1][2]]

    @property
    def new_vertex_label(self) -> str:
        return _RAYS[self.variant][2]


def _build(ct: CanonicalTriangle, rows: list) -> list[SpecialContainer]:
    """The containers PQX of `rows`, of any kinds: X = P + s*(R - P), ratio s."""
    _check_scalene(ct)
    A, B, C = vertices = ct.tri.vertices
    # the side opposite each slot: |PQ| = sides[r], |PR| = sides[q]
    sides = (ct.a, ct.b, ct.c)
    out = []
    for variant, kind, p, q, r in rows:
        P, Q, R = vertices[p], vertices[q], vertices[r]
        ex, ey = R.x - P.x, R.y - P.y
        if kind is Kind.FIRST:
            s = sides[r] / sides[q]
        else:
            dot = (Q.x - P.x) * ex + (Q.y - P.y) * ey
            if kind is Kind.SECOND:
                s = 2.0 * dot / (ex * ex + ey * ey)
            else:
                s = sides[r] * sides[r] / (2.0 * dot)
        X = Point(P.x + ex * s, P.y + ey * s)
        tri = Triangle(X, B, C) if r == 0 else Triangle(A, X, C) if r == 1 else Triangle(A, B, X)
        out.append(SpecialContainer(variant, tri, s * ct.area, s))  # area, ratio
    return out


def first_kind(ct: CanonicalTriangle) -> list[SpecialContainer]:
    """The three first-kind containers; area ratios are b/a, c/b, c/a."""
    return _build(ct, _ROWS[Kind.FIRST])


def second_kind(ct: CanonicalTriangle) -> list[SpecialContainer]:
    """The three second-kind containers; AB1C has ratio 2*b*cos(alpha)/c."""
    return _build(ct, _ROWS[Kind.SECOND])


def third_kind(ct: CanonicalTriangle) -> list[SpecialContainer]:
    """The third-kind containers: all three when gamma is acute, else only
    the one replacing C.

    At gamma exactly 90 degrees the constructions replacing A or B run to
    infinity, so within ``DEFAULT_TOLERANCES.eps_angle`` radians of the
    right angle they are excluded and a `NearRightAngleWarning` flags the
    tolerance sensitivity.
    """
    eps = DEFAULT_TOLERANCES.eps_angle
    rows = _ROWS[Kind.THIRD]
    if not ct.gamma < 0.5 * math.pi - eps:
        rows = rows[2:]  # ABCbar alone
    out = _build(ct, rows)
    if abs(ct.gamma - 0.5 * math.pi) < eps:
        warnings.warn(
            "largest angle is within tolerance of 90 degrees; the containers "
            "replacing A or B are excluded but numerically unstable nearby",
            NearRightAngleWarning,
            stacklevel=2,
        )
    return out


def all_special_containers(ct: CanonicalTriangle) -> list[SpecialContainer]:
    """All special containers: nine for acute input, seven otherwise."""
    return first_kind(ct) + second_kind(ct) + third_kind(ct)
