"""The nine named isosceles containers of a scalene triangle.

A minimum container keeps a side PQ of the input triangle ABC and the angle
at P (Kiss, Pach & Somlai).  So every special container is the triangle PQX
with X = P + s*(R - P) on the ray from P through the third vertex R, and its
area is exactly s times the input's: the ratio is s.  P and Q keep their
input slots bitwise intact and X takes R's slot, so "shares a side" is
testable with exact equality.  All constructions work in the input's own
coordinate frame.  A container is stored as its variant, its input and s,
and X is built only where a caller reads it.  s depends only on where the
apex is:

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
# the (variant, kind, p, q, r) rows of all containers in `_RAYS` order, and
# per kind those of its own
_ALL_ROWS = [(v, k, *pqr) for v, (k, pqr, _) in _RAYS.items()]
_ROWS = {kind: [row for row in _ALL_ROWS if row[1] is kind] for kind in Kind}
# `_build` compares kinds with these: reading an Enum member off its class
# costs about 0.17 us on Python 3.11, more than the row's arithmetic
_FIRST, _SECOND, _THIRD = Kind.FIRST, Kind.SECOND, Kind.THIRD


class NearRightAngleWarning(UserWarning):
    """The largest angle is within tolerance of 90 degrees, where the
    third-kind constructions replacing A or B blow up to infinity."""


@dataclass(frozen=True, init=False)
class SpecialContainer:
    """One isosceles container sharing a side and an endpoint angle with ABC.

    The record is the variant, the input and the ratio s; everything else is
    computed on read.  `area` is ``ratio * input.area``.  `tri` keeps the
    two original vertices P and Q bitwise in their input slots, with the new
    vertex X = P + s*(R - P) in R's slot; `new_vertex` is X alone.  Each
    read of `tri` or `new_vertex` builds it again, so a caller that reads
    only ratios or areas builds no points, and any later rounding of X
    (outward, for exact containment) costs only where X is read.

    No error waits for the read.  X is finite: `canonicalize` rejects
    extents above about 1.3e154, and |PX| = s*|PR| is at most 2c for the
    first and second kinds, c / (2 cos gamma) < c / (2 eps_angle) for the
    third-kind containers replacing A or B, and c / (2 cos beta) for ABCbar,
    where cos beta > sin(alpha / 2) and the degeneracy threshold keeps
    sin(alpha) above 2e-12.  So |PX| stays below about 1e166, far under
    the float range, and the `Point` that X builds never raises.
    """

    variant: ContainerVariant
    input: CanonicalTriangle
    ratio: float

    def __init__(self, variant: ContainerVariant, input: CanonicalTriangle, ratio: float) -> None:
        self.__dict__.update(variant=variant, input=input, ratio=ratio)

    @property
    def kind(self) -> Kind:
        return _RAYS[self.variant][0]

    @property
    def label(self) -> str:
        return self.variant.value

    @property
    def area(self) -> float:
        return self.ratio * self.input.area

    @property
    def new_vertex(self) -> Point:
        _, (p, _, r), _ = _RAYS[self.variant]
        vertices = self.input.tri.vertices
        P, R = vertices[p], vertices[r]
        s = self.ratio
        return Point(P.x + (R.x - P.x) * s, P.y + (R.y - P.y) * s)

    @property
    def tri(self) -> Triangle:
        vertices = list(self.input.tri.vertices)
        vertices[_RAYS[self.variant][1][2]] = self.new_vertex
        return Triangle(*vertices)

    @property
    def new_vertex_label(self) -> str:
        return _RAYS[self.variant][2]


def _build(ct: CanonicalTriangle, rows: list) -> list[SpecialContainer]:
    """The containers PQX of `rows`, of any kinds and in their order, by
    their ratios s alone: X = P + s*(R - P) is built only when a caller
    reads it.  Third-kind rows come last, and the near-right cut of
    `third_kind` applies to them."""
    _check_scalene(ct)
    if rows[-1][1] is _THIRD:
        eps = DEFAULT_TOLERANCES.eps_angle
        if not ct.gamma < 0.5 * math.pi - eps:
            rows = rows[:-3] + rows[-1:]  # ABCbar alone of the third kind
        if abs(ct.gamma - 0.5 * math.pi) < eps:
            # attributed to the caller of `third_kind` or `all_special_containers`
            warnings.warn(
                "largest angle is within tolerance of 90 degrees; the containers "
                "replacing A or B are excluded but numerically unstable nearby",
                NearRightAngleWarning,
                stacklevel=3,
            )
    A, B, C = ct.tri.vertices
    xs, ys = (A.x, B.x, C.x), (A.y, B.y, C.y)
    # the side opposite each slot: |PQ| = sides[r], |PR| = sides[q]
    sides = (ct.a, ct.b, ct.c)
    out = []
    for variant, kind, p, q, r in rows:
        if kind is _FIRST:
            s = sides[r] / sides[q]
        else:
            px, py = xs[p], ys[p]
            ex, ey = xs[r] - px, ys[r] - py
            dot = (xs[q] - px) * ex + (ys[q] - py) * ey
            if kind is _SECOND:
                s = 2.0 * dot / (ex * ex + ey * ey)
            else:
                s = sides[r] * sides[r] / (2.0 * dot)
        out.append(SpecialContainer(variant, ct, s))
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
    return _build(ct, _ROWS[Kind.THIRD])


def all_special_containers(ct: CanonicalTriangle) -> list[SpecialContainer]:
    """All special containers, in one pass over the rows of all three kinds:
    nine for acute input, seven otherwise (see `third_kind`)."""
    return _build(ct, _ALL_ROWS)
