"""Closed-form minimum-area isosceles container selection and the extremal
ratio analysis: the tie triangle with three distinct minimizers, the
sqrt(2) bound for general isosceles containers, and the golden-ratio bound
for first-kind containers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .geo import (
    DEFAULT_TOLERANCES,
    CanonicalTriangle,
    Point,
    Triangle,
    _SCALENE,
    _check_scalene,
    canonicalize,
)
from .containers import SpecialContainer, first_kind, second_kind
from .sampling import triangle_from_angles

__all__ = [
    "BracketFailure",
    "InvalidRegime",
    "InvalidSides",
    "SELF_CONTAINER",
    "MinimizerResult",
    "minimum_isosceles_container",
    "alpha_star_equation",
    "alpha_star",
    "t_star",
    "eq1_residual",
    "ratio_crossing",
    "triangle_at_crossing",
    "first_kind_ratio",
]


class BracketFailure(RuntimeError):
    """The bisection bracket does not change sign (guards against typos in
    the objective; cannot happen for the correct equations)."""


class InvalidRegime(ValueError):
    """Parameter outside the regime where the analysis applies."""


class InvalidSides(ValueError):
    """Side lengths violate the required ordering or triangle inequality."""


class _SelfContainer:
    """Sentinel minimizer: an isosceles triangle is its own unique
    minimum-area isosceles container."""

    label = "self"

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "SELF_CONTAINER"


SELF_CONTAINER = _SelfContainer()


@dataclass(frozen=True, init=False)
class MinimizerResult:
    """Minimum area/ratio, the minimizing container(s), and the evaluated
    candidates.  `minimizers` holds SpecialContainer items, or the single
    SELF_CONTAINER sentinel for isosceles input."""

    min_area: float
    min_ratio: float
    minimizers: tuple
    candidates: tuple[SpecialContainer, ...]

    def __init__(self, min_area: float, min_ratio: float, minimizers: tuple, candidates: tuple[SpecialContainer, ...]) -> None:
        self.__dict__.update(min_area=min_area, min_ratio=min_ratio, minimizers=minimizers, candidates=candidates)

    @property
    def is_self(self) -> bool:
        return len(self.minimizers) == 1 and self.minimizers[0] is SELF_CONTAINER


def minimum_isosceles_container(ct: CanonicalTriangle) -> MinimizerResult:
    """Minimum-area isosceles container(s) from the three-candidate set.

    Isosceles input short-circuits to the sentinel self-container with ratio
    1.  Otherwise exactly the candidates AB'C, ABC', AB1C are evaluated (the
    other six special containers are never minimal) and every candidate
    within the relative tie tolerance ``DEFAULT_TOLERANCES.eps_tie`` of the
    best is reported.
    """
    if ct.shape_class is not _SCALENE:
        return MinimizerResult(
            min_area=ct.area,
            min_ratio=1.0,
            minimizers=(SELF_CONTAINER,),
            candidates=(),
        )
    fk = first_kind(ct)
    p, q, r = candidates = (fk[0], fk[1], second_kind(ct)[0])  # AB'C, ABC', AB1C
    # by comparisons: on CPython 3.11 a generator expression is a function call
    rp, rq, rr = p.ratio, q.ratio, r.ratio
    min_ratio = rq if rq < rp else rp
    if rr < min_ratio:
        min_ratio = rr
    bound = min_ratio * (1.0 + DEFAULT_TOLERANCES.eps_tie)
    minimizers = (p,) if rp <= bound else ()
    if rq <= bound:
        minimizers += (q,)
    if rr <= bound:
        minimizers += (r,)
    return MinimizerResult(
        min_area=min_ratio * ct.area,
        min_ratio=min_ratio,
        minimizers=minimizers,
        candidates=candidates,
    )


def alpha_star_equation(alpha: float) -> float:
    """sin(a)*sin(2a) - sin^2(3a); the tie triangle's base angle is its root."""
    return math.sin(alpha) * math.sin(2.0 * alpha) - math.sin(3.0 * alpha) ** 2


_ALPHA_BRACKET = (math.radians(36.0), math.radians(45.0))


def _bisect(f, lo: float, hi: float) -> float:
    """Sign-change bisection down to adjacent floats, so the returned root's
    residual is rounding-limited."""
    flo, fhi = f(lo), f(hi)
    if flo == 0.0:
        return lo
    if fhi == 0.0:
        return hi
    if (flo > 0.0) == (fhi > 0.0):
        raise BracketFailure(f"no sign change on [{lo}, {hi}]: f={flo}, f={fhi}")
    while True:
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:
            break
        fm = f(mid)
        if fm == 0.0:
            return mid
        if (fm > 0.0) == (fhi > 0.0):
            hi, fhi = mid, fm
        else:
            lo, flo = mid, fm
    return 0.5 * (lo + hi)


def alpha_star() -> float:
    """The unique root of `alpha_star_equation` in [36, 45] degrees, radians.

    Bisection on the fixed bracket down to adjacent floats, so the result is
    within one float spacing of the root and the residual is ~1e-16.
    """
    return _bisect(alpha_star_equation, *_ALPHA_BRACKET)


def t_star() -> CanonicalTriangle:
    """The unique triangle (up to similarity) with three distinct minimum
    area isosceles containers: angles a*, 180deg - 3a*, 2a*.

    Unit scale (circumdiameter 1, so sides are the sines of the angles),
    longest side on the x-axis starting at the origin.
    """
    al = alpha_star()
    be = math.pi - 3.0 * al
    b = math.sin(be)
    c = math.sin(2.0 * al)
    A = Point(0.0, 0.0)
    B = Point(c, 0.0)
    C = Point(b * math.cos(al), b * math.sin(al))
    return canonicalize(Triangle(A, B, C))


def eq1_residual(ct: CanonicalTriangle) -> float:
    """(c - b)*sin(alpha + beta) - b*sin(beta - alpha).

    Zero exactly when the containers ABC' and AB1C have equal area.
    """
    _check_scalene(ct)
    return (ct.c - ct.b) * math.sin(ct.alpha + ct.beta) - ct.b * math.sin(ct.beta - ct.alpha)


def ratio_crossing(beta: float) -> float:
    """The angle z in (0, beta) where the two ratio curves at fixed beta
    cross, by bisection on alpha.

    The ABC' ratio c/b = sin(gamma)/sin(beta) increases in alpha and the
    AB1C ratio 1/(1/2 + tan(alpha)/(2 tan(beta))) decreases, so they cross
    once.  Only the regime beta < 45 degrees is meaningful (there gamma > 90
    degrees, so the minimum is contested between ABC' and AB1C).  At the
    crossing, (c/b)^2 = 2*cos(z) < 2, which is how the sqrt(2) supremum
    emerges as beta -> 0.
    """
    if not 0.0 < beta < 0.25 * math.pi:
        raise InvalidRegime(f"beta must be in (0, 45deg), got {beta} rad")
    eps = 1e-6 * beta

    def diff(alpha: float) -> float:
        ratio_f = math.sin(math.pi - alpha - beta) / math.sin(beta)
        ratio_g = 1.0 / (0.5 + math.tan(alpha) / (2.0 * math.tan(beta)))
        return ratio_f - ratio_g

    return _bisect(diff, eps, beta - eps)


def triangle_at_crossing(beta: float) -> CanonicalTriangle:
    """The triangle with angles (z, beta, pi - beta - z) at the ratio-curve
    crossing, unit circumdiameter.  Its minimum container ratio tends to
    sqrt(2) from below as beta -> 0."""
    return triangle_from_angles(ratio_crossing(beta), beta)


def first_kind_ratio(b: float, c: float) -> float:
    """Smallest first-kind container ratio for the triangle with sides
    (1, b, c): b when b^2 <= c, else c/b.  Strictly below (1+sqrt(5))/2.
    """
    if not (1.0 < b < c < b + 1.0):
        raise InvalidSides(f"need 1 < b < c < b + 1, got b={b}, c={c}")
    return b if b * b <= c else c / b
