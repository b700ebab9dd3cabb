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
    NotScalene,
    Point,
    ShapeClass,
    Tolerances,
    Triangle,
    canonicalize,
)
from .containers import SpecialContainer, first_kind, second_kind

__all__ = [
    "BracketFailure",
    "InvalidRegime",
    "InvalidSides",
    "SELF_CONTAINER",
    "MinimizerResult",
    "ExtremalCurvePoint",
    "minimum_isosceles_container",
    "alpha_star_equation",
    "alpha_star",
    "t_star",
    "eq1_residual",
    "ratio_curves",
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


@dataclass(frozen=True)
class MinimizerResult:
    """Minimum area/ratio, the minimizing container(s), and the evaluated
    candidates.  `minimizers` holds SpecialContainer items, or the single
    SELF_CONTAINER sentinel for isosceles input."""

    min_area: float
    min_ratio: float
    minimizers: tuple
    candidates: tuple[SpecialContainer, ...]

    @property
    def is_self(self) -> bool:
        return len(self.minimizers) == 1 and self.minimizers[0] is SELF_CONTAINER


def minimum_isosceles_container(
    ct: CanonicalTriangle, tol: Tolerances = DEFAULT_TOLERANCES
) -> MinimizerResult:
    """Minimum-area isosceles container(s) from the three-candidate set.

    Isosceles input short-circuits to the sentinel self-container with ratio
    1.  Otherwise exactly the candidates AB'C, ABC', AB1C are evaluated (the
    other six special containers are never minimal) and every candidate
    within the relative tie tolerance of the best is reported.
    """
    if ct.shape_class is not ShapeClass.SCALENE:
        return MinimizerResult(
            min_area=ct.area,
            min_ratio=1.0,
            minimizers=(SELF_CONTAINER,),
            candidates=(),
        )
    fk = first_kind(ct)
    ab1c = second_kind(ct)[0]
    candidates = (fk[0], fk[1], ab1c)  # AB'C, ABC', AB1C
    min_area = min(c.area for c in candidates)
    minimizers = tuple(c for c in candidates if c.area <= min_area * (1.0 + tol.eps_tie))
    return MinimizerResult(
        min_area=min_area,
        min_ratio=min_area / ct.area,
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


def alpha_star(tol: float = 1e-12) -> float:
    """The unique root of `alpha_star_equation` in [36, 45] degrees, radians.

    Bisection on the fixed bracket down to adjacent floats, so the result's
    interval width is at most `tol` and the residual is ~1e-16.  A `tol`
    below the float spacing at the bracket's top cannot be met and is
    rejected.
    """
    spacing = math.ulp(_ALPHA_BRACKET[1])
    if not spacing <= tol < 1e-3:
        raise ValueError(f"tol must be in [{spacing}, 1e-3), got {tol}")
    return _bisect(alpha_star_equation, *_ALPHA_BRACKET)


def t_star(tol: Tolerances = DEFAULT_TOLERANCES) -> CanonicalTriangle:
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
    return canonicalize(Triangle(A, B, C), tol)


def eq1_residual(ct: CanonicalTriangle) -> float:
    """(c - b)*sin(alpha + beta) - b*sin(beta - alpha).

    Zero exactly when the containers ABC' and AB1C have equal area.
    """
    if ct.shape_class is not ShapeClass.SCALENE:
        raise NotScalene("the residual is defined for scalene triangles only")
    return (ct.c - ct.b) * math.sin(ct.alpha + ct.beta) - ct.b * math.sin(
        ct.beta - ct.alpha
    )


@dataclass(frozen=True)
class ExtremalCurvePoint:
    """One sample of the competing ratio curves at fixed beta.

    ratio_f = c/b = sin(gamma)/sin(beta) is the ABC' ratio (increasing in
    alpha); ratio_g = 1/(1/2 + tan(alpha)/(2 tan(beta))) is the AB1C ratio
    (decreasing).  eq1_residual is evaluated at unit circumdiameter.
    """

    alpha: float
    beta: float
    gamma: float
    ratio_f: float
    ratio_g: float
    eq1_residual: float


def _curve_point(alpha: float, beta: float) -> ExtremalCurvePoint:
    gamma = math.pi - alpha - beta
    b = math.sin(beta)
    c = math.sin(gamma)
    return ExtremalCurvePoint(
        alpha=alpha,
        beta=beta,
        gamma=gamma,
        ratio_f=c / b,
        ratio_g=1.0 / (0.5 + math.tan(alpha) / (2.0 * math.tan(beta))),
        eq1_residual=(c - b) * math.sin(alpha + beta) - b * math.sin(beta - alpha),
    )


def ratio_curves(
    beta: float, n_samples: int = 64
) -> tuple[list[ExtremalCurvePoint], float]:
    """Sample the two ratio curves on alpha in (0, beta) and locate their
    unique crossing z by bisection.

    Only the regime beta < 45 degrees is meaningful (there gamma > 90
    degrees, so the minimum is contested between ABC' and AB1C).  At the
    crossing, (c/b)^2 = 2*cos(z) < 2, which is how the sqrt(2) supremum
    emerges as beta -> 0.
    """
    if not 0.0 < beta < 0.25 * math.pi:
        raise InvalidRegime(f"beta must be in (0, 45deg), got {beta} rad")
    if n_samples < 3:
        raise ValueError(f"n_samples must be >= 3, got {n_samples}")
    eps = 1e-6 * beta
    lo, hi = eps, beta - eps
    step = (hi - lo) / (n_samples - 1)
    points = [_curve_point(lo + i * step, beta) for i in range(n_samples)]

    def diff(alpha: float) -> float:
        p = _curve_point(alpha, beta)
        return p.ratio_f - p.ratio_g

    z = _bisect(diff, lo, hi)
    return points, z


def triangle_at_crossing(
    beta: float, tol: Tolerances = DEFAULT_TOLERANCES
) -> CanonicalTriangle:
    """The triangle with angles (z, beta, pi - beta - z) at the ratio-curve
    crossing, unit circumdiameter.  Its minimum container ratio tends to
    sqrt(2) from below as beta -> 0."""
    _, z = ratio_curves(beta, n_samples=3)
    gamma = math.pi - z - beta
    b = math.sin(beta)
    c = math.sin(gamma)
    tri = Triangle(
        Point(0.0, 0.0),
        Point(c, 0.0),
        Point(b * math.cos(z), b * math.sin(z)),
    )
    return canonicalize(tri, tol)


def first_kind_ratio(b: float, c: float) -> float:
    """Smallest first-kind container ratio for the triangle with sides
    (1, b, c): b when b^2 <= c, else c/b.  Strictly below (1+sqrt(5))/2.
    """
    if not (1.0 < b < c < b + 1.0):
        raise InvalidSides(f"need 1 < b < c < b + 1, got b={b}, c={c}")
    return b if b * b <= c else c / b
