"""The suite's exact referee, its input families and its plane helpers.

The referee computes the minimum container of a triangle in rational
arithmetic on its float vertices, from the paper's three candidates, so a
test can bound the closed form and the oracle against the exact value
rather than against each other.  The families draw hard input from fixed
seeds; each is bit for bit the same on every run.  A test imports what it
needs: ``from referee import exact_min_area_squared, wide_probe``.
"""

import math
from fractions import Fraction

import numpy as np

from isokit import GeometryError, Point, ShapeClass, Triangle, canonicalize, triangle_from_angles
from isokit.oracle import _witness_vertices


def triangle(pts) -> Triangle:
    """The triangle with vertices at the (x, y) pairs `pts`; a coordinate
    may be a float or its decimal string, which reads back exactly."""
    return Triangle(*(Point(float(x), float(y)) for x, y in pts))


def dist(p: Point, q: Point) -> float:
    return math.hypot(p.x - q.x, p.y - q.y)


def longest_side(tri: Triangle) -> float:
    v = tri.vertices
    return max(dist(v[i - 1], v[i]) for i in range(3))


def rigid_motion(tri: Triangle, theta: float, ox: float = -0.0, oy: float = -0.0) -> Triangle:
    """`tri` turned by `theta` about the origin, then moved by (ox, oy).
    The offset defaults to -0.0, the one float that adds as an identity
    (+0.0 would turn a coordinate of -0.0 into +0.0)."""
    c, s = math.cos(theta), math.sin(theta)
    return Triangle(*(Point(ox + c * p.x - s * p.y, oy + s * p.x + c * p.y) for p in tri.vertices))


def exact_min_ratio_squared(ct) -> tuple[Fraction, str]:
    """The squared minimum container ratio of `ct` and the label of the
    container that attains it, in exact rational arithmetic on the float
    vertices.  With a <= b <= c the candidate ratios are b/a (AB'C), c/b
    (ABC') and (b^2 + c^2 - a^2)/c^2 (AB1C); the squared sides are exact
    rationals in the coordinates, so every comparison is exact."""
    pts = [(Fraction(p.x), Fraction(p.y)) for p in ct.tri.vertices]
    a2, b2, c2 = sorted((x1 - x0) ** 2 + (y1 - y0) ** 2 for (x0, y0), (x1, y1) in zip(pts, pts[1:] + pts[:1]))
    candidates = {"AB'C": b2 / a2, "ABC'": c2 / b2, "AB1C": ((b2 + c2 - a2) / c2) ** 2}
    label = min(candidates, key=candidates.get)
    return candidates[label], label


def exact_min_area_squared(ct) -> Fraction:
    """The squared minimum container area of `ct`, exactly: the squared
    minimum ratio times the squared shoelace area of the float vertices."""
    (x0, y0), (x1, y1), (x2, y2) = ((Fraction(p.x), Fraction(p.y)) for p in ct.tri.vertices)
    twice_area = (x1 - x0) * (y2 - y0) - (x2 - x0) * (y1 - y0)
    return exact_min_ratio_squared(ct)[0] * twice_area**2 / 4


def within(value: float, exact_squared: Fraction, tol: float) -> bool:
    """Whether the positive `value` lies within relative `tol` of the square
    root of `exact_squared`, decided exactly."""
    return (1 - Fraction(tol)) ** 2 * exact_squared <= Fraction(value) ** 2 <= (1 + Fraction(tol)) ** 2 * exact_squared


def rotated_needles(seed: int = 2001, count: int = 200) -> list:
    """Scalene needles of circumdiameter 1: smallest angle log-uniform in
    [1e-9, 1e-3], the middle one uniform in [0.01, 0.5] (so the two long
    sides differ by more than ``eps_len``), turned by a uniform rotation
    about the origin, which leaves no side on an axis."""
    rng = np.random.default_rng(seed)
    alphas = 10.0 ** rng.uniform(-9.0, -3.0, count)
    betas = rng.uniform(0.01, 0.5, count)
    thetas = rng.uniform(0.0, 2.0 * math.pi, count)
    return [
        canonicalize(rigid_motion(triangle_from_angles(alpha, beta).tri, theta))
        for alpha, beta, theta in zip(alphas.tolist(), betas.tolist(), thetas.tolist())
    ]


def wide_probe(seed: int = 2002, count: int = 1000) -> list:
    """Scalene inputs across the accepted domain: smallest angle
    log-uniform in [1e-12, pi/3], the middle one uniform between it and the
    largest, circumdiameter 10^U(-100, 100), a uniform rotation and an
    offset in a uniform direction of 10^U(0, 12) circumdiameters.  Draws
    that `canonicalize` rejects or finds not scalene are drawn again."""
    rng = np.random.default_rng(seed)
    cts = []
    while len(cts) < count:
        alpha = 10.0 ** rng.uniform(-12.0, math.log10(math.pi / 3.0))
        beta = rng.uniform(alpha, 0.5 * (math.pi - alpha))
        size = 10.0 ** rng.uniform(-100.0, 100.0)
        offset = size * 10.0 ** rng.uniform(0.0, 12.0)
        theta, phi = rng.uniform(0.0, 2.0 * math.pi, 2)
        b, c = size * math.sin(beta), size * math.sin(alpha + beta)
        tri = triangle(((0.0, 0.0), (c, 0.0), (b * math.cos(alpha), b * math.sin(alpha))))
        try:
            ct = canonicalize(rigid_motion(tri, theta, offset * math.cos(phi), offset * math.sin(phi)))
        except GeometryError:
            continue
        if ct.shape_class is ShapeClass.SCALENE:
            cts.append(ct)
    return cts


def obtuse_needles(seed: int = 1, count: int = 1000) -> list:
    """Scalene needles with two tiny angles, so the largest is near pi:
    smallest angle 10^U(-9, -1) and the middle one 1 + 10^U(-8, 0) times
    it, at circumdiameter 1.  Draws that raise `GeometryError` or are not
    scalene are drawn again."""
    rng = np.random.default_rng(seed)
    cts = []
    while len(cts) < count:
        alpha = 10.0 ** rng.uniform(-9.0, -1.0)
        beta = alpha * (1.0 + 10.0 ** rng.uniform(-8.0, 0.0))
        try:
            ct = triangle_from_angles(alpha, beta)
        except GeometryError:
            continue
        if ct.shape_class is ShapeClass.SCALENE:
            cts.append(ct)
    return cts


def min_triangle_for_shape(t: Triangle, shape: tuple[float, float]) -> Triangle:
    """Smallest isosceles triangle of shape `shape` = (apex angle, rotation)
    containing `t`: the one bounded by the supporting lines of `t` at the
    shape's outward side normals, about the vertex A.  The support values
    are computed here, independently of the oracle's search, as the largest
    n . (p - A) over the vertices p of `t`, in plain floats; the oracle's
    `_witness_vertices` builds the triangle from them."""
    delta, rotation = shape
    sh, ch = math.sin(0.5 * delta), math.cos(0.5 * delta)
    ux, uy = math.cos(rotation), math.sin(rotation)
    A = t.A
    pts = [(p.x - A.x, p.y - A.y) for p in t.vertices]
    # the outward normals of the two legs and the base: sh u -/+ ch u' and
    # -u, with u = (ux, uy) and u' = (-uy, ux)
    normals = ((sh * ux + ch * uy, sh * uy - ch * ux), (sh * ux - ch * uy, sh * uy + ch * ux), (-ux, -uy))
    h1, h2, hb = (max(nx * x + ny * y for x, y in pts) for nx, ny in normals)
    return Triangle(*(Point(*v) for v in _witness_vertices(A.x, A.y, h1, h2, hb, delta, ux, uy)))
