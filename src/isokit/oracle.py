"""Brute force, independent of the closed-form candidate analysis: minimum
enclosing isosceles triangle by supporting-line optimization over (apex
angle, orientation), and the slide-based covering decision for one triangle
over another.

The key reduction: a minimal container touches the inner triangle on every
side, so for a fixed isosceles shape (apex angle) and orientation (axis
direction) the best container is the triangle bounded by the three
supporting lines of the input at the shape's outward side normals.  That
removes translation and scale analytically and leaves a 2D search, which
`brute_force_min_isosceles` solves exactly.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import Iterable, Sequence

from .geo import (
    DEFAULT_TOLERANCES,
    CanonicalTriangle,
    DegenerateTriangle,
    NotScalene,
    Point,
    ShapeClass,
    Tolerances,
    Triangle,
    area,
    signed_area,
)
from .minimize import MinimizerResult, minimum_isosceles_container

__all__ = [
    "UnboundedShape",
    "ShapeParams",
    "OracleResult",
    "VerificationReport",
    "min_triangle_for_shape",
    "brute_force_min_isosceles",
    "brute_force_min_isosceles_batch",
    "can_cover",
    "verify_triangle",
    "verify_triangles",
]

_TWO_PI = 2.0 * math.pi

# relative tolerance of the witness structure checks: distances are scaled
# by the witness's longest side, angles are in radians
_EPS_GEOM = 1e-5


class UnboundedShape(ValueError):
    """The apex angle is outside (0, pi), so the shape bounds no triangle."""


@dataclass(frozen=True)
class ShapeParams:
    """Isosceles container shape: apex angle in the open interval (0, pi)
    and the direction of the symmetry axis, pointing from the base midpoint
    toward the apex.  Any other apex angle raises `UnboundedShape`."""

    apex_angle: float
    rotation: float

    def __post_init__(self) -> None:
        if not 0.0 < self.apex_angle < math.pi:
            raise UnboundedShape(f"apex angle {self.apex_angle} outside (0, pi)")
        object.__setattr__(self, "rotation", self.rotation % _TWO_PI)


@dataclass(frozen=True)
class OracleResult:
    min_area: float
    witness: Triangle
    params: ShapeParams


@dataclass(frozen=True)
class VerificationReport:
    """Closed form vs oracle for one triangle, with the boundary-structure
    checks every true minimizer must satisfy: all input vertices on the
    witness boundary, each witness side touching the input, one vertex per
    midpoint arc, a shared vertex, and a shared side plus endpoint angle."""

    input: CanonicalTriangle
    closed_form_area: float
    oracle_area: float
    relative_gap: float
    boundary_invariants_ok: bool
    shares_side_and_angle: bool
    min_result: MinimizerResult
    oracle_result: OracleResult
    flags: dict[str, bool] = field(default_factory=dict)


def _check_nondegenerate(t: Triangle, tol: Tolerances) -> None:
    if area(t) <= tol.eps_area(*t.vertices):
        raise DegenerateTriangle("oracle operations need a non-degenerate triangle")


def _witness_vertices(
    centre: tuple[float, float], supports: tuple[float, float, float], sp: ShapeParams
) -> Triangle:
    """The isosceles triangle of shape `sp` bounded by the lines at support
    values `supports` = (h1, h2, hb), measured from `centre`, along the
    outward normals of its two legs and its base; the apex comes first."""
    cx, cy = centre
    h1, h2, hb = supports
    half = 0.5 * sp.apex_angle
    sh, ch = math.sin(half), math.cos(half)
    psi = sp.rotation
    ux, uy = math.cos(psi), math.sin(psi)  # axis: base midpoint -> apex
    px, py = -uy, ux

    xi_apex = (h1 + h2) / (2.0 * sh)
    eta_apex = (h2 - h1) / (2.0 * ch)
    xi_base = -hb
    eta_1 = -(h1 + hb * sh) / ch
    eta_2 = (h2 + hb * sh) / ch

    def to_point(xi: float, eta: float) -> Point:
        return Point(cx + xi * ux + eta * px, cy + xi * uy + eta * py)

    return Triangle(to_point(xi_apex, eta_apex), to_point(xi_base, eta_1), to_point(xi_base, eta_2))


def min_triangle_for_shape(
    t: Triangle, sp: ShapeParams, tol: Tolerances = DEFAULT_TOLERANCES
) -> Triangle:
    """Smallest isosceles triangle of the given shape/orientation containing
    `t`: the triangle bounded by the three supporting lines of `t` at the
    shape's outward side normals.  Every side touches `t`.
    """
    _check_nondegenerate(t, tol)
    # imported on first use, so that `import isokit` does not load numpy
    from ._search import _shape_frame, _side_supports

    p, _, _, ((cx, cy, s),) = _shape_frame([t])
    h = _side_supports(p[0, :, 0], p[0, :, 1], sp.apex_angle, sp.rotation)
    return _witness_vertices((cx, cy), tuple(float(g) * s for g in h), sp)


def brute_force_min_isosceles_batch(
    triangles: Iterable[Triangle], tol: Tolerances = DEFAULT_TOLERANCES
) -> list[OracleResult]:
    """Minimum-area isosceles triangle containing each of `triangles`, by an
    exact search over (apex angle, axis direction) that does not use the
    closed-form candidate analysis.

    Fixed apex angle: between consecutive rotations at which a side normal
    crosses an outward normal of the input (nine per apex angle), the
    supporting vertices are fixed and the container height is a sinusoid in
    the rotation with no constant term.  It is positive and equal to minus
    its second derivative, so it is concave there and its minimum over
    rotations sits at one of the nine crossings, where a container side is
    flush with a side of the input.

    Apex angle: the flush containers' areas are smooth between closed-form
    kinks, with closed-form stationary points (see
    `_search._candidate_apex_angles`).  The minimum is at one of those apex angles,
    each evaluated at all nine flush rotations.

    The triangles go through array passes over fixed-size blocks of rows,
    each on its own centred, unit-size copy and with its own argmin, so a
    result does not depend on the rest of the batch.  `min_area` is the
    least area the search found on that copy, scaled back.  The witness is
    the container bounded by the support values that area came from, as
    the search computed them (`min_triangle_for_shape` builds the same
    triangle from supports it computes itself).  Every triangle is checked
    before the search.  Deterministic: ties go to the first candidate.
    """
    triangles = list(triangles)
    if not triangles:
        return []
    for t in triangles:
        _check_nondegenerate(t, tol)
    # imported on first use, so that `import isokit` does not load numpy
    from ._search import best_shapes

    results = []
    for apex_angle, rotation, min_area, supports, centre in best_shapes(triangles):
        params = ShapeParams(apex_angle=apex_angle, rotation=rotation)
        witness = _witness_vertices(centre, supports, params)
        results.append(OracleResult(min_area=min_area, witness=witness, params=params))
    return results


def brute_force_min_isosceles(
    t: Triangle, tol: Tolerances = DEFAULT_TOLERANCES
) -> OracleResult:
    """Minimum-area isosceles triangle containing `t`: the one-triangle
    batch of `brute_force_min_isosceles_batch`."""
    return brute_force_min_isosceles_batch([t], tol)[0]


# ---------------------------------------------------------------------------
# Covering decision
# ---------------------------------------------------------------------------


def _ccw_vertices(t: Triangle) -> list[tuple[float, float]]:
    pts = [(v.x, v.y) for v in t.vertices]
    if signed_area(t) < 0.0:
        pts[1], pts[2] = pts[2], pts[1]
    return pts


def _side_frame(pts: list[tuple[float, float]], i: int) -> list[tuple[float, float]]:
    """Rotate+translate so side i runs from the origin along +x; for CCW
    input the interior lands in the upper half-plane."""
    x0, y0 = pts[i]
    x1, y1 = pts[(i + 1) % 3]
    ex, ey = x1 - x0, y1 - y0
    ln = math.hypot(ex, ey)
    cx, sx = ex / ln, ey / ln
    out = []
    for x, y in pts:
        dx, dy = x - x0, y - y0
        out.append((dx * cx + dy * sx, -dx * sx + dy * cx))
    return out


def can_cover(
    mover: Triangle, target: Triangle, tol: Tolerances = DEFAULT_TOLERANCES
) -> bool:
    """Can some rigid motion (rotations, translations, and reflections) of
    `mover` place it over `target`?

    If any covering exists, one exists with a side of the mover containing a
    side of the target, so it suffices to try each (mover side, target side,
    mirror) configuration with the two side lines identified and the mover
    free to slide along the line.  Each "target vertex inside mover"
    condition is linear in the slide offset, so feasibility is an interval
    intersection, decided in closed form.
    """
    _check_nondegenerate(mover, tol)
    _check_nondegenerate(target, tol)

    sides = []
    for tri in (mover, target):
        vs = tri.vertices
        sides.extend(
            math.hypot(vs[i].x - vs[(i + 1) % 3].x, vs[i].y - vs[(i + 1) % 3].y)
            for i in range(3)
        )
    scale = max(sides)
    slack = tol.eps_num * scale * scale  # cross products have area units
    eps_u = tol.eps_num * scale
    tiny = 1e-15 * scale

    target_ccw = _ccw_vertices(target)
    mover_ccw = _ccw_vertices(mover)
    mover_mirror = _ccw_vertices(
        Triangle(*(Point(v.x, -v.y) for v in mover.vertices))
    )

    for mv in (mover_ccw, mover_mirror):
        for i in range(3):
            placed = _side_frame(mv, i)
            edges = []
            for k in range(3):
                xk, yk = placed[k]
                xk1, yk1 = placed[(k + 1) % 3]
                edges.append((xk, yk, xk1 - xk, yk1 - yk))
            for j in range(3):
                tgt = _side_frame(target_ccw, j)
                lo, hi = -math.inf, math.inf
                feasible = True
                for xk, yk, ex, ey in edges:
                    for qx, qy in tgt:
                        # inside (left of edge) for slide u: cr + u*ey >= -slack
                        cr = ex * (qy - yk) - ey * (qx - xk)
                        if ey > tiny:
                            lo = max(lo, (-slack - cr) / ey)
                        elif ey < -tiny:
                            hi = min(hi, (-slack - cr) / ey)
                        elif cr < -slack:
                            feasible = False
                            break
                    if not feasible:
                        break
                if feasible and lo <= hi + eps_u:
                    return True
    return False


# ---------------------------------------------------------------------------
# Witness structure checks
# ---------------------------------------------------------------------------


def _corner(pts: list[tuple[float, float]], k: int) -> tuple[list[tuple[float, float]], float]:
    """The unit rays from vertex k of `pts` to the other two vertices, and
    the opening angle between them."""
    x, y = pts[k]
    rays = []
    for ox, oy in (pts[k - 2], pts[k - 1]):
        dx, dy = ox - x, oy - y
        ln = math.hypot(dx, dy)
        rays.append((dx / ln, dy / ln))
    (ax, ay), (bx, by) = rays
    return rays, math.acos(max(-1.0, min(1.0, ax * bx + ay * by)))


def _witness_flags(ct: CanonicalTriangle, witness: Triangle) -> dict[str, bool]:
    w = [(v.x, v.y) for v in witness.vertices]
    ins = [(v.x, v.y) for v in ct.tri.vertices]
    scale = max(math.hypot(w[i][0] - w[i - 2][0], w[i][1] - w[i - 2][1]) for i in range(3))
    eps = _EPS_GEOM * scale

    # whether each input vertex lies within eps of each half of each witness
    # side: half 2i runs from witness vertex i to the midpoint of side i,
    # half 2i + 1 from there on to vertex i + 1.  Each half is kept as its
    # start, its direction and its squared length.
    halves = []
    for i in range(3):
        (x0, y0), (x1, y1) = w[i], w[i - 2]
        mx, my = (x0 + x1) / 2.0, (y0 + y1) / 2.0
        for sx, sy, ex, ey in ((x0, y0, mx - x0, my - y0), (mx, my, x1 - mx, y1 - my)):
            halves.append((sx, sy, ex, ey, ex * ex + ey * ey))
    near = []
    for qx, qy in ins:
        row = []
        for sx, sy, ex, ey, denom in halves:
            # distance to the closest point of the half, s in [0, 1] along it
            dx, dy = qx - sx, qy - sy
            along = dx * ex + dy * ey
            s = 0.0 if along <= 0.0 else 1.0 if along >= denom else along / denom
            row.append(math.hypot(dx - s * ex, dy - s * ey) <= eps)
        near.append(row)

    on_side = [[row[2 * i] or row[2 * i + 1] for i in range(3)] for row in near]
    vertices_on_boundary = all(any(row) for row in on_side)
    sides_touch = all(any(row[i] for row in on_side) for i in range(3))

    # midpoint arcs: arc j bends around witness vertex j, from the midpoint
    # of the preceding side to the midpoint of the following side
    on_arc = [[row[2 * j - 1] or row[2 * j] for j in range(3)] for row in near]
    one_per_arc = any(
        on_arc[0][p0] and on_arc[1][p1] and on_arc[2][p2]
        for p0, p1, p2 in itertools.permutations(range(3))
    )

    shared_pairs = [
        (vi, wj)
        for vi in range(3)
        for wj in range(3)
        if math.hypot(ins[vi][0] - w[wj][0], ins[vi][1] - w[wj][1]) <= eps
    ]

    # shared side + endpoint angle: at a shared vertex, one input side must
    # run along a witness side and the opening angles must agree
    cos_eps = math.cos(_EPS_GEOM)
    shares = False
    for vi, wj in shared_pairs:
        rays_in, angle_in = _corner(ins, vi)
        rays_w, angle_w = _corner(w, wj)
        if abs(angle_in - angle_w) <= _EPS_GEOM and any(
            ri[0] * rw[0] + ri[1] * rw[1] >= cos_eps for ri in rays_in for rw in rays_w
        ):
            shares = True
            break

    return {
        "vertices_on_boundary": vertices_on_boundary,
        "sides_touch": sides_touch,
        "one_per_arc": one_per_arc,
        "shared_vertex": bool(shared_pairs),
        "shares_side_and_angle": shares,
    }


def _closed_forms(cts: Sequence[CanonicalTriangle], tol: Tolerances) -> list[MinimizerResult]:
    """The closed-form minimum of each of `cts`, after checking that every
    one is scalene."""
    for ct in cts:
        if ct.shape_class is not ShapeClass.SCALENE:
            raise NotScalene("verification runs on scalene triangles only")
    return [minimum_isosceles_container(ct, tol) for ct in cts]


def _report(ct: CanonicalTriangle, closed: MinimizerResult, oracle: OracleResult) -> VerificationReport:
    gap = (oracle.min_area - closed.min_area) / closed.min_area
    flags = _witness_flags(ct, oracle.witness)
    boundary_ok = (
        flags["vertices_on_boundary"]
        and flags["sides_touch"]
        and flags["one_per_arc"]
        and flags["shared_vertex"]
    )
    return VerificationReport(
        input=ct,
        closed_form_area=closed.min_area,
        oracle_area=oracle.min_area,
        relative_gap=gap,
        boundary_invariants_ok=boundary_ok,
        shares_side_and_angle=flags["shares_side_and_angle"],
        min_result=closed,
        oracle_result=oracle,
        flags=flags,
    )


def verify_triangles(
    cts: Iterable[CanonicalTriangle], tol: Tolerances = DEFAULT_TOLERANCES
) -> list[VerificationReport]:
    """Compare the closed-form minimum against the brute-force oracle and
    check the boundary structure of the oracle's witness, for each of `cts`.
    The oracle searches all of them in one batch; every triangle is checked
    before the search."""
    cts = list(cts)
    closed = _closed_forms(cts, tol)
    oracles = brute_force_min_isosceles_batch([ct.tri for ct in cts], tol)
    return [_report(*case) for case in zip(cts, closed, oracles)]


def verify_triangle(ct: CanonicalTriangle, tol: Tolerances = DEFAULT_TOLERANCES) -> VerificationReport:
    """`verify_triangles` for one triangle.  It calls the oracle through
    `brute_force_min_isosceles`, so a caller that wraps that function (the
    benchmark's tracer does) still sees single searches."""
    (closed,) = _closed_forms([ct], tol)
    return _report(ct, closed, brute_force_min_isosceles(ct.tri, tol))
