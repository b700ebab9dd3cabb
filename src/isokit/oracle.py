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

import math
from dataclasses import dataclass, field

import numpy as np

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
)
from .minimize import MinimizerResult, minimum_isosceles_container

__all__ = [
    "UnboundedShape",
    "ShapeParams",
    "OracleResult",
    "VerificationReport",
    "min_triangle_for_shape",
    "brute_force_min_isosceles",
    "can_cover",
    "verify_triangle",
]

_APEX_MARGIN = 1e-9  # radians; apex angles this close to 0 or pi are invalid
_TWO_PI = 2.0 * math.pi


class UnboundedShape(ValueError):
    """The three side normals fail to positively span the plane (impossible
    for a valid apex angle; defensive)."""


@dataclass(frozen=True)
class ShapeParams:
    """Isosceles container shape: apex angle in (0, pi) and the direction of
    the symmetry axis, pointing from the base midpoint toward the apex."""

    apex_angle: float
    rotation: float

    def __post_init__(self) -> None:
        if not _APEX_MARGIN < self.apex_angle < math.pi - _APEX_MARGIN:
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


def _centred(t: Triangle) -> tuple[float, float, np.ndarray]:
    """Centroid of `t` and its vertices relative to it as a (3, 2) array.

    A container's height and vertices come from sums and differences of
    support values, which lose the digits of a large offset; about the
    centroid they keep full precision relative to the triangle's size.
    """
    cx = sum(v.x for v in t.vertices) / 3.0
    cy = sum(v.y for v in t.vertices) / 3.0
    return cx, cy, np.array([[v.x - cx, v.y - cy] for v in t.vertices])


def _side_supports(p: np.ndarray, delta, psi) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Support values (h1, h2, hb) of the points `p` (shape (k, 2)) at the
    outward normals of the two legs and the base of the isosceles shape with
    apex angle `delta` and axis direction `psi`; broadcasts over `delta` and
    `psi`.

    The leg normals point along psi -/+ (pi/2 - delta/2), the base normal
    along psi + pi.
    """
    sh, ch = np.sin(0.5 * delta), np.cos(0.5 * delta)
    ux, uy = np.cos(psi), np.sin(psi)

    def support(nx, ny):
        return np.max(np.multiply.outer(nx, p[:, 0]) + np.multiply.outer(ny, p[:, 1]), axis=-1)

    return (
        support(sh * ux + ch * uy, sh * uy - ch * ux),
        support(sh * ux - ch * uy, sh * uy + ch * ux),
        support(-ux, -uy),
    )


def min_triangle_for_shape(
    t: Triangle, sp: ShapeParams, tol: Tolerances = DEFAULT_TOLERANCES
) -> Triangle:
    """Smallest isosceles triangle of the given shape/orientation containing
    `t`: the triangle bounded by the three supporting lines of `t` at the
    shape's outward side normals.  Every side touches `t`.
    """
    _check_nondegenerate(t, tol)
    half = 0.5 * sp.apex_angle
    sh, ch = math.sin(half), math.cos(half)
    if sh <= 0.0 or ch <= 0.0:
        raise UnboundedShape(f"apex angle {sp.apex_angle} does not bound a triangle")
    cx, cy, p = _centred(t)
    h1, h2, hb = (float(h) for h in _side_supports(p, sp.apex_angle, sp.rotation))
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


def _shape_frame(t: Triangle) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """A centred copy of `t` scaled to unit size, its interior angles, and
    the direction angles of the outward normals of its sides."""
    p = _centred(t)[2]
    p /= np.abs(p).max()
    ahead = np.roll(p, -1, axis=0) - p
    behind = np.roll(p, 1, axis=0) - p
    cross = ahead[:, 0] * behind[:, 1] - ahead[:, 1] * behind[:, 0]
    # atan2 of (|cross|, dot) keeps needle angles accurate
    angles = np.arctan2(np.abs(cross), np.sum(ahead * behind, axis=1))
    # side k runs from vertex k to k + 1; its outward normal is a quarter
    # turn clockwise from it when the vertices wind counter-clockwise
    normals = np.arctan2(ahead[:, 1], ahead[:, 0]) - math.copysign(0.5 * math.pi, cross[0])
    return p, angles, normals


def _candidate_apex_angles(angles: np.ndarray) -> np.ndarray:
    """Every apex angle at which a flush container's area, as a function of
    the apex angle, can have a local minimum, for a triangle with interior
    angles `angles`.

    With one container side on the line of an input side PQ, the other two
    sides each pass through P, Q or the third vertex R.  Which one changes
    only where the container's angle at P or Q equals the input's there,
    that is at an apex angle A or pi - 2A for an input angle A: the kinks.
    Between kinks the area is smooth.  With the base flush it is monotone in
    t = tan(delta/2), or convex with its least value on a kink.  With a leg
    flush, and k = cot A for the input angle A at P:
      - apex on P, base through R: area ~ (k + t)^2 t / (1 + t^2), stationary
        where t^3 - k t^2 + 3t + k = 0;
      - base vertex on P, other leg through R: stationary where
        t^4 + 2k t^3 + 6t^2 - 2k t + 1 = 0 (sin(2 delta + A) = 3 sin A);
      - both free sides through R: area ~ 1/sin(delta), least at pi/2;
      - free sides through P and Q: area ~ sin(delta), least on a kink.
    Extra candidates are harmless (each is a valid container), so every
    root's real part is kept.
    """
    k = 1.0 / np.tan(angles)
    zero, one = np.zeros_like(k), np.ones_like(k)
    # monic quartics t^4 + c3 t^3 + c2 t^2 + c1 t + c0 (the cubic times t)
    coeffs = np.concatenate(
        [np.stack([-k, 3.0 * one, k, zero], axis=1), np.stack([2.0 * k, 6.0 * one, -2.0 * k, one], axis=1)]
    )
    companion = np.zeros((len(coeffs), 4, 4))
    companion[:, 0, :] = -coeffs
    companion[:, 1, 0] = companion[:, 2, 1] = companion[:, 3, 2] = 1.0
    roots = np.linalg.eigvals(companion).real.ravel()
    deltas = np.concatenate(
        [angles, math.pi - 2.0 * angles, [0.5 * math.pi], 2.0 * np.arctan(roots[roots > 0.0])]
    )
    # out-of-range angles move to valid ones (ShapeParams excludes the margin)
    return np.clip(deltas, 2.0 * _APEX_MARGIN, math.pi - 2.0 * _APEX_MARGIN)


def _flush_rotations(normals: np.ndarray, deltas: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The nine rotations per apex angle at which the base, the first leg or
    the second leg is flush with an input side of outward normal angle in
    `normals`; returns apex angles and rotations, both (len(deltas), 9)."""
    half = 0.5 * deltas[:, None]
    nu = normals[None, :]
    psis = np.concatenate(
        np.broadcast_arrays(nu + math.pi, nu + 0.5 * math.pi - half, nu - 0.5 * math.pi + half), axis=1
    )
    return np.broadcast_to(deltas[:, None], psis.shape), psis


def _container_areas(p: np.ndarray, delta, psi) -> np.ndarray:
    """Areas of the supporting-line containers of the points `p` for the
    shapes (delta, psi): tan(delta/2) * H^2 with H the apex-to-base height."""
    h1, h2, hb = _side_supports(p, delta, psi)
    height = (h1 + h2) / (2.0 * np.sin(0.5 * delta)) + hb
    return np.tan(0.5 * delta) * height * height


def brute_force_min_isosceles(
    t: Triangle, tol: Tolerances = DEFAULT_TOLERANCES
) -> OracleResult:
    """Minimum-area isosceles triangle containing `t`, by an exact search
    over (apex angle, axis direction) that does not use the closed-form
    candidate analysis.

    Fixed apex angle: between consecutive rotations at which a side normal
    crosses an outward normal of `t` (nine per apex angle), the supporting
    vertices are fixed and the container height is a sinusoid in the
    rotation with no constant term.  It is positive and equal to minus its
    second derivative, so it is concave there and its minimum over rotations
    sits at one of the nine crossings, where a container side is flush with
    a side of `t`.

    Apex angle: the flush containers' areas are smooth between closed-form
    kinks, with closed-form or polynomial stationary points (see
    `_candidate_apex_angles`).  The minimum is at one of those apex angles,
    each evaluated at all nine flush rotations.

    The search runs on a centred, unit-size copy of `t`; the witness is
    built on `t` itself.  Deterministic: ties go to the first candidate.
    """
    _check_nondegenerate(t, tol)
    p, angles, normals = _shape_frame(t)
    deltas, psis = _flush_rotations(normals, _candidate_apex_angles(angles))
    best = int(np.argmin(_container_areas(p, deltas, psis)))

    params = ShapeParams(apex_angle=float(deltas.flat[best]), rotation=float(psis.flat[best]))
    witness = min_triangle_for_shape(t, params, tol)
    return OracleResult(min_area=area(witness), witness=witness, params=params)


# ---------------------------------------------------------------------------
# Covering decision
# ---------------------------------------------------------------------------


def _ccw_vertices(t: Triangle) -> list[tuple[float, float]]:
    pts = [(v.x, v.y) for v in t.vertices]
    twice = (pts[1][0] - pts[0][0]) * (pts[2][1] - pts[0][1]) - (
        pts[1][1] - pts[0][1]
    ) * (pts[2][0] - pts[0][0])
    if twice < 0.0:
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


def _seg_distance(p: tuple[float, float], q0: tuple[float, float], q1: tuple[float, float]) -> float:
    ex, ey = q1[0] - q0[0], q1[1] - q0[1]
    dx, dy = p[0] - q0[0], p[1] - q0[1]
    denom = ex * ex + ey * ey
    s = 0.0 if denom == 0.0 else max(0.0, min(1.0, (dx * ex + dy * ey) / denom))
    return math.hypot(dx - s * ex, dy - s * ey)


def _witness_flags(
    ct: CanonicalTriangle, witness: Triangle, eps_geom: float
) -> dict[str, bool]:
    w = [(v.x, v.y) for v in witness.vertices]
    ins = [(v.x, v.y) for v in ct.tri.vertices]
    scale = max(
        math.hypot(w[i][0] - w[(i + 1) % 3][0], w[i][1] - w[(i + 1) % 3][1])
        for i in range(3)
    )
    eps = eps_geom * scale

    segs = [(w[i], w[(i + 1) % 3]) for i in range(3)]
    vertices_on_boundary = all(
        min(_seg_distance(p, *seg) for seg in segs) <= eps for p in ins
    )
    sides_touch = all(min(_seg_distance(p, *seg) for p in ins) <= eps for seg in segs)

    # midpoint arcs: arc_j bends around witness vertex j, from the midpoint
    # of the preceding side to the midpoint of the following side
    mids = [
        ((w[i][0] + w[(i + 1) % 3][0]) / 2.0, (w[i][1] + w[(i + 1) % 3][1]) / 2.0)
        for i in range(3)
    ]
    arcs = [
        ((mids[(j + 2) % 3], w[j]), (w[j], mids[j]))
        for j in range(3)
    ]
    membership = [
        [min(_seg_distance(p, *piece) for piece in arc) <= eps for arc in arcs]
        for p in ins
    ]
    one_per_arc = any(
        membership[0][p0] and membership[1][p1] and membership[2][p2]
        for p0, p1, p2 in ((0, 1, 2), (0, 2, 1), (1, 0, 2), (1, 2, 0), (2, 0, 1), (2, 1, 0))
    )

    shared_pairs = [
        (vi, wj)
        for vi in range(3)
        for wj in range(3)
        if math.hypot(ins[vi][0] - w[wj][0], ins[vi][1] - w[wj][1]) <= eps
    ]
    shared_vertex = bool(shared_pairs)

    # shared side + endpoint angle: at a shared vertex, one input side must
    # run along a witness side and the opening angles must agree
    def rays(pts, k):
        out = []
        for other in (pts[(k + 1) % 3], pts[(k + 2) % 3]):
            dx, dy = other[0] - pts[k][0], other[1] - pts[k][1]
            ln = math.hypot(dx, dy)
            out.append((dx / ln, dy / ln))
        return out

    shares = False
    for vi, wj in shared_pairs:
        r_in = rays(ins, vi)
        r_w = rays(w, wj)
        angle_in = math.acos(max(-1.0, min(1.0, r_in[0][0] * r_in[1][0] + r_in[0][1] * r_in[1][1])))
        angle_w = math.acos(max(-1.0, min(1.0, r_w[0][0] * r_w[1][0] + r_w[0][1] * r_w[1][1])))
        if abs(angle_in - angle_w) > eps_geom:
            continue
        aligned = any(
            ri[0] * rw[0] + ri[1] * rw[1] >= math.cos(eps_geom)
            for ri in r_in
            for rw in r_w
        )
        if aligned:
            shares = True
            break

    return {
        "vertices_on_boundary": vertices_on_boundary,
        "sides_touch": sides_touch,
        "one_per_arc": one_per_arc,
        "shared_vertex": shared_vertex,
        "shares_side_and_angle": shares,
    }


def verify_triangle(
    ct: CanonicalTriangle,
    tol: Tolerances = DEFAULT_TOLERANCES,
    eps_geom: float = 1e-5,
) -> VerificationReport:
    """Compare the closed-form minimum against the brute-force oracle and
    check the boundary structure of the oracle's witness."""
    if ct.shape_class is not ShapeClass.SCALENE:
        raise NotScalene("verification runs on scalene triangles only")
    closed = minimum_isosceles_container(ct, tol)
    oracle = brute_force_min_isosceles(ct.tri, tol)
    gap = (oracle.min_area - closed.min_area) / closed.min_area
    flags = _witness_flags(ct, oracle.witness, eps_geom)
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
