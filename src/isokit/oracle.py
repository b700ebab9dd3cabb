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
from dataclasses import dataclass
from typing import Iterable, Sequence

from .geo import (
    DEFAULT_TOLERANCES,
    CanonicalTriangle,
    Point,
    Triangle,
    _angle_between,
    _check_nondegenerate,
    _check_scalene,
    canonicalize,
    signed_area,
)
from .minimize import MinimizerResult, minimum_isosceles_container

__all__ = [
    "OracleResult",
    "VerificationReport",
    "brute_force_min_isosceles",
    "brute_force_min_isosceles_batch",
    "can_cover",
    "verify_triangle",
    "verify_triangles",
]

# relative tolerance of the witness structure checks on the unit copy the
# search ran on: distances scale with the witness's longest side, angles are radians
_EPS_GEOM = 1e-7


@dataclass(frozen=True, init=False)
class OracleResult:
    """The least-area container the search found on the unit copy of
    `input` that `canonicalize` defines (AB from (0, 0) to (1, 0), C at
    (b/c)(cos alpha, sin alpha)): its area (the copy's times c squared),
    its apex angle in (0, pi), its unit axis (vx, vy) from the base
    midpoint toward the apex, and the copy's support values (h1, h2, hb) at
    the outward normals of its legs and base.  `rotation` and `witness`
    pose it on the input on each read."""

    input: CanonicalTriangle
    min_area: float
    apex_angle: float
    axis: tuple[float, float]
    supports: tuple[float, float, float]

    def __init__(self, input: CanonicalTriangle, min_area: float, apex_angle: float, axis: tuple, supports: tuple) -> None:
        self.__dict__.update(input=input, min_area=min_area, apex_angle=apex_angle, axis=axis, supports=supports)

    def _pose(self) -> tuple[float, float, float, float]:
        """The axis on the input, and the leg supports (h1, h2) in the
        input's order.  The copy's point (x, y) is A + c (x u + s y u') on the
        input, with u = (B - A) / c, u' = (-uy, ux) and s = -1 where A, B, C
        wind clockwise; that mirror turns the first leg's normal into the second's."""
        tri, c = self.input.tri, self.input.c
        ux, uy = (tri.B.x - tri.A.x) / c, (tri.B.y - tri.A.y) / c
        s = math.copysign(1.0, signed_area(tri))
        (vx, vy), (h1, h2, _) = self.axis, self.supports
        return vx * ux - s * vy * uy, vx * uy + s * vy * ux, *((h2, h1) if s < 0.0 else (h1, h2))

    @property
    def rotation(self) -> float:
        """The direction of the axis on the input, in [0, 2 pi)."""
        ax, ay, _, _ = self._pose()
        return math.atan2(ay, ax) % math.tau

    @property
    def witness(self) -> Triangle:
        """The container on the input, apex first."""
        ax, ay, h1, h2 = self._pose()
        A, c = self.input.tri.A, self.input.c
        vertices = _witness_vertices(A.x, A.y, h1 * c, h2 * c, self.supports[2] * c, self.apex_angle, ax, ay)
        return Triangle(*(Point(x, y) for x, y in vertices))


def _witness_vertices(
    cx: float, cy: float, h1: float, h2: float, hb: float, delta: float, ux: float, uy: float
) -> list[tuple[float, float]]:
    """The vertices, apex first, of the isosceles triangle with apex angle
    `delta` and unit axis (`ux`, `uy`), from the base midpoint toward the
    apex, bounded by the lines at support values (h1, h2, hb), measured
    from (cx, cy), along the outward normals of its two legs and its base,
    in the order `_search._side_supports` gives them."""
    sh, ch = math.sin(0.5 * delta), math.cos(0.5 * delta)
    apex = ((h1 + h2) / (2.0 * sh), (h2 - h1) / (2.0 * ch))
    base1 = (-hb, -(h1 + hb * sh) / ch)
    base2 = (-hb, (h2 + hb * sh) / ch)
    # (xi, eta) along the axis and a quarter turn counter-clockwise from it
    return [(cx + xi * ux - eta * uy, cy + xi * uy + eta * ux) for xi, eta in (apex, base1, base2)]


@dataclass(frozen=True, init=False)
class VerificationReport:
    """Closed form vs oracle for one triangle, with the boundary-structure
    checks every true minimizer must satisfy: all input vertices on the
    witness boundary, each witness side touching the input, one vertex per
    midpoint arc, a shared vertex, and a shared side plus endpoint angle.
    The two areas are `min_result.min_area` and `oracle_result.min_area`."""

    input: CanonicalTriangle
    relative_gap: float
    min_result: MinimizerResult
    oracle_result: OracleResult
    flags: dict[str, bool]

    def __init__(
        self, input: CanonicalTriangle, relative_gap: float, min_result: MinimizerResult,
        oracle_result: OracleResult, flags: dict[str, bool],
    ) -> None:
        self.__dict__.update(
            input=input, relative_gap=relative_gap, min_result=min_result, oracle_result=oracle_result, flags=flags
        )


def brute_force_min_isosceles_batch(triangles: Iterable[Triangle]) -> list[OracleResult]:
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
    kinks, with closed-form stationary points (see `_search._candidate_rows`).
    The minimum is at one of those apex angles, each evaluated at all nine
    flush rotations.

    Every triangle goes through `canonicalize` before the search, which
    raises its errors.  The search runs array passes over fixed-size blocks
    of rows, each on the unit copy `canonicalize` defines (longest side
    from (0, 0) to (1, 0)) and with its own argmin, so a result does not
    depend on the rest of the batch, nor on the triangle's pose.
    Each result is an `OracleResult`, whose docstring says what it holds.
    The search takes no tolerances.  Deterministic: ties go to the first
    candidate.
    """
    return _searched([canonicalize(t) for t in triangles])


def _searched(cts: Sequence[CanonicalTriangle]) -> list[OracleResult]:
    """The oracle's results for the records `cts`, searched as they stand,
    without canonicalizing them again."""
    if not cts:
        return []
    # imported on first use, so that `import isokit` does not load numpy
    from ._search import search

    return search(cts)


def brute_force_min_isosceles(t: Triangle) -> OracleResult:
    """Minimum-area isosceles triangle containing `t`: the one-triangle
    batch of `brute_force_min_isosceles_batch`."""
    return brute_force_min_isosceles_batch([t])[0]


# ---------------------------------------------------------------------------
# Covering decision
# ---------------------------------------------------------------------------


def _ccw_sides_area(t: Triangle) -> tuple[tuple[float, ...], float, float, float, float]:
    """`t`'s vertices counter-clockwise, as one flat tuple (x0, y0, x1, y1,
    x2, y2), the lengths of the sides that start at vertices 0, 1 and 2,
    and `t`'s area, after the degeneracy check."""
    signed = _check_nondegenerate(t)
    A, B, C = (t.A, t.C, t.B) if signed < 0.0 else (t.A, t.B, t.C)
    x0, y0, x1, y1, x2, y2 = A.x, A.y, B.x, B.y, C.x, C.y
    return (
        (x0, y0, x1, y1, x2, y2),
        math.hypot(x1 - x0, y1 - y0),
        math.hypot(x2 - x1, y2 - y1),
        math.hypot(x0 - x2, y0 - y2),
        abs(signed),
    )


def _side_frame(pts: tuple[float, ...], i: int, ln: float) -> tuple[float, float, float, float]:
    """Rotate+translate the flat coordinates `pts` so that side i, of length
    `ln`, runs from the origin along +x, and list them from that side's
    first vertex on: it lands on exactly (0, 0), so only the next two come
    back, as (x1, y1, x2, y2).  For CCW input the interior lands in the
    upper half-plane."""
    x0, y0 = pts[2 * i], pts[2 * i + 1]
    j, k = (2 * i + 2) % 6, (2 * i + 4) % 6
    ex, ey = pts[j] - x0, pts[j + 1] - y0
    dx, dy = pts[k] - x0, pts[k + 1] - y0
    cx, sx = ex / ln, ey / ln
    return ex * cx + ey * sx, -ex * sx + ey * cx, dx * cx + dy * sx, -dx * sx + dy * cx


def can_cover(mover: Triangle, target: Triangle) -> bool:
    """Can some rigid motion (rotations, translations, and reflections) of
    `mover` place it over `target`?

    If any covering exists, one exists with a side of the mover containing a
    side of the target, so it suffices to try each (mover side, target side,
    mirror) configuration with the two side lines identified and the mover
    free to slide along the line.  Each "target vertex inside mover"
    condition is linear in the slide offset, so feasibility is an interval
    intersection, decided in closed form.

    The decision leans toward covering: with s the longest side of the two
    triangles and eps_num from `DEFAULT_TOLERANCES`, a target vertex may lie
    up to ``eps_num * s**2 / |e|`` plus ``eps_num * s`` outside a mover
    side e.  A target whose area exceeds what those allowances let any
    configuration hold is rejected by an area bound before the 2 x 3 x 3
    configurations are tried; the bound answers only where they would all
    answer False.
    """
    mover_ccw, m0, m1, m2, mover_area = _ccw_sides_area(mover)
    target_ccw, t0, t1, t2, target_area = _ccw_sides_area(target)
    scale = max(m0, m1, m2, t0, t1, t2)
    slack = DEFAULT_TOLERANCES.eps_num * scale * scale  # cross products have area units
    eps_u = DEFAULT_TOLERANCES.eps_num * scale
    tiny = 1e-15 * scale

    # Area bound.  A configuration passes only if, for some slide, every
    # target vertex lies at most d_k = slack/|e_k| + eps_u outside mover side
    # e_k: a cross product with e_k is |e_k| times the distance to its line,
    # and the interval may close with lo up to eps_u above hi, a slide that
    # moves a vertex at most eps_u across any side.  The three side lines
    # pushed out by d_k bound a triangle similar to the mover, scaled by
    # lam.  Twice a triangle's area is sum |e_k| h_k for the distances h_k of
    # any inner point to its sides, so lam**2 * A = lam * (A + sum |e_k| d_k / 2):
    #   lam = 1 + sum |e_k| d_k / (2 A) = 1 + (3 slack + eps_u P) / (2 A),
    # with A the mover's area and P its perimeter.  That triangle holds the
    # target, so a target area above lam**2 * A passes no configuration.
    # lam - 1 is doubled for rounding, which moves the cross products by
    # about 1e-16 s**2 against a slack of eps_num * s**2.
    lam = 1.0 + (3.0 * slack + eps_u * (m0 + m1 + m2)) / mover_area
    if target_area > lam * lam * mover_area:
        return False

    # A target vertex q is inside (left of) mover edge k, from (xk, yk)
    # along (ex, ey), for slide u when cr + u*ey >= -slack, with
    # cr = ex*(qy - yk) - ey*(qx - xk).  On the edge along the shared line
    # ey and cr are rounding, far inside tiny and the slack, so it never
    # decides and only the other two edges are tried.  Each edge with ey
    # beyond +-tiny bounds the slides from one side; a flat edge admits all
    # or none.  tiny keeps a needle mover's long edges flat: their exact
    # bound, widened by the slack, would admit more covers (ROADMAP item 3).
    neg_slack = -slack
    # each target frame is built when a configuration first reaches it, and
    # the mirror image only once the unmirrored mover has failed
    target_frames: list = [None, None, None]
    mv, lengths = mover_ccw, (m0, m1, m2)
    for mirrored in (False, True):
        if mirrored:
            x0, y0, x1, y1, x2, y2 = mover_ccw
            mv, lengths = (x2, -y2, x1, -y1, x0, -y0), (m1, m0, m2)  # counter-clockwise too
        for i in range(3):
            p1, q1, p2, q2 = _side_frame(mv, i, lengths[i])
            edges = ((p1, q1, p2 - p1, q2 - q1), (p2, q2, -p2, -q2))
            for j in range(3):
                tgt = target_frames[j]
                if tgt is None:
                    tgt = target_frames[j] = _side_frame(target_ccw, j, (t0, t1, t2)[j])
                u1, v1, u2, v2 = tgt
                lo, hi = -math.inf, math.inf
                for xk, yk, ex, ey in edges:
                    # the target's first vertex is the origin
                    c0 = ey * xk - ex * yk
                    c1 = ex * (v1 - yk) - ey * (u1 - xk)
                    c2 = ex * (v2 - yk) - ey * (u2 - xk)
                    if ey > tiny:
                        lo = max(lo, (neg_slack - c0) / ey, (neg_slack - c1) / ey, (neg_slack - c2) / ey)
                    elif ey < -tiny:
                        hi = min(hi, (neg_slack - c0) / ey, (neg_slack - c1) / ey, (neg_slack - c2) / ey)
                    elif c0 < neg_slack or c1 < neg_slack or c2 < neg_slack:
                        break  # no slide helps
                else:
                    if lo <= hi + eps_u:
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
    return rays, _angle_between(*rays[0], *rays[1])


def _witness_flags(ct: CanonicalTriangle, w: list[tuple[float, float]]) -> dict[str, bool]:
    """The structure checks of witness vertices `w` on the unit copy of `ct`."""
    (x0, y0), (x1, y1), (x2, y2) = w
    r = ct.b / ct.c
    ins = [(0.0, 0.0), (1.0, 0.0), (r * math.cos(ct.alpha), r * math.sin(ct.alpha))]
    # witness side i runs from vertex i to vertex i + 1
    sides = ((x0, y0, x1, y1), (x1, y1, x2, y2), (x2, y2, x0, y0))
    scale = max(math.hypot(x0 - x1, y0 - y1), math.hypot(x1 - x2, y1 - y2), math.hypot(x2 - x0, y2 - y0))
    eps = _EPS_GEOM * scale

    # whether each input vertex lies within eps of each half of each witness
    # side: half 2i runs from witness vertex i to the midpoint of side i,
    # half 2i + 1 from there on to vertex i + 1.  Each half is kept as its
    # start, its direction and its squared length.
    halves = []
    for xa, ya, xb, yb in sides:
        mx, my = (xa + xb) / 2.0, (ya + yb) / 2.0
        ex, ey = mx - xa, my - ya
        halves.append((xa, ya, ex, ey, ex * ex + ey * ey))
        ex, ey = xb - mx, yb - my
        halves.append((mx, my, ex, ey, ex * ex + ey * ey))
    # and whether it lies near each midpoint arc: arc j bends around witness
    # vertex j, from the midpoint of the preceding side to the midpoint of
    # the following side, so it is halves 2j - 1 and 2j
    near, arcs = [], []
    for qx, qy in ins:
        row = []
        for sx, sy, ex, ey, denom in halves:
            # distance to the closest point of the half, s in [0, 1] along it
            dx, dy = qx - sx, qy - sy
            along = dx * ex + dy * ey
            if along <= 0.0:
                row.append(math.hypot(dx, dy) <= eps)
            elif along >= denom:
                row.append(math.hypot(dx - ex, dy - ey) <= eps)
            else:
                s = along / denom
                row.append(math.hypot(dx - s * ex, dy - s * ey) <= eps)
        near.append(row)
        arcs.append((row[5] or row[0], row[1] or row[2], row[3] or row[4]))
    n0, n1, n2 = near

    vertices_on_boundary = any(n0) and any(n1) and any(n2)
    # side i is halves 2i and 2i + 1
    sides_touch = (
        (n0[0] or n0[1] or n1[0] or n1[1] or n2[0] or n2[1])
        and (n0[2] or n0[3] or n1[2] or n1[3] or n2[2] or n2[3])
        and (n0[4] or n0[5] or n1[4] or n1[5] or n2[4] or n2[5])
    )
    # one input vertex per arc: one of the six matchings of vertices to
    # arcs, with avj for input vertex v near arc j
    (a00, a01, a02), (a10, a11, a12), (a20, a21, a22) = arcs
    one_per_arc = (
        a00 and (a11 and a22 or a12 and a21)
        or a01 and (a10 and a22 or a12 and a20)
        or a02 and (a10 and a21 or a11 and a20)
    )

    shared_pairs = []
    for vi, (qx, qy) in enumerate(ins):
        for wj, (x, y) in enumerate(w):
            if math.hypot(qx - x, qy - y) <= eps:
                shared_pairs.append((vi, wj))

    # shared side + endpoint angle: at a shared vertex, one input side must
    # run along a witness side, judged by the sine of the angle between the
    # unit rays (its cosine rounds to 1 below about 1e-8 rad), and the
    # opening angles must agree
    sin_eps = math.sin(_EPS_GEOM)
    shares = False
    for vi, wj in shared_pairs:
        rays_in, angle_in = _corner(ins, vi)
        rays_w, angle_w = _corner(w, wj)
        if abs(angle_in - angle_w) <= _EPS_GEOM and any(
            abs(ri[0] * rw[1] - ri[1] * rw[0]) <= sin_eps and ri[0] * rw[0] + ri[1] * rw[1] > 0.0
            for ri in rays_in
            for rw in rays_w
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


def _closed_forms(cts: Sequence[CanonicalTriangle]) -> list[MinimizerResult]:
    """The closed-form minimum of each of `cts`, after checking that every
    one is scalene and, since the search reads each record as it stands,
    not degenerate."""
    for ct in cts:
        _check_scalene(ct)
        _check_nondegenerate(ct.tri)
    return [minimum_isosceles_container(ct) for ct in cts]


def _report(ct: CanonicalTriangle, closed: MinimizerResult, oracle: OracleResult) -> VerificationReport:
    w = _witness_vertices(0.0, 0.0, *oracle.supports, oracle.apex_angle, *oracle.axis)
    return VerificationReport(
        input=ct,
        relative_gap=(oracle.min_area - closed.min_area) / closed.min_area,
        min_result=closed,
        oracle_result=oracle,
        flags=_witness_flags(oracle.input, w),
    )


def verify_triangles(cts: Iterable[CanonicalTriangle]) -> list[VerificationReport]:
    """Compare the closed-form minimum against the brute-force oracle and
    check the boundary structure of the oracle's witness, for each of `cts`.
    The oracle searches all of them in one batch; every triangle is checked
    before the search.  Of the four tolerances only ``eps_tie`` applies,
    through the closed form's tie margin: the search takes none, and the
    witness checks use their own fixed ``_EPS_GEOM``."""
    cts = list(cts)
    closed = _closed_forms(cts)
    oracles = _searched(cts)
    return [_report(*case) for case in zip(cts, closed, oracles)]


def verify_triangle(ct: CanonicalTriangle) -> VerificationReport:
    """`verify_triangles` for one triangle.  It calls the oracle through
    `brute_force_min_isosceles`, so a caller that wraps that function (the
    benchmark's tracer does) still sees single searches."""
    (closed,) = _closed_forms([ct])
    return _report(ct, closed, brute_force_min_isosceles(ct.tri))
