"""The oracle's array search: the flush containers of a batch of canonical
triangles, evaluated in numpy passes over fixed-size blocks of rows, each
on the unit copy `canonicalize` defines (see
`oracle.brute_force_min_isosceles_batch`).  Each row's least-area container
comes back with its witness vertices, built here from the support values
the search computed, without a second pass over the triangle.

This is the only isokit module that imports numpy when it loads.  `oracle`
imports it on its first search, so `import isokit` and the closed-form
paths never load numpy.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from .geo import CanonicalTriangle, signed_area

# rows per array pass; a pass holds about a dozen (rows, M, 9) float arrays,
# 83 KB each at 64 rows and M = 18.  On 1000 and 4096 sampler rows the
# search took 0.67-0.72 times as long as at 512 rows, whose arrays are
# 663 KB each (2-core Xeon, 2 MiB L2 per core)
_BLOCK_ROWS = 64

# one triangle's least-area container as (apex angle, rotation, area, vertices)
Shape = tuple[float, float, float, list[tuple[float, float]]]


def _side_supports(cx: np.ndarray, cy: np.ndarray, sh, ch, ux, uy) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Support values (h1, h2, hb) of a unit copy at the outward normals n
    of the two legs and the base of the isosceles shape with half apex angle
    sine `sh`, cosine `ch` and unit axis u = (`ux`, `uy`): sh u -/+ ch u'
    and -u, with u' = (-uy, ux).  The copy's vertices are (0, 0), (1, 0)
    and C = (`cx`, `cy`), (N, 1, 1) each, so a support is max(0, n_x, n . C)."""
    a, b = sh * ux, ch * uy
    nx = np.array((a + b, a - b, -ux))
    a, b = sh * uy, ch * ux
    ny = np.array((a - b, a + b, -uy))
    del a, b  # a batch's peak memory is a handful of these arrays
    h = nx * cx
    h += ny * cy
    np.maximum(h, nx, out=h)
    np.maximum(h, 0.0, out=h)
    return h[0], h[1], h[2]


def _witness_vertices(
    cx: float, cy: float, h1: float, h2: float, hb: float, sh: float, ch: float, ux: float, uy: float
) -> list[tuple[float, float]]:
    """The vertices, apex first, of the isosceles triangle with half apex
    angle sine `sh` and cosine `ch` and unit axis (`ux`, `uy`), from the
    base midpoint toward the apex, bounded by the lines at support values
    (h1, h2, hb), measured from (cx, cy), along the outward normals of its
    two legs and its base (see `_side_supports`)."""
    apex = ((h1 + h2) / (2.0 * sh), (h2 - h1) / (2.0 * ch))
    base1 = (-hb, -(h1 + hb * sh) / ch)
    base2 = (-hb, (h2 + hb * sh) / ch)
    # (xi, eta) along the axis and a quarter turn counter-clockwise from it
    return [(cx + xi * ux - eta * uy, cy + xi * uy + eta * ux) for xi, eta in (apex, base1, base2)]


def _shape_frame(cts: Sequence[CanonicalTriangle]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """For each of `cts`: the coordinates (2, N, 1, 1) of the vertex C of
    its unit copy, its interior angles (N, 3), and the x and y components
    of its sides' unit outward normals (2, N, 3).

    The copy is the one `canonicalize` defines: the longest side AB from
    (0, 0) to (1, 0) and C at (b/c)(cos alpha, sin alpha), so the sides AB,
    BC and CA have outward normals (0, -1), (sin beta, cos beta) and
    (-sin alpha, cos alpha), and the angles are `ct.alpha`, `ct.beta` and
    `ct.gamma`.  It depends on lengths and angles alone, so quarter turns,
    reflections, power-of-two scalings and vertex orders of the input give
    the same copy bit for bit, and a needle's support values do not cancel
    at any rotation.
    """
    angles = np.array([(ct.alpha, ct.beta, ct.gamma) for ct in cts])
    sin, cos = np.sin(angles), np.cos(angles)
    r = np.array([ct.b / ct.c for ct in cts])
    cxy = np.array((r * cos[:, 0], r * sin[:, 0]))[:, :, None, None]
    normals = np.array(((np.zeros(len(cts)), sin[:, 1], -sin[:, 0]), (-np.ones(len(cts)), cos[:, 1], cos[:, 0])))
    return cxy, angles, normals.transpose(0, 2, 1)


def _stationary_apex_angles(a: float) -> list[float]:
    """The apex angles in (0, pi) at which the two leg-flush families of an
    input angle `a` can be stationary (see `_candidate_apex_angles`)."""
    k = 1.0 / math.tan(a)
    # the roots of t^3 - k t^2 + 3t + k change sign with k, so solve for
    # kk = |k| >= 0 and flip them back
    kk = abs(k)
    # as s^3 + p s + q with t = s + kk/3; the discriminant over -108 is
    # d = q^2/4 + p^3/27, written without the cancelling kk^6 terms
    p = 3.0 - kk * kk / 3.0
    q = 2.0 * kk * (1.0 - kk * kk / 27.0)
    d = (27.0 + kk * kk * (18.0 - kk * kk)) / 27.0
    if d < 0.0:
        # three real roots: the largest in trigonometric form, then the two
        # of t^2 + b t + c that are left after dividing it out (for a needle
        # the trigonometric form loses the roots near +-1 beside cot A)
        theta = math.acos(max(-1.0, min(1.0, 1.5 * q / p * math.sqrt(-3.0 / p)))) / 3.0
        r = _polished_root(kk, 2.0 * math.sqrt(-p / 3.0) * math.cos(theta) + kk / 3.0)
        c = -kk / r
        b = (c - 3.0) / r
        h = -0.5 * (b + math.copysign(math.sqrt(max(0.0, b * b - 4.0 * c)), b))
        ts = [r, _polished_root(kk, h), _polished_root(kk, c / h)]
    else:
        # Cardano's real root; the complex pair is kept by its real part
        w = -0.5 * q - math.copysign(math.sqrt(d), q)
        u = math.copysign(abs(w) ** (1.0 / 3.0), w)
        r = _polished_root(kk, u - p / (3.0 * u) + kk / 3.0)
        ts = [r, 0.5 * (kk - r)]  # the roots sum to kk
    deltas = [2.0 * math.atan(t) for t in (math.copysign(1.0, k) * t for t in ts) if t > 0.0]
    # the quartic's roots solve sin(2 delta + a) = 3 sin(a); past its double
    # root at 3 sin(a) = 1 both become the double root's apex angle
    phi = math.asin(min(1.0, 3.0 * math.sin(a)))
    deltas += [0.5 * ((phi - a) % math.tau), 0.5 * ((math.pi - phi - a) % math.tau)]
    return [delta for delta in deltas if 0.0 < delta < math.pi]


def _polished_root(k: float, t: float) -> float:
    """`t` after one Newton step on t^3 - k t^2 + 3t + k."""
    df = (3.0 * t - 2.0 * k) * t + 3.0
    return t - (((t - k) * t + 3.0) * t + k) / df if df else t


def _candidate_apex_angles(angles: np.ndarray) -> np.ndarray:
    """Every apex angle at which a flush container's area, as a function of
    the apex angle, can have a local minimum, for triangles with interior
    angles `angles` (N, 3); returns (N, M).

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
        t^4 + 2k t^3 + 6t^2 - 2k t + 1 = 0, that is sin(2 delta + A) = 3 sin A;
      - both free sides through R: area ~ 1/sin(delta), least at pi/2;
      - free sides through P and Q: area ~ sin(delta), least on a kink.
    The cubic's roots come from the trigonometric or Cardano formula, the
    real ones polished by one Newton step, and the quartic's from arcsin.
    Extra candidates are harmless (each is a valid container), so none is
    lost where rounding turns a double root into a complex pair: the cubic
    keeps the pair's real part, and the quartic clamps 3 sin A at 1.

    Each row lists the three input angles, their kinks pi - 2A, pi/2 and
    then the roots' apex angles in (0, pi), angle by angle.  A kink of a
    right or obtuse angle is not positive and becomes pi/2, and rows with
    fewer roots are padded with pi/2 to the widest row.  Either way the
    pi/2 repeats an earlier candidate and so never wins a first-index
    argmin.  Rows are built one at a time in scalar arithmetic, so only a
    row's padding depends on its batch.
    """
    rows = []
    for row in angles.tolist():
        kinks = [math.pi - 2.0 * a if a < 0.5 * math.pi else 0.5 * math.pi for a in row]
        rows.append(row + kinks + [0.5 * math.pi] + [d for a in row for d in _stationary_apex_angles(a)])
    width = max(map(len, rows))
    return np.array([r + [0.5 * math.pi] * (width - len(r)) for r in rows])


def _flush_axes(normals: np.ndarray, sh: np.ndarray, ch: np.ndarray) -> np.ndarray:
    """The x and y components (2, N, M, 9) of the nine unit axes per apex
    angle at which the base, the first leg or the second leg is flush with
    an input side, for unit outward normals n, `normals` (2, N, 3), and the
    half apex angles' sines `sh` and cosines `ch` (N, M, 1): -n, then n
    turned by +/- (pi/2 - delta/2), sh n +/- ch n' with n' = (-ny, nx)."""
    n = normals[:, :, None, :]
    a, b = sh * n, ch * np.array((-normals[1], normals[0]))[:, :, None, :]
    axes = np.empty(a.shape[:-1] + (9,))
    axes[..., :3], axes[..., 3:6], axes[..., 6:] = -n, a + b, a - b
    return axes


def _container_areas(
    cxy: np.ndarray, sh: np.ndarray, ch: np.ndarray, axes: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Areas of the supporting-line containers of the unit copies with
    vertex C at `cxy` (2, N, 1, 1), for the half apex angle sines `sh` and
    cosines `ch` (N, M, 1) along the unit axes `axes` (2, N, M, K):
    tan(delta/2) * H^2 with H the apex-to-base height.  Returns the areas
    and the support values (h1, h2, hb) they come from, each (N, M, K)."""
    h1, h2, hb = _side_supports(*cxy, sh, ch, *axes)
    height = (h1 + h2) / (2.0 * sh) + hb
    return sh / ch * height * height, h1, h2, hb


def _block_best_shapes(cts: Sequence[CanonicalTriangle]) -> list[Shape]:
    """`best_shapes` for one block of rows, in one array pass."""
    cxy, angles, normals = _shape_frame(cts)
    deltas = _candidate_apex_angles(angles)
    half = 0.5 * deltas[..., None]
    sh, ch = np.sin(half), np.cos(half)
    axes = _flush_axes(normals, sh, ch)
    areas, h1, h2, hb = _container_areas(cxy, sh, ch, axes)
    n, m, k = areas.shape
    # each row's argmin plus the row's offset: one index into every
    # flattened (N, M, K) array, and into the (N, M, 1) ones after dividing by K
    flat = areas.reshape(n, -1).argmin(axis=1) + np.arange(0, n * m * k, m * k)
    picked = [a.take(flat).tolist() for a in (areas, h1, h2, hb)] + axes.reshape(2, -1).take(flat, axis=1).tolist()
    shapes = []
    for ct, delta, hs, hc, area, g1, g2, gb, vx, vy in zip(
        cts, *(a.take(flat // k).tolist() for a in (deltas, sh, ch)), *picked
    ):
        # the copy's point (x, y) is A + c (x u + s y u') on the triangle, with
        # u = (B - A) / c, u' = (-uy, ux) and s = -1 where A, B, C wind clockwise
        A, B, c = ct.tri.A, ct.tri.B, ct.c
        ux, uy = (B.x - A.x) / c, (B.y - A.y) / c
        s = math.copysign(1.0, signed_area(ct.tri))
        # the axis on the triangle; a mirrored copy turns the first leg's
        # outward normal into the second's
        ax, ay = vx * ux - s * vy * uy, vx * uy + s * vy * ux
        if s < 0.0:
            g1, g2 = g2, g1
        vertices = _witness_vertices(A.x, A.y, g1 * c, g2 * c, gb * c, hs, hc, ax, ay)
        shapes.append((delta, math.atan2(ay, ax) % math.tau, area * c * c, vertices))
    return shapes


def best_shapes(cts: Sequence[CanonicalTriangle]) -> list[Shape]:
    """The least-area flush container of each of `cts`, as (apex angle,
    rotation, area, vertices), each row searched on its unit copy (see
    `_shape_frame`) with its own argmin.

    The rotation is atan2 of the chosen unit axis, mapped back to the
    triangle, reduced to [0, 2 pi).  The area is the value the argmin
    picked, times c squared.  The vertices, apex first, bound the container
    at the support values that area came from, times c, about the vertex A
    (`_witness_vertices`).  The rows are searched in blocks of
    `_BLOCK_ROWS`, so a batch's memory does not grow with its length.
    """
    shapes: list[Shape] = []
    for start in range(0, len(cts), _BLOCK_ROWS):
        shapes += _block_best_shapes(cts[start : start + _BLOCK_ROWS])
    return shapes
