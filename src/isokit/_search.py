"""The oracle's array search: the flush containers of a batch of triangles,
evaluated in one numpy pass (see `oracle.brute_force_min_isosceles_batch`).

This is the only isokit module that imports numpy when it loads.  `oracle`
imports it on its first search, so `import isokit` and the closed-form
paths never load numpy.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from .geo import Triangle

_TWO_PI = 2.0 * math.pi


def _vertex_array(triangles: Sequence[Triangle]) -> np.ndarray:
    """The vertices of `triangles` as an (N, 3, 2) array."""
    return np.array([[(v.x, v.y) for v in t.vertices] for t in triangles], dtype=float)


def _centred(v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Centroids, shape (N, 1, 2), of the triangles `v` (N, 3, 2) and their
    vertices relative to them.

    A container's height and vertices come from sums and differences of
    support values, which lose the digits of a large offset; about the
    centroid they keep full precision relative to the triangle's size.
    """
    c = v.sum(axis=1, keepdims=True) / 3.0
    return c, v - c


def _side_supports(x: np.ndarray, y: np.ndarray, delta, psi) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Support values (h1, h2, hb) of a triangle at the outward normals of
    the two legs and the base of the isosceles shape with apex angle `delta`
    and axis direction `psi`.

    `x` and `y` hold the vertex coordinates with the vertex axis first; the
    rest of their shape broadcasts against `delta` and `psi`, so one
    triangle's coordinates have shape (3,) and a batch's (3, N, 1, ..., 1).
    The leg normals point along psi -/+ (pi/2 - delta/2), the base normal
    along psi + pi.
    """
    sh, ch = np.sin(0.5 * delta), np.cos(0.5 * delta)
    ux, uy = np.cos(psi), np.sin(psi)
    a, b = sh * ux, ch * uy
    nx = np.array((a + b, a - b, -ux))
    a, b = sh * uy, ch * ux
    ny = np.array((a - b, a + b, -uy))
    del a, b, ux, uy  # a batch's peak memory is a handful of these arrays
    # one vertex at a time: no temporary larger than the result
    h = None
    for xv, yv in zip(x, y):
        dot = nx * xv
        dot += ny * yv
        h = dot if h is None else np.maximum(h, dot, out=h)
    return h[0], h[1], h[2]



def _shape_frame(v: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """For triangles with vertices `v` (N, 3, 2): centred copies scaled to
    unit size, their interior angles and the direction angles of the outward
    normals of their sides, both (N, 3), and the scale factors (N,) that
    take each copy back to its triangle's size."""
    p = _centred(v)[1]
    scale = np.abs(p).max(axis=(1, 2), keepdims=True)
    p /= scale
    ahead = p[:, [1, 2, 0]] - p
    behind = p[:, [2, 0, 1]] - p
    cross = ahead[..., 0] * behind[..., 1] - ahead[..., 1] * behind[..., 0]
    # atan2 of (|cross|, dot) keeps needle angles accurate
    angles = np.arctan2(np.abs(cross), np.sum(ahead * behind, axis=2))
    # side k runs from vertex k to k + 1; its outward normal is a quarter
    # turn clockwise from it when the vertices wind counter-clockwise
    normals = np.arctan2(ahead[..., 1], ahead[..., 0]) - np.copysign(0.5 * math.pi, cross[:, :1])
    return p, angles, normals, scale.ravel()


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
    deltas += [0.5 * ((phi - a) % _TWO_PI), 0.5 * ((math.pi - phi - a) % _TWO_PI)]
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


def _flush_rotations(normals: np.ndarray, deltas: np.ndarray) -> np.ndarray:
    """The nine rotations per apex angle at which the base, the first leg or
    the second leg is flush with an input side, for outward normal angles
    `normals` (N, 3) and apex angles `deltas` (N, M); returns (N, M, 9)."""
    half = 0.5 * deltas[..., None]
    nu = normals[:, None, :]
    psis = np.empty(deltas.shape + (9,))
    psis[..., :3] = nu + math.pi
    np.subtract(nu + 0.5 * math.pi, half, out=psis[..., 3:6])
    np.add(nu - 0.5 * math.pi, half, out=psis[..., 6:])
    return psis


def _container_areas(p: np.ndarray, deltas: np.ndarray, psis: np.ndarray) -> np.ndarray:
    """Areas of the supporting-line containers of the triangles `p` (N, 3, 2)
    for the apex angles `deltas` (N, M) at the rotations `psis` (N, M, K):
    tan(delta/2) * H^2 with H the apex-to-base height; returns (N, M, K)."""
    x, y = (p[..., i].T.reshape(3, len(p), 1, 1) for i in (0, 1))
    delta = deltas[..., None]
    h1, h2, hb = _side_supports(x, y, delta, psis)
    height = (h1 + h2) / (2.0 * np.sin(0.5 * delta)) + hb
    return np.tan(0.5 * delta) * height * height


def best_shapes(triangles: Sequence[Triangle]) -> tuple[list[float], list[float], list[float]]:
    """The apex angle, the rotation and the area of the least-area flush
    container of each of `triangles`, from one array pass with a per-row
    argmin.  The area is the value the argmin picked on the unit-size copy,
    times the scale squared."""
    p, angles, normals, scale = _shape_frame(_vertex_array(triangles))
    deltas = _candidate_apex_angles(angles)
    psis = _flush_rotations(normals, deltas)
    areas = _container_areas(p, deltas, psis).reshape(len(triangles), -1)
    best = np.argmin(areas, axis=1)
    rows = np.arange(len(triangles))
    apex_angles = deltas[rows, best // psis.shape[-1]].tolist()
    rotations = psis.reshape(len(triangles), -1)[rows, best].tolist()
    return apex_angles, rotations, (areas[rows, best] * scale * scale).tolist()
