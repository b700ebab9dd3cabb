"""The oracle's array search: the flush containers of a batch of triangles,
evaluated in numpy passes over fixed-size blocks of rows (see
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

from .geo import Triangle

# rows per array pass; a pass holds about a dozen (rows, M, 9) float arrays
_BLOCK_ROWS = 512

# (apex angle, rotation, area, vertices) of one triangle's least-area flush
# container; see `best_shapes`
Shape = tuple[float, float, float, list[tuple[float, float]]]


def _side_supports(x: np.ndarray, y: np.ndarray, delta, psi) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Support values (h1, h2, hb) of a triangle at the outward normals of
    the two legs and the base of the isosceles shape with apex angle `delta`
    and axis direction `psi`.

    `x` and `y` hold a batch's vertex coordinates, shape (3, N, 1, 1), and
    broadcast against `delta` and `psi`.  The leg normals point along
    psi -/+ (pi/2 - delta/2), the base normal along psi + pi.
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


def _witness_vertices(
    cx: float, cy: float, h1: float, h2: float, hb: float, delta: float, psi: float
) -> list[tuple[float, float]]:
    """The vertices, apex first, of the isosceles triangle with apex angle
    `delta` and axis direction `psi` bounded by the lines at support values
    (h1, h2, hb), measured from (cx, cy), along the outward normals of its
    two legs and its base (see `_side_supports`)."""
    sh, ch = math.sin(0.5 * delta), math.cos(0.5 * delta)
    ux, uy = math.cos(psi), math.sin(psi)  # axis: base midpoint -> apex
    apex = ((h1 + h2) / (2.0 * sh), (h2 - h1) / (2.0 * ch))
    base1 = (-hb, -(h1 + hb * sh) / ch)
    base2 = (-hb, (h2 + hb * sh) / ch)
    # (xi, eta) along the axis and a quarter turn counter-clockwise from it
    return [(cx + xi * ux - eta * uy, cy + xi * uy + eta * ux) for xi, eta in (apex, base1, base2)]


def _shape_frame(
    triangles: Sequence[Triangle],
) -> tuple[np.ndarray, np.ndarray, np.ndarray, list[tuple[float, float, float]]]:
    """For each of `triangles`: its vertices relative to its centroid,
    scaled to unit size (N, 3, 2), its interior angles and the direction
    angles of the outward normals of its sides, both (N, 3), and its frame
    (cx, cy, s): the centroid and the scale factor that take the copy back
    to the triangle.

    A container's height and vertices come from sums and differences of
    support values, which lose the digits of a large offset; about the
    centroid they keep full precision relative to the triangle's size.
    Rows are built one at a time in scalar arithmetic, then one
    `np.arctan2` call gives every row's angles and normals (`math.atan2`
    differs from it in the last bit on some inputs).
    """
    coords, frames, ys, xs, quarter_turns = [], [], [], [], []
    for t in triangles:
        (x0, y0), (x1, y1), (x2, y2) = ((v.x, v.y) for v in t.vertices)
        cx, cy = (x0 + x1 + x2) / 3.0, (y0 + y1 + y2) / 3.0
        rel = (x0 - cx, y0 - cy, x1 - cx, y1 - cy, x2 - cx, y2 - cy)
        s = max(map(abs, rel))
        x0, y0, x1, y1, x2, y2 = (c / s for c in rel)
        # side k runs from vertex k to k + 1 (a), the other side at vertex k
        # from there to k + 2 (b)
        ax, ay = (x1 - x0, x2 - x1, x0 - x2), (y1 - y0, y2 - y1, y0 - y2)
        bx, by = (x2 - x0, x0 - x1, x1 - x2), (y2 - y0, y0 - y1, y1 - y2)
        cross = [ax[k] * by[k] - ay[k] * bx[k] for k in range(3)]
        # the arguments of atan2: (|cross|, dot) for each angle, which keeps
        # needle angles accurate, then each side's direction
        ys.append([abs(c) for c in cross] + list(ay))
        xs.append([ax[k] * bx[k] + ay[k] * by[k] for k in range(3)] + list(ax))
        # side k's outward normal is a quarter turn clockwise from it when
        # the vertices wind counter-clockwise
        quarter_turns.append([math.copysign(0.5 * math.pi, cross[0])])
        coords.append(((x0, y0), (x1, y1), (x2, y2)))
        frames.append((cx, cy, s))
    directions = np.arctan2(ys, xs)
    return np.array(coords), directions[:, :3], directions[:, 3:] - quarter_turns, frames


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


def _container_areas(
    p: np.ndarray, deltas: np.ndarray, psis: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Areas of the supporting-line containers of the triangles `p` (N, 3, 2)
    for the apex angles `deltas` (N, M) at the rotations `psis` (N, M, K):
    tan(delta/2) * H^2 with H the apex-to-base height.  Returns the areas
    and the support values (h1, h2, hb) they come from, each (N, M, K)."""
    x, y = (p[..., i].T.reshape(3, len(p), 1, 1) for i in (0, 1))
    delta = deltas[..., None]
    h1, h2, hb = _side_supports(x, y, delta, psis)
    height = (h1 + h2) / (2.0 * np.sin(0.5 * delta)) + hb
    return np.tan(0.5 * delta) * height * height, h1, h2, hb


def _block_best_shapes(triangles: Sequence[Triangle]) -> list[Shape]:
    """`best_shapes` for one block of rows, in one array pass."""
    p, angles, normals, frames = _shape_frame(triangles)
    deltas = _candidate_apex_angles(angles)
    psis = _flush_rotations(normals, deltas)
    areas, h1, h2, hb = _container_areas(p, deltas, psis)
    n, m, k = psis.shape
    # each row's argmin plus the row's offset: one index into every
    # flattened (N, M, K) array, and into deltas after dividing by K
    flat = areas.reshape(n, -1).argmin(axis=1) + np.arange(0, n * m * k, m * k)
    picked = (a.take(flat).tolist() for a in (areas, h1, h2, hb))
    rotations = [psi % math.tau for psi in psis.take(flat).tolist()]
    rows = zip(deltas.take(flat // k).tolist(), rotations, *picked, frames)
    return [
        (delta, psi, area * s * s, _witness_vertices(cx, cy, g1 * s, g2 * s, gb * s, delta, psi))
        for delta, psi, area, g1, g2, gb, (cx, cy, s) in rows
    ]


def best_shapes(triangles: Sequence[Triangle]) -> list[Shape]:
    """The least-area flush container of each of `triangles`, as (apex
    angle, rotation, area, vertices), each row searched on its own centred,
    unit-size copy with its own argmin.

    The rotation is the axis direction, reduced to [0, 2 pi).  The area is
    the value the argmin picked, times the scale squared.  The vertices,
    apex first, bound the container at the support values that area came
    from, scaled back about the triangle's centroid (`_witness_vertices`).
    The rows are searched in blocks of `_BLOCK_ROWS`, so a batch's memory
    does not grow with its length.
    """
    shapes: list[Shape] = []
    for start in range(0, len(triangles), _BLOCK_ROWS):
        shapes += _block_best_shapes(triangles[start : start + _BLOCK_ROWS])
    return shapes
