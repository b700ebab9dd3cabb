"""The oracle's array search: the flush containers of a batch of canonical
triangles, evaluated in numpy passes over fixed-size blocks of rows, each
on the unit copy `canonicalize` defines (see
`oracle.brute_force_min_isosceles_batch`).  Each row's least-area container
comes back as the `oracle.OracleResult` that `search` builds where the
argmin picks it; that class's docstring says what the record holds.

This is the only isokit module that imports numpy when it loads.  `oracle`
imports it on its first search, so `import isokit` and the closed-form
paths never load numpy.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from .geo import CanonicalTriangle
from .oracle import OracleResult

# rows per array pass; a pass holds about a dozen (rows, M, 9) float arrays,
# 83 KB each at 64 rows and M = 18.  On 1000 and 4096 sampler rows the
# search took 0.67-0.72 times as long as at 512 rows, whose arrays are
# 663 KB each (2-core Xeon, 2 MiB L2 per core)
_BLOCK_ROWS = 64


def _side_supports(cx: np.ndarray, cy: np.ndarray, sh, ch, ux, uy) -> np.ndarray:
    """Support values (h1, h2, hb), stacked on a leading axis of three, of a
    unit copy at the outward normals n of the two legs and the base of the
    isosceles shape with half apex angle sine `sh`, cosine `ch` and unit
    axis u = (`ux`, `uy`): sh u -/+ ch u' and -u, with u' = (-uy, ux).  The
    copy's vertices are (0, 0), (1, 0) and C = (`cx`, `cy`), so a support
    is max(0, n_x, n . C).  The operands broadcast; the search passes all
    but C at one shape, so that each pass runs on contiguous operands."""
    a, b = sh * ux, ch * uy
    # the three normals' x components, then their y components
    nx, ny = np.empty((3,) + a.shape), np.empty((3,) + a.shape)
    np.add(a, b, out=nx[0])
    np.subtract(a, b, out=nx[1])
    np.negative(ux, out=nx[2])
    np.multiply(sh, uy, out=a)
    np.multiply(ch, ux, out=b)
    np.subtract(a, b, out=ny[0])
    np.add(a, b, out=ny[1])
    np.negative(uy, out=ny[2])
    del a, b  # a block's peak memory is a dozen or so of these arrays
    h = nx * cx
    h += np.multiply(ny, cy, out=ny)
    np.maximum(h, nx, out=h)
    np.maximum(h, 0.0, out=h)
    return h


# the signs that turn the sines and cosines of (0, beta, alpha) into the x
# and y components of the outward normals (0, -1), (sin beta, cos beta)
# and (-sin alpha, cos alpha)
_NORMAL_SIGNS = np.array(((1.0, 1.0, -1.0), (-1.0, 1.0, 1.0)))[:, None, :]


def _unit_frame(
    cts: Sequence[CanonicalTriangle], rows: Sequence[Sequence[float]]
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """For each of `cts` and its row of `rows` (candidate apex angles, the
    same number per row): the coordinates (2, N, 1, 1) of the vertex C of
    its unit copy, the x and y components (2, N, 3) of the copy's sides'
    unit outward normals, and the sines and cosines (2, N, M) of the halves
    of the row's apex angles.  All come from one sine and one cosine pass
    over the rows (0, beta, alpha, half apex angles): sin 0 = 0 and
    cos 0 = 1 exactly, and the signs are exact flips.

    The copy is the one `canonicalize` defines: the longest side AB from
    (0, 0) to (1, 0) and C at (b/c)(cos alpha, sin alpha), so the sides AB,
    BC and CA have outward normals (0, -1), (sin beta, cos beta) and
    (-sin alpha, cos alpha).  It depends on lengths and angles alone, so
    quarter turns, reflections, power-of-two scalings and vertex orders of
    the input give the same copy bit for bit, and a needle's support values
    do not cancel at any rotation.
    """
    table = np.array([[0.0, ct.beta, ct.alpha, *row] for ct, row in zip(cts, rows)])
    table[:, 3:] *= 0.5
    trig = np.empty((2,) + table.shape)
    np.sin(table, out=trig[0])
    np.cos(table, out=trig[1])
    cxy = trig[::-1, :, 2] * np.array([ct.b / ct.c for ct in cts])
    return cxy[:, :, None, None], trig[:, :, :3] * _NORMAL_SIGNS, trig[:, :, 3:]


def _stationary_apex_angles(a: float) -> list[float]:
    """The apex angles in (0, pi) at which the two leg-flush families of an
    input angle `a` can be stationary (see `_candidate_rows`)."""
    k = 1.0 / math.tan(a)
    # the roots of t^3 - k t^2 + 3t + k change sign with k, so solve for
    # kk = |k| >= 0 and flip them back
    kk = abs(k)
    kk2 = kk * kk
    # as s^3 + p s + q with t = s + kk/3; the discriminant over -108 is
    # d = q^2/4 + p^3/27, written without the cancelling kk^6 terms
    p = 3.0 - kk2 / 3.0
    q = 2.0 * kk * (1.0 - kk2 / 27.0)
    d = (27.0 + kk2 * (18.0 - kk2)) / 27.0
    if d < 0.0:
        # three real roots, the largest in trigonometric form
        theta = math.acos(max(-1.0, min(1.0, 1.5 * q / p * math.sqrt(-3.0 / p)))) / 3.0
        t = 2.0 * math.sqrt(-p / 3.0) * math.cos(theta) + kk / 3.0
    else:
        # Cardano's real root
        w = -0.5 * q - math.copysign(math.sqrt(d), q)
        u = math.copysign(abs(w) ** (1.0 / 3.0), w)
        t = u - p / (3.0 * u) + kk / 3.0
    # each real root is polished by one Newton step
    df = (3.0 * t - 2.0 * kk) * t + 3.0
    r = t - (((t - kk) * t + 3.0) * t + kk) / df if df else t
    if d < 0.0:
        # the two roots of t^2 + b t + c left after dividing r out (for a
        # needle the trigonometric form loses the roots near +-1 beside cot A)
        c = -kk / r
        b = (c - 3.0) / r
        h = -0.5 * (b + math.copysign(math.sqrt(max(0.0, b * b - 4.0 * c)), b))
        ts = [r]
        for t in (h, c / h):
            df = (3.0 * t - 2.0 * kk) * t + 3.0
            ts.append(t - (((t - kk) * t + 3.0) * t + kk) / df if df else t)
    else:
        ts = [r, 0.5 * (kk - r)]  # the complex pair by its real part: the roots sum to kk
    # the apex angles in (0, pi): 2 atan(t) of the roots flipped back, which
    # is positive exactly where t is, then the quartic's roots, which solve
    # sin(2 delta + a) = 3 sin(a); past its double root at 3 sin(a) = 1 both
    # become the double root's apex angle
    deltas = []
    for t in ts:
        delta = 2.0 * math.atan(-t if k < 0.0 else t)
        if 0.0 < delta < math.pi:
            deltas.append(delta)
    phi = math.asin(min(1.0, 3.0 * math.sin(a)))
    for delta in (0.5 * ((phi - a) % math.tau), 0.5 * ((math.pi - phi - a) % math.tau)):
        if 0.0 < delta < math.pi:
            deltas.append(delta)
    return deltas


def _candidate_rows(angles: Sequence[Sequence[float]]) -> list[list[float]]:
    """Every apex angle at which a flush container's area, as a function of
    the apex angle, can have a local minimum, for triangles with the rows of
    interior angles `angles`; one list per row, all of one length.

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

    Each row lists the input angles, their kinks pi - 2A, pi/2 and then the
    roots' apex angles in (0, pi), angle by angle.  A kink of a right or
    obtuse angle is not positive and becomes pi/2, and rows with fewer
    roots are padded with pi/2 to the widest row.  Either way the pi/2
    repeats an earlier candidate and so never wins a first-index argmin.
    Rows are built one at a time in scalar arithmetic, so only a row's
    padding depends on its batch.
    """
    half_pi = 0.5 * math.pi
    rows = []
    for angle_row in angles:
        row = [*angle_row]
        for a in angle_row:
            row.append(math.pi - 2.0 * a if a < half_pi else half_pi)
        row.append(half_pi)
        for a in angle_row:
            row += _stationary_apex_angles(a)
        rows.append(row)
    width = max(map(len, rows))
    for row in rows:
        row += [half_pi] * (width - len(row))
    return rows


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
    cosines `ch` (N, M, 1, or expanded to K) along the unit axes `axes`
    (2, N, M, K): tan(delta/2) * H^2 with H the apex-to-base height.
    Returns the areas and the support values (h1, h2, hb) they come from,
    each (N, M, K)."""
    h1, h2, hb = _side_supports(*cxy, sh, ch, *axes)
    height = h1 + h2
    height /= 2.0 * sh
    height += hb
    area = sh / ch * height
    area *= height
    return area, h1, h2, hb


def _block_search(cts: Sequence[CanonicalTriangle]) -> list[OracleResult]:
    """`search` for one block of rows, in one array pass."""
    rows = _candidate_rows([(ct.alpha, ct.beta, ct.gamma) for ct in cts])
    cxy, normals, trig = _unit_frame(cts, rows)
    n, m = trig.shape[1:]
    axes = _flush_axes(normals, *trig[..., None])
    # the sines and cosines once per flush axis, so that the support and
    # area passes run on operands of one shape
    trig9 = np.repeat(trig, 9, axis=2).reshape(2, n, m, 9)
    areas, h1, h2, hb = _container_areas(cxy, *trig9, axes)
    # each row's argmin plus the row's offset: one index into every
    # flattened (N, M, 9) array
    best = areas.reshape(n, -1).argmin(axis=1)
    flat = best + np.arange(0, n * m * 9, m * 9)
    picked = [a.take(flat).tolist() for a in (areas, h1, h2, hb)] + axes.reshape(2, -1).take(flat, axis=1).tolist()
    return [
        OracleResult(ct, area * ct.c * ct.c, row[j // 9], (vx, vy), (g1, g2, gb))
        for ct, row, j, area, g1, g2, gb, vx, vy in zip(cts, rows, best.tolist(), *picked)
    ]


def search(cts: Sequence[CanonicalTriangle]) -> list[OracleResult]:
    """The least-area flush container of each of `cts`, each row searched
    on its unit copy (see `_unit_frame`) with its own argmin, in blocks of
    `_BLOCK_ROWS` rows, so a batch's memory does not grow with its length."""
    results: list[OracleResult] = []
    for start in range(0, len(cts), _BLOCK_ROWS):
        results += _block_search(cts[start : start + _BLOCK_ROWS])
    return results
