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

# rows per array pass; a pass holds at most twelve (rows, M, 9) float
# arrays at once, 83 KB each at 64 rows and M = 18.  On 1000 and 4096
# sampler rows the search took 0.67-0.72 times as long as at 512 rows,
# whose arrays are 663 KB each (2-core Xeon, 2 MiB L2 per core)
_BLOCK_ROWS = 64


def _side_supports(cx: np.ndarray, cy: np.ndarray, t, ux, uy) -> np.ndarray:
    """Support values (g1, g2, hb), stacked on a leading axis of three, of a
    unit copy at the normals of the two legs and the base of the isosceles
    shape with t = tan(delta/2) of its apex angle delta and unit axis
    u = (`ux`, `uy`): t u -/+ u' and -u, with u' = (-uy, ux).  The legs'
    normals are r = hypot(1, t) times the unit outward normals, so g1 and
    g2 are r times the legs' support values.  The copy's vertices are
    (0, 0), (1, 0) and C = (`cx`, `cy`), so a support is max(0, n_x, n . C).
    The operands broadcast; the search passes all but C at one shape, so
    that each pass runs on contiguous operands."""
    a = t * ux
    # the three normals' x components, then their y components
    nx, ny = np.empty((3,) + a.shape), np.empty((3,) + a.shape)
    np.add(a, uy, out=nx[0])
    np.subtract(a, uy, out=nx[1])
    np.negative(ux, out=nx[2])
    np.multiply(t, uy, out=a)
    np.subtract(a, ux, out=ny[0])
    np.add(a, ux, out=ny[1])
    np.negative(uy, out=ny[2])
    del a  # a block's peak memory is twelve of these arrays, reached below
    h = nx * cx
    h += np.multiply(ny, cy, out=ny)
    np.maximum(h, nx, out=h)
    np.maximum(h, 0.0, out=h)
    return h


# the signs that turn the sines and cosines of (0, beta, alpha) into the x
# and y components of the outward normals (0, -1), (sin beta, cos beta)
# and (-sin alpha, cos alpha)
_NORMAL_SIGNS = np.array(((1.0, 1.0, -1.0), (-1.0, 1.0, 1.0)))[:, None, :]


def _unit_frame(cts: Sequence[CanonicalTriangle]) -> tuple[np.ndarray, np.ndarray]:
    """For each of `cts`: the coordinates (2, N, 1, 1) of the vertex C of
    its unit copy, and the x and y components (2, N, 3) of the copy's
    sides' unit outward normals, from one sine and one cosine pass over the
    rows (0, beta, alpha): sin 0 = 0 and cos 0 = 1 exactly, and the signs
    are exact flips.

    The copy is the one `canonicalize` defines: the longest side AB from
    (0, 0) to (1, 0) and C at (b/c)(cos alpha, sin alpha), so the sides AB,
    BC and CA have outward normals (0, -1), (sin beta, cos beta) and
    (-sin alpha, cos alpha).  It depends on lengths and angles alone, so
    quarter turns, reflections, power-of-two scalings and vertex orders of
    the input give the same copy bit for bit, and a needle's support values
    do not cancel at any rotation.
    """
    table = np.array([(0.0, ct.beta, ct.alpha) for ct in cts])
    trig = np.empty((2,) + table.shape)
    np.sin(table, out=trig[0])
    np.cos(table, out=trig[1])
    cxy = trig[::-1, :, 2] * np.array([ct.b / ct.c for ct in cts])
    return cxy[:, :, None, None], trig * _NORMAL_SIGNS


def _stationary_tans(k: float) -> list[float]:
    """The t = tan(delta/2) > 0 at which the two leg-flush families of an
    input angle with cotangent `k` can be stationary (see `_candidate_rows`)."""
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
    tans = [t for t in ts if t > 0.0] if k >= 0.0 else [-t for t in ts if t < 0.0]
    # the quartic's roots: it is w^2 + 2k w + 8 = 0 in w = t - 1/t, whose
    # roots have the sign of -k and product 8, and past its double root at
    # k^2 = 8 both become the double root's -k.  Each w is t - 1/t of one
    # t > 0: u = (|w| + sqrt(w^2 + 4))/2 where w >= 0 (k <= 0), else 1/u
    s = kk2 - 8.0
    m = kk + math.sqrt(s) if s > 0.0 else kk  # the larger |w|
    for m in (m, 8.0 / m if s > 0.0 else m):
        u = 0.5 * (m + math.sqrt(m * m + 4.0))
        tans.append(1.0 / u if k > 0.0 else u)
    return tans


def _candidate_rows(angles: Sequence[tuple[float, float]]) -> list[list[float]]:
    """Every t = tan(delta/2) at which a flush container's area, as a
    function of the apex angle delta, can have a local minimum, for
    triangles with the rows of smallest interior angles (alpha, beta) in
    `angles`; one list per row, all of one length.

    With one container side on the line of an input side PQ, the other two
    sides each pass through P, Q or the third vertex R.  Which one changes
    only where the container's angle at P or Q equals the input's there,
    that is at an apex angle A or pi - 2A for an input angle A: the kinks,
    at t = tan(A/2) and t = cot A.  Between kinks the area is smooth.  With
    the base flush it is monotone in t, or convex with its least value on a
    kink.  With a leg flush, and k = cot A for the input angle A at P:
      - apex on P, base through R: area ~ (k + t)^2 t / (1 + t^2), stationary
        where t^3 - k t^2 + 3t + k = 0;
      - base vertex on P, other leg through R: stationary where
        t^4 + 2k t^3 + 6t^2 - 2k t + 1 = 0, that is sin(2 delta + A) = 3 sin A;
      - both free sides through R: area ~ 1/sin(delta), least at pi/2, t = 1;
      - free sides through P and Q: area ~ sin(delta), least on a kink.
    The cubic's roots come from the trigonometric or Cardano formula, the
    real ones polished by one Newton step, and the quartic's in radicals.
    Extra candidates are harmless (each is a valid container), so none is
    lost where rounding turns a double root into a complex pair: the cubic
    keeps the pair's real part, and the quartic its double root.

    Each row lists the input angles, their kinks, 1 for pi/2 and then the
    positive roots, angle by angle.  gamma's t and cotangent are taken as
    1/tan((alpha + beta)/2) and -1/tan(alpha + beta), which keep their
    digits where gamma nears pi.  The kink of a right or obtuse angle
    (k <= 0) is no apex angle and becomes 1, and rows with fewer roots are
    padded with 1 to the widest row.  Either way the 1 repeats an earlier
    candidate and so never wins a first-index argmin.  Rows are built one
    at a time in scalar arithmetic, so only a row's padding depends on its
    batch.
    """
    rows = []
    for alpha, beta in angles:
        ks = (1.0 / math.tan(alpha), 1.0 / math.tan(beta), -1.0 / math.tan(alpha + beta))
        row = [math.tan(0.5 * alpha), math.tan(0.5 * beta), 1.0 / math.tan(0.5 * (alpha + beta))]
        row += [k if k > 0.0 else 1.0 for k in ks]
        row.append(1.0)
        for k in ks:
            row += _stationary_tans(k)
        rows.append(row)
    width = max(map(len, rows))
    for row in rows:
        row += [1.0] * (width - len(row))
    return rows


def _flush_axes(normals: np.ndarray, t: np.ndarray, r: np.ndarray) -> np.ndarray:
    """The x and y components (2, N, M, 9) of the nine unit axes per apex
    angle at which the base, the first leg or the second leg is flush with
    an input side, for unit outward normals n, `normals` (2, N, 3), and
    t = tan(delta/2) of the apex angles with r = hypot(1, t), `t` and `r`
    (N, M, 1): -n, then n turned by +/- (pi/2 - delta/2),
    (t n +/- n') / r with n' = (-ny, nx)."""
    n = normals[:, :, None, :]
    a, b = t * n, np.array((-normals[1], normals[0]))[:, :, None, :]
    axes = np.empty(a.shape[:-1] + (9,))
    axes[..., :3], axes[..., 3:6], axes[..., 6:] = -n, (a + b) / r, (a - b) / r
    return axes


def _container_areas(
    cxy: np.ndarray, t: np.ndarray, axes: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Areas of the supporting-line containers of the unit copies with
    vertex C at `cxy` (2, N, 1, 1), for t = tan(delta/2) of the apex angles
    delta, `t` (N, M, 1, or expanded to K), along the unit axes `axes`
    (2, N, M, K): t H^2 with H = (g1 + g2) / (2t) + hb the apex-to-base
    height.  Returns the areas and the support values (g1, g2, hb) of
    `_side_supports` they come from, each (N, M, K)."""
    g1, g2, hb = _side_supports(*cxy, t, *axes)
    height = g1 + g2
    height /= 2.0 * t
    height += hb
    area = t * height
    area *= height
    return area, g1, g2, hb


def _block_search(cts: Sequence[CanonicalTriangle]) -> list[OracleResult]:
    """`search` for one block of rows, in one array pass."""
    rows = _candidate_rows([(ct.alpha, ct.beta) for ct in cts])
    cxy, normals = _unit_frame(cts)
    t = np.array(rows)[..., None]
    n, m = t.shape[:2]
    axes = _flush_axes(normals, t, np.hypot(t, 1.0))
    # t once per flush axis, so that the support and area passes run on
    # operands of one shape
    found = _container_areas(cxy, np.repeat(t, 9, axis=2), axes)
    # each row's argmin plus the row's offset: one index into every
    # flattened (N, M, 9) array
    best = found[0].reshape(n, -1).argmin(axis=1)
    flat = best + np.arange(0, n * m * 9, m * 9)
    picked = [a.take(flat).tolist() for a in found] + axes.reshape(2, -1).take(flat, axis=1).tolist()
    return [
        OracleResult(ct, area * ct.c * ct.c, row[j // 9], (vx, vy), (g1, g2, hb))
        for ct, row, j, area, g1, g2, hb, vx, vy in zip(cts, rows, best.tolist(), *picked)
    ]


def search(cts: Sequence[CanonicalTriangle]) -> list[OracleResult]:
    """The least-area flush container of each of `cts`, each row searched
    on its unit copy (see `_unit_frame`) with its own argmin, in blocks of
    `_BLOCK_ROWS` rows, so a batch's memory does not grow with its length."""
    results: list[OracleResult] = []
    for start in range(0, len(cts), _BLOCK_ROWS):
        results += _block_search(cts[start : start + _BLOCK_ROWS])
    return results
