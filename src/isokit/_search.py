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
from .oracle import _APEX_MARGIN


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



def _shape_frame(v: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """For triangles with vertices `v` (N, 3, 2): centred copies scaled to
    unit size, their interior angles and the direction angles of the outward
    normals of their sides, both (N, 3)."""
    p = _centred(v)[1]
    p /= np.abs(p).max(axis=(1, 2), keepdims=True)
    ahead = p[:, [1, 2, 0]] - p
    behind = p[:, [2, 0, 1]] - p
    cross = ahead[..., 0] * behind[..., 1] - ahead[..., 1] * behind[..., 0]
    # atan2 of (|cross|, dot) keeps needle angles accurate
    angles = np.arctan2(np.abs(cross), np.sum(ahead * behind, axis=2))
    # side k runs from vertex k to k + 1; its outward normal is a quarter
    # turn clockwise from it when the vertices wind counter-clockwise
    normals = np.arctan2(ahead[..., 1], ahead[..., 0]) - np.copysign(0.5 * math.pi, cross[:, :1])
    return p, angles, normals


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
        t^4 + 2k t^3 + 6t^2 - 2k t + 1 = 0 (sin(2 delta + A) = 3 sin A);
      - both free sides through R: area ~ 1/sin(delta), least at pi/2;
      - free sides through P and Q: area ~ sin(delta), least on a kink.
    Extra candidates are harmless (each is a valid container), so every
    root's real part is kept.

    Each row lists the kinks, pi/2 and then the roots in a fixed order.  A
    root slot that is positive in no row is dropped, so a batch of one keeps
    exactly its positive roots; in another row a non-positive root becomes
    pi/2, which repeats an earlier candidate and so never wins a first-index
    argmin.
    """
    k = 1.0 / np.tan(angles)
    zero, one = np.zeros_like(k), np.ones_like(k)
    # monic quartics t^4 + c3 t^3 + c2 t^2 + c1 t + c0 (the cubic times t),
    # the three cubics of a triangle before its three quartics
    coeffs = np.concatenate(
        [np.stack([-k, 3.0 * one, k, zero], axis=-1), np.stack([2.0 * k, 6.0 * one, -2.0 * k, one], axis=-1)],
        axis=1,
    )
    companion = np.zeros(coeffs.shape + (4,))
    companion[..., 0, :] = -coeffs
    companion[..., 1, 0] = companion[..., 2, 1] = companion[..., 3, 2] = 1.0
    roots = np.linalg.eigvals(companion).real.reshape(len(k), -1)
    positive = roots > 0.0
    used = positive.any(axis=0)
    roots, positive = roots[:, used], positive[:, used]
    quarter = np.full((len(k), 1), 0.5 * math.pi)
    deltas = np.concatenate(
        [angles, math.pi - 2.0 * angles, quarter, np.where(positive, 2.0 * np.arctan(roots), quarter)], axis=1
    )
    # out-of-range angles move to valid ones (ShapeParams excludes the margin)
    return np.clip(deltas, 2.0 * _APEX_MARGIN, math.pi - 2.0 * _APEX_MARGIN)


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


def best_shapes(triangles: Sequence[Triangle]) -> tuple[list[float], list[float]]:
    """The apex angle and the rotation of the least-area flush container of
    each of `triangles`, from one array pass with a per-row argmin."""
    p, angles, normals = _shape_frame(_vertex_array(triangles))
    deltas = _candidate_apex_angles(angles)
    psis = _flush_rotations(normals, deltas)
    best = np.argmin(_container_areas(p, deltas, psis).reshape(len(triangles), -1), axis=1)
    rows = np.arange(len(triangles))
    apex_angles = deltas[rows, best // psis.shape[-1]].tolist()
    rotations = psis.reshape(len(triangles), -1)[rows, best].tolist()
    return apex_angles, rotations
