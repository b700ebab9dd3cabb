"""Shared test helpers."""

import pytest

from isokit import Point, Triangle


def _min_triangle_for_shape(t: Triangle, shape: tuple[float, float]) -> Triangle:
    """Smallest isosceles triangle of shape `shape` = (apex angle, rotation)
    containing `t`: the one bounded by the supporting lines of `t` at the
    shape's outward side normals, about the vertex A.  The support values
    are computed here, independently of the oracle's search, as the largest
    n . (p - A) over the vertices p of `t`, in plain floats; the oracle's
    `_witness_vertices` builds the triangle from them."""
    import math

    from isokit._search import _witness_vertices

    delta, rotation = shape
    sh, ch = math.sin(0.5 * delta), math.cos(0.5 * delta)
    ux, uy = math.cos(rotation), math.sin(rotation)
    A = t.A
    pts = [(p.x - A.x, p.y - A.y) for p in t.vertices]
    # the outward normals of the two legs and the base: sh u -/+ ch u' and
    # -u, with u = (ux, uy) and u' = (-uy, ux)
    normals = ((sh * ux + ch * uy, sh * uy - ch * ux), (sh * ux - ch * uy, sh * uy + ch * ux), (-ux, -uy))
    h1, h2, hb = (max(nx * x + ny * y for x, y in pts) for nx, ny in normals)
    return Triangle(*(Point(*v) for v in _witness_vertices(A.x, A.y, h1, h2, hb, sh, ch, ux, uy)))


@pytest.fixture(scope="session")
def min_triangle_for_shape():
    return _min_triangle_for_shape
