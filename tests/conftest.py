"""Shared test helpers."""

import pytest

from isokit import Point, Triangle


def _min_triangle_for_shape(t: Triangle, shape: tuple[float, float]) -> Triangle:
    """Smallest isosceles triangle of shape `shape` = (apex angle, rotation)
    containing `t`: the one bounded by the supporting lines of `t` at the
    shape's outward side normals, built from the oracle's own pieces as a
    one-row batch, about the vertex A."""
    import math

    import numpy as np

    from isokit._search import _side_supports, _witness_vertices

    delta, rotation = shape
    A = t.A
    x = np.array([p.x - A.x for p in t.vertices]).reshape(3, 1, 1, 1)
    y = np.array([p.y - A.y for p in t.vertices]).reshape(3, 1, 1, 1)
    frame = (math.sin(0.5 * delta), math.cos(0.5 * delta), math.cos(rotation), math.sin(rotation))
    h1, h2, hb = (g.item() for g in _side_supports(x, y, *(np.full((1, 1, 1), v) for v in frame)))
    return Triangle(*(Point(*v) for v in _witness_vertices(A.x, A.y, h1, h2, hb, *frame)))


@pytest.fixture(scope="session")
def min_triangle_for_shape():
    return _min_triangle_for_shape
