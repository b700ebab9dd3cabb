"""Shared test helpers."""

import pytest

from isokit import Point, Triangle


def _min_triangle_for_shape(t: Triangle, shape: tuple[float, float]) -> Triangle:
    """Smallest isosceles triangle of shape `shape` = (apex angle, rotation)
    containing `t`: the one bounded by the supporting lines of `t` at the
    shape's outward side normals, built from the oracle's own pieces as a
    one-row batch."""
    import math

    import numpy as np

    from isokit._search import _shape_frame, _side_supports, _witness_vertices

    delta, rotation = shape
    p, _, _, ((cx, cy, s),) = _shape_frame([t])
    x, y = (p[0, :, k].reshape(3, 1, 1, 1) for k in (0, 1))
    frame = (math.sin(0.5 * delta), math.cos(0.5 * delta), math.cos(rotation), math.sin(rotation))
    h1, h2, hb = (g.item() * s for g in _side_supports(x, y, *(np.full((1, 1, 1), v) for v in frame)))
    return Triangle(*(Point(*v) for v in _witness_vertices(cx, cy, h1, h2, hb, *frame)))


@pytest.fixture(scope="session")
def min_triangle_for_shape():
    return _min_triangle_for_shape
