"""Shared test helpers."""

import pytest

from isokit import ShapeParams, Triangle


def _min_triangle_for_shape(t: Triangle, sp: ShapeParams) -> Triangle:
    """Smallest isosceles triangle of shape `sp` containing `t`: the one
    bounded by the supporting lines of `t` at the shape's outward side
    normals, built from the oracle's own pieces as a one-row batch."""
    import numpy as np

    from isokit._search import _shape_frame, _side_supports
    from isokit.oracle import _witness_vertices

    p, _, _, ((cx, cy, s),) = _shape_frame([t])
    x, y = (p[0, :, k].reshape(3, 1, 1, 1) for k in (0, 1))
    delta, psi = (np.full((1, 1, 1), v) for v in (sp.apex_angle, sp.rotation))
    h = _side_supports(x, y, delta, psi)
    return _witness_vertices((cx, cy), tuple(g.item() * s for g in h), sp)


@pytest.fixture(scope="session")
def min_triangle_for_shape():
    return _min_triangle_for_shape
