"""Shared test helpers, and the Hypothesis profiles of the suite."""

import os

import pytest
from hypothesis import settings

from isokit import Point, Triangle

# every run draws the same examples, seeded from each test's own code, so a
# rare counterexample cannot make one run fail and the next pass; each test
# keeps its own max_examples
settings.register_profile("derandomized", derandomize=True)
# a longer search for local runs, chosen with HYPOTHESIS_PROFILE=explore:
# fresh random examples on every run, EXPLORE_FACTOR times each test's own
# max_examples, and the blob that reproduces a failing example
settings.register_profile("explore", derandomize=False, print_blob=True)
PROFILE = os.environ.get("HYPOTHESIS_PROFILE", "derandomized")
settings.load_profile(PROFILE)
EXPLORE_FACTOR = 10


def pytest_collection_modifyitems(items):
    # a test's own max_examples overrides any profile's, so the explore
    # profile scales it on each collected property test instead; Hypothesis
    # keeps the settings a test runs with on the test function
    if PROFILE != "explore":
        return
    for item in items:
        test = getattr(item, "obj", None)
        test = getattr(test, "__func__", test)  # the function of a test method
        own = getattr(test, "_hypothesis_internal_use_settings", None)
        if own is not None:
            test._hypothesis_internal_use_settings = settings(own, max_examples=own.max_examples * EXPLORE_FACTOR)


def _min_triangle_for_shape(t: Triangle, shape: tuple[float, float]) -> Triangle:
    """Smallest isosceles triangle of shape `shape` = (apex angle, rotation)
    containing `t`: the one bounded by the supporting lines of `t` at the
    shape's outward side normals, about the vertex A.  The support values
    are computed here, independently of the oracle's search, as the largest
    n . (p - A) over the vertices p of `t`, in plain floats; the oracle's
    `_witness_vertices` builds the triangle from them."""
    import math

    from isokit.oracle import _witness_vertices

    delta, rotation = shape
    sh, ch = math.sin(0.5 * delta), math.cos(0.5 * delta)
    ux, uy = math.cos(rotation), math.sin(rotation)
    A = t.A
    pts = [(p.x - A.x, p.y - A.y) for p in t.vertices]
    # the outward normals of the two legs and the base: sh u -/+ ch u' and
    # -u, with u = (ux, uy) and u' = (-uy, ux)
    normals = ((sh * ux + ch * uy, sh * uy - ch * ux), (sh * ux - ch * uy, sh * uy + ch * ux), (-ux, -uy))
    h1, h2, hb = (max(nx * x + ny * y for x, y in pts) for nx, ny in normals)
    return Triangle(*(Point(*v) for v in _witness_vertices(A.x, A.y, h1, h2, hb, delta, ux, uy)))


@pytest.fixture(scope="session")
def min_triangle_for_shape():
    return _min_triangle_for_shape
