"""`can_cover` against the slide-only decision it replaced.

`reference_can_cover` is the covering decision as it stood before the area
bound, the shared target frames and the placements decided on the mover's
two free sides: all 2 x 3 x 3 (mirror, mover side, target side)
configurations, each decided to the end on all three mover sides.  The
rewrite must return the same boolean on every pair, in both directions, and
the area bound must reject only pairs that the reference rejects too.
"""

import math
import random
import warnings

import pytest

from isokit import (
    DEFAULT_TOLERANCES,
    DegenerateTriangle,
    Point,
    ShapeClass,
    Tolerances,
    Triangle,
    all_special_containers,
    area,
    can_cover,
    canonicalize,
    minimum_isosceles_container,
    triangle_from_angles,
    triangle_from_sides,
)
from isokit import oracle
from isokit.geo import _check_nondegenerate, signed_area
from referee import longest_side, rigid_motion, triangle


def _ccw_vertices(t: Triangle) -> list[tuple[float, float]]:
    pts = [(v.x, v.y) for v in t.vertices]
    if signed_area(t) < 0.0:
        pts[1], pts[2] = pts[2], pts[1]
    return pts


def _side_frame(pts: list[tuple[float, float]], i: int) -> list[tuple[float, float]]:
    """Rotate+translate so side i runs from the origin along +x; for CCW
    input the interior lands in the upper half-plane."""
    x0, y0 = pts[i]
    x1, y1 = pts[(i + 1) % 3]
    ex, ey = x1 - x0, y1 - y0
    ln = math.hypot(ex, ey)
    cx, sx = ex / ln, ey / ln
    out = []
    for x, y in pts:
        dx, dy = x - x0, y - y0
        out.append((dx * cx + dy * sx, -dx * sx + dy * cx))
    return out


def reference_can_cover(
    mover: Triangle, target: Triangle, tol: Tolerances = DEFAULT_TOLERANCES
) -> bool:
    """Can some rigid motion (rotations, translations, and reflections) of
    `mover` place it over `target`?

    If any covering exists, one exists with a side of the mover containing a
    side of the target, so it suffices to try each (mover side, target side,
    mirror) configuration with the two side lines identified and the mover
    free to slide along the line.  Each "target vertex inside mover"
    condition is linear in the slide offset, so feasibility is an interval
    intersection, decided in closed form.
    """
    _check_nondegenerate(mover)
    _check_nondegenerate(target)

    sides = []
    for tri in (mover, target):
        vs = tri.vertices
        sides.extend(
            math.hypot(vs[i].x - vs[(i + 1) % 3].x, vs[i].y - vs[(i + 1) % 3].y)
            for i in range(3)
        )
    scale = max(sides)
    slack = tol.eps_num * scale * scale  # cross products have area units
    eps_u = tol.eps_num * scale
    tiny = 1e-15 * scale

    target_ccw = _ccw_vertices(target)
    mover_ccw = _ccw_vertices(mover)
    mover_mirror = _ccw_vertices(
        Triangle(*(Point(v.x, -v.y) for v in mover.vertices))
    )

    for mv in (mover_ccw, mover_mirror):
        for i in range(3):
            placed = _side_frame(mv, i)
            edges = []
            for k in range(3):
                xk, yk = placed[k]
                xk1, yk1 = placed[(k + 1) % 3]
                edges.append((xk, yk, xk1 - xk, yk1 - yk))
            for j in range(3):
                tgt = _side_frame(target_ccw, j)
                lo, hi = -math.inf, math.inf
                feasible = True
                for xk, yk, ex, ey in edges:
                    for qx, qy in tgt:
                        # inside (left of edge) for slide u: cr + u*ey >= -slack
                        cr = ex * (qy - yk) - ey * (qx - xk)
                        if ey > tiny:
                            lo = max(lo, (-slack - cr) / ey)
                        elif ey < -tiny:
                            hi = min(hi, (-slack - cr) / ey)
                        elif cr < -slack:
                            feasible = False
                            break
                    if not feasible:
                        break
                if feasible and lo <= hi + eps_u:
                    return True
    return False


# ---------------------------------------------------------------------------
# Seeded pairs
# ---------------------------------------------------------------------------


def _base_angles(rng: random.Random, kind: str) -> tuple[float, float]:
    """Two angles (alpha, beta) of a shape of the given kind."""
    if kind == "needle":
        alpha = 10.0 ** rng.uniform(-10.0, -1.0)
        return alpha, rng.uniform(0.05, math.pi - 0.05 - alpha)
    if kind == "near_isosceles":
        theta = rng.uniform(0.1, 1.4)
        return theta, theta + 10.0 ** rng.uniform(-8.0, -2.0)
    if kind == "near_right":
        alpha = rng.uniform(0.1, 1.4)
        gamma = 0.5 * math.pi + rng.choice((-1.0, 1.0)) * 10.0 ** rng.uniform(-12.0, -2.0)
        return alpha, math.pi - gamma - alpha
    u, v = sorted((rng.uniform(0.01, 0.99), rng.uniform(0.01, 0.99)))
    return math.pi * u, math.pi * max(v - u, 0.01)


def _posed(rng: random.Random, tri: Triangle, factor: float = 1.0, mirror: bool = False) -> Triangle:
    """`tri` scaled by `factor` about its centroid, maybe mirrored, then
    turned and moved up to 1e8 longest sides from the origin; a needle goes
    only so far that rounding at the offset keeps its height (1e13 heights)."""
    v = tri.vertices
    cx, cy = sum(p.x for p in v) / 3.0, sum(p.y for p in v) / 3.0
    size = longest_side(tri)
    reach = min(1e8 * size, 2e13 * area(tri) / size)
    offset = 0.0 if rng.random() < 0.25 else reach * 10.0 ** -rng.uniform(0.0, 8.0)
    phi, theta = rng.uniform(0.0, 2.0 * math.pi), rng.uniform(0.0, 2.0 * math.pi)
    sign = -1.0 if mirror else 1.0
    centred = triangle((factor * (p.x - cx), sign * factor * (p.y - cy)) for p in v)
    return rigid_motion(centred, phi, offset * math.cos(theta), offset * math.sin(theta))


def seeded_pairs(seed: int, shapes: int) -> list[tuple[str, Triangle, Triangle]]:
    """(label, a, b) pairs: per shape T, posed copies of T scaled by
    1 +- 10**-k (k = 1..12) and a mirror image against T, every special
    container and the minimizer against T, and the needles 1e-10 rad thin."""
    rng = random.Random(seed)
    kinds = ("simplex", "needle", "near_isosceles", "near_right")
    bases = [triangle_from_angles(1e-10, 1.0), triangle_from_angles(3e-10, 0.3)]
    bases += [triangle_from_angles(*_base_angles(rng, kinds[n % 4])) for n in range(shapes - len(bases))]
    pairs = []
    for ct in bases:
        tri = _posed(rng, ct.tri)
        for k in range(1, 13):
            for sign in (1.0, -1.0):
                pairs.append((f"scaled 1{sign * 10.0**-k:+g}", _posed(rng, ct.tri, 1.0 + sign * 10.0**-k), tri))
        pairs.append(("mirror", _posed(rng, ct.tri, mirror=True), tri))
        posed = canonicalize(tri)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # near-right input warns
            containers = all_special_containers(posed) if posed.shape_class is ShapeClass.SCALENE else []
        pairs += [(f"special {sc.variant.value}", sc.tri, posed.tri) for sc in containers]
        result = minimum_isosceles_container(posed)
        if not result.is_self:
            pairs.append(("minimizer", result.minimizers[0].tri, posed.tri))
    return pairs


@pytest.fixture(scope="module")
def pairs():
    return seeded_pairs(seed=1301, shapes=64)


def test_same_answers_as_reference(pairs):
    assert len(pairs) >= 2000
    outcomes = set()
    for label, a, b in pairs:
        for mover, target in ((a, b), (b, a)):
            expected = reference_can_cover(mover, target)
            assert can_cover(mover, target) is expected, (label, mover, target)
            outcomes.add((label.split()[0], expected))
    # every kind of pair occurs, and both answers do, so the comparison is
    # not one-sided
    assert {label for label, _ in outcomes} == {"scaled", "mirror", "special", "minimizer"}
    assert {("scaled", True), ("scaled", False), ("special", True), ("special", False)} <= outcomes


def needle_mover_pairs(seed: int, count: int) -> list[tuple[Triangle, Triangle]]:
    """(mover, target) pairs: needles with a longest side log-uniform in
    [1e-6, 1e-3] and a height of 1e-12 to 1e-6 times it, against unit
    targets of aspect 1e-3 to 0.5, each turned at random about the origin.
    Draws that `can_cover` would reject as degenerate are skipped."""
    rng = random.Random(seed)
    pairs = []
    for _ in range(count):
        size = 10.0 ** rng.uniform(-6.0, -3.0)
        height = size * 10.0 ** rng.uniform(-12.0, -6.0)
        mover = triangle([(0.0, 0.0), (size, 0.0), (rng.uniform(0.0, size), height)])
        target = triangle([(0.0, 0.0), (1.0, 0.0), (rng.random(), 10.0 ** rng.uniform(-3.0, -0.3))])
        mover = rigid_motion(mover, rng.uniform(0.0, math.tau))
        try:
            _check_nondegenerate(mover)
        except DegenerateTriangle:
            continue
        pairs.append((mover, rigid_motion(target, rng.uniform(0.0, math.tau))))
    return pairs


def test_needle_movers_same_answers_as_reference():
    # a mover whose height is below tiny = 1e-15 * scale has flat free
    # sides when its base lies on the shared line, so these pairs reach the
    # flat-side branch that no other test does
    pairs = needle_mover_pairs(seed=11, count=1000)
    flat = sum(2.0 * area(a) / longest_side(a) < 1e-15 * max(longest_side(a), longest_side(b)) for a, b in pairs)
    assert flat >= 100
    outcomes = set()
    for a, b in pairs:
        for mover, target in ((a, b), (b, a)):
            expected = reference_can_cover(mover, target)
            assert can_cover(mover, target) is expected, (mover, target)
            outcomes.add(expected)
    assert outcomes == {True, False}


@pytest.fixture
def frame_calls(monkeypatch):
    """The (vertex list, side) of every `oracle._side_frame` call, the list
    identified by its id; the caller clears it between decisions."""
    calls = []
    frame = oracle._side_frame

    def counted(pts, i, ln):
        calls.append((id(pts), i))
        return frame(pts, i, ln)

    monkeypatch.setattr(oracle, "_side_frame", counted)
    return calls


def test_area_bound_rejects_only_what_the_reference_rejects(pairs, frame_calls):
    # the area bound answers before any configuration is placed, so a False
    # with no `_side_frame` call is the bound's
    bound_rejects = 0
    for label, a, b in pairs:
        for mover, target in ((a, b), (b, a)):
            frame_calls.clear()
            if not can_cover(mover, target) and not frame_calls:
                bound_rejects += 1
                assert area(target) > area(mover), label
                assert not reference_can_cover(mover, target), (label, mover, target)
    # it answers most of the pairs the reference rejects (1165 of 1318 here)
    assert bound_rejects >= 0.25 * len(pairs)


def test_frames_are_built_when_first_reached(frame_calls):
    # the first configuration covers T with its minimizer: one mover frame
    # and one target frame; the reverse stops at the area bound
    ct = triangle_from_sides(4.0, 5.0, 6.0)
    (minimizer,) = minimum_isosceles_container(ct).minimizers
    assert can_cover(minimizer.tri, ct.tri)
    assert len(frame_calls) == 2
    frame_calls.clear()
    assert not can_cover(ct.tri, minimizer.tri)
    assert frame_calls == []


def test_no_frame_is_built_twice(pairs, frame_calls):
    for _, a, b in pairs:
        for mover, target in ((a, b), (b, a)):
            frame_calls.clear()
            can_cover(mover, target)
            assert len(set(frame_calls)) == len(frame_calls), (mover, target)


@pytest.mark.xfail(strict=True, reason="known defect: can_cover's slack is taken from the longest side")
def test_needle_minimizer_does_not_fit_inside_input():
    # the minimizer ABC' has 1 + 3.2e-5 times the input's area, so it cannot
    # fit inside the input; but the slack, eps_num times the squared longest
    # side, is wider than the needle's 3e-6 height allows for.  The area bound
    # leaves this pair to the configurations: its lam**2 - 1 exceeds 3.2e-5.
    ct = triangle_from_angles(1e-5, 0.3)
    (minimizer,) = minimum_isosceles_container(ct).minimizers
    assert area(minimizer.tri) > (1.0 + 3e-5) * area(ct.tri)
    assert not can_cover(ct.tri, minimizer.tri)


@pytest.mark.parametrize("k", [1e-9, 1e-12])
@pytest.mark.xfail(strict=True, reason="known defect (ROADMAP item 3): can_cover's slack is taken from the longest side")
def test_shrunk_copy_does_not_cover_original(k):
    # the slack, eps_num times the target's squared longest side, swamps a
    # mover a billion times smaller (at k = 1e-8 the answer is still False),
    # and the area bound does not fire: at k = 1e-9 lam is about 1.25e10,
    # so lam**2 times the mover's area is about 940 against T's 6
    t = triangle_from_sides(3.0, 4.0, 5.0).tri
    shrunk = triangle((k * p.x, k * p.y) for p in t.vertices)
    assert not can_cover(shrunk, t)
