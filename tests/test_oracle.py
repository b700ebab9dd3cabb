import dataclasses
import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from isokit import (
    DegenerateTriangle,
    NotScalene,
    Point,
    Triangle,
    all_special_containers,
    area,
    canonicalize,
    brute_force_min_isosceles,
    brute_force_min_isosceles_batch,
    can_cover,
    contains_triangle,
    first_kind,
    minimum_isosceles_container,
    sample_canonical_triangles,
    t_star,
    triangle_from_angles,
    triangle_from_sides,
    verify_triangle,
    verify_triangles,
)
from isokit import _search, oracle
from isokit.oracle import _witness_flags, _witness_vertices
from isokit._search import (
    _candidate_rows,
    _container_areas,
    _flush_axes,
    _unit_frame,
)
from referee import dist, longest_side, min_triangle_for_shape, rigid_motion, triangle


def shape_of(tri: Triangle) -> tuple[float, float]:
    """Apex angle and axis rotation of an isosceles triangle given as
    (apex, base0, base1)."""
    apex, b0, b1 = tri.vertices
    v0 = (b0.x - apex.x, b0.y - apex.y)
    v1 = (b1.x - apex.x, b1.y - apex.y)
    cosang = (v0[0] * v1[0] + v0[1] * v1[1]) / (math.hypot(*v0) * math.hypot(*v1))
    apex_angle = math.acos(max(-1.0, min(1.0, cosang)))
    mx, my = 0.5 * (b0.x + b1.x), 0.5 * (b0.y + b1.y)
    rotation = math.atan2(apex.y - my, apex.x - mx)
    return apex_angle, rotation


@pytest.fixture(scope="module")
def t345():
    return triangle_from_sides(3.0, 4.0, 5.0)


class TestMinTriangleForShape:
    """The supporting-line construction the oracle's search builds each
    container from, for one given shape (see `referee`)."""

    def test_equilateral_reproduces_itself(self):
        t = Triangle(Point(0, 0), Point(1, 0), Point(0.5, math.sqrt(3) / 2))
        # treat the top vertex as the apex
        sp = shape_of(Triangle(t.C, t.A, t.B))
        out = min_triangle_for_shape(t, sp)
        assert area(out) == pytest.approx(area(t), rel=1e-12)
        got = sorted((round(p.x, 9), round(p.y, 9)) for p in out.vertices)
        want = sorted((round(p.x, 9), round(p.y, 9)) for p in t.vertices)
        assert got == want

    def test_abc_prime_shape_gives_75(self, t345):
        # the ABC' container is isosceles with apex A; feeding its shape back
        # through the supporting-line construction must reproduce area 7.5
        abc_prime = first_kind(t345)[1]
        tri = abc_prime.tri
        sp = shape_of(Triangle(tri.A, tri.B, tri.C))
        out = min_triangle_for_shape(t345.tri, sp)
        assert area(out) == pytest.approx(7.5, rel=1e-9)

    def test_sides_touch(self, t345):
        rng = np.random.default_rng(5)
        for _ in range(50):
            sp = (rng.uniform(0.1, math.pi - 0.1), rng.uniform(0, 2 * math.pi))
            out = min_triangle_for_shape(t345.tri, sp)
            assert contains_triangle(out, t345.tri)
            w = out.vertices
            for i in range(3):
                q0, q1 = w[i], w[(i + 1) % 3]
                ex, ey = q1.x - q0.x, q1.y - q0.y
                ln = math.hypot(ex, ey)
                dmin = min(
                    abs((p.x - q0.x) * ey - (p.y - q0.y) * ex) / ln
                    for p in t345.tri.vertices
                )
                assert dmin <= 1e-9 * ln

    def test_isosceles_output(self, t345):
        sp = (1.0, 0.3)
        out = min_triangle_for_shape(t345.tri, sp)
        apex, b0, b1 = out.vertices
        assert dist(apex, b0) == pytest.approx(dist(apex, b1), rel=1e-12)


class TestBruteForce:
    def test_345(self, t345):
        res = brute_force_min_isosceles(t345.tri)
        assert res.min_area == pytest.approx(7.5, rel=1e-11)
        assert contains_triangle(res.witness, t345.tri)

    def test_equilateral(self):
        # an isosceles triangle is its own minimum container
        t = Triangle(Point(0, 0), Point(1, 0), Point(0.5, math.sqrt(3) / 2))
        res = brute_force_min_isosceles(t)
        assert res.min_area == pytest.approx(math.sqrt(3) / 4, rel=1e-12)
        got = sorted((round(p.x, 9), round(p.y, 9)) for p in res.witness.vertices)
        want = sorted((round(p.x, 9), round(p.y, 9)) for p in t.vertices)
        assert got == want

    def test_t_star_matches_tie(self):
        ts = t_star()
        closed = minimum_isosceles_container(ts)
        res = brute_force_min_isosceles(ts.tri)
        for cand in closed.candidates:
            assert res.min_area == pytest.approx(cand.area, rel=1e-11)

    def test_witness_isosceles(self, t345):
        res = brute_force_min_isosceles(t345.tri)
        apex, b0, b1 = res.witness.vertices
        assert dist(apex, b0) == pytest.approx(dist(apex, b1), rel=1e-9)

    def test_input_validation(self, t345):
        # the search has no tuning parameters left to validate
        with pytest.raises(TypeError):
            brute_force_min_isosceles(t345.tri, coarse_step=math.radians(0.5))
        with pytest.raises(TypeError):
            brute_force_min_isosceles(t345.tri, refine_iters=8)
        with pytest.raises(DegenerateTriangle):
            brute_force_min_isosceles(Triangle(Point(0, 0), Point(1, 1), Point(2, 2)))

    def test_345_exact(self, t345):
        # no refinement stage: the optimum itself is among the candidates
        res = brute_force_min_isosceles(t345.tri)
        assert contains_triangle(res.witness, t345.tri)
        assert res.min_area == pytest.approx(7.5, rel=1e-12)
        # ABC' has its apex on A and shares the angle there
        assert res.apex_angle == pytest.approx(t345.alpha, rel=1e-12)

    def test_flush_candidates_are_complete(self):
        # the two claims the search rests on, checked by dense sampling:
        # (1) at a fixed apex angle no rotation beats the nine flush ones;
        # (2) every local minimum over the apex angle of each flush family
        #     sits at a candidate apex angle
        # Each shape is a batch of one: the grids stand in for the candidate
        # apex angles (one row of M) and the flush rotations (one row of K).
        rng = np.random.default_rng(11)
        grid = np.linspace(1e-3, math.pi - 1e-3, 4001)
        step = grid[1] - grid[0]
        rot = np.linspace(0.0, 2.0 * math.pi, 20001)
        axes = np.array((np.cos(rot), np.sin(rot)))[:, None, None, :]
        for _ in range(30):
            u, v = sorted(rng.uniform(0.01, 0.99, size=2))
            ct = triangle_from_angles(math.pi * u, math.pi * (v - u))
            cxy, normals, _ = _unit_frame([ct], [()])
            candidates = np.array(_candidate_rows([(ct.alpha, ct.beta, ct.gamma)]))[0]
            sh, ch = np.sin(0.5 * grid[None, :, None]), np.cos(0.5 * grid[None, :, None])
            flush = _container_areas(cxy, sh, ch, _flush_axes(normals, sh, ch))[0][0]
            assert flush.shape == (len(grid), 9)

            for i in (500, 2000, 3500):
                dense = _container_areas(cxy, sh[:, i : i + 1], ch[:, i : i + 1], axes)[0].min()
                assert flush[i].min() <= dense * (1.0 + 1e-12)

            for f in flush.T:
                local = np.nonzero((f[1:-1] < f[:-2]) & (f[1:-1] < f[2:]))[0] + 1
                for i in local:
                    assert np.min(np.abs(candidates - grid[i])) <= 2.0 * step

    def test_side_supports_match_definition(self):
        # a support is the largest n . p over the unit copy's vertices
        # (0, 0), (1, 0) and C, here at every flush axis of every candidate
        # apex angle, with the normals written as `_side_supports` writes them
        cts = [*sample_canonical_triangles(seed=42, count=64), triangle_from_angles(1e-9, 0.3)]
        cxy, normals, _ = _unit_frame(cts, [()] * len(cts))
        half = 0.5 * np.array(_candidate_rows([(ct.alpha, ct.beta, ct.gamma) for ct in cts]))[..., None]
        sh, ch = np.sin(half), np.cos(half)
        ux, uy = _flush_axes(normals, sh, ch)
        legs_and_base = [
            (sh * ux + ch * uy, sh * uy - ch * ux),
            (sh * ux - ch * uy, sh * uy + ch * ux),
            (-ux, -uy),
        ]
        supports = _search._side_supports(*cxy, sh, ch, ux, uy)
        for h, (nx, ny) in zip(supports, legs_and_base):
            dots = [nx * px + ny * py for px, py in ((0.0, 0.0), (1.0, 0.0), cxy)]
            assert np.all(h == np.maximum(np.maximum(dots[0], dots[1]), dots[2]))

    @pytest.mark.parametrize(
        "ct",
        [
            triangle_from_sides(3, 4, 5),
            triangle_from_angles(math.radians(20), math.radians(35)),
            triangle_from_angles(0.6, 0.5 * math.pi - 0.6 + 1e-12),
            triangle_from_angles(0.6, 0.5 * math.pi - 0.6 - 1e-12),
            # 3 sin(gamma) <= 1: the arcsin roots of gamma must wrap into (0, pi)
            triangle_from_angles(math.radians(6.381), math.radians(9.700)),
        ],
        ids=["right-345", "obtuse", "gamma-below-right", "gamma-above-right", "obtuse-needle"],
    )
    def test_right_and_obtuse_input(self, ct):
        # a right or obtuse angle A has no kink pi - 2A in (0, pi)
        assert abs(ct.gamma - 0.5 * math.pi) <= 1e-12 or ct.gamma > 0.6 * math.pi
        candidates = np.array(_candidate_rows([(ct.alpha, ct.beta, ct.gamma)]))
        assert np.all((candidates > 0.0) & (candidates < math.pi))
        assert abs(verify_triangle(ct).relative_gap) <= 1e-11

    def test_candidates_match_polynomial_roots(self):
        # the closed-form roots against numpy's companion-matrix eigenvalues,
        # as np.roots computes them: every real positive root t of either
        # polynomial of an input angle must have a candidate apex angle
        # within 1e-7 rad of 2 atan(t).
        # Besides the sweep: the quartic's double roots (3 sin A = 1), the
        # cubic's (cot(A)^2 = 9 + sqrt(108)), an angle just past the cubic's
        # where its pair is complex but within the cut, the right angle and
        # needle angles, where the cubic's roots are about cot(A) and +-1.
        sweep = np.linspace(1e-6, math.pi - 1e-6, 20001)
        cubic_double = math.atan(1.0 / math.sqrt(9.0 + math.sqrt(108.0)))
        quartic_double = math.asin(1.0 / 3.0)
        special = [quartic_double, math.pi - quartic_double, cubic_double, math.pi - cubic_double]
        special += [cubic_double * (1.0 + 1e-15), 0.5 * math.pi, 1e-12, math.pi - 1e-12]
        angles = np.concatenate([sweep, special])
        # one input angle per row
        candidates = np.array(_candidate_rows(angles[:, None].tolist()))
        assert np.all((candidates > 0.0) & (candidates < math.pi))

        k = 1.0 / np.tan(angles)
        one = np.ones_like(k)
        for coeffs in (np.stack([-k, 3 * one, k], axis=-1), np.stack([2 * k, 6 * one, -2 * k, one], axis=-1)):
            n = coeffs.shape[-1]
            companion = np.zeros((len(k), n, n))
            companion[:, 0, :] = -coeffs
            companion[:, np.arange(1, n), np.arange(n - 1)] = 1.0
            roots = np.linalg.eigvals(companion)
            real = (np.abs(roots.imag) <= 1e-7 * np.abs(roots)) & (roots.real > 0.0)
            deltas = np.where(real, 2.0 * np.arctan(roots.real), np.nan)
            gaps = np.abs(candidates[:, None, :] - deltas[:, :, None]).min(axis=2)
            assert real.any()
            assert np.all(np.isnan(deltas) | (gaps <= 1e-7))

    def test_roots_match_reference(self):
        # the root finder against `reference_stationary_apex_angles`, bit for
        # bit, on the angles of test_candidates_match_polynomial_roots
        cubic_double = math.atan(1.0 / math.sqrt(9.0 + math.sqrt(108.0)))
        quartic_double = math.asin(1.0 / 3.0)
        special = [quartic_double, math.pi - quartic_double, cubic_double, math.pi - cubic_double]
        special += [cubic_double * (1.0 + 1e-15), 0.5 * math.pi, 1e-12, math.pi - 1e-12]
        for a in np.linspace(1e-6, math.pi - 1e-6, 20001).tolist() + special:
            assert _search._stationary_apex_angles(a) == reference_stationary_apex_angles(a), a

    def test_needle_cubic_roots(self):
        # for a needle angle A the cubic's roots are about cot A and +-1;
        # the small ones must keep their digits beside cot A
        for a in (1e-6, 3e-7, 1e-7):
            k = 1.0 / math.tan(a)
            candidates = np.array(_candidate_rows([[a]]))[0]
            for t in np.roots([1.0, -k, 3.0, k]).real:
                if t > 0.0:
                    assert np.min(np.abs(candidates - 2.0 * math.atan(t))) <= 1e-12

    def test_deterministic(self, t345):
        r1 = brute_force_min_isosceles(t345.tri)
        r2 = brute_force_min_isosceles(t345.tri)
        assert r1.min_area == r2.min_area
        assert (r1.apex_angle, r1.rotation) == (r2.apex_angle, r2.rotation)
        assert r1.witness == r2.witness

    def test_never_beats_closed_form(self):
        for ct in sample_canonical_triangles(seed=23, count=25):
            closed = minimum_isosceles_container(ct)
            res = brute_force_min_isosceles(ct.tri)
            gap = (res.min_area - closed.min_area) / closed.min_area
            assert abs(gap) <= 1e-11


class TestCanCover:
    def test_reflexive(self, t345):
        assert can_cover(t345.tri, t345.tri)

    def test_smaller_mover_fails(self, t345):
        small = Triangle(*(Point(0.9 * p.x, 0.9 * p.y) for p in t345.tri.vertices))
        assert not can_cover(small, t345.tri)
        assert can_cover(t345.tri, small)

    def test_special_containers_cover(self, t345):
        import warnings

        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            for sc in all_special_containers(t345):
                assert can_cover(sc.tri, t345.tri)

    def test_mirror_needs_reflection(self, t345):
        mirrored = Triangle(*(Point(p.x, -p.y) for p in t345.tri.vertices))
        assert can_cover(mirrored, t345.tri)
        assert can_cover(t345.tri, mirrored)

    def test_scaling_monotone(self, t345):
        for lam in (1.0, 1.05, 1.5):
            big = Triangle(*(Point(lam * p.x, lam * p.y) for p in t345.tri.vertices))
            assert can_cover(big, t345.tri)

    def test_agrees_with_containment(self):
        outer = Triangle(Point(-1, -1), Point(9, -1), Point(1, 8))
        inner = Triangle(Point(0, 0), Point(2, 0.5), Point(1, 2))
        assert contains_triangle(outer, inner)
        assert can_cover(outer, inner)

    def test_congruent_after_motion(self):
        t = Triangle(Point(0, 0), Point(4, 0), Point(1, 3))
        moved = rigid_motion(t, 0.7, 5.0, -2.0)
        assert can_cover(moved, t)
        assert can_cover(t, moved)

    @settings(max_examples=40, deadline=None)
    @given(
        coords=st.lists(
            st.floats(min_value=-10, max_value=10, allow_nan=False, allow_infinity=False),
            min_size=6,
            max_size=6,
        ),
        lam=st.floats(min_value=1.0, max_value=3.0),
    )
    def test_scaled_copy_always_covers(self, coords, lam):
        t = Triangle(
            Point(coords[0], coords[1]), Point(coords[2], coords[3]), Point(coords[4], coords[5])
        )
        if area(t) < 1e-2:
            return
        big = Triangle(*(Point(lam * p.x, lam * p.y) for p in t.vertices))
        assert can_cover(big, t)


class TestConcurrency:
    def test_parallel_matches_serial(self):
        # pure functions on immutable values: identical results regardless of
        # scheduling
        from concurrent.futures import ThreadPoolExecutor

        cts = sample_canonical_triangles(seed=31, count=8)

        def work(ct):
            res = brute_force_min_isosceles(ct.tri)
            return (res.min_area, res.apex_angle, res.rotation)

        serial = [work(ct) for ct in cts]
        with ThreadPoolExecutor(max_workers=4) as ex:
            parallel = list(ex.map(work, cts))
        assert serial == parallel


class TestVerifyTriangle:
    def test_345(self, t345):
        rep = verify_triangle(t345)
        assert rep.relative_gap <= 1e-11
        assert rep.relative_gap >= -1e-11
        assert all(rep.flags.values()), rep.flags
        assert rep.min_result.min_area == pytest.approx(7.5, rel=1e-12)

    def test_t_star(self):
        rep = verify_triangle(t_star())
        assert abs(rep.relative_gap) <= 1e-11

    def test_not_scalene(self):
        with pytest.raises(NotScalene):
            verify_triangle(triangle_from_sides(1, 1, 1))

    def test_batch(self):
        for ct in sample_canonical_triangles(seed=29, count=25):
            rep = verify_triangle(ct)
            assert abs(rep.relative_gap) <= 1e-11
            assert all(rep.flags.values()), rep.flags


class TestBatchAPI:
    COLLINEAR = Triangle(Point(0, 0), Point(1, 1), Point(2, 2))

    @pytest.fixture
    def no_search(self, monkeypatch):
        # a call that reaches the search fails the test
        def searched(*args):
            raise AssertionError("the search ran before the inputs were checked")

        monkeypatch.setattr(_search, "_unit_frame", searched)

    def test_empty(self):
        assert brute_force_min_isosceles_batch([]) == []
        assert verify_triangles([]) == []

    def test_matches_single_calls(self):
        cts = sample_canonical_triangles(seed=29, count=6)
        reports = verify_triangles(cts)
        assert [r.oracle_result for r in reports] == brute_force_min_isosceles_batch(ct.tri for ct in cts)
        for ct, rep in zip(cts, reports):
            assert rep == verify_triangle(ct)

    def test_isosceles_member(self, no_search):
        cts = [*sample_canonical_triangles(seed=29, count=3), triangle_from_sides(2, 2, 3)]
        with pytest.raises(NotScalene):
            verify_triangles(cts)
        with pytest.raises(NotScalene):
            verify_triangle(cts[-1])

    def test_collinear_member(self, no_search):
        cts = sample_canonical_triangles(seed=29, count=3)
        with pytest.raises(DegenerateTriangle):
            brute_force_min_isosceles_batch([ct.tri for ct in cts] + [self.COLLINEAR])
        with pytest.raises(DegenerateTriangle):
            brute_force_min_isosceles(self.COLLINEAR)
        # a scalene record whose vertices collapsed passes the scalene check
        # and is caught by the oracle's own check, as in the one-triangle call
        flat = dataclasses.replace(cts[0], tri=self.COLLINEAR)
        with pytest.raises(DegenerateTriangle):
            verify_triangles([*cts, flat])
        with pytest.raises(DegenerateTriangle):
            verify_triangle(flat)

    def test_verify_canonicalizes_no_record(self, monkeypatch):
        # verify_triangles searches the records it is given; the batch
        # canonicalizes each of its triangles once
        calls = []
        canonicalize = oracle.canonicalize

        def counted(t):
            calls.append(t)
            return canonicalize(t)

        monkeypatch.setattr(oracle, "canonicalize", counted)
        cts = sample_canonical_triangles(seed=29, count=5)
        reports = verify_triangles(cts)
        assert calls == []
        assert brute_force_min_isosceles_batch(ct.tri for ct in cts) == [r.oracle_result for r in reports]
        assert len(calls) == 5

    def test_one_support_pass_per_block(self, monkeypatch):
        # the witnesses come from the search's own support values: one
        # support evaluation per block of rows, none per triangle
        calls = []
        side_supports = _search._side_supports

        def spy(*args):
            calls.append(args)
            return side_supports(*args)

        monkeypatch.setattr(_search, "_side_supports", spy)
        tris = [ct.tri for ct in sample_canonical_triangles(seed=29, count=_search._BLOCK_ROWS + 1)]
        results = brute_force_min_isosceles_batch(tris)
        assert len(calls) == 2
        calls.clear()
        # the second block's row is the one that triangle gets alone
        assert brute_force_min_isosceles(tris[-1]) == results[-1]
        assert len(calls) == 1


def reference_stationary_apex_angles(a):
    """The search's root finder as first written, with its Newton step as a
    function and the signs of cot A applied by multiplication; the search's
    `_stationary_apex_angles` must return the same list, bit for bit."""

    def polished(k, t):
        df = (3.0 * t - 2.0 * k) * t + 3.0
        return t - (((t - k) * t + 3.0) * t + k) / df if df else t

    k = 1.0 / math.tan(a)
    kk = abs(k)
    p = 3.0 - kk * kk / 3.0
    q = 2.0 * kk * (1.0 - kk * kk / 27.0)
    d = (27.0 + kk * kk * (18.0 - kk * kk)) / 27.0
    if d < 0.0:
        theta = math.acos(max(-1.0, min(1.0, 1.5 * q / p * math.sqrt(-3.0 / p)))) / 3.0
        r = polished(kk, 2.0 * math.sqrt(-p / 3.0) * math.cos(theta) + kk / 3.0)
        c = -kk / r
        b = (c - 3.0) / r
        h = -0.5 * (b + math.copysign(math.sqrt(max(0.0, b * b - 4.0 * c)), b))
        ts = [r, polished(kk, h), polished(kk, c / h)]
    else:
        w = -0.5 * q - math.copysign(math.sqrt(d), q)
        u = math.copysign(abs(w) ** (1.0 / 3.0), w)
        r = polished(kk, u - p / (3.0 * u) + kk / 3.0)
        ts = [r, 0.5 * (kk - r)]
    deltas = [2.0 * math.atan(t) for t in (math.copysign(1.0, k) * t for t in ts) if t > 0.0]
    phi = math.asin(min(1.0, 3.0 * math.sin(a)))
    deltas += [0.5 * ((phi - a) % math.tau), 0.5 * ((math.pi - phi - a) % math.tau)]
    return [delta for delta in deltas if 0.0 < delta < math.pi]


def _seg_distance(p, q0, q1):
    ex, ey = q1[0] - q0[0], q1[1] - q0[1]
    dx, dy = p[0] - q0[0], p[1] - q0[1]
    denom = ex * ex + ey * ey
    s = 0.0 if denom == 0.0 else max(0.0, min(1.0, (dx * ex + dy * ey) / denom))
    return math.hypot(dx - s * ex, dy - s * ey)


def reference_witness_flags(ins, w, eps_geom=1e-7):
    """The witness checks written plainly, one `_seg_distance` call per
    (input vertex, half side) pair and the rays of every shared pair, for
    input vertices `ins` and witness vertices `w` given as (x, y) pairs;
    the oracle's `_witness_flags` must give the same booleans."""
    eps = eps_geom * longest_side(triangle(w))
    mids = [((w[i][0] + w[(i + 1) % 3][0]) / 2.0, (w[i][1] + w[(i + 1) % 3][1]) / 2.0) for i in range(3)]
    halves = [half for i in range(3) for half in ((w[i], mids[i]), (mids[i], w[(i + 1) % 3]))]
    near = [[_seg_distance(p, *half) <= eps for half in halves] for p in ins]
    on_side = [[row[2 * i] or row[2 * i + 1] for i in range(3)] for row in near]
    on_arc = [[row[2 * j - 1] or row[2 * j] for j in range(3)] for row in near]
    shared_pairs = [
        (vi, wj)
        for vi in range(3)
        for wj in range(3)
        if math.hypot(ins[vi][0] - w[wj][0], ins[vi][1] - w[wj][1]) <= eps
    ]

    def rays(pts, k):
        out = []
        for other in (pts[(k + 1) % 3], pts[(k + 2) % 3]):
            dx, dy = other[0] - pts[k][0], other[1] - pts[k][1]
            ln = math.hypot(dx, dy)
            out.append((dx / ln, dy / ln))
        return out

    shares = False
    for vi, wj in shared_pairs:
        r_in = rays(ins, vi)
        r_w = rays(w, wj)
        angle_in = math.acos(max(-1.0, min(1.0, r_in[0][0] * r_in[1][0] + r_in[0][1] * r_in[1][1])))
        angle_w = math.acos(max(-1.0, min(1.0, r_w[0][0] * r_w[1][0] + r_w[0][1] * r_w[1][1])))
        if abs(angle_in - angle_w) > eps_geom:
            continue
        if any(
            abs(ri[0] * rw[1] - ri[1] * rw[0]) <= math.sin(eps_geom) and ri[0] * rw[0] + ri[1] * rw[1] > 0.0
            for ri in r_in
            for rw in r_w
        ):
            shares = True
            break

    return {
        "vertices_on_boundary": all(any(row) for row in on_side),
        "sides_touch": all(any(row[i] for row in on_side) for i in range(3)),
        "one_per_arc": any(
            on_arc[0][p0] and on_arc[1][p1] and on_arc[2][p2] for p0, p1, p2 in itertools.permutations(range(3))
        ),
        "shared_vertex": bool(shared_pairs),
        "shares_side_and_angle": shares,
    }


def unit_copy(report):
    """The input and witness vertices of `report` on the unit copy the
    search ran on, as (x, y) pairs: the input (0, 0), (1, 0) and
    (b/c)(cos alpha, sin alpha), and the witness from the copy's supports."""
    result = report.oracle_result
    ct = result.input
    r = ct.b / ct.c
    ins = [(0.0, 0.0), (1.0, 0.0), (r * math.cos(ct.alpha), r * math.sin(ct.alpha))]
    return ins, _witness_vertices(0.0, 0.0, *result.supports, result.apex_angle, *result.axis)


class TestWitnessFlags:
    @pytest.mark.parametrize("seed", range(5))
    def test_sampler_matches_reference(self, seed):
        for rep in verify_triangles(sample_canonical_triangles(seed=seed, count=2000)):
            assert rep.flags == reference_witness_flags(*unit_copy(rep))

    def test_fine_tolerance_shares_side_and_angle(self, monkeypatch):
        # with the tolerance at 1e-8 rad, the cosine of the angle between two
        # rays rounds to 1 and no longer resolves it; the sine does.  Inputs
        # 1293 and 1944 of seed 42 failed shares_side_and_angle that way.
        monkeypatch.setattr(oracle, "_EPS_GEOM", 1e-8)
        for rep in verify_triangles(sample_canonical_triangles(seed=42, count=2000)):
            assert all(rep.flags.values()), rep.flags
            assert rep.flags == reference_witness_flags(*unit_copy(rep), eps_geom=1e-8)

    def test_nudged_witnesses_match_reference(self):
        # copy witnesses with one vertex moved, or grown about their
        # centroid, by about the checks' tolerance (1e-7 of the witness
        # size), so that every flag is False on some of them
        rng = np.random.default_rng(17)
        failed = set()
        for rep in verify_triangles(sample_canonical_triangles(seed=5, count=200)):
            ins, w = unit_copy(rep)
            size = longest_side(triangle(w))
            cx, cy = sum(x for x, _ in w) / 3.0, sum(y for _, y in w) / 3.0
            for _ in range(5):
                step = size * 10.0 ** rng.uniform(-9.0, -5.0)
                k, turn = rng.integers(3), rng.uniform(0.0, 2.0 * math.pi)
                moved = list(w)
                moved[k] = (w[k][0] + step * math.cos(turn), w[k][1] + step * math.sin(turn))
                grow = 1.0 + 10.0 ** rng.uniform(-9.0, -5.0)
                grown = [(cx + grow * (x - cx), cy + grow * (y - cy)) for x, y in w]
                for nudged in (moved, grown):
                    flags = _witness_flags(rep.oracle_result.input, nudged)
                    assert flags == reference_witness_flags(ins, nudged)
                    failed.update(name for name, ok in flags.items() if not ok)
        assert failed == set(rep.flags)

    def test_flags_do_not_depend_on_pose(self):
        # the checks run on the unit copy, so moving the input far from the
        # origin, or turning it, changes no flag: posed at 1e12 sizes, the
        # witness would be rounded at the offset
        cts = sample_canonical_triangles(seed=5, count=200)
        unposed = [rep.flags for rep in verify_triangles(cts)]
        for offset in (0.0, 1e4, 1e8, 1e12):
            for theta in (0.3, 2.1):
                posed = [canonicalize(rigid_motion(ct.tri, theta, offset * ct.c, offset * ct.c)) for ct in cts]
                assert [rep.flags for rep in verify_triangles(posed)] == unposed
