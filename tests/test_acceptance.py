"""Acceptance suite: one pass/fail line per criterion.

Run `pytest tests/test_acceptance.py -v -s` to see the lines as they print.
The full batch (criteria 3-5) runs the brute-force oracle on 1000 seeded
triangles once and shares the reports.
"""

import math
import random
import time

import numpy as np
import pytest

from isokit import (
    DEFAULT_MIN_ANGLE,
    DEFAULT_SCALENE_MARGIN,
    DEFAULT_TOLERANCES,
    Kind,
    Point,
    Triangle,
    all_special_containers,
    alpha_star,
    alpha_star_equation,
    area,
    can_cover,
    canonicalize,
    first_kind_ratio,
    minimum_isosceles_container,
    sample_canonical_triangles,
    second_kind,
    t_star,
    third_kind,
    triangle_at_crossing,
    triangle_from_angles,
    triangle_from_sides,
    verify_triangles,
)
from isokit.sampling import _draw_angles

SEED = 42
SQRT2 = math.sqrt(2.0)
PHI = 0.5 * (1.0 + math.sqrt(5.0))
REFERENCE_ALPHA_STAR_DEG = 41.8316186927  # 40-digit root; see criterion 1


def _line(num: int, ok: bool, detail: str) -> None:
    print(f"[acceptance] criterion {num}: {'PASS' if ok else 'FAIL'} - {detail}")


def _best_time(fn, repeats: int = 5) -> float:
    best = math.inf
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


@pytest.fixture(scope="module")
def batch():
    """1000 seeded scalene triangles (5 deg minimum angle, 1 deg scalene
    margin) with their closed-form-vs-oracle verification reports."""
    triangles = sample_canonical_triangles(seed=SEED, count=1000)
    t0 = time.perf_counter()
    reports = verify_triangles(triangles)
    elapsed = time.perf_counter() - t0
    return triangles, reports, elapsed


def test_criterion_1_alpha_star_regression():
    runtime = _best_time(alpha_star)
    root = alpha_star()
    root_deg = math.degrees(root)
    residual = abs(alpha_star_equation(root))
    deviation = abs(root_deg - REFERENCE_ALPHA_STAR_DEG)
    ok_value = deviation <= 1e-4
    ok_residual = residual < 1e-12
    ok_runtime = runtime < 1e-3
    _line(
        1,
        ok_value and ok_residual and ok_runtime,
        f"alpha*={root_deg:.8f} deg, |delta| vs {REFERENCE_ALPHA_STAR_DEG} = "
        f"{deviation:.2e} deg (tol 1e-4), residual={residual:.2e} (tol 1e-12), "
        f"runtime={runtime * 1e3:.3f} ms (tol 1 ms)",
    )
    assert ok_residual
    assert ok_runtime
    # The reference is the 40-digit root of sin(a)sin(2a) - sin^2(3a) on
    # [36, 45] deg (41.83161869265986338 deg), rounded to 10 decimals, and
    # computed apart from alpha_star's bisection.  It must satisfy the
    # equation itself: the earlier reference, 41.831452 deg, was off by
    # 1.67e-4 deg and left a residual of -1.08e-5.
    ref_residual = abs(
        alpha_star_equation(math.radians(REFERENCE_ALPHA_STAR_DEG))
    )
    assert ref_residual < 1e-9, (
        f"reference {REFERENCE_ALPHA_STAR_DEG} deg is not a root of "
        f"sin(a)sin(2a) - sin^2(3a): residual {ref_residual:.2e} (>= 1e-9)"
    )
    assert ok_value, (
        f"root {root_deg:.8f} deg differs from the reference "
        f"{REFERENCE_ALPHA_STAR_DEG} deg by {deviation:.2e} deg (> 1e-4)"
    )


def test_criterion_2_t_star_triple_tie():
    def work():
        ts = t_star()
        return ts, minimum_isosceles_container(ts)

    runtime = _best_time(work)
    ts, res = work()
    areas = [c.area for c in res.candidates]
    tie_dev = max(
        abs(x - y) / max(x, y) for x in areas for y in areas
    )
    b2_dev = abs(ts.b**2 - ts.a * ts.c) / (ts.a * ts.c)
    ok_tie = tie_dev <= 1e-9
    ok_b2 = b2_dev <= 1e-9
    ok_runtime = runtime < 1e-3
    ok = ok_tie and ok_b2 and ok_runtime and len(res.minimizers) == 3
    _line(
        2,
        ok,
        f"pairwise tie deviation {tie_dev:.2e} (tol 1e-9), b^2 vs ac "
        f"{b2_dev:.2e} (tol 1e-9), count={len(res.minimizers)}, runtime={runtime * 1e3:.3f} ms",
    )
    assert ok


def test_criterion_3_oracle_equivalence(batch):
    _, reports, elapsed = batch
    gaps = [abs(r.relative_gap) for r in reports]
    n_pass = sum(1 for g in gaps if g <= 1e-3)
    ok = n_pass == len(reports) and elapsed < 60.0
    _line(
        3,
        ok,
        f"{n_pass}/{len(reports)} within 1e-3 (max |gap| {max(gaps):.2e}), "
        f"runtime {elapsed:.1f} s (tol 60 s)",
    )
    assert ok


def test_criterion_4_witness_structure(batch):
    _, reports, _ = batch
    names = ["vertices_on_boundary", "sides_touch", "one_per_arc", "shared_vertex"]
    rates = {
        name: sum(1 for r in reports if r.flags[name]) / len(reports) for name in names
    }
    rates["shares_side_and_angle"] = sum(
        1 for r in reports if r.flags["shares_side_and_angle"]
    ) / len(reports)
    ok = all(rate == 1.0 for rate in rates.values())
    detail = ", ".join(f"{k}={100 * v:.1f}%" for k, v in rates.items())
    _line(4, ok, detail)
    assert ok


def test_criterion_5_sqrt2_supremum(batch):
    triangles, reports, _ = batch
    sampled = [r.min_result.min_ratio for r in reports]
    ok_sampled = all(r < SQRT2 - 1e-9 for r in sampled)

    sweep_betas_deg = (16.0, 8.0, 4.0, 2.0, 1.0, 0.5, 0.25)
    sweep_ratios = []
    for beta_deg in sweep_betas_deg:
        ct = triangle_at_crossing(math.radians(beta_deg))
        sweep_ratios.append(minimum_isosceles_container(ct).min_ratio)
    ok_sweep_below = all(r < SQRT2 for r in sweep_ratios)
    ratio_quarter = sweep_ratios[-1]
    ok_quarter = ratio_quarter > 1.41
    ok = ok_sampled and ok_sweep_below and ok_quarter
    _line(
        5,
        ok,
        f"max sampled min_ratio {max(sampled):.6f} < sqrt2-1e-9; sweep at "
        f"beta=0.25 deg gives {ratio_quarter:.9f} (> 1.41, below sqrt2 by "
        f"{SQRT2 - ratio_quarter:.2e}); all {len(sweep_ratios)} sweep values < sqrt2",
    )
    assert ok


def test_criterion_6_golden_ratio_supremum():
    b = PHI - 1e-3
    r_near = first_kind_ratio(b, b * b)
    ok_near = PHI - 2e-3 < r_near < PHI

    rng = np.random.default_rng(SEED)
    sampled_ok = True
    worst = 0.0
    for _ in range(1000):
        bb = 1.0 + (PHI - 1.0 + 0.35) * rng.random()  # b up to ~1.97
        cc = bb + (1.0 - 1e-9) * rng.random()  # c in (b, b+1)
        if not 1.0 < bb < cc < bb + 1.0:
            continue
        r = first_kind_ratio(bb, cc)
        worst = max(worst, r)
        sampled_ok = sampled_ok and r < PHI
    # include the parabola approach itself
    for bb in np.linspace(1.05, PHI - 1e-7, 200):
        r = first_kind_ratio(float(bb), float(bb) ** 2)
        worst = max(worst, r)
        sampled_ok = sampled_ok and r < PHI

    # counterexample exhibit: near the parabola end every first-kind
    # container is far from optimal, because a second-kind container does
    # better
    ct = triangle_from_sides(1.0, b, b * b)
    fk_min = first_kind_ratio(b, b * b)
    overall = minimum_isosceles_container(ct).min_ratio
    ok_exhibit = fk_min > SQRT2 > overall
    ok = ok_near and sampled_ok and ok_exhibit
    _line(
        6,
        ok,
        f"r(phi-1e-3, (phi-1e-3)^2)={r_near:.10f} in (phi-2e-3, phi); max sampled "
        f"first-kind min {worst:.6f} < phi; exhibit: first-kind {fk_min:.4f} > "
        f"sqrt2 > overall {overall:.4f}",
    )
    assert ok


def test_criterion_7_third_kind_dominated(batch):
    triangles, _, _ = batch
    eps = DEFAULT_TOLERANCES.eps_num
    checked = 0
    ok = True
    for ct in triangles:
        by_label_2 = {sc.label: sc for sc in second_kind(ct)}
        for sc in third_kind(ct):
            partner = {
                "ABCbar": "AB1C",
                "ABbarC": "ABC1",
                "AbarBC": "ABC2",
            }[sc.label]
            margin = sc.area - by_label_2[partner].area
            ok = ok and margin > eps * sc.area
            checked += 1
    _line(
        7,
        ok,
        f"{checked} third-kind containers over {len(triangles)} triangles, all "
        f"strictly above their second-kind partner (margin > eps_num * area)",
    )
    assert ok


def test_criterion_8_second_kind_family(batch):
    astar = alpha_star()
    rng = np.random.default_rng(SEED + 1)
    ok_unique = ok_obtuse = True
    for _ in range(200):
        # interior margins keep the sample away from the region's closure,
        # where the candidates tie and uniqueness degenerates
        u = 0.01 + 0.94 * rng.random()
        v = 0.01 + 0.94 * rng.random()
        alpha = astar + u * (math.radians(45.0) - astar)
        gamma = 2.0 * alpha + v * (math.radians(90.0) - 2.0 * alpha)
        beta = math.pi - alpha - gamma
        ct = triangle_from_angles(alpha, beta)
        res = minimum_isosceles_container(ct)
        ok_unique = ok_unique and len(res.minimizers) == 1 and res.minimizers[0].label == "AB1C"
        mint = canonicalize(res.minimizers[0].tri)
        ok_obtuse = ok_obtuse and mint.gamma > math.pi / 2

    # across the main batch: an acute minimizer is always first kind
    triangles, reports, _ = batch
    ok_acute_first = True
    n_acute = 0
    for r in reports:
        for m in r.min_result.minimizers:
            mt = canonicalize(m.tri)
            if mt.gamma < math.pi / 2 - 1e-9:
                n_acute += 1
                ok_acute_first = ok_acute_first and m.kind is Kind.FIRST
    ok = ok_unique and ok_obtuse and ok_acute_first
    _line(
        8,
        ok,
        f"200 family samples: unique minimizer AB1C and obtuse; batch check: "
        f"{n_acute} acute minimizers, all first kind",
    )
    assert ok


def test_criterion_9_can_cover_soundness(batch):
    triangles, _, _ = batch

    ok_reflexive = all(can_cover(ct.tri, ct.tri) for ct in triangles[:100])

    ok_monotone = True
    for i in range(100):
        bigger = triangles[i].tri
        smaller = Triangle(
            *(Point(0.97 * p.x, 0.97 * p.y) for p in triangles[(i + 1) % 100].tri.vertices)
        )
        # order the pair by area so the mover is strictly smaller
        if area(smaller) >= area(bigger):
            bigger, smaller = smaller, bigger
        ok_monotone = ok_monotone and not can_cover(smaller, bigger)

    # 100 acute scalene triangles so all nine containers exist
    rng = random.Random(SEED + 2)
    n_containers = 0
    ok_containers = True
    produced = 0
    while produced < 100:
        (al,), (be,) = _draw_angles(rng, 1, DEFAULT_MIN_ANGLE, DEFAULT_SCALENE_MARGIN)
        ga = math.pi - al - be
        if ga >= math.radians(88.0):
            continue
        ct = triangle_from_angles(al, be)
        produced += 1
        containers = all_special_containers(ct)
        assert len(containers) == 9
        for sc in containers:
            n_containers += 1
            ok_containers = ok_containers and can_cover(sc.tri, ct.tri)

    ok = ok_reflexive and ok_monotone and ok_containers
    _line(
        9,
        ok,
        f"reflexive on 100; smaller-mover falsified on 100 pairs; "
        f"{n_containers} container coverings all true",
    )
    assert ok
