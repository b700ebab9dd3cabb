"""Inputs and per-op correctness checks of the three workloads; the ops
themselves are in ops.py.

Every input is made here from the run's seed with ``random.Random``; the
program under test receives only the generated vertices (or, for ``verify``,
a derived seed for its own sampler).  Nothing here calls numpy, so a
``closed_form`` op runs no numpy code.

Input pools are flat arrays (six coordinates per triangle, or one seed per
``verify`` op), and indexing a pool builds the op's input, so the pool adds
next to nothing to the process's peak memory.
"""

from __future__ import annotations

import json
import math
import random
from array import array
from dataclasses import dataclass
from typing import Any, Callable, Sequence

import ops
from isokit import DEFAULT_TOLERANCES, Point, Triangle
from isokit.sampling import DEFAULT_MIN_ANGLE, DEFAULT_SCALENE_MARGIN

# the `isokit verify` defaults: a case passes when its relative gap lies in
# [GAP_LOW, GAP_HIGH] and all five witness flags hold
GAP_LOW = -1e-9
GAP_HIGH = 1e-3
SETUP_SEED = 0  # the set-up launches' first op comes from this seed
# the library treats sides within eps_len * c as equal, which moves a ratio
# near 1 by up to twice that; the closed-form ratio must match the
# benchmark's own formula this closely
RATIO_RTOL = 2.0 * DEFAULT_TOLERANCES.eps_len

# The closed form is exact, so a closed-form failure on a shape the default
# sampler could draw (smallest angle at least 5 deg, angles at least 1 deg
# apart) posed near the origin is a new defect and makes the run incorrect.
# Elsewhere failures come from known defects (needles, far-posed and
# near-isosceles input) and single failures are only counted.  The oracle has
# no such domain: its coarse grid misses rare minima even on the default
# sampler (about one triangle in 2000, for example near angles
# (45.7, 47.6, 86.7) deg) and depending on the input's rotation.
SAMPLER_MAX_OFFSET = 1e2  # centroid distance from the origin / longest side

# Known defects fail a steady share of a run's check set (the pool: every
# input of it is checked once, see Workload.pool_size): about 0.9% of verify
# ops, 19% of oracle_posed ops and 6.6% of closed_form ops.  A run whose
# failed inputs pass its workload's ceiling, plus FAILURE_SLACK_OPS, is
# incorrect: the program got less correct, for example an oracle that was
# made faster by making it coarser.  The ceilings sit well above the
# baseline shares, so no seed's draw alone reaches them.
VERIFY_FAILURE_CEILING = 0.05
ORACLE_POSED_FAILURE_CEILING = 0.30
CLOSED_FORM_FAILURE_CEILING = 0.10
FAILURE_SLACK_OPS = 3

# Posed inputs draw their kinds from shuffled blocks of ten, so every ten
# consecutive inputs carry the same mix.  Op cost rises steeply with the
# offset, so offset factors follow a randomly shifted golden-ratio sequence
# on the log scale: any prefix of the pool, and so any run however long,
# spreads evenly over [1, MAX_OFFSET_FACTOR].
POSED_BLOCK = ("simplex",) * 6 + ("near_isosceles",) * 2 + ("near_right",) * 2
CLOSED_FORM_BLOCK = ("isosceles",) + ("simplex",) * 5 + ("near_isosceles",) * 2 + ("near_right",) * 2
MAX_OFFSET_FACTOR = 1e8
GOLDEN = 0.5 * (math.sqrt(5.0) - 1.0)


def _log_uniform(rng: random.Random, lo: float, hi: float) -> float:
    return math.exp(rng.uniform(math.log(lo), math.log(hi)))


def _posed_angles(rng: random.Random, kind: str) -> tuple[float, float, float]:
    if kind == "near_isosceles":
        gap = _log_uniform(rng, 1e-8, 1e-2)
        theta = rng.uniform(0.0, 0.5 * (math.pi - gap))
        return theta, theta + gap, math.pi - 2.0 * theta - gap
    if kind == "near_right":
        gamma = 0.5 * math.pi + rng.choice((-1.0, 1.0)) * _log_uniform(rng, 1e-12, 1e-2)
        alpha = rng.uniform(0.0, math.pi - gamma)
        return alpha, math.pi - gamma - alpha, gamma
    # uniform on the simplex alpha + beta + gamma = pi, no angle floor
    u, v = sorted((rng.random(), rng.random()))
    return math.pi * u, math.pi * (v - u), math.pi * (1.0 - v)


def _pose(rng: random.Random, pts: list[tuple[float, float]], offset: float) -> list[tuple[float, float]]:
    """Centre, rotate, maybe reflect, then move the triangle `offset` from
    the origin."""
    cx = sum(p[0] for p in pts) / 3.0
    cy = sum(p[1] for p in pts) / 3.0
    phi = rng.uniform(0.0, 2.0 * math.pi)
    cp, sp = math.cos(phi), math.sin(phi)
    mirror = -1.0 if rng.random() < 0.5 else 1.0
    theta = rng.uniform(0.0, 2.0 * math.pi)
    ox, oy = offset * math.cos(theta), offset * math.sin(theta)
    out = []
    for x, y in pts:
        x, y = x - cx, mirror * (y - cy)
        out.append((ox + cp * x - sp * y, oy + sp * x + cp * y))
    return out


def _exact_isosceles(rng: random.Random, size: float, offset: float) -> list[tuple[float, float]]:
    """Isosceles triangle with longest side about `size` whose two legs are
    bitwise equal after posing.

    All coordinates are integer multiples of one power of two and stay below
    2**53 of them, so the offset adds exactly; only quarter turns and
    reflections are applied, which are exact too.
    """
    apex = rng.uniform(0.0, math.pi)
    leg = size / max(1.0, 2.0 * math.sin(0.5 * apex))
    unit = 2.0 ** (math.floor(math.log2(size)) - 20)
    w = max(1, round(leg * math.sin(0.5 * apex) / unit))
    h = max(1, round(leg * math.cos(0.5 * apex) / unit))
    theta = rng.uniform(0.0, 2.0 * math.pi)
    ox, oy = round(offset * math.cos(theta) / unit), round(offset * math.sin(theta) / unit)
    pts = [(-w, 0), (w, 0), (0, h)]
    for _ in range(rng.randrange(4)):
        pts = [(-y, x) for x, y in pts]
    if rng.random() < 0.5:
        pts = [(-x, y) for x, y in pts]
    return [(float((ox + x) * unit), float((oy + y) * unit)) for x, y in pts]


class PosedPool:
    """Triangles stored as six coordinates each; ``pool[i]`` builds the i-th."""

    def __init__(self, coords: array) -> None:
        self.coords = coords

    def __len__(self) -> int:
        return len(self.coords) // 6

    def __getitem__(self, i: int) -> Triangle:
        x0, y0, x1, y1, x2, y2 = self.coords[6 * i : 6 * i + 6]
        return Triangle(Point(x0, y0), Point(x1, y1), Point(x2, y2))


def posed_triangles(seed: int, stream: str, count: int, block: tuple[str, ...]) -> PosedPool:
    """`count` posed triangles from the (seed, stream) pair, with kinds drawn
    from shuffled copies of `block`.

    The longest side is log-uniform in [1e-6, 1e12]; the centroid sits that
    many times a factor in [1, MAX_OFFSET_FACTOR] from the origin.
    """
    rng = random.Random(f"{stream}:{seed}")
    shift = rng.random()
    kinds: list[str] = []
    coords = array("d")
    for k in range(count):
        if not kinds:
            kinds = list(block)
            rng.shuffle(kinds)
        kind = kinds.pop()
        size = _log_uniform(rng, 1e-6, 1e12)
        offset = size * MAX_OFFSET_FACTOR ** ((shift + k * GOLDEN) % 1.0)
        if kind == "isosceles":
            pts = _exact_isosceles(rng, size, offset)
        else:
            alpha, beta, gamma = _posed_angles(rng, kind)
            # sides are proportional to the sines of the opposite angles
            r = size / max(math.sin(alpha), math.sin(beta), math.sin(gamma))
            base = [
                (0.0, 0.0),
                (r * math.sin(gamma), 0.0),
                (r * math.sin(beta) * math.cos(alpha), r * math.sin(beta) * math.sin(alpha)),
            ]
            pts = _pose(rng, base, offset)
        rng.shuffle(pts)
        for x, y in pts:
            coords.extend((x, y))
    return PosedPool(coords)


# ---------------------------------------------------------------------------
# Independent geometry of an input triangle
# ---------------------------------------------------------------------------


def _sides(tri: Triangle) -> list[float]:
    v = tri.vertices
    return sorted(math.hypot(v[i].x - v[i - 1].x, v[i].y - v[i - 1].y) for i in range(3))


def own_min_ratio(tri: Triangle) -> float:
    """min(b/a, c/b, 2b cos(alpha)/c) from the side lengths a <= b <= c."""
    a, b, c = _sides(tri)
    cos_alpha = (b * b + c * c - a * a) / (2.0 * b * c)
    return min(b / a, c / b, 2.0 * b * cos_alpha / c)


def in_sampler_domain(tri: Triangle) -> bool:
    """True for a shape the default sampler could draw, posed at most
    SAMPLER_MAX_OFFSET longest sides from the origin."""
    a, b, c = _sides(tri)
    v = tri.vertices
    offset = math.hypot(sum(p.x for p in v) / 3.0, sum(p.y for p in v) / 3.0) / c
    s = 0.5 * (a + b + c)
    area4 = 4.0 * math.sqrt(max(0.0, s * (s - a) * (s - b) * (s - c)))
    # the angle opposite each side; atan2 keeps needles accurate
    alpha = math.atan2(area4, b * b + c * c - a * a)
    beta = math.atan2(area4, a * a + c * c - b * b)
    gamma = math.pi - alpha - beta
    return (
        offset <= SAMPLER_MAX_OFFSET
        and alpha >= DEFAULT_MIN_ANGLE
        and min(beta - alpha, gamma - beta) >= DEFAULT_SCALENE_MARGIN
    )


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------


class Tally:
    """Per-run counts the checks collect, beside pass/fail."""

    def __init__(self) -> None:
        self.gaps: list[float] = []
        self.gap_failures = 0
        self.accept_failures = 0
        self.reject_true = 0
        self.report_bytes: list[int] = []


def _case_reason(gap: float, flags: dict[str, bool], tally: Tally) -> str | None:
    tally.gaps.append(gap)
    if not GAP_LOW <= gap <= GAP_HIGH:
        tally.gap_failures += 1
        return "gap_low" if gap < GAP_LOW else "gap_high"
    for name in sorted(flags):
        if not flags[name]:
            return f"flag:{name}"
    return None


def _verify_inputs(seed: int, count: int) -> array:
    rng = random.Random(f"verify:{seed}")
    return array("q", (rng.randrange(2**31) for _ in range(count)))


def _verify_check(op_seed: int, code: int, tally: Tally) -> str | None:
    raw = ops.VERIFY_REPORT.read_bytes()
    tally.report_bytes.append(len(raw))
    doc = json.loads(raw)
    if doc["seed"] != op_seed or len(doc["cases"]) != ops.VERIFY_SAMPLES:
        return "report"
    reasons = [_case_reason(case["relative_gap"], case["flags"], tally) for case in doc["cases"]]
    first = next((r for r in reasons if r is not None), None)
    # a failing exit code needs a failing case
    if first is None and code != 0:
        return "verdict"
    return first


def _posed_check(tri: Triangle, report, tally: Tally) -> str | None:
    return _case_reason(report.relative_gap, report.flags, tally)


def _closed_form_check(tri: Triangle, outcome, tally: Tally) -> str | None:
    result, accept, reverse = outcome
    # can_cover's slack admits extreme needles whose ratio - 1 is below about
    # 1e-4, so a True in the reject direction is counted, not failed
    if reverse and not result.is_self:
        tally.reject_true += 1
    if not accept:
        tally.accept_failures += 1
    own = own_min_ratio(tri)
    if abs(result.min_ratio - own) > RATIO_RTOL * own:
        return "ratio"
    return None if accept else "accept"


@dataclass(frozen=True)
class Workload:
    name: str
    triangles_per_op: int
    inputs: Callable[[int, int], Sequence]  # (seed, count) -> pool; pool[i] is op i's input
    run: Callable[[Any], Any]  # one op; the only timed part
    check: Callable[[Any, Any, Tally], str | None]  # failure reason or None
    must_pass: Callable[[Any], bool]  # a failure on this input makes the run incorrect
    failure_ceiling: float  # a larger share of failed ops makes the run incorrect
    # latency_tail_ms is this percentile of op latency, fixed per workload so
    # that parent and change compare the same one however many ops each runs;
    # it leaves at least 10 ops beyond it on a 30 s run of the unchanged code
    tail_q: float
    # inputs per run, all checked: the op loop cycles through them and the
    # run checks any it did not reach, so `attempted` and `failed` depend on
    # the seed alone, not on how fast the program is; a 30 s run of the
    # unchanged code reaches them all
    pool_size: int

    def failure_limit(self, attempted: int) -> float:
        return self.failure_ceiling * attempted + FAILURE_SLACK_OPS


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "verify",
            ops.VERIFY_SAMPLES,
            _verify_inputs,
            ops.verify,
            _verify_check,
            lambda op_seed: False,  # the oracle has no known-good domain
            VERIFY_FAILURE_CEILING,
            75.0,
            64,
        ),
        Workload(
            "oracle_posed",
            1,
            lambda seed, count: posed_triangles(seed, "oracle_posed", count, POSED_BLOCK),
            ops.oracle_posed,
            _posed_check,
            lambda tri: False,
            ORACLE_POSED_FAILURE_CEILING,
            95.0,
            256,
        ),
        Workload(
            "closed_form",
            1,
            lambda seed, count: posed_triangles(seed, "closed_form", count, CLOSED_FORM_BLOCK),
            ops.closed_form,
            _closed_form_check,
            in_sampler_domain,
            CLOSED_FORM_FAILURE_CEILING,
            99.0,
            32_768,
        ),
    )
}


def setup_args(workload: Workload) -> list[str]:
    """The first op's input for every set-up launch, as first_op.py's
    arguments: the first input of SETUP_SEED (for posed input, the first the
    default sampler could draw), so set-up time does not depend on what a
    run's seed draws first.  Floats are written with repr, which reads back
    exactly."""
    pool = workload.inputs(SETUP_SEED, 100)
    if workload.name == "verify":
        return [str(pool[0])]
    tri = next(tri for tri in (pool[i] for i in range(len(pool))) if in_sampler_domain(tri))
    return [repr(c) for p in tri.vertices for c in (p.x, p.y)]
