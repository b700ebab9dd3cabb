"""Command-line interface: container construction, closed-form minimizers,
batch verification against the brute-force oracle, extremal sweeps, and SVG
figures.

Degrees at this boundary, radians everywhere inside.  JSON reports carry
schema_version 1 and store angles in radians with an explicit units field.
Exit codes: 0 success, 1 verification failure, 2 invalid input, 3 I/O error.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import dataclass

from .containers import SpecialContainer, all_special_containers
from .geo import (
    DEFAULT_TOLERANCES,
    CanonicalTriangle,
    GeometryError,
    Point,
    ShapeClass,
    Tolerances,
    Triangle,
    canonicalize,
)
from .minimize import (
    MinimizerResult,
    alpha_star,
    alpha_star_equation,
    first_kind_ratio,
    minimum_isosceles_container,
    ratio_curves,
    t_star,
    triangle_at_crossing,
)
# verify_triangle stays importable from here: perfbench's tracer wraps it by
# this name
from .oracle import verify_triangle, verify_triangles  # noqa: F401
from .sampling import (
    DEFAULT_MIN_ANGLE,
    DEFAULT_SCALENE_MARGIN,
    sample_canonical_triangles,
    triangle_from_angles,
    triangle_from_sides,
)
from .svg import render_containers

__all__ = ["main", "build_parser", "RunConfig", "run_verification"]

SCHEMA_VERSION = 1
SQRT2 = math.sqrt(2.0)
PHI = 0.5 * (1.0 + math.sqrt(5.0))

EXIT_OK = 0
EXIT_VERIFICATION = 1
EXIT_INVALID_INPUT = 2
EXIT_IO = 3


class _InputError(Exception):
    """Invalid triangle or flag combination; maps to exit code 2."""


def _fmt(v: float) -> str:
    return f"{v:.12g}"


def _point_list(tri: Triangle) -> list[list[float]]:
    return [[p.x, p.y] for p in tri.vertices]


def triangle_report(ct: CanonicalTriangle) -> dict:
    return {
        "vertices": _point_list(ct.tri),
        "sides": [ct.a, ct.b, ct.c],
        "angles": [ct.alpha, ct.beta, ct.gamma],
        "area": ct.area,
        "shape_class": ct.shape_class.value,
    }


def container_report(sc: SpecialContainer) -> dict:
    return {
        "variant": sc.label,
        "kind": sc.kind.value,
        "vertices": _point_list(sc.tri),
        "area": sc.area,
        "ratio": sc.ratio,
    }


def containers_report(ct: CanonicalTriangle, containers: list[SpecialContainer]) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "units": "radians",
        "triangle": triangle_report(ct),
        "self_container": not containers,
        "count": len(containers),
        "containers": [container_report(sc) for sc in containers],
    }


def min_report(ct: CanonicalTriangle, result: MinimizerResult) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "units": "radians",
        "triangle": triangle_report(ct),
        "self_container": result.is_self,
        "min_area": result.min_area,
        "min_ratio": result.min_ratio,
        "count": len(result.minimizers),
        "minimizers": [m.label for m in result.minimizers],
        "candidates": [container_report(sc) for sc in result.candidates],
    }


def _parse_floats(text: str, expect: int, what: str) -> list[float]:
    parts = [p for p in text.replace(",", " ").split() if p]
    try:
        vals = [float(p) for p in parts]
    except ValueError as exc:
        raise _InputError(f"{what}: could not parse number in {text!r}") from exc
    if len(vals) != expect:
        raise _InputError(f"{what}: expected {expect} numbers, got {len(vals)}")
    return vals


def _triangle_from_json(path: str, tol: Tolerances) -> CanonicalTriangle:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise OSError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise _InputError(f"{path}: invalid JSON: {exc}") from exc
    tri = doc.get("triangle") if isinstance(doc, dict) else None
    if not isinstance(tri, dict):
        raise _InputError(f"{path}: missing 'triangle' object")
    if "sides" in tri:
        a, b, c = (float(v) for v in tri["sides"])
        return triangle_from_sides(a, b, c, tol)
    if "vertices" in tri:
        pts = [Point(float(x), float(y)) for x, y in tri["vertices"]]
        if len(pts) != 3:
            raise _InputError(f"{path}: need exactly 3 vertices")
        return canonicalize(Triangle(*pts), tol)
    raise _InputError(f"{path}: triangle needs 'sides' or 'vertices'")


def _resolve_triangle(args: argparse.Namespace, tol: Tolerances) -> CanonicalTriangle:
    """Exactly one input representation must be present."""
    given = [
        name
        for name, val in (
            ("--sides", args.sides),
            ("--vertices", args.vertices),
            ("--angles", args.angles),
            ("--preset", args.preset),
            ("--json", args.json),
        )
        if val
    ]
    if len(given) != 1:
        raise _InputError(
            "provide exactly one of --sides, --vertices, --angles, --preset, --json"
            + (f" (got {', '.join(given)})" if given else "")
        )
    try:
        if args.sides:
            a, b, c = _parse_floats(args.sides, 3, "--sides")
            return triangle_from_sides(a, b, c, tol)
        if args.vertices:
            vals = _parse_floats(args.vertices, 6, "--vertices")
            pts = [Point(vals[0], vals[1]), Point(vals[2], vals[3]), Point(vals[4], vals[5])]
            return canonicalize(Triangle(*pts), tol)
        if args.angles:
            alpha_deg, beta_deg = _parse_floats(args.angles, 2, "--angles")
            alpha, beta = math.radians(alpha_deg), math.radians(beta_deg)
            if alpha <= 0.0 or beta <= 0.0 or alpha + beta >= math.pi:
                raise _InputError(
                    f"--angles: need alpha > 0, beta > 0, alpha + beta < 180, got {alpha_deg}, {beta_deg}"
                )
            return triangle_from_angles(alpha, beta, args.scale, tol)
        if args.preset:
            if args.preset != "t-star":
                raise _InputError(f"unknown preset {args.preset!r} (only 't-star')")
            return t_star(tol)
        return _triangle_from_json(args.json, tol)
    except (GeometryError, ValueError) as exc:
        if isinstance(exc, _InputError):
            raise
        raise _InputError(str(exc)) from exc


def _write_text(path: str, text: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def _emit_json(path: str, doc) -> None:
    _write_text(path, json.dumps(doc, indent=2, sort_keys=True) + "\n")


def _print_triangle(ct: CanonicalTriangle) -> None:
    print(
        f"triangle: sides a={_fmt(ct.a)} b={_fmt(ct.b)} c={_fmt(ct.c)}; "
        f"angles alpha={_fmt(math.degrees(ct.alpha))} beta={_fmt(math.degrees(ct.beta))} "
        f"gamma={_fmt(math.degrees(ct.gamma))} deg; area={_fmt(ct.area)}; "
        f"{ct.shape_class.value}"
    )


def cmd_containers(args: argparse.Namespace) -> int:
    tol = args.tolerances
    ct = _resolve_triangle(args, tol)
    _print_triangle(ct)
    if ct.shape_class is not ShapeClass.SCALENE:
        print("isosceles: self-container (the triangle is its own minimum isosceles container)")
        report = containers_report(ct, [])
        if args.out:
            _emit_json(args.out, report)
        return EXIT_OK
    containers = all_special_containers(ct, tol)
    print(f"special containers ({len(containers)}):")
    for sc in containers:
        vx = " ".join(f"({_fmt(p.x)}, {_fmt(p.y)})" for p in sc.tri.vertices)
        print(
            f"  {sc.label:<7} {sc.kind.value:<7} ratio={_fmt(sc.ratio):<16} "
            f"area={_fmt(sc.area):<16} vertices: {vx}"
        )
    if args.out:
        _emit_json(args.out, containers_report(ct, containers))
    return EXIT_OK


def cmd_min(args: argparse.Namespace) -> int:
    tol = args.tolerances
    ct = _resolve_triangle(args, tol)
    _print_triangle(ct)
    result = minimum_isosceles_container(ct, tol)
    names = ", ".join(m.label for m in result.minimizers)
    print(f"minimizer: {names} (count {len(result.minimizers)})")
    print(f"min area = {_fmt(result.min_area)}")
    print(f"min ratio = {_fmt(result.min_ratio)}")
    if result.candidates:
        cand = "  ".join(f"{sc.label} ratio={_fmt(sc.ratio)}" for sc in result.candidates)
        print(f"candidates: {cand}")
    if args.out:
        _emit_json(args.out, min_report(ct, result))
    return EXIT_OK


def verify_case_report(report) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "units": "radians",
        "triangle": triangle_report(report.input),
        "closed_form_area": report.closed_form_area,
        "oracle_area": report.oracle_area,
        "relative_gap": report.relative_gap,
        "min_ratio": report.min_result.min_ratio,
        "boundary_invariants_ok": report.boundary_invariants_ok,
        "shares_side_and_angle": report.shares_side_and_angle,
        "flags": dict(report.flags),
    }


@dataclass(frozen=True)
class RunConfig:
    """Verification batch settings; a fixed seed makes the run, its summary,
    and its report bytes fully deterministic.  Angles in radians."""

    seed: int
    samples: int
    min_angle: float
    scalene_margin: float
    gap_tol: float
    eps_geom: float
    tolerances: Tolerances

    def __post_init__(self) -> None:
        if self.samples < 1:
            raise _InputError(f"--samples must be >= 1, got {self.samples}")


def run_verification(config: RunConfig) -> tuple[dict, bool]:
    """Sample, verify, and aggregate one batch; returns (summary doc, ok)."""
    triangles = sample_canonical_triangles(
        config.seed,
        config.samples,
        min_angle=config.min_angle,
        scalene_margin=config.scalene_margin,
        tol=config.tolerances,
    )
    reports = verify_triangles(triangles, config.tolerances, config.eps_geom)
    max_gap = max(r.relative_gap for r in reports)
    min_gap = min(r.relative_gap for r in reports)
    max_min_ratio = max(r.min_result.min_ratio for r in reports)
    rates = {
        name: sum(1 for r in reports if r.flags[name]) / len(reports)
        for name in sorted(reports[0].flags)
    }
    ok = (
        max_gap <= config.gap_tol
        and min_gap >= -1e-9
        and all(rate == 1.0 for rate in rates.values())
        and max_min_ratio < SQRT2 - 1e-9
    )
    doc = {
        "schema_version": SCHEMA_VERSION,
        "units": "radians",
        "seed": config.seed,
        "samples": config.samples,
        "max_relative_gap": max_gap,
        "min_relative_gap": min_gap,
        "max_min_ratio": max_min_ratio,
        "invariant_pass_rates": rates,
        "pass": ok,
        "cases": [verify_case_report(r) for r in reports],
    }
    return doc, ok


def cmd_verify(args: argparse.Namespace) -> int:
    config = RunConfig(
        seed=args.seed,
        samples=args.samples,
        min_angle=math.radians(args.min_angle),
        scalene_margin=math.radians(args.scalene_margin),
        gap_tol=args.gap_tol,
        eps_geom=args.eps_geom,
        tolerances=args.tolerances,
    )
    doc, ok = run_verification(config)
    print(f"verify: samples={config.samples} seed={config.seed}")
    print(f"max relative gap = {_fmt(doc['max_relative_gap'])} (tolerance {_fmt(config.gap_tol)})")
    print(f"min relative gap = {_fmt(doc['min_relative_gap'])}")
    rates = doc["invariant_pass_rates"]
    rate_text = " ".join(f"{name}={100.0 * rates[name]:.1f}%" for name in sorted(rates))
    print(f"invariant pass rates: {rate_text}")
    print(f"max min-ratio = {_fmt(doc['max_min_ratio'])} (sqrt2 = {_fmt(SQRT2)})")
    print("PASS" if ok else "FAIL")
    if args.out:
        _emit_json(args.out, doc)
    return EXIT_OK if ok else EXIT_VERIFICATION


def cmd_extremal(args: argparse.Namespace) -> int:
    tol = args.tolerances
    if args.mode == "alpha_star":
        root = alpha_star(args.root_tol)
        print(f"alpha* = {math.degrees(root):.10f} deg ({root:.12f} rad)")
        print(f"residual sin(a)sin(2a) - sin^2(3a) = {alpha_star_equation(root):.3e}")
        ct = t_star(tol)
        result = minimum_isosceles_container(ct, tol)
        print(
            f"tie triangle: angles {_fmt(math.degrees(ct.alpha))}, "
            f"{_fmt(math.degrees(ct.beta))}, {_fmt(math.degrees(ct.gamma))} deg; "
            f"minimizer count {len(result.minimizers)}"
        )
        if args.out:
            _emit_json(
                args.out,
                {
                    "schema_version": SCHEMA_VERSION,
                    "units": "radians",
                    "mode": "alpha_star",
                    "alpha_star": root,
                    "alpha_star_deg": math.degrees(root),
                    "residual": alpha_star_equation(root),
                    "tie_count": len(result.minimizers),
                },
            )
        return EXIT_OK

    if args.mode == "sqrt2":
        betas_deg = [16.0, 8.0, 4.0, 2.0, 1.0, 0.5, 0.25]
        rows = []
        print("beta_deg  crossing_deg  ratio_at_crossing  sqrt2_minus_ratio")
        for beta_deg in betas_deg:
            beta = math.radians(beta_deg)
            _, z = ratio_curves(beta, n_samples=8)
            ct = triangle_at_crossing(beta, tol)
            ratio = minimum_isosceles_container(ct, tol).min_ratio
            rows.append({"beta_deg": beta_deg, "crossing_deg": math.degrees(z), "ratio": ratio})
            print(
                f"{beta_deg:>8} {math.degrees(z):>13.6f} {ratio:>18.12f} "
                f"{SQRT2 - ratio:>18.3e}"
            )
        print(f"supremum sqrt2 = {_fmt(SQRT2)} is approached from below, never attained")
        if args.out:
            _emit_json(
                args.out,
                {
                    "schema_version": SCHEMA_VERSION,
                    "units": "radians",
                    "mode": "sqrt2",
                    "sweep": rows,
                    "supremum": SQRT2,
                },
            )
        return EXIT_OK

    # golden: sweep the parabola c = b^2 toward b = phi
    rows = []
    print("b  r(b, b^2)  phi_minus_r")
    for k in range(1, 7):
        b = PHI - 10.0 ** (-k)
        r = first_kind_ratio(b, b * b)
        rows.append({"b": b, "r": r})
        print(f"{b:.10f} {r:.10f} {PHI - r:.3e}")
    b = PHI - 1e-3
    ct = triangle_from_sides(1.0, b, b * b, tol)
    overall = minimum_isosceles_container(ct, tol).min_ratio
    fk_min = first_kind_ratio(b, b * b)
    print(
        f"at b = phi - 1e-3: first-kind minimum {_fmt(fk_min)} > sqrt2 > "
        f"overall minimum {_fmt(overall)}"
    )
    print(f"supremum (1+sqrt5)/2 = {_fmt(PHI)} is approached from below, never attained")
    if args.out:
        _emit_json(
            args.out,
            {
                "schema_version": SCHEMA_VERSION,
                "units": "radians",
                "mode": "golden",
                "sweep": rows,
                "first_kind_min_at_exhibit": fk_min,
                "overall_min_at_exhibit": overall,
                "supremum": PHI,
            },
        )
    return EXIT_OK


def cmd_svg(args: argparse.Namespace) -> int:
    tol = args.tolerances
    ct = _resolve_triangle(args, tol)
    if ct.shape_class is not ShapeClass.SCALENE:
        raise _InputError("svg needs a scalene triangle (isosceles input is its own container)")
    containers = all_special_containers(ct, tol)
    if args.which == "min":
        result = minimum_isosceles_container(ct, tol)
        chosen = [sc for sc in containers if any(sc.label == m.label for m in result.minimizers)]
    elif args.which == "all":
        chosen = containers
    else:
        chosen = [sc for sc in containers if sc.kind.value == args.which]
    text = render_containers(ct, chosen, title=f"{args.which} containers")
    _write_text(args.out, text)
    print(f"wrote {args.out} ({len(chosen)} containers)")
    return EXIT_OK


def _add_triangle_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--sides", help="three side lengths, e.g. 3,4,5")
    p.add_argument("--vertices", help="six coordinates x1,y1,x2,y2,x3,y3")
    p.add_argument("--angles", help="two interior angles in degrees, e.g. 50,60")
    p.add_argument("--scale", type=float, default=1.0, help="circumdiameter for --angles (default 1)")
    p.add_argument("--preset", choices=["t-star"], help="built-in triangle")
    p.add_argument("--json", help="read the triangle from a JSON document")


def _add_common_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--tol", type=float, default=None, help="override relative tolerances (default 1e-9)")
    p.add_argument("--out", help="write the machine-readable report/figure here")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="isokit",
        description="Minimum-area isosceles containers of a triangle: "
        "constructions, closed-form minimizers, brute-force verification, "
        "extremal sweeps, and SVG figures.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("containers", help="construct all special isosceles containers")
    _add_triangle_flags(p)
    _add_common_flags(p)
    p.set_defaults(func=cmd_containers)

    p = sub.add_parser("min", help="minimum-area isosceles container(s)")
    _add_triangle_flags(p)
    _add_common_flags(p)
    p.set_defaults(func=cmd_min)

    p = sub.add_parser("verify", help="batch-check the closed form against the brute-force oracle")
    p.add_argument("--samples", type=int, default=100, help="number of random triangles (default 100)")
    p.add_argument("--seed", type=int, default=None, help="RNG seed (default: $ISOKIT_SEED or 0)")
    p.add_argument("--min-angle", type=float, default=math.degrees(DEFAULT_MIN_ANGLE), help="sampling: minimum angle in degrees (default 5)")
    p.add_argument("--scalene-margin", type=float, default=math.degrees(DEFAULT_SCALENE_MARGIN), help="sampling: pairwise angle margin in degrees (default 1)")
    p.add_argument("--gap-tol", type=float, default=1e-3, help="max allowed relative gap (default 1e-3)")
    p.add_argument("--eps-geom", type=float, default=1e-5, help="relative tolerance for witness structure checks (default 1e-5)")
    _add_common_flags(p)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("extremal", help="extremal-ratio reports: sqrt2, golden, alpha_star")
    p.add_argument("mode", choices=["sqrt2", "golden", "alpha_star"])
    p.add_argument("--root-tol", type=float, default=1e-12, help="bisection tolerance (default 1e-12)")
    _add_common_flags(p)
    p.set_defaults(func=cmd_extremal)

    p = sub.add_parser("svg", help="render the triangle and selected containers")
    _add_triangle_flags(p)
    p.add_argument("--which", default="all", choices=["all", "first", "second", "third", "min"], help="container selector (default all)")
    p.add_argument("--tol", type=float, default=None, help="override relative tolerances (default 1e-9)")
    p.add_argument("--out", required=True, help="output SVG path")
    p.set_defaults(func=cmd_svg)

    return parser


def _tolerances_from(args: argparse.Namespace) -> Tolerances:
    if getattr(args, "tol", None) is None:
        return DEFAULT_TOLERANCES
    x = args.tol
    if not 0.0 < x < 1.0:
        raise _InputError(f"--tol must be in (0, 1), got {x}")
    return Tolerances(eps_len=x, eps_angle=x, eps_num=x, eps_tie=x)


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        args.tolerances = _tolerances_from(args)
        if getattr(args, "seed", None) is None and args.func is cmd_verify:
            args.seed = int(os.environ.get("ISOKIT_SEED", "0"))
        return args.func(args)
    except _InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID_INPUT
    except (GeometryError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID_INPUT
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
