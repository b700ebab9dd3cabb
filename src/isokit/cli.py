"""Command-line interface: container construction, closed-form minimizers,
batch verification against the brute-force oracle, extremal sweeps, and SVG
figures.

Each command builds one report dict and renders its stdout lines from that
dict's values; `main` prints the lines and writes the dict as the `--out`
JSON.  Degrees at this boundary, radians everywhere inside.  JSON reports carry
schema_version 2 and store angles in radians with an explicit units field,
once per report: a verify case holds its triangle, the two areas, their
relative gap, the minimum ratio and the witness flags.
Exit codes: 0 success, 1 verification failure, 2 invalid input, 3 I/O error.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import stat
import sys
import warnings

from .containers import SpecialContainer, all_special_containers
from .geo import CanonicalTriangle, GeometryError, Point, ShapeClass, Triangle, canonicalize
from .minimize import (
    MinimizerResult,
    alpha_star,
    alpha_star_equation,
    first_kind_ratio,
    minimum_isosceles_container,
    ratio_crossing,
    t_star,
)
# verify_triangle stays importable from here: perfbench's tracer wraps it by
# this name
from .oracle import verify_triangle, verify_triangles  # noqa: F401
from .sampling import (
    DEFAULT_MIN_ANGLE,
    DEFAULT_SCALENE_MARGIN,
    _bad_angles,
    sample_canonical_triangles,
    triangle_from_angles,
    triangle_from_sides,
)

__all__ = ["main", "build_parser"]

SCHEMA_VERSION = 2
SQRT2 = math.sqrt(2.0)
GAP_TOL = 1e-11  # a `verify` case passes when |relative gap| <= GAP_TOL
PHI = 0.5 * (1.0 + math.sqrt(5.0))

EXIT_OK = 0
EXIT_VERIFICATION = 1
EXIT_INVALID_INPUT = 2
EXIT_IO = 3

# what a command hands to `main`: (JSON report or None, stdout lines, exit code)
Outcome = tuple[dict | None, list[str], int]


def _fmt(v: float) -> str:
    return f"{v:.12g}"


def _point_list(tri: Triangle) -> list[list[float]]:
    return [[p.x, p.y] for p in tri.vertices]


def _report(**fields) -> dict:
    """`fields` inside the envelope every JSON report shares."""
    return {"schema_version": SCHEMA_VERSION, "units": "radians", **fields}


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
    return _report(
        triangle=triangle_report(ct),
        self_container=not containers,
        count=len(containers),
        containers=[container_report(sc) for sc in containers],
    )


def min_report(ct: CanonicalTriangle, result: MinimizerResult) -> dict:
    return _report(
        triangle=triangle_report(ct),
        self_container=result.is_self,
        min_area=result.min_area,
        min_ratio=result.min_ratio,
        count=len(result.minimizers),
        minimizers=[m.label for m in result.minimizers],
        candidates=[container_report(sc) for sc in result.candidates],
    )


def verify_case_report(report) -> dict:
    return {
        "triangle": triangle_report(report.input),
        "closed_form_area": report.min_result.min_area,
        "oracle_area": report.oracle_result.min_area,
        "relative_gap": report.relative_gap,
        "min_ratio": report.min_result.min_ratio,
        "flags": report.flags,
    }


def _parse_floats(text: str, expect: int, what: str) -> list[float]:
    try:
        vals = [float(p) for p in text.replace(",", " ").split()]
    except ValueError as exc:
        raise ValueError(f"{what}: could not parse number in {text!r}") from exc
    if len(vals) != expect:
        raise ValueError(f"{what}: expected {expect} numbers, got {len(vals)}")
    return vals


def _floats(value, count: int) -> bool:
    """Whether `value` is a list of `count` floats."""
    return isinstance(value, list) and len(value) == count and all(isinstance(v, float) for v in value)


def _triangle_from_json(path: str) -> CanonicalTriangle:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            # integers parse as floats too (too large ones as inf), so that
            # any other value, a boolean included, is not a number
            doc = json.load(fh, parse_int=float)
    except OSError as exc:
        raise OSError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ValueError(f"{path}: invalid JSON: {exc}") from exc
    tri = doc.get("triangle") if isinstance(doc, dict) else None
    if not isinstance(tri, dict):
        raise ValueError(f"{path}: missing 'triangle' object")
    if "sides" in tri and "vertices" in tri:
        raise ValueError(f"{path}: triangle needs one of 'sides' and 'vertices', got both")
    if "sides" in tri:
        if _floats(tri["sides"], 3):
            return triangle_from_sides(*tri["sides"])
    elif "vertices" in tri:
        pts = tri["vertices"]
        if isinstance(pts, list) and len(pts) == 3 and all(_floats(p, 2) for p in pts):
            return canonicalize(Triangle(*(Point(x, y) for x, y in pts)))
    else:
        raise ValueError(f"{path}: triangle needs 'sides' or 'vertices'")
    raise ValueError(f"{path}: 'sides' must be 3 numbers and 'vertices' 3 [x, y] pairs")


def _resolve_triangle(args: argparse.Namespace) -> CanonicalTriangle:
    """Exactly one input representation must be present."""
    given = [f"--{name}" for name in ("sides", "vertices", "angles", "preset", "json") if getattr(args, name)]
    if len(given) != 1:
        raise ValueError(
            "provide exactly one of --sides, --vertices, --angles, --preset, --json"
            + (f" (got {', '.join(given)})" if given else "")
        )
    if args.scale is not None and not args.angles:
        raise ValueError(f"--scale applies only to --angles (got {given[0]})")
    if args.sides:
        a, b, c = _parse_floats(args.sides, 3, "--sides")
        return triangle_from_sides(a, b, c)
    if args.vertices:
        vals = _parse_floats(args.vertices, 6, "--vertices")
        pts = [Point(vals[0], vals[1]), Point(vals[2], vals[3]), Point(vals[4], vals[5])]
        return canonicalize(Triangle(*pts))
    if args.angles:
        alpha_deg, beta_deg = _parse_floats(args.angles, 2, "--angles")
        alpha, beta = math.radians(alpha_deg), math.radians(beta_deg)
        if _bad_angles(alpha, beta):  # the library's own test, with a message in degrees
            raise ValueError(
                f"--angles: need alpha > 0, beta > 0, alpha + beta < 180, got {alpha_deg}, {beta_deg}"
            )
        return triangle_from_angles(alpha, beta, 1.0 if args.scale is None else args.scale)
    if args.preset:
        return t_star()
    return _triangle_from_json(args.json)


def _write_text(path: str, text: str) -> None:
    """Write `text` to `path` as UTF-8 over the old bytes, then cut a regular
    file to the new length (a device such as /dev/null cannot be cut).
    Unlike ``open(path, "w")`` this does not empty the file first, which
    frees its blocks: on ext4 a journaled operation that costs more than the
    write.  Not atomic, as mode "w" is not."""
    data = text.encode("utf-8")
    fd = os.open(path, os.O_WRONLY | os.O_CREAT, 0o666)
    try:
        view = memoryview(data)
        while view:
            view = view[os.write(fd, view):]
        if stat.S_ISREG(os.fstat(fd).st_mode):
            os.ftruncate(fd, len(data))
    finally:
        os.close(fd)


def _triangle_line(t: dict) -> str:
    a, b, c = t["sides"]
    alpha, beta, gamma = (math.degrees(x) for x in t["angles"])
    return (
        f"triangle: sides a={_fmt(a)} b={_fmt(b)} c={_fmt(c)}; "
        f"angles alpha={_fmt(alpha)} beta={_fmt(beta)} gamma={_fmt(gamma)} deg; "
        f"area={_fmt(t['area'])}; {t['shape_class']}"
    )


def cmd_containers(args: argparse.Namespace) -> Outcome:
    ct = _resolve_triangle(args)
    report = containers_report(ct, all_special_containers(ct) if ct.shape_class is ShapeClass.SCALENE else [])
    lines = [_triangle_line(report["triangle"])]
    if report["self_container"]:
        lines.append("isosceles: self-container (the triangle is its own minimum isosceles container)")
    else:
        lines.append(f"special containers ({report['count']}):")
    for sc in report["containers"]:
        vx = " ".join(f"({_fmt(x)}, {_fmt(y)})" for x, y in sc["vertices"])
        lines.append(
            f"  {sc['variant']:<7} {sc['kind']:<7} ratio={_fmt(sc['ratio']):<16} "
            f"area={_fmt(sc['area']):<16} vertices: {vx}"
        )
    return report, lines, EXIT_OK


def cmd_min(args: argparse.Namespace) -> Outcome:
    ct = _resolve_triangle(args)
    report = min_report(ct, minimum_isosceles_container(ct))
    lines = [
        _triangle_line(report["triangle"]),
        f"minimizer: {', '.join(report['minimizers'])} (count {report['count']})",
        f"min area = {_fmt(report['min_area'])}",
        f"min ratio = {_fmt(report['min_ratio'])}",
    ]
    if report["candidates"]:
        lines.append("candidates: " + "  ".join(f"{sc['variant']} ratio={_fmt(sc['ratio'])}" for sc in report["candidates"]))
    return report, lines, EXIT_OK


def cmd_verify(args: argparse.Namespace) -> Outcome:
    """Sample, verify and aggregate one batch; a fixed seed makes the run,
    its summary and its report bytes fully deterministic."""
    if args.samples < 1:
        raise ValueError(f"--samples must be >= 1, got {args.samples}")
    if args.seed < 0:
        raise ValueError(f"--seed must be >= 0, got {args.seed}")
    triangles = sample_canonical_triangles(
        args.seed, args.samples, math.radians(args.min_angle), math.radians(args.scalene_margin)
    )
    reports = verify_triangles(triangles)
    gaps = [r.relative_gap for r in reports]
    worst = max(range(len(gaps)), key=lambda i: abs(gaps[i]))  # the first on ties
    rates = {
        name: sum(1 for r in reports if r.flags[name]) / len(reports)
        for name in sorted(reports[0].flags)
    }
    report = _report(
        seed=args.seed,
        samples=args.samples,
        max_relative_gap=max(gaps),
        min_relative_gap=min(gaps),
        max_min_ratio=max(r.min_result.min_ratio for r in reports),
        invariant_pass_rates=rates,
        worst={"index": worst, "vertices": _point_list(reports[worst].input.tri), "relative_gap": gaps[worst]},
        cases=[verify_case_report(r) for r in reports],
    )
    report["pass"] = ok = (
        report["max_relative_gap"] <= GAP_TOL
        and report["min_relative_gap"] >= -GAP_TOL
        and all(rate == 1.0 for rate in rates.values())
        and report["max_min_ratio"] < SQRT2 - 1e-9
    )
    rate_text = " ".join(f"{name}={100.0 * rate:.1f}%" for name, rate in rates.items())
    lines = [
        f"verify: samples={report['samples']} seed={report['seed']}",
        f"max relative gap = {_fmt(report['max_relative_gap'])} (tolerance {_fmt(GAP_TOL)})",
        f"min relative gap = {_fmt(report['min_relative_gap'])}",
        f"invariant pass rates: {rate_text}",
        f"max min-ratio = {_fmt(report['max_min_ratio'])} (sqrt2 = {_fmt(SQRT2)})",
        f"worst case: index {report['worst']['index']}, relative gap = {_fmt(report['worst']['relative_gap'])}, "
        "vertices " + " ".join(f"({_fmt(x)}, {_fmt(y)})" for x, y in report["worst"]["vertices"]),
        "PASS" if ok else "FAIL",
    ]
    return report, lines, EXIT_OK if ok else EXIT_VERIFICATION


def _extremal_sqrt2() -> tuple[dict, list[str]]:
    rows = []
    lines = ["beta_deg  crossing_deg  ratio_at_crossing  sqrt2_minus_ratio"]
    for beta_deg in (16.0, 8.0, 4.0, 2.0, 1.0, 0.5, 0.25):
        beta = math.radians(beta_deg)
        z = ratio_crossing(beta)
        ratio = minimum_isosceles_container(triangle_from_angles(z, beta)).min_ratio
        row = {"beta_deg": beta_deg, "crossing_deg": math.degrees(z), "ratio": ratio}
        rows.append(row)
        lines.append(
            f"{row['beta_deg']:>8} {row['crossing_deg']:>13.6f} {row['ratio']:>18.12f} "
            f"{SQRT2 - row['ratio']:>18.3e}"
        )
    lines.append(f"supremum sqrt2 = {_fmt(SQRT2)} is approached from below, never attained")
    return {"sweep": rows, "supremum": SQRT2}, lines


def _extremal_golden() -> tuple[dict, list[str]]:
    # sweep the parabola c = b^2 toward b = phi
    rows = [{"b": b, "r": first_kind_ratio(b, b * b)} for b in (PHI - 10.0 ** (-k) for k in range(1, 7))]
    b = PHI - 1e-3
    ct = triangle_from_sides(1.0, b, b * b)
    body = {
        "sweep": rows,
        "first_kind_min_at_exhibit": first_kind_ratio(b, b * b),
        "overall_min_at_exhibit": minimum_isosceles_container(ct).min_ratio,
        "supremum": PHI,
    }
    lines = ["b  r(b, b^2)  phi_minus_r"]
    lines += [f"{row['b']:.10f} {row['r']:.10f} {PHI - row['r']:.3e}" for row in rows]
    lines.append(
        f"at b = phi - 1e-3: first-kind minimum {_fmt(body['first_kind_min_at_exhibit'])} > sqrt2 > "
        f"overall minimum {_fmt(body['overall_min_at_exhibit'])}"
    )
    lines.append(f"supremum (1+sqrt5)/2 = {_fmt(PHI)} is approached from below, never attained")
    return body, lines


def _extremal_alpha_star() -> tuple[dict, list[str]]:
    root = alpha_star()
    ct = t_star()
    body = {
        "alpha_star": root,
        "alpha_star_deg": math.degrees(root),
        "residual": alpha_star_equation(root),
        "tie_count": len(minimum_isosceles_container(ct).minimizers),
    }
    lines = [
        f"alpha* = {body['alpha_star_deg']:.10f} deg ({root:.12f} rad)",
        f"residual sin(a)sin(2a) - sin^2(3a) = {body['residual']:.3e}",
        f"tie triangle: angles {_fmt(math.degrees(ct.alpha))}, "
        f"{_fmt(math.degrees(ct.beta))}, {_fmt(math.degrees(ct.gamma))} deg; "
        f"minimizer count {body['tie_count']}",
    ]
    return body, lines


_EXTREMAL_MODES = {"sqrt2": _extremal_sqrt2, "golden": _extremal_golden, "alpha_star": _extremal_alpha_star}


def cmd_extremal(args: argparse.Namespace) -> Outcome:
    body, lines = _EXTREMAL_MODES[args.mode]()
    return _report(mode=args.mode, **body), lines, EXIT_OK


def cmd_svg(args: argparse.Namespace) -> Outcome:
    """Writes the figure to --out itself; it has no JSON report."""
    from .svg import render_containers  # only this command draws

    ct = _resolve_triangle(args)
    if ct.shape_class is not ShapeClass.SCALENE:
        raise ValueError("svg needs a scalene triangle (isosceles input is its own container)")
    containers = all_special_containers(ct)
    if args.which == "min":
        result = minimum_isosceles_container(ct)
        chosen = [sc for sc in containers if any(sc.label == m.label for m in result.minimizers)]
    elif args.which == "all":
        chosen = containers
    else:
        chosen = [sc for sc in containers if sc.kind.value == args.which]
    _write_text(args.out, render_containers(ct, chosen, title=f"{args.which} containers"))
    return None, [f"wrote {args.out} ({len(chosen)} containers)"], EXIT_OK


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The `isokit` parser, built once per process and shared by every call;
    do not modify it."""
    parser = argparse.ArgumentParser(
        prog="isokit",
        description="Minimum-area isosceles containers of a triangle: "
        "constructions, closed-form minimizers, brute-force verification, "
        "extremal sweeps, and SVG figures.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, func, help_text in (
        ("containers", cmd_containers, "construct all special isosceles containers"),
        ("min", cmd_min, "minimum-area isosceles container(s)"),
        ("verify", cmd_verify, "batch-check the closed form against the brute-force oracle"),
        ("extremal", cmd_extremal, "extremal-ratio reports: sqrt2, golden, alpha_star"),
        ("svg", cmd_svg, "render the triangle and selected containers"),
    ):
        sub.add_parser(name, help=help_text).set_defaults(func=func)
    commands = sub.choices

    for name in ("containers", "min", "svg"):
        p = commands[name]
        p.add_argument("--sides", help="three side lengths, e.g. 3,4,5")
        p.add_argument("--vertices", help="six coordinates x1,y1,x2,y2,x3,y3")
        p.add_argument("--angles", help="two interior angles in degrees, e.g. 50,60")
        p.add_argument("--scale", type=float, help="circumdiameter for --angles (default 1)")
        p.add_argument("--preset", choices=["t-star"], help="built-in triangle")
        p.add_argument("--json", help="read the triangle from a JSON document")

    p = commands["verify"]
    p.add_argument("--samples", type=int, default=100, help="number of random triangles (default 100)")
    p.add_argument("--seed", type=int, default=0, help="RNG seed (default 0)")
    p.add_argument("--min-angle", type=float, default=math.degrees(DEFAULT_MIN_ANGLE), help="sampling: minimum angle in degrees (default 5)")
    p.add_argument("--scalene-margin", type=float, default=math.degrees(DEFAULT_SCALENE_MARGIN), help="sampling: pairwise angle margin in degrees (default 1)")

    commands["extremal"].add_argument("mode", choices=list(_EXTREMAL_MODES))
    commands["svg"].add_argument("--which", default="all", choices=["all", "first", "second", "third", "min"], help="container selector (default all)")

    for name, p in commands.items():
        if name == "svg":
            p.add_argument("--out", required=True, help="output SVG path")
        else:
            p.add_argument("--out", help="write the machine-readable report/figure here")
    return parser


def _join_negative_values(argv: list[str]) -> list[str]:
    """`argv` with --sides, --vertices and --angles each joined to a next
    value that starts with a single '-', as `--flag=value`: argparse takes
    such a value for an option unless it is one plain number."""
    out: list[str] = []
    for arg in argv:
        if out and out[-1] in ("--sides", "--vertices", "--angles") and arg[:1] == "-" and arg[:2] != "--":
            out[-1] += "=" + arg
        else:
            out.append(arg)
    return out


def _run(args: argparse.Namespace) -> Outcome:
    """`args.func(args)`, printing each distinct warning it raised on stderr as
    ``warning: <message>``, without the source path and line Python adds."""
    with warnings.catch_warnings(record=True) as caught:
        try:
            return args.func(args)
        finally:
            for message in dict.fromkeys(str(w.message) for w in caught):
                print(f"warning: {message}", file=sys.stderr)


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(_join_negative_values(sys.argv[1:] if argv is None else argv))
    try:
        report, lines, code = _run(args)
        print("\n".join(lines))
        if report is not None and args.out:
            # compact, so that CPython's C encoder writes it
            _write_text(args.out, json.dumps(report, sort_keys=True, separators=(",", ":")) + "\n")
        return code
    except (GeometryError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID_INPUT
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
