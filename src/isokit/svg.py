"""Deterministic SVG figures: the input triangle shaded, selected containers
outlined, auxiliary points labeled.

Output bytes are a pure function of the geometry: coordinates are formatted
with a fixed precision and elements are emitted in a fixed order, so figures
are diffable in tests.
"""

from __future__ import annotations

from .containers import Kind, SpecialContainer
from .geo import CanonicalTriangle, Point

__all__ = ["render_containers"]

_CANVAS_WIDTH = 720.0
_PAD_FRACTION = 0.12

_KIND_COLOR = {
    Kind.FIRST: "#c0392b",
    Kind.SECOND: "#2471a3",
    Kind.THIRD: "#1e8449",
}


def _fmt(v: float) -> str:
    # fixed decimals keep output byte-stable; strip "-0.0000"
    s = f"{v:.4f}"
    return "0.0000" if s == "-0.0000" else s


def render_containers(
    ct: CanonicalTriangle, containers: list[SpecialContainer], title: str = ""
) -> str:
    """Standalone SVG: `ct` shaded gray, each container outlined in its
    kind's color with the auxiliary point marked and labeled."""
    tris = [sc.tri for sc in containers]  # each built on read, so read once
    pts = list(ct.tri.vertices)
    for tri in tris:
        pts.extend(tri.vertices)
    xs = [p.x for p in pts]
    ys = [p.y for p in pts]
    span_x = max(xs) - min(xs)
    span_y = max(ys) - min(ys)
    span = max(span_x, span_y)
    pad = _PAD_FRACTION * span
    x0, y0 = min(xs) - pad, min(ys) - pad
    width = span_x + 2.0 * pad
    height = span_y + 2.0 * pad
    sc_factor = _CANVAS_WIDTH / width

    def map_pt(p: Point) -> tuple[float, float]:
        # flip y so the figure reads with +y up
        return ((p.x - x0) * sc_factor, (height - (p.y - y0)) * sc_factor)

    def poly(tri, style: str) -> str:
        coords = " ".join(f"{_fmt(x)},{_fmt(y)}" for x, y in map(map_pt, tri.vertices))
        return f'<polygon points="{coords}" {style}/>'

    lines = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_fmt(_CANVAS_WIDTH)}" '
        f'height="{_fmt(height * sc_factor)}" '
        f'viewBox="0 0 {_fmt(_CANVAS_WIDTH)} {_fmt(height * sc_factor)}">',
        '<rect width="100%" height="100%" fill="white"/>',
    ]
    if title:
        lines.append(
            f'<text x="12" y="24" font-family="sans-serif" font-size="16">{title}</text>'
        )
    for sc, tri in zip(containers, tris):
        color = _KIND_COLOR[sc.kind]
        lines.append(poly(tri, f'fill="none" stroke="{color}" stroke-width="1.5"'))
    lines.append(poly(ct.tri, 'fill="#d5d8dc" fill-opacity="0.8" stroke="black" stroke-width="1.5"'))
    for name, p in zip("ABC", ct.tri.vertices):
        x, y = map_pt(p)
        lines.append(f'<circle cx="{_fmt(x)}" cy="{_fmt(y)}" r="3" fill="black"/>')
        lines.append(
            f'<text x="{_fmt(x + 6)}" y="{_fmt(y - 6)}" font-family="sans-serif" '
            f'font-size="14">{name}</text>'
        )
    for sc in containers:
        color = _KIND_COLOR[sc.kind]
        x, y = map_pt(sc.new_vertex)
        lines.append(f'<circle cx="{_fmt(x)}" cy="{_fmt(y)}" r="3" fill="{color}"/>')
        lines.append(
            f'<text x="{_fmt(x + 6)}" y="{_fmt(y + 14)}" font-family="sans-serif" '
            f'font-size="14" fill="{color}">{sc.new_vertex_label}</text>'
        )
    lines.append("</svg>")
    return "\n".join(lines) + "\n"
