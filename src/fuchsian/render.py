"""Deterministic SVG rendering of domains and the fundamental polygon.

Two chart types: the torus square maps an angle pair to the unit square by
x = angle/(2*pi) (with a configurable global offset on both axes), and the
disk chart draws the polygon with its side arcs inside the unit circle.
Output is stable: fixed element order and six decimal places throughout,
so identical inputs give byte-identical documents.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .boundary import RectDomain, SolvedParams
from .circle import TWO_PI, half_turn, moebius_angles, wrap_angle
from .duality import DualDomain
from .surface import SurfaceGroup

CURVE_SAMPLES = 512


def _fmt(x: float) -> str:
    out = f"{x:.6f}"
    return "0.000000" if out == "-0.000000" else out


@dataclass(frozen=True)
class RectPatch:
    x0: float  # angles
    x1: float
    y0: float
    y1: float
    fill: str
    label: str = ""


@dataclass(frozen=True)
class CurveSegment:
    points: tuple[tuple[float, float], ...]  # angle pairs
    color: str = "#333333"


@dataclass(frozen=True)
class RenderSpec:
    """What to draw: chart type, size, and ordered layers."""

    chart: str  # "torus" or "disk"
    width: int = 720
    height: int = 720
    offset: float = 0.0  # angle subtracted on both torus axes
    rects: tuple[RectPatch, ...] = ()
    curves: tuple[CurveSegment, ...] = ()
    ticks: tuple[tuple[float, str], ...] = ()  # angle, label on both axes
    surface: SurfaceGroup | None = None  # for the disk chart


def patches(rects, colors: dict[str, str]) -> list[RectPatch]:
    """One patch per non-degenerate rectangle, filled by its kind."""
    return [
        RectPatch(
            x0=r.x0,
            x1=r.x0 + r.width,
            y0=r.y0,
            y1=r.y0 + r.height,
            fill=colors[r.kind],
            label=f"{r.kind}_{r.strip}",
        )
        for r in rects
        if not r.degenerate
    ]


def curvilinear_boundary(surface: SurfaceGroup) -> list[CurveSegment]:
    """The boundary curves of the curvilinear domain: geodesics through a
    fixed vertex, traced by pairing each u with its half-turn image."""
    out = []
    steps = np.arange(CURVE_SAMPLES + 1)
    for k in range(1, surface.n + 1):
        rot = half_turn(surface.v(k))
        for a0, a1, color in (
            (surface.p(k - 1).angle, surface.p(k).angle, "#aa2222"),  # upper piece
            (surface.q(k).angle, surface.q(k + 1).angle, "#2222aa"),  # lower piece
        ):
            u = a0 + (a1 - a0) % TWO_PI * steps / CURVE_SAMPLES
            w = moebius_angles(rot.a, rot.c, u)
            out.append(CurveSegment(points=tuple(zip(map(wrap_angle, u.tolist()), w.tolist())), color=color))
    return out


def boundary_ticks(surface: SurfaceGroup) -> list[tuple[float, str]]:
    out = []
    for i in range(1, surface.n + 1):
        out.append((surface.p(i).angle, f"P{i}"))
        out.append((surface.q(i).angle, f"Q{i}"))
    return out


def omega_spec(solved: SolvedParams, domain: RectDomain, with_geo: bool = False) -> RenderSpec:
    s = solved.surface
    curves = tuple(curvilinear_boundary(s)) if with_geo else ()
    return RenderSpec(
        chart="torus",
        offset=s.offset,
        rects=tuple(patches(domain.rects, {"lower": "#88aaff", "upper": "#ffdd88"})),
        curves=curves,
        ticks=tuple(boundary_ticks(s)),
        surface=s,
    )


def omega_dual_spec(solved: SolvedParams, dual_domain: DualDomain) -> RenderSpec:
    s = solved.surface
    return RenderSpec(
        chart="torus",
        offset=s.offset,
        rects=tuple(
            patches(dual_domain.rects, {"wide": "#88aaff", "head": "#ffaa66", "tail": "#66cc99"})
        ),
        ticks=tuple(boundary_ticks(s)),
        surface=s,
    )


def omega_geo_spec(surface: SurfaceGroup) -> RenderSpec:
    return RenderSpec(
        chart="torus",
        offset=surface.offset,
        curves=tuple(curvilinear_boundary(surface)),
        ticks=tuple(boundary_ticks(surface)),
        surface=surface,
    )


def polygon_spec(surface: SurfaceGroup) -> RenderSpec:
    return RenderSpec(chart="disk", surface=surface)


def render_svg(spec: RenderSpec) -> str:
    """Serialize a RenderSpec to an SVG 1.1 document string."""
    if spec.chart == "torus":
        return _render_torus(spec)
    if spec.chart == "disk":
        return _render_disk(spec)
    raise ValueError(f"unknown chart type {spec.chart!r}")


def _torus_coord(angle: float, offset: float) -> float:
    return wrap_angle(angle - offset) / TWO_PI


def _render_torus(spec: RenderSpec) -> str:
    w_px, h_px = spec.width, spec.height
    pad = 40.0
    scale_x = w_px - 2 * pad
    scale_y = h_px - 2 * pad

    def px(x: float) -> float:
        return pad + x * scale_x

    def py(y: float) -> float:
        return h_px - pad - y * scale_y

    lines = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" width="{w_px}" height="{h_px}" '
        f'viewBox="0 0 {w_px} {h_px}">',
        f'<rect x="0" y="0" width="{w_px}" height="{h_px}" fill="#ffffff"/>',
        f'<rect x="{_fmt(pad)}" y="{_fmt(pad)}" width="{_fmt(scale_x)}" height="{_fmt(scale_y)}" '
        'fill="none" stroke="#000000" stroke-width="1"/>',
    ]

    def split_unit(a0: float, a1: float, offset: float) -> list[tuple[float, float]]:
        """Map an angle interval into the unit interval, split at the seam."""
        x0 = _torus_coord(a0, offset)
        width = ((a1 - a0) % TWO_PI) / TWO_PI
        if width <= 0.0:
            return []
        if x0 + width <= 1.0 + 1e-12:
            return [(x0, min(x0 + width, 1.0))]
        return [(x0, 1.0), (0.0, x0 + width - 1.0)]

    for patch in spec.rects:
        for xa, xb in split_unit(patch.x0, patch.x1, spec.offset):
            for ya, yb in split_unit(patch.y0, patch.y1, spec.offset):
                lines.append(
                    f'<rect x="{_fmt(px(xa))}" y="{_fmt(py(yb))}" '
                    f'width="{_fmt((xb - xa) * scale_x)}" height="{_fmt((yb - ya) * scale_y)}" '
                    f'fill="{patch.fill}" fill-opacity="0.6" stroke="#444444" '
                    f'stroke-width="0.5"><title>{patch.label}</title></rect>'
                )

    for curve in spec.curves:
        runs: list[list[tuple[float, float]]] = [[]]
        prev = None
        for u, w in curve.points:
            x = _torus_coord(u, spec.offset)
            y = _torus_coord(w, spec.offset)
            if prev is not None and (abs(x - prev[0]) > 0.5 or abs(y - prev[1]) > 0.5):
                runs.append([])  # crossed the seam; start a new polyline
            runs[-1].append((x, y))
            prev = (x, y)
        for run in runs:
            if len(run) < 2:
                continue
            pts = " ".join(f"{_fmt(px(x))},{_fmt(py(y))}" for x, y in run)
            lines.append(
                f'<polyline points="{pts}" fill="none" stroke="{curve.color}" stroke-width="1"/>'
            )

    for angle, label in spec.ticks:
        x = _torus_coord(angle, spec.offset)
        lines.append(
            f'<line x1="{_fmt(px(x))}" y1="{_fmt(h_px - pad)}" x2="{_fmt(px(x))}" '
            f'y2="{_fmt(h_px - pad + 5)}" stroke="#000000" stroke-width="0.8"/>'
        )
        lines.append(
            f'<text x="{_fmt(px(x))}" y="{_fmt(h_px - pad + 16)}" font-size="8" '
            f'text-anchor="middle" font-family="monospace">{label}</text>'
        )
        lines.append(
            f'<line x1="{_fmt(pad - 5)}" y1="{_fmt(py(x))}" x2="{_fmt(pad)}" '
            f'y2="{_fmt(py(x))}" stroke="#000000" stroke-width="0.8"/>'
        )
        lines.append(
            f'<text x="{_fmt(pad - 8)}" y="{_fmt(py(x) + 3)}" font-size="8" '
            f'text-anchor="end" font-family="monospace">{label}</text>'
        )

    lines.append("</svg>")
    return "\n".join(lines) + "\n"


def _render_disk(spec: RenderSpec) -> str:
    s = spec.surface
    if s is None:
        raise ValueError("disk chart requires a surface")
    w_px, h_px = spec.width, spec.height
    half = min(w_px, h_px) / 2.0
    scale = half / 1.15

    def px(z: complex) -> tuple[float, float]:
        return w_px / 2.0 + z.real * scale, h_px / 2.0 - z.imag * scale

    lines = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" width="{w_px}" height="{h_px}" '
        f'viewBox="0 0 {w_px} {h_px}">',
        f'<rect x="0" y="0" width="{w_px}" height="{h_px}" fill="#ffffff"/>',
        f'<circle cx="{_fmt(w_px / 2)}" cy="{_fmt(h_px / 2)}" r="{_fmt(scale)}" '
        'fill="none" stroke="#000000" stroke-width="1"/>',
    ]

    for i in range(1, s.n + 1):
        v0 = s.v(i)
        v1 = s.v(i + 1)
        circ = s.side_circle(i)
        (x0, y0), (x1, y1) = px(v0), px(v1)
        if circ is None:
            lines.append(
                f'<line x1="{_fmt(x0)}" y1="{_fmt(y0)}" x2="{_fmt(x1)}" y2="{_fmt(y1)}" '
                'stroke="#2244aa" stroke-width="1.5"/>'
            )
        else:
            center, rad = circ
            r_px = rad * scale
            cross = (v0 - center).real * (v1 - center).imag - (v0 - center).imag * (v1 - center).real
            sweep = 0 if cross > 0 else 1  # svg y-axis is flipped
            lines.append(
                f'<path d="M {_fmt(x0)} {_fmt(y0)} A {_fmt(r_px)} {_fmt(r_px)} 0 0 {sweep} '
                f'{_fmt(x1)} {_fmt(y1)}" fill="none" stroke="#2244aa" stroke-width="1.5"/>'
            )
        mid = 0.5 * (v0 + v1)
        lx, ly = px(mid * 1.13 / abs(mid))
        lines.append(
            f'<text x="{_fmt(lx)}" y="{_fmt(ly + 3)}" font-size="11" text-anchor="middle" '
            f'font-family="monospace">{i}</text>'
        )

    for i in range(1, s.n + 1):
        x, y = px(s.v(i))
        lines.append(
            f'<circle cx="{_fmt(x)}" cy="{_fmt(y)}" r="2" fill="#000000"/>'
        )
    for i in range(1, s.n + 1):
        for pt, name in ((s.p(i), f"P{i}"), (s.q(i), f"Q{i}")):
            zx, zy = px(pt.value * 1.04)
            lines.append(
                f'<circle cx="{_fmt(zx)}" cy="{_fmt(zy)}" r="1.2" fill="#aa2222"/>'
            )
            tx, ty = px(pt.value * 1.09)
            lines.append(
                f'<text x="{_fmt(tx)}" y="{_fmt(ty + 2)}" font-size="7" text-anchor="middle" '
                f'font-family="monospace">{name}</text>'
            )

    lines.append("</svg>")
    return "\n".join(lines) + "\n"
