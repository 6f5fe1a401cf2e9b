"""Minimal deterministic SVG line/point charts for experiment outputs."""
from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Sequence
from xml.sax.saxutils import escape

WIDTH = 640
HEIGHT = 400
MARGIN_LEFT = 64
MARGIN_RIGHT = 24
MARGIN_TOP = 32
MARGIN_BOTTOM = 48

PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#ff7f0e", "#9467bd", "#8c564b")


@dataclass(frozen=True)
class Series:
    name: str
    points: tuple[tuple[float, float], ...]

    def __post_init__(self) -> None:
        if not self.points:
            raise ValueError(f"series {self.name!r} has no points")


def _fmt(x: float) -> str:
    return f"{x:.2f}".rstrip("0").rstrip(".")


def _ticks(lo: float, hi: float, count: int = 5) -> list[float]:
    if hi == lo:
        return [lo]
    step = (hi - lo) / (count - 1)
    return [lo + i * step for i in range(count)]


def render_chart(
    series: Sequence[Series],
    style: str = "line",
    title: str = "",
    x_label: str = "",
    y_label: str = "",
) -> str:
    """Render series to a self-contained SVG string; byte-deterministic."""
    if not series:
        raise ValueError("need at least one series")
    if style not in ("line", "points"):
        raise ValueError(f"unknown style {style!r}")

    xs = [p[0] for s in series for p in s.points]
    ys = [p[1] for s in series for p in s.points]
    x_lo, x_hi = min(xs), max(xs)
    y_lo, y_hi = min(ys), max(ys)
    if x_hi == x_lo:
        x_lo, x_hi = x_lo - 1.0, x_hi + 1.0
    if y_hi == y_lo:
        y_lo, y_hi = y_lo - 1.0, y_hi + 1.0

    plot_w = WIDTH - MARGIN_LEFT - MARGIN_RIGHT
    plot_h = HEIGHT - MARGIN_TOP - MARGIN_BOTTOM

    def px(x: float) -> float:
        return MARGIN_LEFT + (x - x_lo) / (x_hi - x_lo) * plot_w

    def py(y: float) -> float:
        return MARGIN_TOP + plot_h - (y - y_lo) / (y_hi - y_lo) * plot_h

    out = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" height="{HEIGHT}" '
        f'viewBox="0 0 {WIDTH} {HEIGHT}" font-family="sans-serif" font-size="11">',
        f'<rect width="{WIDTH}" height="{HEIGHT}" fill="white"/>',
    ]
    if title:
        out.append(
            f'<text x="{WIDTH // 2}" y="18" text-anchor="middle" font-size="14">'
            f'{escape(title)}</text>'
        )
    # axes
    out.append(
        f'<line x1="{MARGIN_LEFT}" y1="{MARGIN_TOP + plot_h}" '
        f'x2="{MARGIN_LEFT + plot_w}" y2="{MARGIN_TOP + plot_h}" stroke="black"/>'
    )
    out.append(
        f'<line x1="{MARGIN_LEFT}" y1="{MARGIN_TOP}" '
        f'x2="{MARGIN_LEFT}" y2="{MARGIN_TOP + plot_h}" stroke="black"/>'
    )
    for tx in _ticks(x_lo, x_hi):
        x = px(tx)
        out.append(
            f'<line x1="{x:.2f}" y1="{MARGIN_TOP + plot_h}" '
            f'x2="{x:.2f}" y2="{MARGIN_TOP + plot_h + 5}" stroke="black"/>'
        )
        out.append(
            f'<text x="{x:.2f}" y="{MARGIN_TOP + plot_h + 18}" '
            f'text-anchor="middle">{_fmt(tx)}</text>'
        )
    for ty in _ticks(y_lo, y_hi):
        y = py(ty)
        out.append(
            f'<line x1="{MARGIN_LEFT - 5}" y1="{y:.2f}" '
            f'x2="{MARGIN_LEFT}" y2="{y:.2f}" stroke="black"/>'
        )
        out.append(
            f'<text x="{MARGIN_LEFT - 8}" y="{y + 4:.2f}" text-anchor="end">{_fmt(ty)}</text>'
        )
    if x_label:
        out.append(
            f'<text x="{MARGIN_LEFT + plot_w // 2}" y="{HEIGHT - 8}" '
            f'text-anchor="middle">{escape(x_label)}</text>'
        )
    if y_label:
        out.append(
            f'<text x="14" y="{MARGIN_TOP + plot_h // 2}" text-anchor="middle" '
            f'transform="rotate(-90 14 {MARGIN_TOP + plot_h // 2})">{escape(y_label)}</text>'
        )
    # data
    for i, s in enumerate(series):
        color = PALETTE[i % len(PALETTE)]
        if style == "line" and len(s.points) > 1:
            pts = " ".join(f"{px(x):.2f},{py(y):.2f}" for x, y in s.points)
            out.append(
                f'<polyline points="{pts}" fill="none" stroke="{color}" stroke-width="1.5"/>'
            )
        else:
            for x, y in s.points:
                out.append(
                    f'<circle cx="{px(x):.2f}" cy="{py(y):.2f}" r="2.5" fill="{color}"/>'
                )
    # legend, top-right
    for i, s in enumerate(series):
        y = MARGIN_TOP + 12 + i * 16
        x = MARGIN_LEFT + plot_w - 130
        out.append(
            f'<rect x="{x}" y="{y - 8}" width="10" height="10" fill="{PALETTE[i % len(PALETTE)]}"/>'
        )
        out.append(f'<text x="{x + 14}" y="{y + 1}">{escape(s.name)}</text>')
    out.append("</svg>")
    return "\n".join(out) + "\n"


def write_chart(
    series: Sequence[Series],
    out_path: str | Path,
    style: str = "line",
    title: str = "",
    x_label: str = "",
    y_label: str = "",
) -> None:
    svg = render_chart(series, style=style, title=title, x_label=x_label, y_label=y_label)
    Path(out_path).write_text(svg)
