"""Minimal deterministic SVG line/point charts for experiment outputs."""
from __future__ import annotations

import math
from dataclasses import dataclass
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


def _fmt(x: float, places: int) -> str:
    text = f"{x:.{places}f}".rstrip("0").rstrip(".")
    return "0" if text == "-0" else text  # a tick that rounds to 0 from below


def _ticks(lo: float, hi: float, count: int = 5) -> list[tuple[float, str]]:
    """`count` evenly spaced ticks from lo to hi, each with its label: two
    decimals, or the fewest more (up to 17) that give distinct ticks
    distinct labels, trailing zeros stripped."""
    step = (hi - lo) / (count - 1)
    ticks = [lo + i * step for i in range(count)]
    for places in range(2, 18):
        labels = [_fmt(x, places) for x in ticks]
        if len(set(labels)) == len(set(ticks)):
            break
    return list(zip(ticks, labels))


def _axis_range(axis: str, values: list[float]) -> tuple[float, float]:
    """The (lo, hi) an axis spans: the values' range, or 1 either side of a
    single value. A span that is 0 or overflows would put nan in the SVG, so
    it raises a ValueError."""
    lo, hi = min(values), max(values)
    if hi == lo:
        lo, hi = lo - 1.0, hi + 1.0
    if not 0.0 < hi - lo < math.inf:
        raise ValueError(f"{axis} values from {min(values)!r} to {max(values)!r} "
                         "cannot be scaled to the plot")
    return lo, hi


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

    x_lo, x_hi = _axis_range("x", [p[0] for s in series for p in s.points])
    y_lo, y_hi = _axis_range("y", [p[1] for s in series for p in s.points])

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
    for tx, label in _ticks(x_lo, x_hi):
        x = px(tx)
        out.append(
            f'<line x1="{x:.2f}" y1="{MARGIN_TOP + plot_h}" '
            f'x2="{x:.2f}" y2="{MARGIN_TOP + plot_h + 5}" stroke="black"/>'
        )
        out.append(
            f'<text x="{x:.2f}" y="{MARGIN_TOP + plot_h + 18}" '
            f'text-anchor="middle">{label}</text>'
        )
    for ty, label in _ticks(y_lo, y_hi):
        y = py(ty)
        out.append(
            f'<line x1="{MARGIN_LEFT - 5}" y1="{y:.2f}" '
            f'x2="{MARGIN_LEFT}" y2="{y:.2f}" stroke="black"/>'
        )
        out.append(
            f'<text x="{MARGIN_LEFT - 8}" y="{y + 4:.2f}" text-anchor="end">{label}</text>'
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

