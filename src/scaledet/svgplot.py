"""Tiny self-contained SVG charts.

Every plot the toolkit emits has a CSV twin carrying the same numbers; the
SVG is for human eyes only, so these writers stay dependency-free and fully
deterministic (fixed canvas, fixed float formatting).
"""

from __future__ import annotations

import math
from xml.sax.saxutils import escape

__all__ = ["bar_chart", "line_chart"]

_W, _H = 640, 360
_MARGIN_L, _MARGIN_R, _MARGIN_T, _MARGIN_B = 50, 15, 35, 55


def _f(v: float) -> str:
    return f"{v:.2f}"


def _edge_label(lo: float, hi: float) -> str:
    lo_s = f"{lo:g}"
    return f"{lo_s}+" if math.isinf(hi) else f"{lo_s}-{hi:g}"


def _header(title: str) -> list[str]:
    return [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_W}" height="{_H}" '
        f'viewBox="0 0 {_W} {_H}">',
        f'<rect width="{_W}" height="{_H}" fill="white"/>',
        f'<text x="{_W / 2:.0f}" y="20" text-anchor="middle" font-size="14" '
        f'font-family="sans-serif">{escape(title)}</text>',
    ]


def bar_chart(title: str, bin_edges, counts) -> str:
    """Histogram bar chart; bins are labeled lo-hi (or lo+ for open ends)."""
    counts = list(counts)
    edges = list(bin_edges)
    plot_w = _W - _MARGIN_L - _MARGIN_R
    plot_h = _H - _MARGIN_T - _MARGIN_B
    peak = max(counts) if counts and max(counts) > 0 else 1
    n = max(len(counts), 1)
    slot = plot_w / n
    parts = _header(title)
    parts.append(
        f'<line x1="{_MARGIN_L}" y1="{_MARGIN_T + plot_h}" x2="{_MARGIN_L + plot_w}" '
        f'y2="{_MARGIN_T + plot_h}" stroke="black"/>'
    )
    parts.append(
        f'<line x1="{_MARGIN_L}" y1="{_MARGIN_T}" x2="{_MARGIN_L}" '
        f'y2="{_MARGIN_T + plot_h}" stroke="black"/>'
    )
    parts.append(
        f'<text x="12" y="{_MARGIN_T + 10}" font-size="11" font-family="sans-serif">{peak}</text>'
    )
    for i, count in enumerate(counts):
        h = plot_h * count / peak
        x = _MARGIN_L + i * slot + 0.1 * slot
        y = _MARGIN_T + plot_h - h
        parts.append(
            f'<rect x="{_f(x)}" y="{_f(y)}" width="{_f(0.8 * slot)}" height="{_f(h)}" '
            f'fill="#4878a8"/>'
        )
        label = _edge_label(edges[i], edges[i + 1])
        cx = _MARGIN_L + (i + 0.5) * slot
        parts.append(
            f'<text x="{_f(cx)}" y="{_MARGIN_T + plot_h + 14}" text-anchor="end" '
            f'font-size="9" font-family="sans-serif" '
            f'transform="rotate(-45 {_f(cx)} {_MARGIN_T + plot_h + 14})">{escape(label)}</text>'
        )
        parts.append(
            f'<text x="{_f(cx)}" y="{_f(y - 3)}" text-anchor="middle" font-size="9" '
            f'font-family="sans-serif">{count}</text>'
        )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def line_chart(title: str, points) -> str:
    """Line chart over the unit square: a precision-recall curve."""
    plot_w = _W - _MARGIN_L - _MARGIN_R
    plot_h = _H - _MARGIN_T - _MARGIN_B
    parts = _header(title)

    def sx(v: float) -> float:
        return _MARGIN_L + v * plot_w

    def sy(v: float) -> float:
        return _MARGIN_T + (1.0 - v) * plot_h

    parts.append(
        f'<line x1="{_MARGIN_L}" y1="{_f(sy(0))}" x2="{_f(sx(1))}" y2="{_f(sy(0))}" '
        f'stroke="black"/>'
    )
    parts.append(
        f'<line x1="{_MARGIN_L}" y1="{_MARGIN_T}" x2="{_MARGIN_L}" y2="{_f(sy(0))}" '
        f'stroke="black"/>'
    )
    for tick in (0.0, 0.25, 0.5, 0.75, 1.0):
        parts.append(
            f'<text x="{_f(sx(tick))}" y="{_f(sy(0) + 14)}" text-anchor="middle" '
            f'font-size="10" font-family="sans-serif">{tick:g}</text>'
        )
        parts.append(
            f'<text x="{_MARGIN_L - 6}" y="{_f(sy(tick) + 3)}" text-anchor="end" '
            f'font-size="10" font-family="sans-serif">{tick:g}</text>'
        )
    parts.append(
        f'<text x="{_f(sx(0.5))}" y="{_H - 12}" text-anchor="middle" font-size="11" '
        'font-family="sans-serif">recall</text>'
    )
    parts.append(
        f'<text x="14" y="{_f(sy(0.5))}" text-anchor="middle" font-size="11" '
        f'font-family="sans-serif" transform="rotate(-90 14 {_f(sy(0.5))})">'
        "precision</text>"
    )
    pts = list(points)
    if pts:
        path = " ".join(f"{_f(sx(x))},{_f(sy(y))}" for x, y in pts)
        parts.append(f'<polyline points="{path}" fill="none" stroke="#a83838" stroke-width="1.5"/>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
