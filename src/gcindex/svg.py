"""Minimal self-contained SVG charts for eyeballing results.

Hand-rolled on purpose: report files must be byte-identical across runs, so
no plotting library is involved.  Coordinates are formatted with fixed
precision and elements are emitted in a fixed order.
"""

from __future__ import annotations

from typing import Mapping, Sequence, Tuple

_FONT = 'font-family="sans-serif" font-size="11"'
_WIDTH, _HEIGHT = 640, 360


def _escape(text: str) -> str:
    """Character data for a <text> element: '&', '<' and '>' as entities.

    Same as xml.sax.saxutils.escape, whose import pulls in urllib.request and
    some 45 other modules at start-up.
    """
    return text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


def _fmt(value: float) -> str:
    return f"{value:.2f}"


def _header(title: str) -> list:
    return [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_WIDTH}" height="{_HEIGHT}" '
        f'viewBox="0 0 {_WIDTH} {_HEIGHT}">',
        f'<rect x="0" y="0" width="{_WIDTH}" height="{_HEIGHT}" fill="white"/>',
        f'<text x="{_WIDTH / 2:.0f}" y="18" text-anchor="middle" '
        f'font-family="sans-serif" font-size="14">{_escape(title)}</text>',
    ]


def bar_chart(
    items: Sequence[Tuple[str, float]],
    title: str,
    baseline: float = 0.0,
) -> str:
    """Vertical bars, one per (label, value); labels along the x axis.

    Negative values hang below the baseline so rank movements read naturally.
    """
    left, right, top, bottom = 50, 15, 30, 70
    plot_w = _WIDTH - left - right
    plot_h = _HEIGHT - top - bottom
    values = [v for _, v in items] or [0.0]
    lo = min(min(values), baseline)
    hi = max(max(values), baseline)
    if hi == lo:
        hi = lo + 1.0
    span = hi - lo

    def y_of(v: float) -> float:
        return top + plot_h * (hi - v) / span

    out = _header(title)
    out.append(
        f'<line x1="{left}" y1="{_fmt(y_of(baseline))}" x2="{left + plot_w}" '
        f'y2="{_fmt(y_of(baseline))}" stroke="black" stroke-width="1"/>'
    )
    for tick in (lo, baseline, hi):
        out.append(
            f'<text x="{left - 6}" y="{_fmt(y_of(tick) + 4)}" text-anchor="end" {_FONT}>'
            f"{tick:.6f}</text>"
        )
    n = len(items)
    slot = plot_w / max(n, 1)
    bar_w = slot * 0.7
    for i, (label, value) in enumerate(items):
        x = left + slot * i + (slot - bar_w) / 2
        y0, y1 = y_of(max(value, baseline)), y_of(min(value, baseline))
        out.append(
            f'<rect x="{_fmt(x)}" y="{_fmt(y0)}" width="{_fmt(bar_w)}" '
            f'height="{_fmt(max(y1 - y0, 0.5))}" fill="steelblue"/>'
        )
        cx = x + bar_w / 2
        out.append(
            f'<text x="{_fmt(cx)}" y="{_HEIGHT - bottom + 12}" text-anchor="end" {_FONT} '
            f'transform="rotate(-45 {_fmt(cx)} {_HEIGHT - bottom + 12})">{_escape(label)}</text>'
        )
    out.append("</svg>")
    return "\n".join(out) + "\n"


def line_chart(
    series: Mapping[str, Sequence[Tuple[float, float]]],
    title: str,
) -> str:
    """One polyline per named series over a shared (x, y) plane."""
    left, right, top, bottom = 50, 120, 30, 40
    plot_w = _WIDTH - left - right
    plot_h = _HEIGHT - top - bottom
    xs = [x for pts in series.values() for x, _ in pts]
    ys = [y for pts in series.values() for _, y in pts]
    if not xs:
        xs, ys = [0.0, 1.0], [0.0, 1.0]
    x_lo, x_hi = min(xs), max(xs)
    y_lo, y_hi = min(ys), max(ys)
    if x_hi == x_lo:
        x_hi = x_lo + 1.0
    if y_hi == y_lo:
        y_hi = y_lo + 1.0

    def pt(x: float, y: float) -> str:
        px = left + plot_w * (x - x_lo) / (x_hi - x_lo)
        py = top + plot_h * (y_hi - y) / (y_hi - y_lo)
        return f"{_fmt(px)},{_fmt(py)}"

    palette = ("steelblue", "firebrick", "seagreen", "darkorange", "purple",
               "teal", "goldenrod", "crimson", "slategray", "olive")
    out = _header(title)
    out.append(
        f'<rect x="{left}" y="{top}" width="{plot_w}" height="{plot_h}" '
        f'fill="none" stroke="black" stroke-width="1"/>'
    )
    # the axis labels sit on the plot's edges
    for label, x in ((x_lo, left), (x_hi, left + plot_w)):
        out.append(
            f'<text x="{_fmt(x)}" y="{_HEIGHT - bottom + 16}" '
            f'text-anchor="middle" {_FONT}>{label:g}</text>'
        )
    for label, y in ((y_lo, top + plot_h), (y_hi, top)):
        out.append(
            f'<text x="{left - 6}" y="{_fmt(y + 4)}" '
            f'text-anchor="end" {_FONT}>{_fmt(label)}</text>'
        )
    for i, name in enumerate(sorted(series)):
        pts = sorted(series[name])
        color = palette[i % len(palette)]
        path = " ".join(pt(x, y) for x, y in pts)
        out.append(
            f'<polyline points="{path}" fill="none" stroke="{color}" stroke-width="1.5"/>'
        )
        out.append(
            f'<text x="{left + plot_w + 8}" y="{top + 14 + 16 * i}" {_FONT} '
            f'fill="{color}">{_escape(name)}</text>'
        )
    out.append("</svg>")
    return "\n".join(out) + "\n"
