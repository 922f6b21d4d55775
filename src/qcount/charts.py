"""Minimal dependency-free SVG line charts for the experiment harness.

CSV is the canonical output; these charts are a quick visual check, so no
plotting library is pulled in. Output is deterministic for a given input.
"""
from __future__ import annotations

from dataclasses import dataclass

_WIDTH, _HEIGHT = 720, 480
_MARGIN_L, _MARGIN_R, _MARGIN_T, _MARGIN_B = 70, 30, 50, 60
_COLORS = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd")


@dataclass(frozen=True)
class Series:
    name: str
    points: tuple[tuple[float, float], ...]


def _fmt(value: float) -> str:
    return format(float(value), ".6g")


def _ticks(lo: float, hi: float, count: int = 5) -> list[float]:
    step = (hi - lo) / (count - 1)
    return [lo + i * step for i in range(count)]


def line_chart(
    title: str,
    series: list[Series],
    x_label: str,
    y_label: str,
    reference_y: float | None = None,
) -> str:
    """Render series as an SVG line chart with an optional horizontal reference line.

    The points must span two x values and reach a y above zero, as every repro figure does.
    """
    xs = [x for s in series for x, _ in s.points]
    ys = [y for s in series for _, y in s.points]
    if reference_y is not None:
        ys.append(reference_y)
    x_lo, x_hi = min(xs), max(xs)
    y_lo, y_hi = min(ys + [0.0]), max(ys)
    y_hi *= 1.05

    plot_w = _WIDTH - _MARGIN_L - _MARGIN_R
    plot_h = _HEIGHT - _MARGIN_T - _MARGIN_B

    def px(x: float) -> float:
        return _MARGIN_L + (x - x_lo) / (x_hi - x_lo) * plot_w

    def py(y: float) -> float:
        return _MARGIN_T + plot_h - (y - y_lo) / (y_hi - y_lo) * plot_h

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_WIDTH}" height="{_HEIGHT}" '
        f'viewBox="0 0 {_WIDTH} {_HEIGHT}">',
        f'<rect width="{_WIDTH}" height="{_HEIGHT}" fill="white"/>',
        f'<text x="{_WIDTH / 2:.1f}" y="25" text-anchor="middle" '
        f'font-family="sans-serif" font-size="16">{title}</text>',
        # axes
        f'<line x1="{_MARGIN_L}" y1="{_MARGIN_T}" x2="{_MARGIN_L}" '
        f'y2="{_MARGIN_T + plot_h}" stroke="black"/>',
        f'<line x1="{_MARGIN_L}" y1="{_MARGIN_T + plot_h}" '
        f'x2="{_MARGIN_L + plot_w}" y2="{_MARGIN_T + plot_h}" stroke="black"/>',
        f'<text x="{_MARGIN_L + plot_w / 2:.1f}" y="{_HEIGHT - 15}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="13">{x_label}</text>',
        f'<text x="18" y="{_MARGIN_T + plot_h / 2:.1f}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="13" '
        f'transform="rotate(-90 18 {_MARGIN_T + plot_h / 2:.1f})">{y_label}</text>',
    ]
    for tick in _ticks(x_lo, x_hi):
        x = px(tick)
        parts.append(
            f'<line x1="{x:.1f}" y1="{_MARGIN_T + plot_h}" x2="{x:.1f}" '
            f'y2="{_MARGIN_T + plot_h + 5}" stroke="black"/>'
        )
        parts.append(
            f'<text x="{x:.1f}" y="{_MARGIN_T + plot_h + 20}" text-anchor="middle" '
            f'font-family="sans-serif" font-size="11">{_fmt(tick)}</text>'
        )
    for tick in _ticks(y_lo, y_hi):
        y = py(tick)
        parts.append(
            f'<line x1="{_MARGIN_L - 5}" y1="{y:.1f}" x2="{_MARGIN_L}" '
            f'y2="{y:.1f}" stroke="black"/>'
        )
        parts.append(
            f'<text x="{_MARGIN_L - 9}" y="{y + 4:.1f}" text-anchor="end" '
            f'font-family="sans-serif" font-size="11">{_fmt(tick)}</text>'
        )
    if reference_y is not None:
        y = py(reference_y)
        parts.append(
            f'<line x1="{_MARGIN_L}" y1="{y:.1f}" x2="{_MARGIN_L + plot_w}" y2="{y:.1f}" '
            f'stroke="#888888" stroke-dasharray="6,4"/>'
        )
        parts.append(
            f'<text x="{_MARGIN_L + plot_w - 4}" y="{y - 5:.1f}" text-anchor="end" '
            f'font-family="sans-serif" font-size="11" fill="#888888">true M = {_fmt(reference_y)}</text>'
        )
    for i, s in enumerate(series):
        color = _COLORS[i % len(_COLORS)]
        pts = sorted(s.points)
        if len(pts) > 1:
            path = " ".join(f"{px(x):.1f},{py(y):.1f}" for x, y in pts)
            parts.append(f'<polyline points="{path}" fill="none" stroke="{color}" stroke-width="1.5"/>')
        for x, y in pts:
            parts.append(f'<circle cx="{px(x):.1f}" cy="{py(y):.1f}" r="3" fill="{color}"/>')
        parts.append(
            f'<text x="{_MARGIN_L + plot_w - 4}" y="{_MARGIN_T + 16 + 16 * i}" text-anchor="end" '
            f'font-family="sans-serif" font-size="12" fill="{color}">{s.name}</text>'
        )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
