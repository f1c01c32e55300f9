"""Minimal deterministic SVG rendering of 2D colored configurations.

Fixed 800x800 canvas, no external assets.  Colors are assigned to class
labels in sorted label order from a fixed palette, points are drawn as
filled circles, classes with two points as a segment and classes with
three or more as a translucent hull polygon, plus a text legend.  All
coordinates are formatted with three decimals so identical inputs give
identical bytes.
"""

from __future__ import annotations

from .geometry import _hull_2d
from .nerve import ColoredConfig

CANVAS = 800
_PALETTE = [
    "#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b",
    "#e377c2", "#17becf", "#bcbd22", "#7f7f7f",
]


def _fmt(x: float) -> str:
    return f"{x:.3f}"


def svg_for_config(config: ColoredConfig) -> str:
    if config.dimension != 2:
        raise ValueError("SVG rendering is 2D only")
    xs = [float(p[0]) for p in config.points]
    ys = [float(p[1]) for p in config.points]
    span = max(max(xs) - min(xs), max(ys) - min(ys), 1e-9)
    pad = 0.1 * span
    scale = (CANVAS - 2 * 40) / (span + 2 * pad)
    x0, y0 = min(xs) - pad, min(ys) - pad

    def to_canvas(p) -> tuple[float, float]:
        # flip y so the positive axis points up
        return 40 + (float(p[0]) - x0) * scale, CANVAS - 40 - (float(p[1]) - y0) * scale

    labels = config.color_labels
    fill = {c: _PALETTE[i % len(_PALETTE)] for i, c in enumerate(labels)}
    classes = config.classes()

    parts = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{CANVAS}" height="{CANVAS}" '
        f'viewBox="0 0 {CANVAS} {CANVAS}">',
        f'<rect width="{CANVAS}" height="{CANVAS}" fill="#ffffff"/>',
    ]
    for c in labels:
        pts = classes[c]
        if len(pts) >= 3:
            hull = _hull_2d(pts)
            coords = " ".join(
                f"{_fmt(u)},{_fmt(v)}" for u, v in (to_canvas(p) for p in hull)
            )
            parts.append(
                f'<polygon points="{coords}" fill="{fill[c]}" fill-opacity="0.25" '
                f'stroke="{fill[c]}" stroke-width="1.5"/>'
            )
        elif len(pts) == 2:
            (ax, ay), (bx, by) = to_canvas(pts[0]), to_canvas(pts[1])
            parts.append(
                f'<line x1="{_fmt(ax)}" y1="{_fmt(ay)}" x2="{_fmt(bx)}" y2="{_fmt(by)}" '
                f'stroke="{fill[c]}" stroke-width="2"/>'
            )
    for p, c in zip(config.points, config.colors):
        u, v = to_canvas(p)
        parts.append(
            f'<circle cx="{_fmt(u)}" cy="{_fmt(v)}" r="6" fill="{fill[c]}" '
            f'stroke="#000000" stroke-width="1"/>'
        )
    for i, c in enumerate(labels):
        y = 24 + 22 * i
        parts.append(
            f'<rect x="16" y="{y - 12}" width="14" height="14" fill="{fill[c]}"/>'
        )
        text = c.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")
        parts.append(
            f'<text x="36" y="{y}" font-family="monospace" font-size="14">{text}</text>'
        )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
