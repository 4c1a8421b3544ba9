"""Minimal self-contained SVG line plots.

Nothing here tries to be a plotting library: one curve per file, fixed
layout, no text wrapping.  The payoff is that output is deterministic and
the geometry (polyline vertices, zero line, marker shapes) can be asserted
in tests without an image decoder.
"""

from __future__ import annotations

from html import escape

import numpy as np

WIDTH = 640
HEIGHT = 420
MARGIN_LEFT = 70
MARGIN_RIGHT = 20
MARGIN_TOP = 40
MARGIN_BOTTOM = 50


class EmptyPlotError(ValueError):
    """No finite data points were given."""


def _axis_range(values: np.ndarray) -> tuple[float, float]:
    lo = float(values.min())
    hi = float(values.max())
    if lo == hi:
        pad = 1.0 if lo == 0.0 else abs(lo) * 0.1
        return lo - pad, hi + pad
    pad = (hi - lo) * 0.05
    return lo - pad, hi + pad


def _fmt(v: float) -> str:
    return f"{v:.6g}"


def line_plot(
    xs,
    ys,
    *,
    title: str = "",
    xlabel: str = "",
    ylabel: str = "",
    flagged=None,
    draw_line: bool = True,
) -> str:
    """Render one curve to an SVG string.

    flagged marks points to draw as open circles instead of filled dots
    (used for unconverged results).  Non-finite points are dropped from
    the polyline but still flagged-checked, so a NaN cannot silently
    produce a misleading straight segment.
    """
    xs = np.asarray(xs, dtype=float).ravel()
    ys = np.asarray(ys, dtype=float).ravel()
    if xs.size != ys.size:
        raise ValueError(f"mismatched lengths: {xs.size} vs {ys.size}")
    if flagged is None:
        flagged = np.zeros(xs.size, dtype=bool)
    else:
        flagged = np.asarray(flagged, dtype=bool).ravel()
        if flagged.size != xs.size:
            raise ValueError("flagged mask length must match the data")
    keep = np.isfinite(xs) & np.isfinite(ys)
    if not keep.any():
        raise EmptyPlotError("no finite data points to plot")
    xs, ys, flagged = xs[keep], ys[keep], flagged[keep]

    x_lo, x_hi = _axis_range(xs)
    y_lo, y_hi = _axis_range(ys)
    plot_w = WIDTH - MARGIN_LEFT - MARGIN_RIGHT
    plot_h = HEIGHT - MARGIN_TOP - MARGIN_BOTTOM

    def px(x: float) -> float:
        return MARGIN_LEFT + (x - x_lo) / (x_hi - x_lo) * plot_w

    def py(y: float) -> float:
        return MARGIN_TOP + (y_hi - y) / (y_hi - y_lo) * plot_h

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" height="{HEIGHT}" '
        f'viewBox="0 0 {WIDTH} {HEIGHT}">',
        f'<rect width="{WIDTH}" height="{HEIGHT}" fill="white"/>',
        f'<rect x="{MARGIN_LEFT}" y="{MARGIN_TOP}" width="{plot_w}" height="{plot_h}" '
        'fill="none" stroke="#333" stroke-width="1"/>',
    ]
    if title:
        parts.append(
            f'<text x="{WIDTH / 2:.1f}" y="24" text-anchor="middle" '
            f'font-family="sans-serif" font-size="15">{escape(title, quote=False)}</text>'
        )
    for tick in np.linspace(x_lo, x_hi, 6):
        tx = px(float(tick))
        parts.append(
            f'<line x1="{tx:.2f}" y1="{HEIGHT - MARGIN_BOTTOM}" x2="{tx:.2f}" '
            f'y2="{HEIGHT - MARGIN_BOTTOM + 5}" stroke="#333"/>'
        )
        parts.append(
            f'<text x="{tx:.2f}" y="{HEIGHT - MARGIN_BOTTOM + 18}" text-anchor="middle" '
            f'font-family="sans-serif" font-size="11">{_fmt(float(tick))}</text>'
        )
    for tick in np.linspace(y_lo, y_hi, 6):
        ty = py(float(tick))
        parts.append(
            f'<line x1="{MARGIN_LEFT - 5}" y1="{ty:.2f}" x2="{MARGIN_LEFT}" '
            f'y2="{ty:.2f}" stroke="#333"/>'
        )
        parts.append(
            f'<text x="{MARGIN_LEFT - 8}" y="{ty + 4:.2f}" text-anchor="end" '
            f'font-family="sans-serif" font-size="11">{_fmt(float(tick))}</text>'
        )
    if xlabel:
        parts.append(
            f'<text x="{MARGIN_LEFT + plot_w / 2:.1f}" y="{HEIGHT - 12}" '
            f'text-anchor="middle" font-family="sans-serif" font-size="13">'
            f"{escape(xlabel, quote=False)}</text>"
        )
    if ylabel:
        cy = MARGIN_TOP + plot_h / 2
        parts.append(
            f'<text x="18" y="{cy:.1f}" text-anchor="middle" '
            f'font-family="sans-serif" font-size="13" '
            f'transform="rotate(-90 18 {cy:.1f})">{escape(ylabel, quote=False)}</text>'
        )
    if y_lo < 0.0 < y_hi:
        zy = py(0.0)
        parts.append(
            f'<line class="zero-line" x1="{MARGIN_LEFT}" y1="{zy:.2f}" '
            f'x2="{WIDTH - MARGIN_RIGHT}" y2="{zy:.2f}" stroke="#999" '
            'stroke-dasharray="4 3"/>'
        )
    if draw_line and xs.size > 1:
        vertices = " ".join(f"{px(x):.2f},{py(y):.2f}" for x, y in zip(xs, ys))
        parts.append(
            f'<polyline points="{vertices}" fill="none" stroke="#1f5fa8" '
            'stroke-width="1.5"/>'
        )
    for x, y, bad in zip(xs, ys, flagged):
        cx, cy = px(float(x)), py(float(y))
        if bad:
            parts.append(
                f'<circle class="unconverged" cx="{cx:.2f}" cy="{cy:.2f}" r="4" '
                'fill="white" stroke="#c0392b" stroke-width="1.5"/>'
            )
        else:
            parts.append(
                f'<circle cx="{cx:.2f}" cy="{cy:.2f}" r="2.5" fill="#1f5fa8"/>'
            )
    parts.append("</svg>")
    return "\n".join(parts)
