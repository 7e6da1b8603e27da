"""The sweep chart: a deterministic SVG line chart with a logarithmic y axis.

Draws ``bandquant sweep``'s mean sup error against the sample budget, one
series per scheme, without a plotting dependency; output depends only on
the points passed in, so repeated runs produce byte-identical files.
"""

from __future__ import annotations

import math

_WIDTH = 720
_HEIGHT = 480
_MARGIN_LEFT = 80
_MARGIN_RIGHT = 160
_MARGIN_TOP = 40
_MARGIN_BOTTOM = 60

_COLORS = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b")

_TITLE = "Reconstruction error vs sample budget"
_X_LABEL = "samples m"
_Y_LABEL = "mean sup error"


def _fmt(v):
    """Fixed two-decimal pixel coordinates keep the output compact and stable."""
    return f"{v:.2f}"


def _log_ticks(lo, hi):
    """Powers of ten covering [lo, hi]."""
    lo_exp = math.floor(math.log10(lo))
    hi_exp = math.ceil(math.log10(hi))
    return [10.0**e for e in range(lo_exp, hi_exp + 1)]


def write_log_chart(path, points):
    """Write the log-y line chart of a non-empty list of (name, x, y)
    points with y > 0.  The points of one name, in list order, make one
    polyline plus legend entry; the series keep the order of their names'
    first points."""
    series = {}
    for name, x, y in points:
        series.setdefault(name, []).append((float(x), float(y)))
    xs = [float(x) for _, x, _ in points]
    ys = [float(y) for _, _, y in points]
    x_min, x_max, y_min, y_max = min(xs), max(xs), min(ys), max(ys)
    if x_max == x_min:
        x_min, x_max = x_min - 0.5, x_max + 0.5
    y_ticks = _log_ticks(y_min, y_max)
    ly_min, ly_max = math.log10(y_ticks[0]), math.log10(y_ticks[-1])
    if ly_max == ly_min:
        ly_max = ly_min + 1.0

    plot_w = _WIDTH - _MARGIN_LEFT - _MARGIN_RIGHT
    plot_h = _HEIGHT - _MARGIN_TOP - _MARGIN_BOTTOM

    def px(x):
        return _MARGIN_LEFT + (x - x_min) / (x_max - x_min) * plot_w

    def py(y):
        return _MARGIN_TOP + (ly_max - math.log10(y)) / (ly_max - ly_min) * plot_h

    out = []
    out.append(
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_WIDTH}" '
        f'height="{_HEIGHT}" viewBox="0 0 {_WIDTH} {_HEIGHT}">'
    )
    out.append(f'<rect width="{_WIDTH}" height="{_HEIGHT}" fill="white"/>')
    out.append(
        f'<text x="{_WIDTH // 2}" y="24" text-anchor="middle" '
        f'font-family="sans-serif" font-size="16">{_TITLE}</text>'
    )
    # Axes box.
    out.append(
        f'<rect x="{_MARGIN_LEFT}" y="{_MARGIN_TOP}" width="{plot_w}" '
        f'height="{plot_h}" fill="none" stroke="black"/>'
    )
    # Horizontal grid lines and y tick labels at powers of ten.
    for tick in y_ticks:
        y = py(tick)
        out.append(
            f'<line x1="{_MARGIN_LEFT}" y1="{_fmt(y)}" '
            f'x2="{_MARGIN_LEFT + plot_w}" y2="{_fmt(y)}" '
            f'stroke="#cccccc" stroke-dasharray="3,3"/>'
        )
        exp = round(math.log10(tick))
        out.append(
            f'<text x="{_MARGIN_LEFT - 8}" y="{_fmt(y + 4)}" text-anchor="end" '
            f'font-family="sans-serif" font-size="11">1e{exp}</text>'
        )
    # X ticks at the union of all series x values.
    x_ticks = sorted(set(xs))
    for tick in x_ticks:
        x = px(tick)
        out.append(
            f'<line x1="{_fmt(x)}" y1="{_MARGIN_TOP + plot_h}" '
            f'x2="{_fmt(x)}" y2="{_MARGIN_TOP + plot_h + 5}" stroke="black"/>'
        )
        label = f"{tick:g}"
        out.append(
            f'<text x="{_fmt(x)}" y="{_MARGIN_TOP + plot_h + 20}" '
            f'text-anchor="middle" font-family="sans-serif" '
            f'font-size="11">{label}</text>'
        )
    out.append(
        f'<text x="{_MARGIN_LEFT + plot_w / 2:.2f}" y="{_HEIGHT - 16}" '
        f'text-anchor="middle" font-family="sans-serif" '
        f'font-size="13">{_X_LABEL}</text>'
    )
    out.append(
        f'<text x="20" y="{_MARGIN_TOP + plot_h / 2:.2f}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="13" '
        f'transform="rotate(-90 20 {_MARGIN_TOP + plot_h / 2:.2f})">{_Y_LABEL}</text>'
    )
    # Series polylines, markers and legend.
    for idx, (name, xy) in enumerate(series.items()):
        color = _COLORS[idx % len(_COLORS)]
        pts = " ".join(f"{_fmt(px(x))},{_fmt(py(y))}" for x, y in xy)
        out.append(
            f'<polyline points="{pts}" fill="none" stroke="{color}" '
            f'stroke-width="1.5"/>'
        )
        for x, y in xy:
            out.append(
                f'<circle cx="{_fmt(px(x))}" cy="{_fmt(py(y))}" r="3" '
                f'fill="{color}"/>'
            )
        ly = _MARGIN_TOP + 16 + 18 * idx
        lx = _MARGIN_LEFT + plot_w + 12
        out.append(
            f'<line x1="{lx}" y1="{ly - 4}" x2="{lx + 22}" y2="{ly - 4}" '
            f'stroke="{color}" stroke-width="1.5"/>'
        )
        out.append(
            f'<text x="{lx + 28}" y="{ly}" font-family="sans-serif" '
            f'font-size="12">{name}</text>'
        )
    out.append("</svg>")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(out) + "\n")
