"""Minimal dependency-free SVG line plots for batch summaries."""

import numpy as np

_COLORS = ["#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e",
           "#8c564b", "#e377c2", "#7f7f7f", "#bcbd22", "#17becf"]


_TICKS = 5  # per axis


def _ticks(lo, hi):
    step = (hi - lo) / (_TICKS - 1)
    return [lo + i * step for i in range(_TICKS)]


def line_plot(path, series, title="", xlabel="", ylabel=""):
    """Write a 720 x 440 SVG with one polyline per (label, xs, ys) in series."""
    width, height = 720, 440
    ml, mr, mt, mb = 60, 20, 36, 46
    pw, ph = width - ml - mr, height - mt - mb
    arrays = [(np.asarray(xs, dtype=float), np.asarray(ys, dtype=float))
              for _, xs, ys in series]
    xs_all = np.concatenate([xs for xs, _ in arrays] + [[]])
    ys_all = np.concatenate([ys[ys == ys] for _, ys in arrays] + [[]])  # drop NaN
    if not xs_all.size or not ys_all.size:
        xs_all, ys_all = np.array([0.0, 1.0]), np.array([0.0, 1.0])
    x0, x1 = float(xs_all.min()), float(xs_all.max())
    y0, y1 = float(ys_all.min()), float(ys_all.max())
    if x1 == x0:
        x1 = x0 + 1.0
    if y1 == y0:
        y1 = y0 + 1.0
    pad = 0.05 * (y1 - y0)
    y0, y1 = y0 - pad, y1 + pad

    # on floats or float arrays: elementwise numpy rounds each operation
    # as float arithmetic does, so both give the same bits
    def px(x):
        return ml + (x - x0) / (x1 - x0) * pw

    def py(y):
        return mt + (1.0 - (y - y0) / (y1 - y0)) * ph

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<text x="{width/2:.0f}" y="20" text-anchor="middle" '
        f'font-family="sans-serif" font-size="14">{title}</text>',
    ]
    for tx in _ticks(x0, x1):
        parts.append(f'<line x1="{px(tx):.1f}" y1="{mt+ph}" x2="{px(tx):.1f}" '
                     f'y2="{mt+ph+5}" stroke="black"/>')
        parts.append(f'<text x="{px(tx):.1f}" y="{mt+ph+18}" text-anchor="middle" '
                     f'font-family="sans-serif" font-size="10">{tx:.3g}</text>')
    for ty in _ticks(y0, y1):
        parts.append(f'<line x1="{ml-5}" y1="{py(ty):.1f}" x2="{ml}" '
                     f'y2="{py(ty):.1f}" stroke="black"/>')
        parts.append(f'<text x="{ml-8}" y="{py(ty)+3:.1f}" text-anchor="end" '
                     f'font-family="sans-serif" font-size="10">{ty:.4g}</text>')
    parts.append(f'<rect x="{ml}" y="{mt}" width="{pw}" height="{ph}" '
                 'fill="none" stroke="black"/>')
    parts.append(f'<text x="{width/2:.0f}" y="{height-8}" text-anchor="middle" '
                 f'font-family="sans-serif" font-size="12">{xlabel}</text>')
    parts.append(f'<text x="16" y="{height/2:.0f}" text-anchor="middle" '
                 f'font-family="sans-serif" font-size="12" '
                 f'transform="rotate(-90 16 {height/2:.0f})">{ylabel}</text>')
    for idx, ((label, _, _), (xs, ys)) in enumerate(zip(series, arrays)):
        color = _COLORS[idx % len(_COLORS)]
        keep = ys == ys  # drop NaN
        pts = " ".join(map("{:.1f},{:.1f}".format, px(xs[keep]).tolist(),
                           py(ys[keep]).tolist()))
        parts.append(f'<polyline points="{pts}" fill="none" stroke="{color}" '
                     'stroke-width="1.2"/>')
        if label:
            ly = mt + 14 + 14 * idx
            parts.append(f'<line x1="{ml+pw-130}" y1="{ly-4}" x2="{ml+pw-110}" '
                         f'y2="{ly-4}" stroke="{color}" stroke-width="2"/>')
            parts.append(f'<text x="{ml+pw-105}" y="{ly}" font-family="sans-serif" '
                         f'font-size="11">{label}</text>')
    parts.append("</svg>")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(parts) + "\n")
