"""Minimal self-contained SVG writer for BER-vs-G-SNR curves.

No plotting toolkit: the sweep's canonical artifact is the CSV, and the
figure is a plain vector file written directly so runs are reproducible
byte for byte.
"""

from __future__ import annotations

import math

_WIDTH, _HEIGHT = 720, 480
_MARGIN_L, _MARGIN_R, _MARGIN_T, _MARGIN_B = 70, 160, 30, 50

_PALETTE = ["#1f77b4", "#d62728", "#2ca02c", "#9467bd",
            "#ff7f0e", "#8c564b", "#17becf", "#7f7f7f"]


def _x_px(v, lo, hi):
    frac = (v - lo) / (hi - lo) if hi > lo else 0.5  # one G-SNR: mid-axis
    return _MARGIN_L + frac * (_WIDTH - _MARGIN_L - _MARGIN_R)


def _y_px(v, lo, hi):
    span = hi - lo if hi > lo else 1.0
    frac = (math.log10(v) - lo) / span
    return _HEIGHT - _MARGIN_B - frac * (_HEIGHT - _MARGIN_T - _MARGIN_B)


def write_ber_svg(path: str, curves: list[tuple[str, list[float], list[float]]]) -> None:
    """Write one log-y chart of BER vs G-SNR (dB); curves are (label, x
    values, positive y values)."""
    xs_all = [x for _, xs, _ in curves for x in xs]
    ys_all = [y for _, _, ys in curves for y in ys if y > 0.0]
    if not xs_all or not ys_all:
        raise ValueError("nothing to plot")
    x_lo, x_hi = min(xs_all), max(xs_all)
    y_lo_dec = math.floor(math.log10(min(ys_all)))
    y_hi_dec = math.ceil(math.log10(max(ys_all)))
    if y_hi_dec == y_lo_dec:
        y_hi_dec += 1

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_WIDTH}" '
        f'height="{_HEIGHT}" viewBox="0 0 {_WIDTH} {_HEIGHT}">',
        f'<rect width="{_WIDTH}" height="{_HEIGHT}" fill="white"/>',
        f'<text x="{(_MARGIN_L + _WIDTH - _MARGIN_R) / 2}" y="20" '
        'text-anchor="middle" font-family="sans-serif" font-size="15">BER vs G-SNR</text>',
    ]

    # horizontal decade gridlines + y tick labels
    for dec in range(y_lo_dec, y_hi_dec + 1):
        py = _y_px(10.0 ** dec, y_lo_dec, y_hi_dec)
        parts.append(f'<line x1="{_MARGIN_L}" y1="{py:.1f}" '
                     f'x2="{_WIDTH - _MARGIN_R}" y2="{py:.1f}" '
                     f'stroke="#dddddd" stroke-width="1"/>')
        parts.append(f'<text x="{_MARGIN_L - 8}" y="{py + 4:.1f}" text-anchor="end" '
                     f'font-family="sans-serif" font-size="11">1e{dec}</text>')

    # x ticks: ~8 round steps, or the one G-SNR itself
    step = max(round((x_hi - x_lo) / 8.0), 1)
    ticks = ([x_lo] if x_lo == x_hi else
             range(math.ceil(x_lo / step) * step, math.floor(x_hi) + 1, step))
    for tick in ticks:
        px = _x_px(tick, x_lo, x_hi)
        parts.append(f'<line x1="{px:.1f}" y1="{_HEIGHT - _MARGIN_B}" '
                     f'x2="{px:.1f}" y2="{_HEIGHT - _MARGIN_B + 5}" stroke="black"/>')
        parts.append(f'<text x="{px:.1f}" y="{_HEIGHT - _MARGIN_B + 18}" '
                     f'text-anchor="middle" font-family="sans-serif" '
                     f'font-size="11">{tick:g}</text>')

    # axes
    parts.append(f'<line x1="{_MARGIN_L}" y1="{_MARGIN_T}" x2="{_MARGIN_L}" '
                 f'y2="{_HEIGHT - _MARGIN_B}" stroke="black" stroke-width="1.5"/>')
    parts.append(f'<line x1="{_MARGIN_L}" y1="{_HEIGHT - _MARGIN_B}" '
                 f'x2="{_WIDTH - _MARGIN_R}" y2="{_HEIGHT - _MARGIN_B}" '
                 f'stroke="black" stroke-width="1.5"/>')
    parts.append(f'<text x="{(_MARGIN_L + _WIDTH - _MARGIN_R) / 2}" '
                 f'y="{_HEIGHT - 12}" text-anchor="middle" '
                 'font-family="sans-serif" font-size="13">G-SNR (dB)</text>')
    parts.append(f'<text x="18" y="{(_MARGIN_T + _HEIGHT - _MARGIN_B) / 2}" '
                 f'text-anchor="middle" font-family="sans-serif" font-size="13" '
                 f'transform="rotate(-90 18 {(_MARGIN_T + _HEIGHT - _MARGIN_B) / 2})"'
                 '>BER</text>')

    for i, (label, xs, ys) in enumerate(curves):
        color = _PALETTE[i % len(_PALETTE)]
        pts = [f"{_x_px(x, x_lo, x_hi):.2f},{_y_px(y, y_lo_dec, y_hi_dec):.2f}"
               for x, y in zip(xs, ys) if y > 0.0]
        style = 'stroke-width="1.8"'
        if len(pts) == 1:  # one vertex strokes nothing: doubled, its cap is a dot
            pts, style = pts * 2, 'stroke-width="6" stroke-linecap="round"'
        parts.append(f'<polyline points="{" ".join(pts)}" fill="none" '
                     f'stroke="{color}" {style}/>')
        ly = _MARGIN_T + 16 + 18 * i
        lx = _WIDTH - _MARGIN_R + 12
        parts.append(f'<line x1="{lx}" y1="{ly - 4}" x2="{lx + 22}" y2="{ly - 4}" '
                     f'stroke="{color}" stroke-width="1.8"/>')
        # the XML escapes by hand: importing html or xml would slow the CLI
        text = label.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")
        parts.append(f'<text x="{lx + 28}" y="{ly}" font-family="sans-serif" '
                     f'font-size="12">{text}</text>')

    parts.append("</svg>")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(parts) + "\n")
