"""Minimal self-contained SVG plots (fixed 800x600 viewport, no external
assets): line plots for fidelity trajectories and bar charts for eigenspace
histograms."""
from __future__ import annotations

import math

WIDTH, HEIGHT = 800, 600
MARGIN_L, MARGIN_R, MARGIN_T, MARGIN_B = 80, 30, 50, 70
PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b")
TICKS = 6


def escape(text: str) -> str:
    """XML character data: & then > then <, as xml.sax.saxutils.escape does
    by default (that module imports urllib and email on every start)."""
    return text.replace("&", "&amp;").replace(">", "&gt;").replace("<", "&lt;")


def _ticks(lo: float, hi: float):
    if hi <= lo:
        hi = lo + 1.0
    span = hi - lo
    step = 10 ** math.floor(math.log10(span / (TICKS - 1)))
    for mult in (1, 2, 5, 10):
        if span / (step * mult) <= TICKS:
            step *= mult
            break
    first = math.ceil(lo / step) * step
    out = []
    t = first
    while t <= hi + 1e-12 * span:
        out.append(round(t, 12))
        t += step
    return out


class _Canvas:
    def __init__(self, title, xlabel, ylabel, xlim, ylim):
        self.parts = [
            f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" height="{HEIGHT}" '
            f'viewBox="0 0 {WIDTH} {HEIGHT}">',
            f'<rect width="{WIDTH}" height="{HEIGHT}" fill="white"/>',
            f'<text x="{WIDTH / 2}" y="28" text-anchor="middle" font-size="18" '
            f'font-family="sans-serif">{escape(title)}</text>',
        ]
        self.x0, self.x1 = xlim
        self.y0, self.y1 = ylim
        if self.x1 <= self.x0:
            self.x1 = self.x0 + 1.0
        if self.y1 <= self.y0:
            self.y1 = self.y0 + 1.0
        self._frame(xlabel, ylabel)

    def px(self, x):
        frac = (x - self.x0) / (self.x1 - self.x0)
        return MARGIN_L + frac * (WIDTH - MARGIN_L - MARGIN_R)

    def py(self, y):
        frac = (y - self.y0) / (self.y1 - self.y0)
        return HEIGHT - MARGIN_B - frac * (HEIGHT - MARGIN_T - MARGIN_B)

    def _frame(self, xlabel, ylabel):
        left, right = MARGIN_L, WIDTH - MARGIN_R
        top, bottom = MARGIN_T, HEIGHT - MARGIN_B
        self.parts.append(
            f'<rect x="{left}" y="{top}" width="{right - left}" height="{bottom - top}" '
            'fill="none" stroke="black"/>'
        )
        for t in _ticks(self.x0, self.x1):
            x = self.px(t)
            self.parts.append(f'<line x1="{x:.1f}" y1="{bottom}" x2="{x:.1f}" y2="{bottom + 5}" stroke="black"/>')
            self.parts.append(
                f'<text x="{x:.1f}" y="{bottom + 20}" text-anchor="middle" font-size="12" '
                f'font-family="sans-serif">{t:g}</text>'
            )
        for t in _ticks(self.y0, self.y1):
            y = self.py(t)
            self.parts.append(f'<line x1="{left - 5}" y1="{y:.1f}" x2="{left}" y2="{y:.1f}" stroke="black"/>')
            self.parts.append(
                f'<text x="{left - 8}" y="{y + 4:.1f}" text-anchor="end" font-size="12" '
                f'font-family="sans-serif">{t:g}</text>'
            )
        self.parts.append(
            f'<text x="{(left + right) / 2}" y="{HEIGHT - 18}" text-anchor="middle" '
            f'font-size="14" font-family="sans-serif">{escape(xlabel)}</text>'
        )
        self.parts.append(
            f'<text x="20" y="{(top + bottom) / 2}" text-anchor="middle" font-size="14" '
            f'font-family="sans-serif" transform="rotate(-90 20 {(top + bottom) / 2})">'
            f'{escape(ylabel)}</text>'
        )

    def finish(self) -> str:
        return "\n".join(self.parts + ["</svg>"]) + "\n"


def line_plot(series, title="", xlabel="", ylabel="") -> str:
    """series: list of (label, xs, ys)."""
    xs_all = [x for _, xs, _ in series for x in xs]
    ys_all = [y for _, _, ys in series for y in ys]
    if not xs_all:
        xs_all, ys_all = [0.0, 1.0], [0.0, 1.0]
    pad = 0.05 * (max(ys_all) - min(ys_all) or 1.0)
    canvas = _Canvas(title, xlabel, ylabel,
                     (min(xs_all), max(xs_all)),
                     (min(min(ys_all) - pad, 0.0), max(ys_all) + pad))
    for i, (label, xs, ys) in enumerate(series):
        color = PALETTE[i % len(PALETTE)]
        points = " ".join(f"{canvas.px(x):.2f},{canvas.py(y):.2f}" for x, y in zip(xs, ys))
        canvas.parts.append(
            f'<polyline points="{points}" fill="none" stroke="{color}" stroke-width="1.5"/>'
        )
        if label:
            y_leg = MARGIN_T + 18 + 16 * i
            canvas.parts.append(
                f'<line x1="{WIDTH - 180}" y1="{y_leg - 4}" x2="{WIDTH - 150}" y2="{y_leg - 4}" '
                f'stroke="{color}" stroke-width="2"/>'
            )
            canvas.parts.append(
                f'<text x="{WIDTH - 144}" y="{y_leg}" font-size="12" '
                f'font-family="sans-serif">{escape(str(label))}</text>'
            )
    return canvas.finish()


def bar_chart(xs, heights, title="", xlabel="", ylabel="") -> str:
    """Vertical bars centered on xs (e.g. eigenspace energies vs weights)."""
    xs = list(xs)
    heights = list(heights)
    if not xs:
        xs, heights = [0.0], [0.0]
    span = (max(xs) - min(xs)) or 1.0
    width = 0.8 * span / max(len(xs), 1)
    canvas = _Canvas(title, xlabel, ylabel,
                     (min(xs) - width, max(xs) + width),
                     (0.0, max(max(heights), 1e-9) * 1.05))
    y_base = canvas.py(0.0)
    for x, h in zip(xs, heights):
        x_left = canvas.px(x - width / 2)
        x_right = canvas.px(x + width / 2)
        y_top = canvas.py(h)
        canvas.parts.append(
            f'<rect x="{x_left:.2f}" y="{y_top:.2f}" width="{x_right - x_left:.2f}" '
            f'height="{max(y_base - y_top, 0):.2f}" fill="{PALETTE[0]}" stroke="black" '
            'stroke-width="0.5"/>'
        )
    return canvas.finish()
