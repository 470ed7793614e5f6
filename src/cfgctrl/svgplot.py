"""Minimal self-contained SVG line/scatter charts.

No external tooling: charts are plain polylines, circles, axis ticks and
text in a single <svg> element with no external references. Output strings
are fully deterministic for fixed input.
"""

from __future__ import annotations

import numpy as np

WIDTH = 640
HEIGHT = 440
MARGIN_LEFT = 70
MARGIN_RIGHT = 20
MARGIN_TOP = 40
MARGIN_BOTTOM = 50
PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b", "#17becf", "#7f7f7f")


def escape(text: str) -> str:
    """Text as SVG character data: ``&``, ``<`` and ``>`` as entities, ``&`` first."""
    return text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


def _bounds(values) -> tuple[float, float]:
    lo = min(values)
    hi = max(values)
    if lo == hi:
        pad = abs(lo) * 0.1 or 1.0  # 0 or a tenth that underflows: a unit pad
        return lo - pad, hi + pad
    pad = (hi - lo) * 0.05
    return lo - pad, hi + pad


class _Frame:
    def __init__(self, xs, ys, title, xlabel, ylabel):
        self.x_lo, self.x_hi = _bounds(xs)
        self.y_lo, self.y_hi = _bounds(ys)
        self.parts = [
            f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" height="{HEIGHT}" '
            f'viewBox="0 0 {WIDTH} {HEIGHT}">',
            f'<rect x="0" y="0" width="{WIDTH}" height="{HEIGHT}" fill="white"/>',
            f'<text x="{WIDTH / 2:.1f}" y="22" text-anchor="middle" font-size="15" '
            f'font-family="sans-serif">{escape(title)}</text>',
        ]
        self._axes(xlabel, ylabel)

    def x_px(self, x: float) -> float:
        span = self.x_hi - self.x_lo
        return MARGIN_LEFT + (x - self.x_lo) / span * (WIDTH - MARGIN_LEFT - MARGIN_RIGHT)

    def y_px(self, y: float) -> float:
        span = self.y_hi - self.y_lo
        return HEIGHT - MARGIN_BOTTOM - (y - self.y_lo) / span * (HEIGHT - MARGIN_TOP - MARGIN_BOTTOM)

    def _axes(self, xlabel: str, ylabel: str) -> None:
        x0, x1 = MARGIN_LEFT, WIDTH - MARGIN_RIGHT
        y0, y1 = HEIGHT - MARGIN_BOTTOM, MARGIN_TOP
        self.parts.append(f'<line x1="{x0}" y1="{y0}" x2="{x1}" y2="{y0}" stroke="black"/>')
        self.parts.append(f'<line x1="{x0}" y1="{y0}" x2="{x0}" y2="{y1}" stroke="black"/>')
        for i in range(5):
            fx = self.x_lo + (self.x_hi - self.x_lo) * i / 4
            px = self.x_px(fx)
            self.parts.append(f'<line x1="{px:.1f}" y1="{y0}" x2="{px:.1f}" y2="{y0 + 5}" stroke="black"/>')
            self.parts.append(
                f'<text x="{px:.1f}" y="{y0 + 18}" text-anchor="middle" font-size="10" '
                f'font-family="sans-serif">{fx:.4g}</text>'
            )
            fy = self.y_lo + (self.y_hi - self.y_lo) * i / 4
            py = self.y_px(fy)
            self.parts.append(f'<line x1="{x0 - 5}" y1="{py:.1f}" x2="{x0}" y2="{py:.1f}" stroke="black"/>')
            self.parts.append(
                f'<text x="{x0 - 8}" y="{py + 3:.1f}" text-anchor="end" font-size="10" '
                f'font-family="sans-serif">{fy:.4g}</text>'
            )
        self.parts.append(
            f'<text x="{(x0 + x1) / 2:.1f}" y="{HEIGHT - 12}" text-anchor="middle" font-size="12" '
            f'font-family="sans-serif">{escape(xlabel)}</text>'
        )
        self.parts.append(
            f'<text x="16" y="{(y0 + y1) / 2:.1f}" text-anchor="middle" font-size="12" '
            f'font-family="sans-serif" transform="rotate(-90 16 {(y0 + y1) / 2:.1f})">{escape(ylabel)}</text>'
        )

    def _pixels(self, xs, ys):
        # x_px and y_px on whole arrays: the same elementwise operations, so every coordinate keeps its bits
        px = self.x_px(np.asarray(xs, dtype=float)).tolist()
        py = self.y_px(np.asarray(ys, dtype=float)).tolist()
        return zip(px, py)

    def polyline(self, xs, ys, color: str) -> None:
        pts = " ".join(["%.2f,%.2f" % point for point in self._pixels(xs, ys)])
        self.parts.append(f'<polyline points="{pts}" fill="none" stroke="{color}" stroke-width="1.5"/>')

    def scatter(self, xs, ys, color: str) -> None:
        circle = f'<circle cx="%.2f" cy="%.2f" r="2.5" fill="{color}" fill-opacity="0.6"/>'
        self.parts += [circle % point for point in self._pixels(xs, ys)]

    def legend(self, labels_colors) -> None:
        for i, (label, color) in enumerate(labels_colors):
            y = MARGIN_TOP + 14 + 16 * i
            self.parts.append(f'<rect x="{WIDTH - 170}" y="{y - 9}" width="10" height="10" fill="{color}"/>')
            self.parts.append(
                f'<text x="{WIDTH - 155}" y="{y}" font-size="11" font-family="sans-serif">{escape(label)}</text>'
            )

    def render(self) -> str:
        return "\n".join(self.parts + ["</svg>"]) + "\n"


def line_chart(series: list[tuple[str, list, list]], title: str, xlabel: str, ylabel: str) -> str:
    """Overlayed line series; each entry is (label, xs, ys)."""
    all_x = [x for _, xs, _ in series for x in xs]
    all_y = [y for _, _, ys in series for y in ys]
    frame = _Frame(all_x, all_y, title, xlabel, ylabel)
    for i, (_, xs, ys) in enumerate(series):
        frame.polyline(xs, ys, PALETTE[i % len(PALETTE)])
    if len(series) > 1 or series[0][0]:
        frame.legend([(label, PALETTE[i % len(PALETTE)]) for i, (label, _, _) in enumerate(series)])
    return frame.render()


def scatter_chart(
    points: list[tuple[str, list, list]],
    title: str,
    xlabel: str,
    ylabel: str,
    ref_line: tuple[str, float] | None = None,
) -> str:
    """Scatter sets with an optional (label, slope) reference line through the origin."""
    all_x = [x for _, xs, _ in points for x in xs]
    all_y = [y for _, _, ys in points for y in ys]
    if ref_line is not None:
        hi = max(all_x + [0.0])
        all_y = all_y + [0.0, ref_line[1] * hi]
        all_x = all_x + [0.0, hi]
    frame = _Frame(all_x, all_y, title, xlabel, ylabel)
    for i, (_, xs, ys) in enumerate(points):
        frame.scatter(xs, ys, PALETTE[i % len(PALETTE)])
    labels = [(label, PALETTE[i % len(PALETTE)]) for i, (label, _, _) in enumerate(points)]
    if ref_line is not None:
        label, slope = ref_line
        frame.polyline([0.0, hi], [0.0, slope * hi], "#555555")
        labels.append((label, "#555555"))
    frame.legend(labels)
    return frame.render()
