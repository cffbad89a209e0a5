"""Static SVG diagnostics: curve panels and MO/VO scatter plots.

Output is standalone SVG 1.1 with fixed layout and fixed number
formatting, so identical inputs render byte-identical files. Curves are
one polyline each (axes use line elements), inliers muted, flagged curves
highlighted and drawn last.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from .csvio import atomic_write_text
from .errors import InconsistentReport
from .fdcore import AnySample, CurveSample, as_univariate
from .report import DetectionReport

__all__ = ["render_curves", "render_msplot", "emit_plot"]

WIDTH, HEIGHT = 800.0, 500.0
MARGIN_LEFT, MARGIN_RIGHT, MARGIN_TOP, MARGIN_BOTTOM = 72.0, 24.0, 24.0, 56.0
INLIER_STROKE = "#8fa7bf"
OUTLIER_STROKE = "#d62728"
AXIS_STROKE = "#333333"
N_TICKS = 5

_HEADER = (
    '<?xml version="1.0" encoding="UTF-8"?>\n'
    f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
    f'width="{WIDTH:.0f}" height="{HEIGHT:.0f}" '
    f'viewBox="0 0 {WIDTH:.0f} {HEIGHT:.0f}">\n'
)


def _span(values: np.ndarray) -> tuple[float, float]:
    lo = float(np.min(values))
    hi = float(np.max(values))
    if hi == lo:
        lo, hi = lo - 1.0, hi + 1.0
    pad = 0.05 * (hi - lo)
    return lo - pad, hi + pad


class _Frame:
    """Maps data coordinates onto the fixed plot rectangle."""

    def __init__(self, x_span, y_span):
        self.x0, self.x1 = x_span
        self.y0, self.y1 = y_span
        self.px0 = MARGIN_LEFT
        self.px1 = WIDTH - MARGIN_RIGHT
        self.py0 = HEIGHT - MARGIN_BOTTOM
        self.py1 = MARGIN_TOP

    def x(self, v: float) -> float:
        return self.px0 + (v - self.x0) / (self.x1 - self.x0) * (self.px1 - self.px0)

    def y(self, v: float) -> float:
        return self.py0 + (v - self.y0) / (self.y1 - self.y0) * (self.py1 - self.py0)


def _axes(frame: _Frame, x_label: str, y_label: str) -> list:
    parts = [
        f'<line x1="{frame.px0:.2f}" y1="{frame.py0:.2f}" x2="{frame.px1:.2f}" '
        f'y2="{frame.py0:.2f}" stroke="{AXIS_STROKE}" stroke-width="1"/>',
        f'<line x1="{frame.px0:.2f}" y1="{frame.py0:.2f}" x2="{frame.px0:.2f}" '
        f'y2="{frame.py1:.2f}" stroke="{AXIS_STROKE}" stroke-width="1"/>',
    ]
    for value in np.linspace(frame.x0, frame.x1, N_TICKS):
        px = frame.x(float(value))
        parts.append(
            f'<line x1="{px:.2f}" y1="{frame.py0:.2f}" x2="{px:.2f}" '
            f'y2="{frame.py0 + 5:.2f}" stroke="{AXIS_STROKE}" stroke-width="1"/>'
        )
        parts.append(
            f'<text x="{px:.2f}" y="{frame.py0 + 18:.2f}" font-size="11" '
            f'text-anchor="middle" fill="{AXIS_STROKE}">{float(value):.4g}</text>'
        )
    for value in np.linspace(frame.y0, frame.y1, N_TICKS):
        py = frame.y(float(value))
        parts.append(
            f'<line x1="{frame.px0 - 5:.2f}" y1="{py:.2f}" x2="{frame.px0:.2f}" '
            f'y2="{py:.2f}" stroke="{AXIS_STROKE}" stroke-width="1"/>'
        )
        parts.append(
            f'<text x="{frame.px0 - 8:.2f}" y="{py + 4:.2f}" font-size="11" '
            f'text-anchor="end" fill="{AXIS_STROKE}">{float(value):.4g}</text>'
        )
    mid_x = (frame.px0 + frame.px1) / 2.0
    mid_y = (frame.py0 + frame.py1) / 2.0
    parts.append(
        f'<text x="{mid_x:.2f}" y="{HEIGHT - 14:.2f}" font-size="13" '
        f'text-anchor="middle" fill="{AXIS_STROKE}">{x_label}</text>'
    )
    parts.append(
        f'<text x="{18:.2f}" y="{mid_y:.2f}" font-size="13" text-anchor="middle" '
        f'fill="{AXIS_STROKE}" transform="rotate(-90 18 {mid_y:.2f})">{y_label}</text>'
    )
    return parts


def render_curves(sample: CurveSample, outliers: Sequence[int] = ()) -> str:
    """All curves as polylines, flagged rows highlighted and drawn on top."""
    values = sample.values
    t = sample.grid.points
    frame = _Frame(_span(t), _span(values))
    flagged = set(int(i) for i in outliers)
    parts = [_HEADER, f'<rect width="{WIDTH:.0f}" height="{HEIGHT:.0f}" fill="white"/>\n']
    parts.extend(line + "\n" for line in _axes(frame, "t", "value"))

    def polyline(row: int, stroke: str, width: float) -> str:
        pts = " ".join(
            f"{frame.x(float(t[j])):.2f},{frame.y(float(values[row, j])):.2f}"
            for j in range(t.size)
        )
        return (
            f'<polyline fill="none" stroke="{stroke}" stroke-width="{width:g}" '
            f'points="{pts}"/>\n'
        )

    for i in range(sample.n):
        if i not in flagged:
            parts.append(polyline(i, INLIER_STROKE, 1.0))
    for i in range(sample.n):
        if i in flagged:
            parts.append(polyline(i, OUTLIER_STROKE, 1.8))
    parts.append("</svg>\n")
    return "".join(parts)


def render_msplot(
    mo: np.ndarray, vo: np.ndarray, outliers: Sequence[int] = (), d: int = 1
) -> str:
    """Scatter of VO against MO (d = 1) or against ||MO|| otherwise."""
    mo = np.asarray(mo, dtype=float)
    if mo.ndim == 2:
        scalar_mo = mo[:, 0] if mo.shape[1] == 1 else np.sqrt((mo * mo).sum(axis=1))
    else:
        scalar_mo = mo
    vo = np.asarray(vo, dtype=float)
    x_label = "MO" if d == 1 else "||MO||"
    frame = _Frame(_span(scalar_mo), _span(vo))
    flagged = set(int(i) for i in outliers)
    parts = [_HEADER, f'<rect width="{WIDTH:.0f}" height="{HEIGHT:.0f}" fill="white"/>\n']
    parts.extend(line + "\n" for line in _axes(frame, x_label, "VO"))
    for i in range(scalar_mo.size):
        color = OUTLIER_STROKE if i in flagged else INLIER_STROKE
        parts.append(
            f'<circle cx="{frame.x(float(scalar_mo[i])):.2f}" '
            f'cy="{frame.y(float(vo[i])):.2f}" r="3.5" fill="{color}"/>\n'
        )
    parts.append("</svg>\n")
    return "".join(parts)


def emit_plot(
    report: DetectionReport,
    sample: Optional[AnySample],
    kind: str,
    path: str,
) -> str:
    """Render the plot named by ``kind`` for a report and write it to path."""
    if kind not in ("curves", "msplot"):
        raise InconsistentReport(f"unknown plot kind {kind!r}")
    flagged = [int(i) - 1 for i in report.outliers.get("all", [])]
    if kind == "curves":
        if sample is None:
            raise InconsistentReport("curve plots need the curve data")
        if sample.d != 1:
            raise InconsistentReport(
                "curve plots need univariate curves; plot each dimension separately"
            )
        sample = as_univariate(sample)
        if report.n and report.n != sample.n:
            raise InconsistentReport(
                f"report describes {report.n} curves, data has {sample.n}"
            )
        text = render_curves(sample, flagged)
    else:
        mo = report.diagnostics.get("mo")
        vo = report.diagnostics.get("vo")
        if mo is None or vo is None:
            raise InconsistentReport(
                "msplot plots need 'mo' and 'vo' diagnostics in the report"
            )
        if len(vo) != len(mo):
            raise InconsistentReport("mo and vo diagnostics disagree in length")
        text = render_msplot(
            np.asarray(mo, dtype=float),
            np.asarray(vo, dtype=float),
            flagged,
            d=max(int(report.d), 1),
        )
    atomic_write_text(path, text)
    return text
