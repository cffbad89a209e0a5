"""Static SVG diagnostics: curve panels and MO/VO scatter plots.

Output is standalone SVG 1.1 with fixed layout and fixed number
formatting, so identical inputs render byte-identical files. Curves are
one polyline each (axes use line elements), inliers muted, flagged curves
highlighted and drawn last.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterator, Optional, Sequence

import numpy as np

from .csvio import atomic_write_text
from .errors import InconsistentReport, NonFiniteResult
from .fdcore import AnySample, curve_values
from .report import DetectionReport

__all__ = ["render_curves", "render_msplot", "emit_plot", "PlotFile"]

WIDTH, HEIGHT = 800.0, 500.0
MARGIN_LEFT, MARGIN_RIGHT, MARGIN_TOP, MARGIN_BOTTOM = 72.0, 24.0, 24.0, 56.0
# pixel ends of the plot rectangle, from the low end of a data span to its
# high end: left to right, and bottom to top
X_PIXELS = (MARGIN_LEFT, WIDTH - MARGIN_RIGHT)
Y_PIXELS = (HEIGHT - MARGIN_BOTTOM, MARGIN_TOP)
INLIER_STROKE = "#8fa7bf"
OUTLIER_STROKE = "#d62728"
AXIS_STROKE = "#333333"
N_TICKS = 5

_HEADER = (
    '<?xml version="1.0" encoding="UTF-8"?>\n'
    f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
    f'width="{WIDTH:.0f}" height="{HEIGHT:.0f}" '
    f'viewBox="0 0 {WIDTH:.0f} {HEIGHT:.0f}">\n'
    f'<rect width="{WIDTH:.0f}" height="{HEIGHT:.0f}" fill="white"/>\n'
)


def _span(values: np.ndarray) -> tuple[float, float]:
    """The values' range padded by 5 % each side (by 1 when it is a point).
    A span without a finite, nonzero width has no pixel scale."""
    lo = float(np.min(values))
    hi = float(np.max(values))
    if hi == lo:
        lo, hi = lo - 1.0, hi + 1.0
    pad = 0.05 * (hi - lo)
    if not 0.0 < (hi + pad) - (lo - pad) < np.inf:
        raise NonFiniteResult(
            f"plotted values span [{lo!r}, {hi!r}], which has no finite pixel scale"
        )
    return lo - pad, hi + pad


def _to_pixels(values, span: tuple, pixels: tuple):
    """Map a float or an array from the data span onto the pixel ends."""
    (v0, v1), (p0, p1) = span, pixels
    return p0 + (values - v0) / (v1 - v0) * (p1 - p0)


def _line(x1: float, y1: float, x2: float, y2: float) -> str:
    return (f'<line x1="{x1:.2f}" y1="{y1:.2f}" x2="{x2:.2f}" y2="{y2:.2f}" '
            f'stroke="{AXIS_STROKE}" stroke-width="1"/>\n')


def _text(x: float, y: float, size: int, anchor: str, body: str, extra: str = "") -> str:
    return (f'<text x="{x:.2f}" y="{y:.2f}" font-size="{size}" text-anchor="{anchor}" '
            f'fill="{AXIS_STROKE}"{extra}>{body}</text>\n')


def _axes(x_span: tuple, y_span: tuple, x_label: str, y_label: str) -> list:
    (px0, px1), (py0, py1) = X_PIXELS, Y_PIXELS
    parts = [_line(px0, py0, px1, py0), _line(px0, py0, px0, py1)]
    for value in np.linspace(*x_span, N_TICKS).tolist():
        px = _to_pixels(value, x_span, X_PIXELS)
        parts += [_line(px, py0, px, py0 + 5), _text(px, py0 + 18, 11, "middle", f"{value:.4g}")]
    for value in np.linspace(*y_span, N_TICKS).tolist():
        py = _to_pixels(value, y_span, Y_PIXELS)
        parts += [_line(px0 - 5, py, px0, py), _text(px0 - 8, py + 4, 11, "end", f"{value:.4g}")]
    mid_y = (py0 + py1) / 2.0
    return parts + [
        _text((px0 + px1) / 2.0, HEIGHT - 14, 13, "middle", x_label),
        _text(18, mid_y, 13, "middle", y_label, f' transform="rotate(-90 18 {mid_y:.2f})"'),
    ]


def _document(x_span: tuple, y_span: tuple, x_label: str, y_label: str,
              marks) -> Iterator[str]:
    """Header and background, axes, the marks in order, then the end tag."""
    return itertools.chain([_HEADER], _axes(x_span, y_span, x_label, y_label), marks,
                           ["</svg>\n"])


def _flags(n: int, outliers: Sequence[int]) -> list:
    """Whether each row 0..n-1 is flagged; entries outside 0..n-1 flag nothing."""
    flagged = set(int(i) for i in outliers)
    return [i in flagged for i in range(n)]


def _curve_parts(sample: AnySample, outliers: Sequence[int]) -> Iterator[str]:
    """The pieces of the curve SVG; each polyline is formatted as it is reached."""
    values = curve_values(sample, "render_curves")
    t = sample.grid.points
    x_span, y_span = _span(t), _span(values)
    # every row shares the grid's x pixels, so they are formatted once, into
    # a template that takes the row's y pixels
    points = " ".join("%.2f,%%.2f" % px for px in _to_pixels(t, x_span, X_PIXELS).tolist())
    templates = [
        f'<polyline fill="none" stroke="{stroke}" stroke-width="{width:g}" '
        f'points="{points}"/>\n'
        for stroke, width in ((INLIER_STROKE, 1.0), (OUTLIER_STROKE, 1.8))
    ]
    flags = _flags(sample.n, outliers)
    # inliers first, then the flagged rows on top, each in row order; a
    # row's flag (False or True) picks its template
    marks = (
        templates[flags[i]] % tuple(_to_pixels(values[i], y_span, Y_PIXELS).tolist())
        for i in sorted(range(sample.n), key=flags.__getitem__)
    )
    return _document(x_span, y_span, "t", "value", marks)


def render_curves(sample: AnySample, outliers: Sequence[int] = ()) -> str:
    """All curves as polylines, flagged rows highlighted and drawn on top."""
    return "".join(_curve_parts(sample, outliers))


def _msplot_parts(mo, vo, outliers: Sequence[int], d: int) -> Iterator[str]:
    """The pieces of the MO/VO scatter SVG; each circle is formatted as it is reached."""
    mo = np.asarray(mo, dtype=float)
    if mo.ndim == 2:
        scalar_mo = mo[:, 0] if mo.shape[1] == 1 else np.sqrt((mo * mo).sum(axis=1))
    else:
        scalar_mo = mo
    vo = np.asarray(vo, dtype=float)
    x_label = "MO" if d == 1 else "||MO||"
    x_span, y_span = _span(scalar_mo), _span(vo)
    cx = _to_pixels(scalar_mo, x_span, X_PIXELS).tolist()
    cy = _to_pixels(vo, y_span, Y_PIXELS).tolist()
    marks = (
        '<circle cx="%.2f" cy="%.2f" r="3.5" fill="%s"/>\n'
        % (x, y, OUTLIER_STROKE if flag else INLIER_STROKE)
        for x, y, flag in zip(cx, cy, _flags(scalar_mo.size, outliers))
    )
    return _document(x_span, y_span, x_label, "VO", marks)


def render_msplot(
    mo: np.ndarray, vo: np.ndarray, outliers: Sequence[int] = (), d: int = 1
) -> str:
    """Scatter of VO against MO (d = 1) or against ||MO|| otherwise."""
    return "".join(_msplot_parts(mo, vo, outliers, d))


def _curves_check(method: str, sample: AnySample) -> None:
    if sample.d != 1:
        raise InconsistentReport(
            "curve plots need univariate curves; plot each dimension separately"
        )
    # a span that overflows has no pixel scale: NonFiniteResult
    _span(sample.grid.points)
    _span(sample.values)


def _msplot_check(method: str, sample: AnySample) -> None:
    if method != "msplot":
        raise InconsistentReport(
            "msplot plots need 'mo' and 'vo' diagnostics in the report; use --method msplot"
        )


def _flagged_rows(report: DetectionReport, n: int) -> list:
    """The report's "all" outliers as 0-based rows; each must be a curve
    number in 1..n, so that no entry is dropped or rounded onto a curve."""
    entries = report.outliers.get("all", [])
    for entry in entries:
        if isinstance(entry, bool) or not isinstance(entry, (int, np.integer)) \
                or not 1 <= entry <= n:
            raise InconsistentReport(
                f"outlier {entry!r} in the report is not a curve number in 1..{n}"
            )
    return [int(i) - 1 for i in entries]


def _finite_diagnostic(report: DetectionReport, name: str, ndims: tuple) -> np.ndarray:
    try:
        values = np.asarray(report.diagnostics[name])
    except ValueError:  # ragged nesting
        values = np.asarray(None)
    if values.dtype.kind not in "iuf" or values.ndim not in ndims or not values.size \
            or not np.isfinite(values).all():
        raise InconsistentReport(f"the report's {name!r} diagnostic must hold finite numbers")
    return values.astype(float)


def _curves_svg(report: DetectionReport, sample: Optional[AnySample]) -> Iterator[str]:
    if sample is None:
        raise InconsistentReport("curve plots need the curve data")
    _curves_check(report.method, sample)
    if report.n and report.n != sample.n:
        raise InconsistentReport(f"report describes {report.n} curves, data has {sample.n}")
    return _curve_parts(sample, _flagged_rows(report, sample.n))


def _msplot_svg(report: DetectionReport, sample: Optional[AnySample]) -> Iterator[str]:
    if "mo" not in report.diagnostics or "vo" not in report.diagnostics:
        raise InconsistentReport("msplot plots need 'mo' and 'vo' diagnostics in the report")
    mo = _finite_diagnostic(report, "mo", (1, 2))
    vo = _finite_diagnostic(report, "vo", (1,))
    if len(vo) != len(mo):
        raise InconsistentReport("mo and vo diagnostics disagree in length")
    return _msplot_parts(mo, vo, _flagged_rows(report, len(vo)), max(int(report.d), 1))


# kind -> (check(method, sample), renderer(report, sample) returning the SVG's
# pieces in order). The check raises when a report of that method on that
# sample cannot be drawn; `fdout detect` runs it before detecting, so a plot
# that fails never replaces a finished report
PLOT_KINDS = {
    "curves": (_curves_check, _curves_svg),
    "msplot": (_msplot_check, _msplot_svg),
}


@dataclass(frozen=True)
class PlotFile:
    """A plot that ``emit_plot`` wrote: its path and its length in characters,
    which ``len()`` also gives. The SVG is ASCII, so that is its size in bytes."""

    path: str
    size: int

    def __len__(self) -> int:
        return self.size


def emit_plot(
    report: DetectionReport,
    sample: Optional[AnySample],
    kind: str,
    path: str,
) -> PlotFile:
    """Render the plot named by ``kind`` for a report and write it to path,
    each mark as it is formatted, so the whole text is never held."""
    if kind not in PLOT_KINDS:
        raise InconsistentReport(f"unknown plot kind {kind!r}")
    _check, render = PLOT_KINDS[kind]
    return PlotFile(path, atomic_write_text(path, render(report, sample)))
