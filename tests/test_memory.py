"""Scratch memory of the kernels whose natural form builds a large array.

Peaks are measured with ``tracemalloc``, which sees numpy's buffers, and
bounded well below the array the direct formulation would hold: the
n x p x 500 projection cube for pointwise SDO (whose reused buffers stay
under three blocks of one grid point's projections), an n x L CDF matrix
for extremal depth, n x n pair arrays beside MUOD's covariance matrix,
FastMCD's 500 trials stacked at once, more than a few copies of the
stack of clouds whose geometric medians are solved side by side, for the
curve SVG, the whole matrix's pixels or Python floats next to the text (and
for the SVG file, the text itself), for L-infinity depth, a second n x p
difference beside its distances, and for the CSV reader, a Python string
or float per cell.
"""

import tracemalloc

import numpy as np

from fdout import (
    RandomSource,
    extremal_depth,
    fast_mcd,
    geometric_median,
    linfinity_depth,
    muod_indices,
    pointwise_sdo,
)
from fdout.csvio import read_curves, write_curves
from fdout.report import DetectionReport
from fdout.svgplot import emit_plot, render_curves

from .conftest import make_multi, make_sample


def peak_bytes(call, *args, **kwargs):
    tracemalloc.start()
    try:
        call(*args, **kwargs)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_pointwise_sdo_never_holds_the_projection_cube():
    n, p, d = 100, 40, 3
    sample = make_multi(np.random.default_rng(400).standard_normal((n, p, d)))
    assert peak_bytes(pointwise_sdo, sample, rng=RandomSource(1)) < n * p * 500 * 8


def test_pointwise_sdo_holds_under_three_blocks_of_projections():
    # the projection and sort buffers, reused for every grid point, plus the
    # MAD window: 300 x 500 floats each
    n, p, d = 300, 100, 3
    sample = make_multi(np.random.default_rng(405).standard_normal((n, p, d)))
    assert peak_bytes(pointwise_sdo, sample, rng=RandomSource(1)) < 3 * n * 500 * 8


def test_extremal_depth_holds_no_quadratic_array():
    n, p = 1000, 10
    sample = make_sample(np.random.default_rng(401).standard_normal((n, p)))
    assert peak_bytes(extremal_depth, sample) < n * n * 8 / 4


def test_muod_holds_one_pairwise_matrix():
    n, p = 1000, 20
    sample = make_sample(np.random.default_rng(402).standard_normal((n, p)))
    assert peak_bytes(muod_indices, sample) < 2 * n * n * 8


def test_fast_mcd_stacks_its_trials_a_block_at_a_time():
    m, d = 300, 4
    points = np.random.default_rng(403).standard_normal((m, d))
    fast_mcd(points[:50], rng=RandomSource(0))  # the first fit loads scipy.special
    assert peak_bytes(fast_mcd, points, rng=RandomSource(1)) < 500 * d * m * 8


def test_geometric_median_holds_a_few_copies_of_its_stack():
    stack = np.random.default_rng(404).standard_normal((100, 300, 3))
    assert peak_bytes(geometric_median, stack) < 8 * stack.nbytes


def test_render_curves_holds_its_text_and_one_row_of_pixels():
    # the row strings and their join: about twice the text; an n x p pixel
    # matrix (3.2 MB here) or a whole-matrix tolist() would pass 2.5 times it
    sample = make_sample(np.random.default_rng(406).standard_normal((2000, 200)))
    text_bytes = len(render_curves(sample, [3, 7]))
    assert peak_bytes(render_curves, sample, [3, 7]) < 2.5 * text_bytes


def test_emit_plot_writes_the_svg_without_holding_its_text(tmp_path):
    # the row order and flags (n entries each) and one row's pixels and
    # string; the text that render_curves returns is 5.7 MB here
    sample = make_sample(np.random.default_rng(406).standard_normal((2000, 200)))
    report = DetectionReport(method="fbplot", parameters={}, n=2000, p=200, d=1,
                             outliers={"all": [4, 8]})
    path = str(tmp_path / "plot.svg")
    peak = peak_bytes(emit_plot, report, sample, "curves", path)
    text = render_curves(sample, [3, 7])
    with open(path, encoding="utf-8", newline="") as handle:
        assert handle.read() == text
    assert peak < len(text) / 20


def test_read_curves_holds_no_python_object_per_cell(tmp_path):
    # the parsed block and the sample's own copy of it, plus 1 MB for a
    # line of text at a time and numpy's growth of the block; a str or float
    # per cell (400 000 of them) would pass ten times the values
    sample = make_sample(np.random.default_rng(408).standard_normal((2000, 200)))
    path = str(tmp_path / "curves.csv")
    write_curves(path, sample)
    assert peak_bytes(read_curves, path) < 3 * sample.values.nbytes + 2**20


def test_linfinity_depth_holds_its_distances_and_one_difference_buffer():
    # the n x n distance matrix, one n x p buffer that every row's
    # differences reuse, and 128 kB for the per-row maxima and numpy's own
    n, p = 500, 100
    sample = make_sample(np.random.default_rng(407).standard_normal((n, p)))
    assert peak_bytes(linfinity_depth, sample) < (n * n + n * p) * 8 + 2**17
