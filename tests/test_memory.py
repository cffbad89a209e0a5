"""Scratch memory of the kernels whose natural form builds a large array.

Peaks are measured with ``tracemalloc``, which sees numpy's buffers, and
bounded well below the array the direct formulation would hold: the
n x p x 500 projection cube for pointwise SDO (whose reused buffers stay
under three blocks of one grid point's projections), an n x L CDF matrix
for extremal depth, n x n pair arrays beside MUOD's covariance matrix,
FastMCD's 500 trials stacked at once, more than a few copies of the
stack of clouds whose geometric medians are solved side by side, and for
the curve SVG, the whole matrix's pixels or Python floats next to the text.
"""

import tracemalloc

import numpy as np

from fdout import (
    RandomSource,
    extremal_depth,
    fast_mcd,
    geometric_median,
    muod_indices,
    pointwise_sdo,
)
from fdout.svgplot import render_curves

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
