"""The entry rule for samples, one table for every public function taking one.

A d = 1 MultiCurveSample is a univariate sample: it gives the results of
its CurveSample bit for bit. A function that needs univariate curves
raises ValidationError on d > 1 curves, and every function raises
TooFewCurves below its least number of curves.
"""

import inspect

import numpy as np
import pytest

import fdout
from fdout import (
    DEPTH_METHODS,
    DEEPER_IS_LARGER,
    DepthVector,
    RandomSource,
    as_multivariate,
    as_univariate,
    band_depth,
    depth_by_name,
    directional_outlyingness,
    directional_quantile,
    ensure_valid,
    extremal_depth,
    extreme_rank_length,
    functional_boxplot,
    linfinity_depth,
    modified_band_depth,
    modified_shape_similarity,
    msplot,
    muod,
    muod_indices,
    o_transform,
    pointwise_sdo,
    seq_transform,
    simulation_model,
    total_variation_depth,
    tvdmss,
)
from fdout.errors import TooFewCurves, ValidationError
from fdout.svgplot import render_curves

from .conftest import make_multi, make_sample


def _fields(result, *names):
    return tuple(getattr(result, name) for name in names)


def _boxplot(sample):
    ranks = DepthVector(np.arange(sample.n, dtype=float), DEEPER_IS_LARGER, "rank")
    return _fields(functional_boxplot(sample, ranks), "central_indices", "envelope_lower",
                   "envelope_upper", "fence_lower", "fence_upper", "outliers")


def _muod(sample):
    flags, indices = muod(sample)
    return _fields(flags, "shape", "magnitude", "amplitude") + _fields(
        indices, "shape", "magnitude", "amplitude")


# the least number of curves msplot takes at d = 1: n > 2 (d + 1) + 2
MSPLOT_MIN_N = 7
DEPTH_MIN_N = {"bd": 3, "mbd": 3, "erld": 2, "dq": 5, "linf": 2, "ed": 2, "tvd": 2,
               "rmd": MSPLOT_MIN_N}

# (name, call(sample) -> tuple of results, least number of curves, needs d = 1)
ENTRY = [
    ("band_depth", lambda s: (band_depth(s).scores,), 3, True),
    ("modified_band_depth", lambda s: (modified_band_depth(s).scores,), 3, True),
    ("extreme_rank_length", lambda s: (extreme_rank_length(s).scores,), 2, True),
    ("directional_quantile", lambda s: (directional_quantile(s).scores,), 5, True),
    ("linfinity_depth", lambda s: (linfinity_depth(s).scores,), 2, True),
    ("extremal_depth", lambda s: (extremal_depth(s).scores,), 2, True),
    ("total_variation_depth", lambda s: (total_variation_depth(s),), 2, True),
    ("modified_shape_similarity", lambda s: (modified_shape_similarity(s),), 2, True),
    ("muod_indices", lambda s: _fields(muod_indices(s), "shape", "magnitude", "amplitude"),
     3, True),
    # the boxplot cutoff needs five indices
    ("muod", _muod, 5, True),
    ("pointwise_sdo", lambda s: (pointwise_sdo(s),), 3, False),
    ("directional_outlyingness",
     lambda s: _fields(directional_outlyingness(s), "values", "sdo"), 3, False),
    ("functional_boxplot", _boxplot, 1, True),
    ("tvdmss", lambda s: _fields(tvdmss(s), "shape_outliers", "magnitude_outliers",
                                 "outliers", "tvd", "mss"), 5, True),
    ("msplot", lambda s: _fields(msplot(s), "outliers", "mo", "vo", "distances"),
     MSPLOT_MIN_N, False),
    ("o_transform", lambda s: (o_transform(s).values,), 3, False),
    ("render_curves", lambda s: (render_curves(s, [0, 2]),), 1, True),
    *[(f"depth_by_name:{method}",
       lambda s, method=method: (depth_by_name(s, method, rng=RandomSource(1)).scores,),
       DEPTH_MIN_N[method], method != "rmd")
      for method in DEPTH_METHODS],
    ("seq_transform",
     lambda s: tuple(stage.outliers for stage in seq_transform(s, ["T0", "T1", "D1"]).stages),
     3, True),
    # returns its argument, whose values differ only by the unit axis
    ("ensure_valid", lambda s: (ensure_valid(s).values.ravel(),), 1, False),
    ("as_univariate", lambda s: (as_univariate(s).values,), 1, True),
    ("as_multivariate", lambda s: (as_multivariate(s).values,), 1, False),
]
IDS = [entry[0] for entry in ENTRY]


def _over(entries):
    return pytest.mark.parametrize("name, call, min_n, univariate", entries,
                                   ids=[entry[0] for entry in entries])


def _gaussian(n, d=None):
    rng = np.random.default_rng(300 + n)
    if d is None:
        return make_sample(rng.standard_normal((n, 12)))
    return make_multi(rng.standard_normal((n, 12, d)))


@_over(ENTRY)
def test_d1_multi_sample_gives_the_curve_sample_results(name, call, min_n, univariate):
    sample = simulation_model(6, n=30, p=16, outlier_rate=0.1, deterministic=True,
                              seed=12).data
    for a, b in zip(call(sample), call(as_multivariate(sample)), strict=True):
        assert np.array_equal(a, b)


@_over([entry for entry in ENTRY if entry[3]])
def test_univariate_only_rejects_d2_with_validation_error(name, call, min_n, univariate):
    with pytest.raises(ValidationError):
        call(_gaussian(30, d=2))


@_over([entry for entry in ENTRY if entry[2] > 1])
@pytest.mark.parametrize("d", [None, 1])
def test_one_curve_too_few_raises_too_few_curves(name, call, min_n, univariate, d):
    with pytest.raises(TooFewCurves):
        call(_gaussian(min_n - 1, d))
    call(_gaussian(min_n, d))


def test_every_public_function_taking_a_sample_is_in_the_table():
    tabled = {name.split(":")[0] for name in IDS}
    takes_sample = [
        name for name in fdout.__all__
        if inspect.isfunction(getattr(fdout, name))
        and next(iter(inspect.signature(getattr(fdout, name)).parameters), None) == "sample"
    ]
    assert {"ensure_valid", "as_univariate", "as_multivariate"} <= set(takes_sample)
    assert [name for name in takes_sample if name not in tabled] == []
