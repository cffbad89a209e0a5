"""The entry rules, one table for every public function taking a sample and
one for every building block taking a raw array.

A d = 1 MultiCurveSample is a univariate sample: it gives the results of
its CurveSample bit for bit. A function that needs univariate curves
raises ValidationError on d > 1 curves, and every function raises
TooFewCurves below its least number of curves.

A raw array goes through ``fdcore.float_array``, as sample values do: a
nested list gives the results of its float64 array, ragged nesting raises
RaggedRows, an entry that is not a number raises ValidationError naming it
and its index, and the first NaN or infinity raises NonFiniteValue at its
index.
"""

import functools
import inspect
import sys

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
    fast_mcd,
    functional_boxplot,
    geometric_median,
    linfinity_depth,
    median_mad,
    modified_band_depth,
    modified_shape_similarity,
    msplot,
    muod,
    muod_cutoff_boxplot,
    muod_cutoff_tangent,
    muod_indices,
    o_transform,
    pointwise_sdo,
    robust_distances,
    seq_transform,
    simulation_model,
    total_variation_depth,
    tvdmss,
)
from fdout.detect import _DEPTHS
from fdout.errors import (
    FdoutError,
    NonFiniteValue,
    RaggedRows,
    ShapeMismatch,
    TooFewCurves,
    TooFewPoints,
    ValidationError,
)
from fdout.fdcore import float_array, least_curves
from fdout.svgplot import render_curves
from fdout.tvd import indicator_variance_terms

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


# (name, call(sample) -> tuple of results, needs d = 1)
ENTRY = [
    ("band_depth", lambda s: (band_depth(s).scores,), True),
    ("modified_band_depth", lambda s: (modified_band_depth(s).scores,), True),
    ("extreme_rank_length", lambda s: (extreme_rank_length(s).scores,), True),
    ("directional_quantile", lambda s: (directional_quantile(s).scores,), True),
    ("linfinity_depth", lambda s: (linfinity_depth(s).scores,), True),
    ("extremal_depth", lambda s: (extremal_depth(s).scores,), True),
    ("total_variation_depth", lambda s: (total_variation_depth(s),), True),
    ("modified_shape_similarity", lambda s: (modified_shape_similarity(s),), True),
    ("muod_indices", lambda s: _fields(muod_indices(s), "shape", "magnitude", "amplitude"), True),
    ("muod", _muod, True),
    ("pointwise_sdo", lambda s: (pointwise_sdo(s),), False),
    ("directional_outlyingness",
     lambda s: _fields(directional_outlyingness(s), "values", "sdo"), False),
    ("functional_boxplot", _boxplot, True),
    ("tvdmss", lambda s: _fields(tvdmss(s), "shape_outliers", "magnitude_outliers",
                                 "outliers", "tvd", "mss"), True),
    ("msplot", lambda s: _fields(msplot(s), "outliers", "mo", "vo", "distances"), False),
    ("o_transform", lambda s: (o_transform(s).values,), False),
    ("render_curves", lambda s: (render_curves(s, [0, 2]),), True),
    *[(f"depth_by_name:{method}",
       lambda s, method=method: (depth_by_name(s, method, rng=RandomSource(1)).scores,),
       method != "rmd")
      for method in DEPTH_METHODS],
    ("seq_transform",
     lambda s: tuple(stage.outliers for stage in seq_transform(s, ["T0", "T1", "D1"]).stages),
     True),
    # returns its argument, whose values differ only by the unit axis
    ("ensure_valid", lambda s: (ensure_valid(s).values.ravel(),), False),
    ("as_univariate", lambda s: (as_univariate(s).values,), True),
    ("as_multivariate", lambda s: (as_multivariate(s).values,), False),
]
IDS = [entry[0] for entry in ENTRY]


# name -> the op whose least number of curves it takes where that is not its
# own name, None where any sample will do
LEAST_OP = {"muod": "muod_cutoff_boxplot",  # the default cutoff, checked first
            "directional_outlyingness": "pointwise_sdo", "o_transform": "pointwise_sdo",
            "seq_transform": _DEPTHS["mbd"][0],  # the default ordering
            **{f"depth_by_name:{m}": _DEPTHS[m][0] for m in DEPTH_METHODS},
            "ensure_valid": None, "as_univariate": None, "as_multivariate": None}


def _least(name):
    op = LEAST_OP.get(name, name)
    return least_curves(op) if op else 1


def _over(entries):
    rows = [(name, call, _least(name), univariate) for name, call, univariate in entries]
    return pytest.mark.parametrize("name, call, min_n, univariate", rows,
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


@_over([entry for entry in ENTRY if entry[2]])
def test_univariate_only_rejects_d2_with_validation_error(name, call, min_n, univariate):
    with pytest.raises(ValidationError):
        call(_gaussian(30, d=2))


@_over([entry for entry in ENTRY if _least(entry[0]) > 1])
@pytest.mark.parametrize("d", [None, 1])
def test_one_curve_too_few_raises_too_few_curves(name, call, min_n, univariate, d):
    with pytest.raises(TooFewCurves):
        call(_gaussian(min_n - 1, d))
    call(_gaussian(min_n, d))


@pytest.mark.parametrize("d", [2, 3])
def test_msplot_takes_more_curves_as_d_grows(d):
    least = least_curves("msplot", d=d)
    pytest.raises(TooFewCurves, msplot, _gaussian(least - 1, d))
    msplot(_gaussian(least, d))


def test_every_public_function_taking_a_sample_is_in_the_table():
    tabled = {name.split(":")[0] for name in IDS}
    takes_sample = [
        name for name in fdout.__all__
        if inspect.isfunction(getattr(fdout, name))
        and next(iter(inspect.signature(getattr(fdout, name)).parameters), None) == "sample"
    ]
    assert {"ensure_valid", "as_univariate", "as_multivariate"} <= set(takes_sample)
    assert [name for name in takes_sample if name not in tabled] == []


def _near_largest_double(shape):
    """Values of mixed sign within 1 % of +-1.7e308."""
    rng = np.random.default_rng(500)
    return rng.choice([-1.0, 1.0], shape) * rng.uniform(0.99, 1.0, shape) * 1.7e308


# ENTRY's seq_transform row stops at T1, whose output overflows: D1 differences
# the curves themselves
EXTREME = ENTRY + [("seq_transform:D1", lambda s: tuple(
    stage.outliers for stage in seq_transform(s, ["D1"]).stages), True)]


@pytest.mark.parametrize("call, d", [
    pytest.param(call, d, id=f"{name}-d{d}")
    for name, call, univariate in EXTREME for d in ([1] if univariate else [1, 2])
])
def test_curves_near_the_largest_double_give_a_result_or_a_typed_error(call, d):
    # the suite's error::RuntimeWarning filter fails any warning that leaks
    values = _near_largest_double((30, 12, d))
    try:
        call(make_sample(values[:, :, 0]) if d == 1 else make_multi(values))
    except FdoutError:
        pass


# a 40 x 3 Gaussian cloud, and a below-curve indicator of 40 curves
CLOUD = np.random.default_rng(400).standard_normal((40, 3))
INDICATOR = (CLOUD[:, 0] <= np.median(CLOUD[:, 0])).astype(float)


@functools.cache
def _cloud_fit():
    return fast_mcd(CLOUD)


def _mcd(points):
    return _fields(fast_mcd(points), "center", "covariance", "subset_indices", "coverage_fraction")


# (name, call(array) -> tuple of results, a finite array it takes)
RAW = [
    ("median_mad", lambda x: _fields(median_mad(x), "median", "mad"), CLOUD),
    ("geometric_median", lambda x: (geometric_median(x),), CLOUD),
    ("fast_mcd", _mcd, CLOUD),
    ("robust_distances", lambda x: (robust_distances(x, _cloud_fit()),), CLOUD),
    ("muod_cutoff_boxplot", lambda x: (muod_cutoff_boxplot(x),), CLOUD),
    ("muod_cutoff_tangent", lambda x: (muod_cutoff_tangent(x),), CLOUD),
    ("indicator_variance_terms:r_s",
     lambda x: indicator_variance_terms(x, INDICATOR[::-1]), INDICATOR),
    ("indicator_variance_terms:r_t",
     lambda x: indicator_variance_terms(INDICATOR[::-1], x), INDICATOR),
]
RAGGED = [[0.0, 1.0, 0.0]] * 20 + [[1.0, 0.0]]


def _raw(entries):
    return pytest.mark.parametrize("name, call, values", entries,
                                   ids=[entry[0] for entry in entries])


@_raw(RAW)
def test_nested_list_gives_the_array_results(name, call, values):
    for a, b in zip(call(values.tolist()), call(values), strict=True):
        assert np.array_equal(a, b)


@_raw(RAW)
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_entry_raises_non_finite_value_at_its_index(name, call, values, bad):
    where = (7, 1)[:values.ndim]
    values = values.copy()
    values[where] = bad
    with pytest.raises(NonFiniteValue) as info:
        call(values)
    assert info.value.index == where


@_raw(RAW)
def test_non_finite_scalar_raises_non_finite_value_at_index_0(name, call, values):
    with pytest.raises(NonFiniteValue) as info:
        call(np.float64(np.nan))
    assert info.value.index == (0,)
    assert str(info.value) == "non-finite value at (0)"


@_raw(RAW)
def test_ragged_nesting_raises_ragged_rows(name, call, values):
    with pytest.raises(RaggedRows):
        call(RAGGED)


def test_blocks_no_object_array_can_hold_raise_ragged_rows():
    # numpy refuses even an object array of a 2 x 2 and a 2 x 3 block
    with pytest.raises(RaggedRows, match="^could not form a rectangular array"):
        float_array([np.zeros((2, 2)), np.zeros((2, 3))])


@_raw(RAW)
def test_entry_that_is_not_a_number_raises_validation_error_naming_it(name, call, values):
    where = (7, 1)[:values.ndim]
    cells = values.astype(object)
    cells[where] = "a"
    with pytest.raises(ValidationError) as info:
        call(cells.tolist())
    # a bad value, not a bad shape; as a ValidationError it still exits 2
    assert not isinstance(info.value, RaggedRows)
    assert str(info.value) == f"'a' at ({', '.join(map(str, where))}) is not a number"


@_raw(RAW)
def test_none_entry_raises_validation_error_naming_it(name, call, values):
    # None converts to NaN, but it is not a number, as 'a' is not
    where = (7, 1)[:values.ndim]
    cells = values.astype(object)
    cells[where] = None
    with pytest.raises(ValidationError) as info:
        call(cells.tolist())
    assert not isinstance(info.value, (RaggedRows, NonFiniteValue))
    assert str(info.value) == f"None at ({', '.join(map(str, where))}) is not a number"


def test_sample_cell_that_is_not_a_number_raises_validation_error_naming_it():
    grid = fdout.uniform_grid(2, 0.0, 1.0)
    with pytest.raises(ValidationError) as info:
        fdout.CurveSample([[1.0, 2.0], [3.0, "x"]], grid)
    assert not isinstance(info.value, RaggedRows)
    assert str(info.value) == "'x' at (1, 1) is not a number"
    with pytest.raises(RaggedRows):
        fdout.CurveSample([[1.0, 2.0], ["x"]], grid)
    with pytest.raises(ValidationError) as info:
        fdout.MultiCurveSample([[[1.0], [2.0]], [[3.0], [None]]], grid)
    assert str(info.value) == "None at (1, 1, 0) is not a number"
    with pytest.raises(NonFiniteValue):
        fdout.CurveSample([[1.0, 2.0], [3.0, float("nan")]], grid)


@_raw([entry for entry in RAW if entry[2] is CLOUD])
@pytest.mark.parametrize("scale", ["near_max", "1e160"])
def test_clouds_of_extreme_size_give_a_result_or_a_typed_error(name, call, values, scale):
    # at 1e160 the cloud is finite but its squares overflow
    cloud = _near_largest_double(values.shape) if scale == "near_max" else values * 1e160
    try:
        call(cloud)
    except FdoutError:
        pass


def test_fast_mcd_takes_a_vector_or_a_matrix():
    with pytest.raises(TooFewPoints):
        fast_mcd(np.ones((4, 5, 2)))


@pytest.mark.parametrize("points", [CLOUD[:, :2], CLOUD[:, :1], CLOUD[:, 0], CLOUD[None]])
def test_robust_distances_of_another_dimension_raise_shape_mismatch(points):
    with pytest.raises(ShapeMismatch):
        robust_distances(points, _cloud_fit())


def test_every_public_function_taking_a_raw_array_is_in_the_table():
    tabled = {name.split(":")[0] for name, _call, _values in RAW}
    # fdout.muod is the function; its module is reached through sys.modules
    modules = [fdout.robust, sys.modules["fdout.muod"], fdout.tvd]
    takes_array = [
        name for module in modules
        for name, function in inspect.getmembers(module, inspect.isfunction)
        if function.__module__ == module.__name__ and not name.startswith("_")
        and next(iter(inspect.signature(function).parameters), None)
        in ("xs", "points", "indices", "r_s")
    ]
    assert {"median_mad", "muod_cutoff_boxplot", "indicator_variance_terms"} <= set(takes_array)
    assert [name for name in takes_array if name not in tabled] == []
