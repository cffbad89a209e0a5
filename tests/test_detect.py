import re

import numpy as np
import pytest

import fdout.detect
from fdout import (
    RandomSource,
    as_multivariate,
    functional_boxplot,
    modified_band_depth,
    msplot,
    o_transform,
    seq_transform,
    simulation_model,
    stage_set_differences,
    tvdmss,
)
from fdout.depths import DEEPER_IS_LARGER, OUTLYING_IS_LARGER, DepthVector
from fdout.detect import DEPTH_METHODS, depth_by_name
from fdout.errors import (
    BadCentralRegion,
    EmptySequence,
    InvalidLevel,
    NonFiniteOutlyingness,
    NonFiniteResult,
    OOnUnivariate,
    TooFewCurves,
    TooFewPoints,
    UnknownDepthMethod,
    UnknownErldType,
    ValidationError,
)

from .conftest import constant_curves, make_multi, make_sample

FIVE_LEVELS = [0.0, 1.0, 2.0, 3.0, 10.0]


def line_family():
    """Curves {t, t+5, 2t} on a uniform grid; the seq_transform worked example.

    The grid spacing is 1/16 so every point, every row mean, and every RMS
    norm is an exact dyadic float: after centering and normalisation all
    three rows coincide bit for bit, as the hand algebra says they should.
    On a non-dyadic grid the +5 row picks up ~1e-16 rounding noise and the
    width-zero envelope of the final stage would flag it spuriously.
    """
    t = np.linspace(0.0, 1.0, 17)
    return make_sample(np.vstack([t, t + 5.0, 2.0 * t]))


class TestFunctionalBoxplot:
    def test_constant_curve_fixture(self):
        sample = constant_curves(FIVE_LEVELS)
        box = functional_boxplot(sample, modified_band_depth(sample))
        np.testing.assert_array_equal(box.envelope_lower, np.ones(4))
        np.testing.assert_array_equal(box.envelope_upper, np.full(4, 3.0))
        np.testing.assert_array_equal(box.fence_lower, np.full(4, -2.0))
        np.testing.assert_array_equal(box.fence_upper, np.full(4, 6.0))
        np.testing.assert_array_equal(box.outliers, [4])

    def test_central_region_size(self):
        sample = constant_curves(FIVE_LEVELS)
        box = functional_boxplot(sample, modified_band_depth(sample))
        assert box.central_indices.size == 3  # ceil(5 * 0.5)

    def test_identical_curves_flag_nothing(self):
        sample = make_sample(np.tile([1.0, 4.0, 2.0], (6, 1)))
        box = functional_boxplot(sample, modified_band_depth(sample))
        assert box.outliers.size == 0
        np.testing.assert_array_equal(box.envelope_lower, box.envelope_upper)

    def test_huge_factor_flags_nothing(self):
        sample = constant_curves(FIVE_LEVELS)
        box = functional_boxplot(sample, modified_band_depth(sample), factor=1e18)
        assert box.outliers.size == 0

    def test_outlying_direction_is_normalised(self):
        sample = constant_curves(FIVE_LEVELS)
        depth = modified_band_depth(sample)
        flipped = DepthVector(-depth.scores, OUTLYING_IS_LARGER, "flipped")
        box = functional_boxplot(sample, flipped)
        np.testing.assert_array_equal(box.outliers, [4])

    def test_permutation_equivariance(self):
        rng = np.random.default_rng(201)
        values = np.vstack([rng.standard_normal((9, 8)), rng.standard_normal((1, 8)) + 12.0])
        sample = make_sample(values)
        flags = functional_boxplot(sample, modified_band_depth(sample)).outliers
        perm = rng.permutation(10)
        permuted = make_sample(values[perm])
        flags_perm = functional_boxplot(permuted, modified_band_depth(permuted)).outliers
        np.testing.assert_array_equal(np.sort(perm[flags_perm]), np.sort(flags))

    @pytest.mark.parametrize("kwargs", [
        {"central_region": 0.0}, {"central_region": 1.0}, {"central_region": -0.5},
        {"central_region": 2.0}, {"central_count": 0}, {"central_count": 6},
    ], ids=["0.0", "1.0", "-0.5", "2.0", "count_0", "count_6"])
    def test_bad_central_region(self, kwargs):
        sample = constant_curves(FIVE_LEVELS)
        with pytest.raises(BadCentralRegion):
            functional_boxplot(sample, modified_band_depth(sample), **kwargs)

    def test_infinite_factor_rejected(self):
        sample = constant_curves(FIVE_LEVELS)
        with pytest.raises(ValidationError, match="factor"):
            functional_boxplot(sample, modified_band_depth(sample), factor=np.inf)

    def test_overflowing_fences_raise_numeric_error(self):
        values = np.vstack([np.full(4, -1.7e308), np.full(4, 1.7e308), np.zeros(4)])
        sample = make_sample(values)
        depth = DepthVector(np.array([0.1, 0.2, 0.9]), DEEPER_IS_LARGER, "demo")
        with pytest.raises(NonFiniteResult, match="fences overflow: the curves are too large"):
            functional_boxplot(sample, depth, central_region=0.9)

    def test_overflowing_factor_is_named(self):
        # the envelope width is finite; only the factor times it overflows
        sample = make_sample(np.random.default_rng(205).standard_normal((20, 8)))
        with pytest.raises(NonFiniteResult,
                           match=r"factor 1e\+308 times the envelope width is not finite"):
            functional_boxplot(sample, modified_band_depth(sample), factor=1e308)

    def test_depth_length_mismatch(self):
        sample = constant_curves(FIVE_LEVELS)
        bad = DepthVector(np.ones(3), DEEPER_IS_LARGER, "short")
        with pytest.raises(ValidationError):
            functional_boxplot(sample, bad)


class TestDepthByName:
    def test_every_method_returns_scores(self):
        out = simulation_model(1, n=20, p=12, outlier_rate=0.1, seed=5)
        for method in DEPTH_METHODS:
            depth = depth_by_name(out.data, method, rng=RandomSource(1))
            assert len(depth) == 20
            assert np.all(np.isfinite(depth.scores))

    def test_erld_type_plumbed_through(self):
        sample = constant_curves([0.0, 1.0, 2.0])
        right = depth_by_name(sample, "erld", erld_type="one_sided_right")
        assert right.method == "erld_one_sided_right"
        default = depth_by_name(sample, "erld")
        assert default.method == "erld_two_sided"

    def test_outlying_methods_marked(self):
        out = simulation_model(1, n=20, p=10, outlier_rate=0.0, seed=6)
        for method in ("dq", "rmd"):
            depth = depth_by_name(out.data, method, rng=RandomSource(2))
            assert depth.direction == OUTLYING_IS_LARGER

    def test_unknown_method(self):
        with pytest.raises(UnknownDepthMethod):
            depth_by_name(constant_curves([0.0, 1.0, 2.0]), "deepest")


class TestMsplot:
    def test_planted_magnitude_outliers_flagged(self):
        out = simulation_model(1, n=100, p=50, outlier_rate=0.1,
                               deterministic=True, seed=3)
        result = msplot(out.data, level=0.01, rng=RandomSource(3))
        assert np.intersect1d(result.outliers, out.true_outliers).size == 10

    def test_outlier_set_matches_threshold_rule(self):
        out = simulation_model(1, n=60, p=30, outlier_rate=0.1, seed=7)
        result = msplot(out.data, rng=RandomSource(7))
        np.testing.assert_array_equal(
            result.outliers, np.flatnonzero(result.distances > result.cutoff.threshold)
        )

    def test_univariate_embedding_bit_identical(self):
        out = simulation_model(1, n=40, p=20, outlier_rate=0.1, seed=8)
        as_curve = msplot(out.data, rng=RandomSource(11))
        as_multi = msplot(as_multivariate(out.data), rng=RandomSource(11))
        np.testing.assert_array_equal(as_curve.outliers, as_multi.outliers)
        np.testing.assert_array_equal(as_curve.distances, as_multi.distances)
        np.testing.assert_array_equal(as_curve.mo, as_multi.mo)

    def test_duplicated_rows_share_summaries_and_flags(self):
        # medians and MADs are invariant under doubling every row, so the
        # MO/VO summary of each copy must match the original bit for bit;
        # the flagged set itself may shift (the MCD subset size and the
        # cutoff both depend on n) but must stay pair-symmetric
        out = simulation_model(1, n=50, p=25, outlier_rate=0.1,
                               deterministic=True, seed=9)
        single = msplot(out.data, level=0.01, rng=RandomSource(5))
        doubled = make_sample(np.vstack([out.data.values, out.data.values]))
        double = msplot(doubled, level=0.01, rng=RandomSource(5))
        np.testing.assert_array_equal(double.mo[:50], single.mo)
        np.testing.assert_array_equal(double.vo[:50], single.vo)
        np.testing.assert_array_equal(double.mo[:50], double.mo[50:])
        np.testing.assert_array_equal(double.distances[:50], double.distances[50:])
        flags = set(double.outliers.tolist())
        assert flags == {(i + 50) % 100 for i in flags}
        truth = set(out.true_outliers.tolist())
        assert truth | {i + 50 for i in truth} <= flags

    def test_seed_determinism(self):
        out = simulation_model(1, n=40, p=20, outlier_rate=0.1, seed=10)
        a = msplot(out.data, rng=RandomSource(2))
        b = msplot(out.data, rng=RandomSource(2))
        np.testing.assert_array_equal(a.distances, b.distances)
        np.testing.assert_array_equal(a.outliers, b.outliers)

    @pytest.mark.parametrize("kwargs, error", [
        ({"level": 2.0}, InvalidLevel),
        ({"level": np.nan}, InvalidLevel),
    ])
    def test_bad_level_rejected_before_any_outlyingness(
        self, monkeypatch, kwargs, error
    ):
        def refuse(*args, **kwargs):
            raise AssertionError("outlyingness was computed")

        monkeypatch.setattr(fdout.detect, "directional_outlyingness", refuse)
        out = simulation_model(1, n=30, p=15, outlier_rate=0.1, seed=11)
        with pytest.raises(error):
            msplot(out.data, **kwargs)

    def test_coverage_and_positional_rng_are_refused(self):
        out = simulation_model(1, n=30, p=15, outlier_rate=0.1, seed=11)
        with pytest.raises(TypeError):
            msplot(out.data, coverage=0.75)
        with pytest.raises(TypeError):
            msplot(out.data, 0.05, RandomSource(0))

    def test_zero_mad_raises_numeric_error_naming_grid_points(self):
        # 25 of 40 curves sit at 0 in column 0: the MAD there is 0 and the
        # other 15 curves are infinitely outlying
        values = np.random.default_rng(210).standard_normal((40, 20))
        values[:25, 0] = 0.0
        with pytest.raises(NonFiniteOutlyingness, match=r"grid points \[0\]"):
            msplot(make_sample(values), rng=RandomSource(0))

    @pytest.mark.parametrize("d", [1, 2])
    def test_nan_outlyingness_raises_numeric_error_naming_grid_points(self, d):
        # deviations from the median overflow near the largest double: every
        # SDO value is NaN, which used to surface later as SingularSubsets
        rng = np.random.default_rng(211)
        values = rng.choice([-1.0, 1.0], (30, 8, d)) * rng.uniform(0.9, 1.0, (30, 8, d)) * 1.7e308
        with pytest.raises(
                NonFiniteOutlyingness, match=r"NaN .* grid points \[0, 1, 2, 3, 4, 5, 6, 7\]"):
            msplot(make_multi(values), rng=RandomSource(0))

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_overflowing_summary_raises_numeric_error_naming_curves(self, monkeypatch):
        # the outlyingness of curve 5 is finite, but its variation VO
        # overflows; FastMCD must not see the summary
        def refuse(*args, **kwargs):
            raise AssertionError("FastMCD ran")

        monkeypatch.setattr(fdout.detect, "fast_mcd", refuse)
        values = np.random.default_rng(1).standard_normal((40, 20))
        values[5] *= 1e200
        with pytest.raises(NonFiniteResult, match=r"MO/VO summary overflows for curves \[5\]"):
            msplot(make_sample(values))

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("scale", [1e300, 1e-300, 2.0**900, 2.0**-900])
    def test_extreme_magnitudes_flag_what_the_unscaled_sample_flags(self, scale):
        # the unit vectors of the outlyingness field come from difference
        # vectors scaled by a power of two, so their squared norms neither
        # overflow nor underflow (for d > 1 see the test below)
        values = np.random.default_rng(3).standard_normal((20, 6))
        base = msplot(make_sample(values))
        scaled = msplot(make_sample(values * scale))
        np.testing.assert_array_equal(scaled.outliers, base.outliers)
        if np.frexp(scale)[0] == 0.5:  # a power of two scales exactly
            np.testing.assert_array_equal(scaled.distances, base.distances)
        np.testing.assert_allclose(scaled.distances, base.distances, rtol=1e-13)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("scale", [1e300, 1e-300, 2.0**900, 2.0**-900])
    @pytest.mark.parametrize("d", [2, 3])
    def test_extreme_magnitudes_in_several_dimensions(self, d, scale):
        # the geometric median of each grid point is solved in units of its
        # cloud's largest |value|; its stop test's floor min(1, S) is
        # relative only below S = 1, so the centers, and with them the
        # distances, agree to the solver's tolerance rather than bit for bit
        values = np.random.default_rng(3).standard_normal((20, 6, d))
        base = msplot(make_multi(values))
        scaled = msplot(make_multi(values * scale))
        np.testing.assert_array_equal(scaled.outliers, base.outliers)
        np.testing.assert_allclose(scaled.distances, base.distances, rtol=1e-9)


class TestTvdmss:
    def test_constant_curve_fixture(self):
        result = tvdmss(constant_curves(FIVE_LEVELS))
        np.testing.assert_array_equal(result.magnitude_outliers, [4])
        assert result.shape_outliers.size == 0
        np.testing.assert_array_equal(result.outliers, [4])

    def test_oscillating_curve_is_shape_outlier(self):
        t = np.linspace(0.0, 1.0, 40)
        rng = np.random.default_rng(203)
        bulk = np.array([np.sin(2 * np.pi * t) + 0.05 * rng.standard_normal(40)
                         for _ in range(20)])
        oscillator = np.sin(40 * np.pi * t)
        sample = make_sample(np.vstack([bulk, oscillator]))
        result = tvdmss(sample)
        assert 20 in result.shape_outliers

    def test_huge_factors_flag_nothing(self):
        out = simulation_model(1, n=30, p=15, outlier_rate=0.0, seed=11)
        result = tvdmss(out.data, emp_factor_mss=10.0, emp_factor_tvd=10.0)
        assert result.outliers.size == 0

    def test_disjoint_classes(self):
        out = simulation_model(5, n=50, p=25, outlier_rate=0.15, seed=12)
        result = tvdmss(out.data)
        assert np.intersect1d(result.shape_outliers, result.magnitude_outliers).size == 0
        np.testing.assert_array_equal(
            result.outliers, np.union1d(result.shape_outliers, result.magnitude_outliers)
        )

    @pytest.mark.parametrize("factor", [-0.5, -np.inf, np.nan])
    def test_negative_or_nan_mss_factor_rejected(self, factor):
        # a negative factor would put the MSS fence above every curve
        out = simulation_model(1, n=30, p=15, outlier_rate=0.1, seed=11)
        with pytest.raises(ValidationError, match="emp_factor_mss"):
            tvdmss(out.data, emp_factor_mss=factor)

    @pytest.mark.parametrize("name", ["emp_factor_mss", "emp_factor_tvd"])
    def test_infinite_factors_rejected(self, name):
        out = simulation_model(1, n=30, p=15, outlier_rate=0.1, seed=11)
        with pytest.raises(ValidationError, match="factor"):
            tvdmss(out.data, **{name: np.inf})

    @pytest.mark.parametrize("factor", [np.nan, 0.0, -1.0, np.inf])
    def test_bad_tvd_factor_rejected_before_any_depth(self, monkeypatch, factor):
        def refuse(sample):
            raise AssertionError("a depth was computed")

        monkeypatch.setattr(fdout.detect, "total_variation_depth", refuse)
        monkeypatch.setattr(fdout.detect, "modified_shape_similarity", refuse)
        out = simulation_model(1, n=30, p=15, outlier_rate=0.1, seed=11)
        with pytest.raises(ValidationError, match="emp_factor_tvd"):
            tvdmss(out.data, emp_factor_tvd=factor)

    @pytest.mark.parametrize("region", [0.0, 1.0, -0.5, 2.0, np.inf, np.nan])
    def test_bad_central_region(self, region):
        # outside (0, 1) the central count would be cut to the kept curves,
        # or could not be formed at all
        out = simulation_model(1, n=30, p=15, outlier_rate=0.1, seed=11)
        with pytest.raises(BadCentralRegion):
            tvdmss(out.data, central_region_tvd=region)

    def test_zero_mss_factor_keeps_the_largest_mss(self):
        out = simulation_model(1, n=30, p=15, outlier_rate=0.1, seed=11)
        result = tvdmss(out.data, emp_factor_mss=0.0)
        assert 0 < result.shape_outliers.size < 30
        assert int(np.argmax(result.mss)) not in result.shape_outliers


class TestOTransform:
    def test_median_curve_becomes_zero_row(self):
        sample = as_multivariate(constant_curves([1.0, 2.0, 3.0]))
        curves = o_transform(sample)
        np.testing.assert_array_equal(curves.values[1], np.zeros(4))

    def test_values_nonnegative(self):
        values = np.random.default_rng(204).standard_normal((15, 8, 2))
        curves = o_transform(make_multi(values), rng=RandomSource(4))
        assert np.all(curves.values >= 0.0)

    def test_joint_outlier_has_maximal_mean(self):
        rng = np.random.default_rng(205)
        values = rng.standard_normal((20, 10, 2))
        values[7] += 8.0  # large bivariate shift
        curves = o_transform(make_multi(values), rng=RandomSource(5))
        assert np.argmax(curves.values.mean(axis=1)) == 7

    def test_no_rng_means_seed_zero(self):
        sample = make_multi(np.random.default_rng(206).standard_normal((12, 6, 2)))
        np.testing.assert_array_equal(
            o_transform(sample).values, o_transform(sample, rng=RandomSource(0)).values
        )

    def test_zero_mad_raises_numeric_error(self):
        values = np.random.default_rng(207).standard_normal((20, 6, 2))
        values[:12, 3] = 0.0
        with pytest.raises(NonFiniteOutlyingness, match=r"grid points \[3\]"):
            o_transform(make_multi(values))


class TestSeqTransform:
    def test_line_family_worked_example(self):
        result = seq_transform(line_family(), ["T0", "T1", "T2"])
        by_label = {s.label: s.outliers for s in result.stages}
        np.testing.assert_array_equal(by_label["T0"], [1])
        np.testing.assert_array_equal(by_label["T1"], [2])
        np.testing.assert_array_equal(by_label["T2"], [])

    def test_t1_zeroes_constant_curves(self):
        result = seq_transform(constant_curves(FIVE_LEVELS), ["T1"], save_data=True)
        np.testing.assert_array_equal(result.stages[0].sample.values, np.zeros((5, 4)))

    def test_t2_rows_have_unit_rms(self):
        out = simulation_model(1, n=12, p=9, outlier_rate=0.0, seed=13)
        result = seq_transform(out.data, ["T1", "T2"], save_data=True)
        values = result.stages[1].sample.values
        rms = np.sqrt((values * values).mean(axis=1))
        np.testing.assert_allclose(rms, 1.0, rtol=0, atol=1e-12)

    def test_t2_zero_norm_rows_stay_zero_with_warning(self):
        values = np.vstack([np.zeros(6), np.random.default_rng(206).standard_normal((5, 6))])
        result = seq_transform(make_sample(values), ["T2"], save_data=True)
        np.testing.assert_array_equal(result.stages[0].sample.values[0], np.zeros(6))
        assert any("zero-norm" in w for w in result.warnings)

    @pytest.mark.parametrize("exponent", [600, -600, 1000, -900])
    def test_t2_is_exact_under_power_of_two_scaling(self, exponent):
        # without the row pre-scale the squares overflow (every curve became
        # 0.0) or underflow (every curve was called zero-norm)
        values = simulation_model(4, n=30, p=12, seed=5).data.values
        plain = seq_transform(make_sample(values), ["T2"], save_data=True)
        scaled = seq_transform(make_sample(np.ldexp(values, exponent)), ["T2"], save_data=True)
        np.testing.assert_array_equal(scaled.stages[0].sample.values, plain.stages[0].sample.values)
        np.testing.assert_array_equal(scaled.stages[0].outliers, plain.stages[0].outliers)
        assert scaled.warnings == plain.warnings == ()

    @pytest.mark.parametrize("exponent", [600, -600, 1019])
    def test_t1_is_exact_under_power_of_two_scaling(self, exponent):
        # the row mean is formed after the same row pre-scale as T2's; without
        # it the row sums overflow at 2^1019
        values = simulation_model(4, n=30, p=12, seed=5).data.values
        plain = seq_transform(make_sample(values), ["T1"], save_data=True)
        scaled = seq_transform(make_sample(np.ldexp(values, exponent)), ["T1"], save_data=True)
        np.testing.assert_array_equal(scaled.stages[0].sample.values,
                                      np.ldexp(plain.stages[0].sample.values, exponent))
        np.testing.assert_array_equal(scaled.stages[0].outliers, plain.stages[0].outliers)

    @pytest.mark.parametrize("model", [1, 5, 7])
    def test_t1_matches_the_plain_row_mean_at_ordinary_magnitudes(self, model):
        values = simulation_model(model, n=25, p=40, seed=model).data.values
        result = seq_transform(make_sample(values), ["T1"], save_data=True)
        np.testing.assert_array_equal(result.stages[0].sample.values,
                                      values - values.mean(axis=1, keepdims=True))

    def test_overflowing_stage_raises_numeric_error_naming_it(self):
        # the centred curves of mixed-sign rows near the largest double
        # overflow, not any input cell
        rng = np.random.default_rng(7)
        values = rng.choice([-1.0, 1.0], size=(30, 8)) * rng.uniform(0.99, 1.0, (30, 8)) * 1.7e308
        with pytest.raises(NonFiniteResult, match="stage T1 overflows"):
            seq_transform(make_sample(values), ["T1"])

    def test_d1_shrinks_grid_by_one(self):
        out = simulation_model(1, n=8, p=10, outlier_rate=0.0, seed=14)
        result = seq_transform(out.data, ["D1"], save_data=True)
        transformed = result.stages[0].sample
        assert transformed.p == 9
        np.testing.assert_array_equal(transformed.grid.points, out.data.grid.points[1:])

    def test_d1_commutes_with_permutation(self):
        rng = np.random.default_rng(207)
        values = rng.standard_normal((7, 8))
        perm = rng.permutation(7)
        direct = seq_transform(make_sample(values[perm]), ["D1"], save_data=True)
        swapped = seq_transform(make_sample(values), ["D1"], save_data=True)
        np.testing.assert_array_equal(
            direct.stages[0].sample.values, swapped.stages[0].sample.values[perm]
        )

    def test_second_difference_of_quadratic_is_constant(self):
        t = np.linspace(0.0, 1.0, 12)
        h = t[1] - t[0]
        a = 3.0
        curves = np.vstack([a * t**2, a * t**2 + 1.0, 2.0 * a * t**2])
        result = seq_transform(make_sample(curves), ["D1", "D2"], save_data=True)
        second = result.stages[1].sample.values
        np.testing.assert_allclose(second[0], 2.0 * a * h * h, rtol=0, atol=1e-12)
        np.testing.assert_allclose(second[1], 2.0 * a * h * h, rtol=0, atol=1e-12)

    def test_duplicate_labels_suffixed(self):
        out = simulation_model(1, n=10, p=8, outlier_rate=0.0, seed=15)
        result = seq_transform(out.data, ["T0", "T0", "D1"])
        assert [s.label for s in result.stages] == ["T0_1", "T0_2", "D1"]
        assert any("duplicate" in w for w in result.warnings)

    def test_stage_sets_are_stateless(self):
        out = simulation_model(6, n=30, p=20, outlier_rate=0.1, seed=16)
        piped = seq_transform(out.data, ["T0", "T1"], save_data=True,
                              rng=RandomSource(9))
        standalone = seq_transform(
            piped.stages[1].sample, ["T0"], rng=RandomSource(9).child(1)
        )
        np.testing.assert_array_equal(
            piped.stages[1].outliers, standalone.stages[0].outliers
        )

    def test_o_stage_reduces_multivariate(self):
        values = np.random.default_rng(208).standard_normal((15, 8, 2))
        values[3] += 6.0
        result = seq_transform(
            make_multi(values), ["O"], depth_method="erld",
            erld_type="one_sided_right", rng=RandomSource(6), save_data=True,
        )
        assert result.stages[0].sample.values.shape == (15, 8)
        assert 3 in result.stages[0].outliers

    def test_o_on_univariate_rejected(self):
        with pytest.raises(OOnUnivariate):
            seq_transform(line_family(), ["O"])

    @pytest.mark.parametrize("n, p, d, sequence, kwargs, error, message", [
        (3, 17, 1, ["T0", "T1"], {"factor": np.nan}, ValidationError,
         "factor must be positive and finite, got nan"),
        (3, 17, 1, ["T0", "T1"], {"factor": -1.0}, ValidationError,
         "factor must be positive and finite, got -1.0"),
        (3, 17, 1, ["T0", "T1"], {"central_region": 2.0}, BadCentralRegion,
         "central_region must lie in (0, 1), got 2.0"),
        (3, 17, 1, ["T1", "T2", "O"], {}, OOnUnivariate, "the O stage needs multivariate curves"),
        (10, 6, 2, ["O", "T1", "O"], {}, OOnUnivariate, "the O stage needs multivariate curves"),
        (10, 6, 2, ["T1"], {}, ValidationError,
         "stage T1 needs univariate curves; apply an O stage first"),
        (3, 17, 1, ["T0", "D1"], {"depth_method": "erld", "erld_type": "bogus"}, UnknownErldType,
         "type must be one of ('two_sided', 'one_sided_right', 'one_sided_left'), got 'bogus'"),
        (3, 3, 1, ["D1", "D2"], {}, TooFewPoints,
         "stage D2 at position 2 leaves 1 grid point; curves need at least 2"),
        (3, 2, 1, ["D1"], {}, TooFewPoints,
         "stage D1 at position 1 leaves 1 grid point; curves need at least 2"),
        # the ordering's and the O stage's least number of curves
        (4, 6, 1, ["T1", "T2"], {"depth_method": "dq"}, TooFewCurves,
         "directional_quantile needs at least 5 curves, got 4"),
        (2, 6, 1, ["T1"], {"depth_method": "bd"}, TooFewCurves,
         "band_depth needs at least 3 curves, got 2"),
        (6, 6, 1, ["T1"], {"depth_method": "rmd"}, TooFewCurves,
         "msplot needs at least 7 curves, got 6"),
        (1, 6, 1, ["T0"], {"depth_method": "erld"}, TooFewCurves,
         "extreme_rank_length needs at least 2 curves, got 1"),
        (2, 6, 2, ["O"], {"depth_method": "mbd"}, TooFewCurves,
         "pointwise_sdo needs at least 3 curves, got 2"),
        (4, 6, 2, ["O", "T1"], {"depth_method": "dq"}, TooFewCurves,
         "directional_quantile needs at least 5 curves, got 4"),
        (5, 6, 2, ["O"], {"depth_method": "rmd"}, TooFewCurves,
         "msplot needs at least 7 curves, got 5"),
    ])
    def test_bad_fence_parameters_rejected_before_any_stage(
            self, monkeypatch, n, p, d, sequence, kwargs, error, message):
        def refuse(*args, **kwargs):
            raise AssertionError("a stage was computed")

        for name in ("_center_rows", "_normalise_rows", "_difference_rows", "o_transform",
                     "depth_by_name"):
            monkeypatch.setattr(fdout.detect, name, refuse)
        values = np.random.default_rng(209).standard_normal((n, p, d))
        sample = make_sample(values[:, :, 0]) if d == 1 else make_multi(values)
        with pytest.raises(error, match=f"^{re.escape(message)}$"):
            seq_transform(sample, sequence, **kwargs)

    def test_save_data_keeps_every_stage_sample(self):
        out = simulation_model(1, n=20, p=12, outlier_rate=0.1, seed=17)
        t0, t1, d1 = (stage.sample for stage in seq_transform(
            out.data, ["T0", "T1", "D1"], save_data=True).stages)
        assert t0 is out.data
        tolerance = 8 * np.finfo(float).eps * np.abs(out.data.values).max()
        np.testing.assert_allclose(t1.values.mean(axis=1), 0.0, atol=tolerance)
        assert d1.values.shape == (20, 11)
        np.testing.assert_array_equal(d1.grid.points, out.data.grid.points[1:])
        unsaved = seq_transform(out.data, ["T0", "T1", "D1"])
        assert [stage.sample for stage in unsaved.stages] == [None] * 3

    def test_empty_sequence(self):
        with pytest.raises(EmptySequence):
            seq_transform(line_family(), [])

    def test_unknown_stage(self):
        with pytest.raises(ValidationError):
            seq_transform(line_family(), ["T9"])

    def test_unknown_depth_method(self):
        with pytest.raises(UnknownDepthMethod):
            seq_transform(line_family(), ["T0"], depth_method="bogus")

    def test_stage_set_differences(self):
        result = seq_transform(line_family(), ["T0", "T1", "T2"])
        newly = stage_set_differences(result)
        assert [label for label, _ in newly] == ["T0", "T1", "T2"]
        np.testing.assert_array_equal(newly[0][1], [1])
        np.testing.assert_array_equal(newly[1][1], [2])
        np.testing.assert_array_equal(newly[2][1], [])
