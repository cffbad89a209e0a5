import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fdout import (
    RandomSource,
    as_multivariate,
    decompose,
    directional_outlyingness,
    pointwise_sdo,
)
from fdout.dirout import DirectionalOutlyingnessField, _project, _unit_directions
from fdout.errors import TooFewCurves

from . import oracles
from .conftest import constant_curves, make_multi, make_sample


def random_field(seed, n=8, p=6, d=1):
    rng = np.random.default_rng(seed)
    return DirectionalOutlyingnessField(
        values=rng.standard_normal((n, p, d)),
        sdo=np.abs(rng.standard_normal((n, p))),
        grid=make_multi(np.zeros((n, p, d))).grid,
    )


class TestPointwiseSdo:
    def test_exact_univariate_column(self):
        sample = as_multivariate(constant_curves([1.0, 2.0, 3.0, 4.0, 5.0]))
        sdo = pointwise_sdo(sample)
        np.testing.assert_allclose(sdo[4], 2.0 / 1.4826, rtol=0, atol=1e-15)
        np.testing.assert_allclose(sdo[3], 1.0 / 1.4826, rtol=0, atol=1e-15)
        np.testing.assert_array_equal(sdo[2], np.zeros(4))

    def test_median_curve_scores_zero(self):
        sample = as_multivariate(constant_curves([1.0, 2.0, 3.0]))
        np.testing.assert_array_equal(pointwise_sdo(sample)[1], np.zeros(4))

    def test_mad_zero_sentinel(self):
        # columns of near-total ties: zero MAD, nonzero deviation -> +inf
        values = np.array([[1.0, 1.0], [1.0, 1.0], [1.0, 1.0], [1.0, 1.0], [9.0, 9.0]])
        sdo = pointwise_sdo(make_multi(values[:, :, None]))
        np.testing.assert_array_equal(sdo[4], np.array([np.inf, np.inf]))
        np.testing.assert_array_equal(sdo[:4], np.zeros((4, 2)))

    def test_d2_within_dense_direction_oracle(self):
        rng = np.random.default_rng(30)
        values = rng.standard_normal((50, 2, 2))
        sample = make_multi(values)
        approx = pointwise_sdo(sample, rng=RandomSource(17))
        dense = oracles.sdo_dense(values, oracles.half_circle_directions(100000))
        assert np.all(approx <= dense * (1.0 + 1e-3) + 1e-12)
        assert np.all(approx >= 0.9 * dense)

    def test_deterministic_given_seed(self):
        values = np.random.default_rng(31).standard_normal((12, 5, 2))
        sample = make_multi(values)
        a = pointwise_sdo(sample, rng=RandomSource(5))
        b = pointwise_sdo(sample, rng=RandomSource(5))
        np.testing.assert_array_equal(a, b)

    @pytest.mark.parametrize("d", [1, 2, 3])
    @pytest.mark.parametrize("p", [3, 17, 999, 1201])
    def test_columns_depend_only_on_their_grid_point(self, p, d):
        # grid points are processed in blocks; a column must not see its block
        values = np.round(np.random.default_rng(p * 10 + d).standard_normal((6, p, d)), 1)
        full = pointwise_sdo(make_multi(values), rng=RandomSource(d))
        for t in sorted({0, 1, p // 2, p - 2}):
            pair = pointwise_sdo(make_multi(values[:, t:t + 2]), rng=RandomSource(d))
            np.testing.assert_array_equal(full[:, t:t + 2], pair)

    def test_too_few_curves(self):
        with pytest.raises(TooFewCurves):
            pointwise_sdo(make_multi(np.zeros((2, 3, 1))))

    def test_leaves_the_ufunc_buffer_size_as_it_found_it(self):
        # the block loop shrinks numpy's ufunc buffer while it runs
        before = np.setbufsize(4096)
        try:
            pointwise_sdo(make_multi(np.random.default_rng(36).standard_normal((5, 3, 2))))
            assert np.getbufsize() == 4096
        finally:
            np.setbufsize(before)


def two_median_sdo(values, seed):
    d = values.shape[2]
    directions = np.ones((1, 1)) if d == 1 else _unit_directions(RandomSource(seed), d)
    return oracles.pointwise_sdo_two_medians(values, directions)


def assert_matches_two_medians(values, seed=1):
    expected = two_median_sdo(values, seed)
    got = pointwise_sdo(make_multi(values), rng=RandomSource(seed))
    assert np.array_equal(got, expected, equal_nan=True)
    return expected


class TestSdoMatchesTwoMedianOracle:
    """One sort per row gives the same floats as two np.median calls, and the
    projections, summed in coordinate order, those of the oracle."""

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("d", [1, 2, 3, 4, 5, 6, 7, 8, 9, 12])
    @pytest.mark.parametrize("n", [3, 4, 5, 8, 9, 40, 41])
    def test_even_and_odd_n(self, n, d):
        values = np.random.default_rng(n * 10 + d).standard_normal((n, 7, d))
        assert_matches_two_medians(values, seed=d)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("d", [1, 2, 3, 4, 5, 6, 7, 8, 9, 12])
    @pytest.mark.parametrize("decimals", [0, 1])
    def test_tied_and_rounded_values(self, decimals, d):
        rng = np.random.default_rng(decimals * 10 + d)
        values = np.round(rng.standard_normal((12, 9, d)) * 2.0, decimals)
        values[:, 3] = values[0, 3]  # one grid point where every curve ties
        assert_matches_two_medians(values, seed=d)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("d", [1, 2, 3, 4, 5, 6, 7, 8, 9, 12])
    @pytest.mark.parametrize("n", [7, 8])
    def test_zero_mad_columns(self, n, d):
        values = np.random.default_rng(n + d).standard_normal((n, 5, d))
        values[: n // 2 + 1, ::2] = 0.5  # a majority on one point: zero MAD
        expected = assert_matches_two_medians(values, seed=d)
        assert np.isinf(expected[:, ::2]).any()

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("d", [1, 2, 3, 4, 5, 6, 7, 8, 9, 12])
    def test_blocks_of_several_grid_points(self, d):
        values = np.round(np.random.default_rng(d).standard_normal((6, 1203, d)), 1)
        assert_matches_two_medians(values, seed=d)

    @pytest.mark.parametrize("sign", ["mixed", "positive"])
    def test_projections_overflowing_to_nan(self, sign):
        rng = np.random.default_rng(5)
        values = 1.7e308 * rng.uniform(0.9, 1.0, (30, 8, 2))
        if sign == "mixed":
            values *= rng.choice([-1.0, 1.0], values.shape)
        with np.errstate(over="ignore", invalid="ignore"):
            expected = assert_matches_two_medians(values, seed=3)
        assert np.isnan(expected).all()

    def test_projections_overflowing_to_inf_on_one_curve(self):
        values = np.random.default_rng(6).standard_normal((9, 8, 2))
        values[4] = 1.7e308
        with np.errstate(over="ignore", invalid="ignore"):
            expected = assert_matches_two_medians(values, seed=4)
        assert np.isinf(expected[4]).any() and np.isfinite(expected[:4]).all()

    @pytest.mark.parametrize("d", [5, 6, 8, 12])
    def test_finite_curves_never_project_to_nan(self, d):
        # near 1.79e308 a projection's running sum can overflow to +-inf,
        # but every product is finite, so it never forms inf - inf
        rng = np.random.default_rng(d)
        nan_rows = 0
        for seed in range(40):
            n = int(rng.integers(4, 12))
            values = rng.standard_normal((n, 3, d))
            for row in rng.choice(n, int(rng.integers(1, 3)), replace=False):
                values[row] = rng.choice([-1.0, 1.0], (3, d)) * 1.79e308
            with np.errstate(over="ignore", invalid="ignore"):
                assert_matches_two_medians(values, seed=seed)
                directions = _unit_directions(RandomSource(seed), d)
                proj = np.empty((3, len(directions), n))
                _project(values, directions, proj, np.empty_like(proj))
                nan_rows += np.isnan(proj).any()
        assert nan_rows == 0

    def test_medians_that_are_nan_or_infinite(self):
        # magnitudes up to 1.79e308 overflow many projections to +-inf, so
        # some columns have a median of +-inf or NaN (-inf and +inf in the
        # middle) and NaN deviations from it
        rng = np.random.default_rng(8)
        for seed in range(200):
            n, d = int(rng.integers(3, 12)), int(rng.integers(2, 4))
            magnitudes = rng.choice([1.0, 1e307, 1.7e308, 1.79e308], size=(n, 3, d))
            signs = rng.choice([-1.0, 0.0, 1.0], size=(n, 3, d))
            values = signs * rng.uniform(0.5, 1.0, (n, 3, d)) * magnitudes
            with np.errstate(over="ignore", invalid="ignore"):
                assert_matches_two_medians(values, seed=seed)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(3, 12), st.integers(1, 3), st.integers(0, 2), st.integers(0, 10**6))
    def test_random_rounded_samples(self, n, d, decimals, seed):
        values = np.round(np.random.default_rng(seed).standard_normal((n, 3, d)), decimals)
        assert_matches_two_medians(values, seed=seed % 7)


class TestCurveSampleEqualsD1Multi:
    def test_pointwise_sdo(self):
        sample = make_sample(np.random.default_rng(34).standard_normal((9, 5)))
        np.testing.assert_array_equal(
            pointwise_sdo(sample), pointwise_sdo(as_multivariate(sample))
        )

    def test_directional_outlyingness(self):
        sample = make_sample(np.random.default_rng(35).standard_normal((9, 5)))
        a = directional_outlyingness(sample)
        b = directional_outlyingness(as_multivariate(sample))
        np.testing.assert_array_equal(a.values, b.values)
        np.testing.assert_array_equal(a.sdo, b.sdo)


class TestDirectionalOutlyingness:
    def test_sign_matches_deviation_from_median(self):
        values = np.random.default_rng(32).standard_normal((9, 7))
        field = directional_outlyingness(make_multi(values[:, :, None]))
        med = np.median(values, axis=0)
        signs = np.sign(values - med)
        np.testing.assert_array_equal(np.sign(field.values[:, :, 0]), signs)

    def test_center_curve_zero_field(self):
        field = directional_outlyingness(as_multivariate(constant_curves([1.0, 2.0, 3.0])))
        np.testing.assert_array_equal(field.values[1], np.zeros((4, 1)))

    def test_magnitude_equals_sdo_univariate(self):
        values = np.random.default_rng(33).standard_normal((20, 10))
        sample = make_multi(values[:, :, None])
        field = directional_outlyingness(sample)
        np.testing.assert_array_equal(np.abs(field.values[:, :, 0]), field.sdo)

    def test_d2_magnitude_equals_sdo(self):
        values = np.random.default_rng(34).standard_normal((15, 4, 2))
        sample = make_multi(values)
        field = directional_outlyingness(sample, rng=RandomSource(3))
        norms = np.linalg.norm(field.values, axis=2)
        centered = np.allclose(norms, field.sdo, atol=1e-10)
        assert centered

    def test_d2_center_rows_near_zero(self):
        # one curve pinned at the geometric median of a symmetric cloud
        base = np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]])
        values = np.concatenate(
            [np.tile(base[:, None, :], (1, 3, 1)), np.zeros((1, 3, 2))], axis=0
        )
        field = directional_outlyingness(make_multi(values), rng=RandomSource(4))
        np.testing.assert_allclose(field.values[4], 0.0, atol=1e-6)


class TestDecompose:
    def test_zero_field(self):
        field = DirectionalOutlyingnessField(
            values=np.zeros((3, 5, 1)), sdo=np.zeros((3, 5)),
            grid=make_multi(np.zeros((3, 5, 1))).grid,
        )
        dec = decompose(field)
        np.testing.assert_array_equal(dec.mo, np.zeros((3, 1)))
        np.testing.assert_array_equal(dec.vo, np.zeros(3))
        np.testing.assert_array_equal(dec.fo, np.zeros(3))

    def test_constant_field(self):
        c = 1.75
        field = DirectionalOutlyingnessField(
            values=np.full((2, 6, 1), c), sdo=np.full((2, 6), c),
            grid=make_multi(np.zeros((2, 6, 1))).grid,
        )
        dec = decompose(field)
        np.testing.assert_allclose(dec.mo[:, 0], c, atol=1e-15)
        np.testing.assert_allclose(dec.vo, 0.0, atol=1e-15)
        np.testing.assert_allclose(dec.fo, c * c, atol=1e-14)

    @pytest.mark.parametrize("d", [1, 2])
    def test_total_identity(self, d):
        field = random_field(40 + d, n=10, p=8, d=d)
        dec = decompose(field)
        np.testing.assert_allclose(
            dec.fo, (dec.mo**2).sum(axis=1) + dec.vo, rtol=0, atol=1e-10
        )
        assert np.all(dec.vo >= 0.0)


class TestInvariance:
    def test_vo_invariant_under_translation(self):
        values = np.random.default_rng(60).standard_normal((12, 9))
        sample = make_multi(values[:, :, None])
        shifted = make_multi((values + 3.25)[:, :, None])
        vo = decompose(directional_outlyingness(sample)).vo
        vo_shifted = decompose(directional_outlyingness(shifted)).vo
        np.testing.assert_allclose(vo, vo_shifted, rtol=0, atol=1e-8)

    def test_sdo_scale_invariant_univariate(self):
        values = np.random.default_rng(61).standard_normal((11, 7))
        base = pointwise_sdo(make_multi(values[:, :, None]))
        scaled = pointwise_sdo(make_multi((values * 3.0)[:, :, None]))
        np.testing.assert_allclose(base, scaled, rtol=0, atol=1e-10)


@given(st.integers(0, 10**6), st.integers(1, 2))
def test_identity_holds_on_random_fields(seed, d):
    dec = decompose(random_field(seed, n=6, p=5, d=d))
    np.testing.assert_allclose(
        dec.fo, (dec.mo**2).sum(axis=1) + dec.vo, rtol=0, atol=1e-10
    )
