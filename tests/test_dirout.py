import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from fdout import (
    RandomSource,
    decompose,
    directional_outlyingness,
    pointwise_sdo,
)
from fdout.dirout import DirectionalOutlyingnessField
from fdout.errors import BadWeights, TooFewCurves

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
        sample = constant_curves([1.0, 2.0, 3.0, 4.0, 5.0]).to_multivariate()
        sdo = pointwise_sdo(sample)
        np.testing.assert_allclose(sdo[4], 2.0 / 1.4826, rtol=0, atol=1e-15)
        np.testing.assert_allclose(sdo[3], 1.0 / 1.4826, rtol=0, atol=1e-15)
        np.testing.assert_array_equal(sdo[2], np.zeros(4))

    def test_median_curve_scores_zero(self):
        sample = constant_curves([1.0, 2.0, 3.0]).to_multivariate()
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

    def test_too_few_curves(self):
        with pytest.raises(TooFewCurves):
            pointwise_sdo(make_multi(np.zeros((2, 3, 1))))


class TestCurveSampleEqualsD1Multi:
    def test_pointwise_sdo(self):
        sample = make_sample(np.random.default_rng(34).standard_normal((9, 5)))
        np.testing.assert_array_equal(
            pointwise_sdo(sample), pointwise_sdo(sample.to_multivariate())
        )

    def test_directional_outlyingness(self):
        sample = make_sample(np.random.default_rng(35).standard_normal((9, 5)))
        a = directional_outlyingness(sample)
        b = directional_outlyingness(sample.to_multivariate())
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
        field = directional_outlyingness(constant_curves([1.0, 2.0, 3.0]).to_multivariate())
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

    def test_custom_weights_are_normalised(self):
        field = random_field(50, n=4, p=5)
        raw = np.array([1.0, 2.0, 3.0, 4.0, 10.0])
        dec = decompose(field, weights=raw)
        np.testing.assert_allclose(dec.weights.sum(), 1.0, atol=1e-15)
        same = decompose(field, weights=raw / raw.sum())
        np.testing.assert_allclose(dec.mo, same.mo, atol=1e-14)

    @pytest.mark.parametrize(
        "weights",
        [
            [0.5, 0.5],  # wrong length for p=5
            [0.2, 0.2, 0.2, 0.2, -0.2],
            [0.0, 0.0, 0.0, 0.0, 0.0],
            [0.2, 0.2, 0.2, 0.2, np.nan],
        ],
    )
    def test_bad_weights(self, weights):
        with pytest.raises(BadWeights):
            decompose(random_field(51, n=4, p=5), weights=weights)


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
