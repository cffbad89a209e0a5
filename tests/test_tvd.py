import warnings

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy import stats

from fdout import modified_shape_similarity, total_variation_depth
from fdout.depths import pointwise_ranks
from fdout.errors import EmptyInput, ShapeMismatch
from fdout.simmodels import simulation_model
from fdout.tvd import indicator_variance_terms

from . import oracles
from .conftest import constant_curves, make_sample


def random_sample(seed, n, p, ties=False):
    rng = np.random.default_rng(seed)
    values = rng.standard_normal((n, p))
    if ties:
        values = np.round(values * 2.0) / 2.0
    return make_sample(values)


class TestTotalVariationDepth:
    def test_three_constant_curves(self):
        tvd = total_variation_depth(constant_curves([0.0, 1.0, 2.0]))
        np.testing.assert_allclose(tvd, [2 / 9, 2 / 9, 0.0], rtol=0, atol=1e-15)

    def test_pointwise_max_curve_scores_zero(self):
        rng = np.random.default_rng(70)
        bulk = rng.standard_normal((9, 6))
        top = bulk.max(axis=0) + 1.0
        tvd = total_variation_depth(make_sample(np.vstack([bulk, top])))
        assert tvd[-1] == 0.0

    def test_matches_naive_oracle(self):
        sample = random_sample(71, 15, 10)
        np.testing.assert_allclose(
            total_variation_depth(sample),
            oracles.total_variation_depth(sample.values),
            rtol=0,
            atol=1e-14,
        )

    def test_matches_naive_oracle_with_ties(self):
        sample = random_sample(72, 12, 8, ties=True)
        np.testing.assert_allclose(
            total_variation_depth(sample),
            oracles.total_variation_depth(sample.values),
            rtol=0,
            atol=1e-14,
        )

    def test_monotone_transform_invariance_exact(self):
        sample = random_sample(73, 10, 7)
        transformed = make_sample(np.exp(sample.values))
        np.testing.assert_array_equal(
            total_variation_depth(sample), total_variation_depth(transformed)
        )

    def test_range(self):
        tvd = total_variation_depth(random_sample(74, 20, 9))
        assert np.all(tvd >= 0.0) and np.all(tvd <= 0.25)

    def test_equals_scipy_rank_formula_bit_for_bit(self):
        # the mean along the grid sums in memory order, so this also pins the
        # rank kernel's column-major layout
        sample = random_sample(71, 60, 300, ties=True)
        p_hat = stats.rankdata(sample.values, method="max", axis=0) / sample.n
        np.testing.assert_array_equal(
            total_variation_depth(sample), (p_hat * (1.0 - p_hat)).mean(axis=1)
        )

    def test_tie_free_column_rank_multiset(self):
        # the below-fractions at a tie-free column are exactly {1/n, ..., 1}
        values = np.random.default_rng(75).standard_normal((8, 3))
        below, _above = pointwise_ranks(values)
        for t in range(3):
            np.testing.assert_array_equal(
                np.sort(below[:, t] / 8.0), np.arange(1, 9) / 8.0
            )


class TestIndicatorVarianceTerms:
    def test_law_of_total_variance(self):
        rng = np.random.default_rng(76)
        for _ in range(50):
            r_s = rng.integers(0, 2, size=12).astype(bool)
            r_t = rng.integers(0, 2, size=12).astype(bool)
            total, explained, unexplained = indicator_variance_terms(r_s, r_t)
            assert total == pytest.approx(explained + unexplained, abs=1e-15)

    def test_degenerate_conditioning(self):
        r_t = np.array([True, False, True, False])
        total, explained, unexplained = indicator_variance_terms(
            np.zeros(4, dtype=bool), r_t
        )
        assert explained == 0.0
        assert total == pytest.approx(unexplained, abs=1e-15)

    @pytest.mark.parametrize("r_s, r_t, error", [
        (np.ones(5), np.ones(4), ShapeMismatch),
        (np.ones(5), np.ones(1), ShapeMismatch),
        (np.ones(1), np.ones(5), ShapeMismatch),
        (np.ones(0), np.ones(0), EmptyInput),
    ])
    def test_vectors_of_other_shapes_or_empty_raise(self, r_s, r_t, error):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(error):
                indicator_variance_terms(r_s, r_t)

    def test_perfect_prediction(self):
        r = np.array([True, False, True, False, True])
        total, explained, unexplained = indicator_variance_terms(r, r)
        assert explained == pytest.approx(total, abs=1e-15)
        assert unexplained == pytest.approx(0.0, abs=1e-15)


class TestModifiedShapeSimilarity:
    def test_identical_curves_score_one(self):
        sample = make_sample(np.tile([0.0, 1.0, 0.5, 2.0], (5, 1)))
        np.testing.assert_array_equal(modified_shape_similarity(sample), np.ones(5))

    def test_matches_naive_oracle(self):
        sample = random_sample(77, 15, 10)
        np.testing.assert_allclose(
            modified_shape_similarity(sample),
            oracles.modified_shape_similarity(sample.values),
            rtol=0,
            atol=1e-12,
        )

    def test_matches_naive_oracle_with_ties(self):
        sample = random_sample(78, 12, 9, ties=True)
        np.testing.assert_allclose(
            modified_shape_similarity(sample),
            oracles.modified_shape_similarity(sample.values),
            rtol=0,
            atol=1e-12,
        )

    def test_matching_increments_beat_flipped_increments(self):
        t = np.linspace(0.0, 1.0, 25)
        bulk = np.array([np.sin(2 * np.pi * t) + 0.1 * i for i in range(10)])
        matching = np.sin(2 * np.pi * t) + 1.5
        flipped = -np.sin(2 * np.pi * t) + 0.45
        sample = make_sample(np.vstack([bulk, matching, flipped]))
        mss = modified_shape_similarity(sample)
        assert mss[10] >= mss[11]

    def test_range(self):
        mss = modified_shape_similarity(random_sample(79, 18, 11))
        assert np.all(mss >= 0.0) and np.all(mss <= 1.0)

    def test_equals_the_unsorted_queries_where_thresholds_meet_values(self):
        # integer curves, n odd: the medians and so the thresholds are
        # integers in the columns' range, and side="right" counts the ties
        values = np.random.default_rng(80).integers(0, 4, (31, 12)).astype(float)
        med = np.median(values, axis=0)
        thresholds = values[:, :-1] - values[:, 1:] + med[1:]
        assert (thresholds[:, None, :] == values[None, :, :-1]).any()
        np.testing.assert_array_equal(
            modified_shape_similarity(make_sample(values)),
            oracles.modified_shape_similarity_unsorted(values),
        )

    @pytest.mark.parametrize("exponent", [600, -600])
    def test_exact_under_power_of_two_scaling(self, exponent):
        # comparisons, thresholds and weight ratios are exact under the
        # scaling, so the scores keep their bits
        for model in (1, 6, 8):
            values = simulation_model(model, n=50, p=30, seed=82).data.values
            np.testing.assert_array_equal(
                modified_shape_similarity(make_sample(np.ldexp(values, exponent))),
                modified_shape_similarity(make_sample(values)))

    def test_curves_near_the_largest_double_score_as_scaled_down_ones(self):
        rng = np.random.default_rng(83)
        values = rng.choice([-1.0, 1.0], (30, 12)) * rng.uniform(0.99, 1.0, (30, 12)) * 1.7e308
        mss = modified_shape_similarity(make_sample(values))
        assert np.isfinite(mss).all()
        np.testing.assert_array_equal(
            mss, modified_shape_similarity(make_sample(np.ldexp(values, -1000))))

    def test_equals_the_unsorted_queries_at_full_size(self):
        values = simulation_model(6, n=2000, p=200, seed=81).data.values
        np.testing.assert_array_equal(
            modified_shape_similarity(make_sample(values)),
            oracles.modified_shape_similarity_unsorted(values),
        )


@given(st.integers(0, 10**6), st.integers(2, 10), st.integers(2, 8))
def test_tvd_mss_oracles_on_random_instances(seed, n, p):
    sample = random_sample(seed, n, p, ties=bool(seed % 3 == 0))
    np.testing.assert_allclose(
        total_variation_depth(sample),
        oracles.total_variation_depth(sample.values),
        rtol=0,
        atol=1e-14,
    )
    np.testing.assert_allclose(
        modified_shape_similarity(sample),
        oracles.modified_shape_similarity(sample.values),
        rtol=0,
        atol=1e-12,
    )
    mss = modified_shape_similarity(sample)
    assert np.all(mss >= 0.0) and np.all(mss <= 1.0)
