import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy import stats

from fdout import (
    band_depth,
    depth_by_name,
    directional_quantile,
    extremal_depth,
    extreme_rank_length,
    linfinity_depth,
    modified_band_depth,
)
from fdout import depths
from fdout.depths import (
    DEEPER_IS_LARGER,
    OUTLYING_IS_LARGER,
    DepthVector,
    pointwise_ranks,
    rankdata,
)
from fdout.errors import (
    NonFiniteResult,
    UnknownDepthMethod,
    UnknownErldType,
    ValidationError,
)
from fdout.simmodels import simulation_model

from . import oracles
from .conftest import constant_curves, make_sample


def random_sample(seed, n, p, ties=False):
    rng = np.random.default_rng(seed)
    values = rng.standard_normal((n, p))
    if ties:
        values = np.round(values * 2.0) / 2.0
    return make_sample(values)


class TestBandDepth:
    def test_three_constant_curves(self):
        scores = band_depth(constant_curves([0.0, 1.0, 2.0])).scores
        np.testing.assert_allclose(scores, [2 / 3, 1.0, 2 / 3], rtol=0, atol=0)

    def test_identical_curves_have_depth_one(self):
        sample = make_sample(np.tile([1.0, 2.0, 0.5], (4, 1)))
        np.testing.assert_array_equal(band_depth(sample).scores, np.ones(4))

    def test_matches_pair_enumeration_exactly(self):
        sample = random_sample(101, 10, 8)
        np.testing.assert_array_equal(
            band_depth(sample).scores, oracles.band_depth(sample.values)
        )

    def test_matches_oracle_with_ties(self):
        sample = random_sample(102, 9, 6, ties=True)
        np.testing.assert_array_equal(
            band_depth(sample).scores, oracles.band_depth(sample.values)
        )

    def test_direction_and_range(self):
        depth = band_depth(random_sample(103, 8, 5))
        assert depth.direction == DEEPER_IS_LARGER
        assert np.all(depth.scores >= 0.0) and np.all(depth.scores <= 1.0)


class TestModifiedBandDepth:
    def test_three_constant_curves(self):
        scores = modified_band_depth(constant_curves([0.0, 1.0, 2.0])).scores
        np.testing.assert_allclose(scores, [2 / 3, 1.0, 2 / 3], rtol=0, atol=0)

    def test_identical_curves_have_depth_one(self):
        sample = make_sample(np.tile([3.0, -1.0, 0.0, 2.0], (5, 1)))
        np.testing.assert_array_equal(modified_band_depth(sample).scores, np.ones(5))

    def test_matches_brute_force(self):
        sample = random_sample(104, 20, 15)
        np.testing.assert_allclose(
            modified_band_depth(sample).scores,
            oracles.modified_band_depth(sample.values),
            rtol=0,
            atol=1e-12,
        )

    def test_matches_brute_force_with_ties(self):
        sample = random_sample(105, 12, 7, ties=True)
        np.testing.assert_allclose(
            modified_band_depth(sample).scores,
            oracles.modified_band_depth(sample.values),
            rtol=0,
            atol=1e-12,
        )


class TestExtremeRankLength:
    def test_one_sided_right_constant_curves(self):
        sample = constant_curves([0.0, 1.0, 2.0])
        scores = extreme_rank_length(sample, type="one_sided_right").scores
        assert np.argmin(scores) == 2
        assert np.argmax(scores) == 0
        assert scores[0] == 1.0

    def test_two_sided_constant_curves(self):
        sample = constant_curves([0.0, 1.0, 2.0])
        scores = extreme_rank_length(sample, type="two_sided").scores
        assert np.argmax(scores) == 1
        assert scores[1] == 1.0

    def test_none_means_two_sided(self):
        sample = random_sample(105, 9, 6)
        depth = extreme_rank_length(sample, type=None)
        assert depth.method == "erld_two_sided"
        np.testing.assert_array_equal(depth.scores, extreme_rank_length(sample).scores)

    def test_identical_curves_all_one(self):
        sample = make_sample(np.tile([0.5, 1.5], (4, 1)))
        for kind in ("two_sided", "one_sided_right", "one_sided_left"):
            np.testing.assert_array_equal(
                extreme_rank_length(sample, type=kind).scores, np.ones(4)
            )

    @pytest.mark.parametrize("kind", ["two_sided", "one_sided_right", "one_sided_left"])
    def test_matches_oracle(self, kind):
        sample = random_sample(106, 11, 6)
        np.testing.assert_array_equal(
            extreme_rank_length(sample, type=kind).scores,
            oracles.extreme_rank_length(sample.values, kind),
        )

    @pytest.mark.parametrize("kind", ["two_sided", "one_sided_right", "one_sided_left"])
    def test_matches_oracle_with_ties(self, kind):
        sample = random_sample(107, 10, 5, ties=True)
        np.testing.assert_array_equal(
            extreme_rank_length(sample, type=kind).scores,
            oracles.extreme_rank_length(sample.values, kind),
        )

    def test_negation_swaps_sides(self):
        sample = random_sample(108, 9, 7)
        flipped = make_sample(-sample.values)
        right_on_neg = extreme_rank_length(flipped, type="one_sided_right").scores
        left_on_orig = extreme_rank_length(sample, type="one_sided_left").scores
        np.testing.assert_array_equal(right_on_neg, left_on_orig)


class TestDirectionalQuantile:
    def test_median_curve_scores_zero(self):
        rng = np.random.default_rng(110)
        half = rng.standard_normal((4, 6)) + 1.0
        values = np.vstack([half, -half, np.zeros(6)])
        scores = directional_quantile(make_sample(values)).scores
        assert scores[-1] == 0.0
        assert np.all(scores[-1] <= scores)

    def test_upper_tail_quantile_curve_scores_one(self):
        # 41 flat curves at 1..41: the 0.975 type-7 quantile is exactly 40,
        # so the curve at 40 sits exactly on the upper quantile curve.
        sample = constant_curves(np.arange(1.0, 42.0))
        scores = directional_quantile(sample).scores
        assert scores[39] == pytest.approx(1.0, abs=1e-12)

    def test_matches_direct_loop(self):
        sample = random_sample(111, 30, 20)
        np.testing.assert_allclose(
            directional_quantile(sample).scores,
            oracles.directional_quantile(sample.values),
            rtol=0,
            atol=1e-12,
        )

    def test_matches_direct_loop_where_the_floor_binds(self):
        # 60 curves tie at each point but for one above and one below: both
        # quantiles equal the median, so every denominator is the floor;
        # column 0 is all zero, and columns 1, 2 have a zero envelope
        rng = np.random.default_rng(113)
        values = np.repeat(rng.uniform(-8.0, 8.0, 8), 60).reshape(8, 60).T
        values[:, :3] = 0.0
        for t in range(1, 8):
            up, down = rng.choice(60, 2, replace=False)
            values[up, t] += rng.uniform(0.5, 4.0)
            values[down, t] -= rng.uniform(0.5, 4.0)
        scores = directional_quantile(make_sample(values)).scores
        assert scores.max() > 2.0**30
        np.testing.assert_array_equal(scores, oracles.directional_quantile(values))

    @pytest.mark.parametrize("k", [-900, -43, 43, 900])
    def test_scores_do_not_depend_on_units(self, k):
        # with an absolute floor this sample ordered its curves differently at 2**-43
        values = simulation_model(1, n=100, p=50, seed=3).data.values
        np.testing.assert_array_equal(
            directional_quantile(make_sample(values * 2.0**k)).scores,
            directional_quantile(make_sample(values)).scores,
        )

    def test_one_huge_curve_moves_no_other_floor(self):
        values = simulation_model(1, n=100, p=50, seed=3).data.values.copy()
        values[7] *= 1e20
        # the earlier absolute floor of 1e-12, which binds nowhere on this sample
        q_lo, med, q_hi = np.quantile(values, [0.025, 0.5, 0.975], axis=0)
        up = (values - med) / np.maximum(q_hi - med, 1e-12)
        down = (med - values) / np.maximum(med - q_lo, 1e-12)
        expected = np.maximum(up, down).max(axis=1)
        scores = directional_quantile(make_sample(values)).scores
        np.testing.assert_array_equal(np.delete(scores, 7), np.delete(expected, 7))

    def test_direction_is_outlyingness(self):
        depth = directional_quantile(random_sample(112, 8, 5))
        assert depth.direction == OUTLYING_IS_LARGER
        deeper = depth.as_deeper_is_larger()
        assert deeper.direction == DEEPER_IS_LARGER
        np.testing.assert_array_equal(deeper.scores, -depth.scores)


class TestLinfinityDepth:
    def test_three_constant_curves(self):
        scores = linfinity_depth(constant_curves([0.0, 1.0, 2.0])).scores
        np.testing.assert_allclose(scores, [0.5, 0.6, 0.5], rtol=0, atol=1e-15)

    def test_identical_curves(self):
        sample = make_sample(np.tile([2.0, 7.0], (3, 1)))
        np.testing.assert_array_equal(linfinity_depth(sample).scores, np.ones(3))

    def test_translation_invariance_exact(self):
        rng = np.random.default_rng(115)
        values = np.round(rng.standard_normal((7, 9)) * 1024.0) / 1024.0
        base = linfinity_depth(make_sample(values)).scores
        shifted = linfinity_depth(make_sample(values + 4.0)).scores
        np.testing.assert_array_equal(base, shifted)

    def test_matches_oracle(self):
        sample = random_sample(116, 12, 8)
        np.testing.assert_allclose(
            linfinity_depth(sample).scores,
            oracles.linfinity_depth(sample.values),
            rtol=0,
            atol=1e-13,
        )

    @pytest.mark.parametrize("n", [3, 9, 150, 301])
    def test_upper_triangle_equals_full_rows_bit_for_bit(self, n):
        # each row's mean over all n sup distances, the self term included
        values = np.round(np.random.default_rng(n).standard_normal((n, 11)) * 8.0, 2)
        full = np.array([np.abs(values - row).max(axis=1).mean() for row in values])
        assert np.array_equal(linfinity_depth(make_sample(values)).scores, 1.0 / (1.0 + full))

    def test_extreme_magnitudes_keep_distinct_scores_without_overflow(self):
        # the sums of sup distances at 1e307 overflow unless taken in units of
        # the curves' power of two; the order is that of the same curves at
        # 2**-1000 of that size, where nothing overflows
        base = np.random.default_rng(118).standard_normal((12, 6))
        huge = linfinity_depth(make_sample(base * 1e307)).scores
        tame = linfinity_depth(make_sample(base * 1e307 * 2.0**-1000)).scores
        assert np.all(huge > 0.0) and np.unique(huge).size == 12
        np.testing.assert_array_equal(np.argsort(huge), np.argsort(tame))

    def test_subnormal_curves_are_all_deepest(self):
        values = np.random.default_rng(119).standard_normal((5, 4)) * 1e-320
        np.testing.assert_array_equal(linfinity_depth(make_sample(values)).scores, np.ones(5))


class TestExtremalDepth:
    def test_middle_constant_curve_deepest(self):
        scores = extremal_depth(constant_curves([0.0, 1.0, 2.0])).scores
        assert np.argmax(scores) == 1
        assert scores[1] == 1.0

    def test_identical_curves(self):
        sample = make_sample(np.tile([1.0, 0.0, 2.0], (5, 1)))
        np.testing.assert_array_equal(extremal_depth(sample).scores, np.ones(5))

    def test_matches_naive_oracle(self):
        sample = random_sample(117, 10, 6)
        np.testing.assert_array_equal(
            extremal_depth(sample).scores, oracles.extremal_depth(sample.values)
        )

    def test_matches_naive_oracle_with_ties(self):
        sample = random_sample(118, 9, 5, ties=True)
        np.testing.assert_array_equal(
            extremal_depth(sample).scores, oracles.extremal_depth(sample.values)
        )


class TestPointwiseRanks:
    def test_tie_free_counts(self):
        rng = np.random.default_rng(119)
        values = rng.standard_normal((8, 5))
        below, above = pointwise_ranks(values)
        np.testing.assert_array_equal(below + above, np.full((8, 5), 9))

    def test_ties_inflate_counts(self):
        values = np.array([[1.0, 2.0], [1.0, 3.0], [4.0, 5.0]])
        below, above = pointwise_ranks(values)
        assert np.all(below + above >= 4)
        assert below[0, 0] + above[0, 0] == 5  # tied pair at t=0


# heavy ties from a few small integers, signed zeros, and magnitudes near the
# ends of the double range, on shapes down to one curve and one grid point
RANK_CELLS = st.one_of(
    st.integers(-2, 2).map(float),
    st.sampled_from([0.0, -0.0, 1e300, -1e300, 1e-300, -1e-300, 5e-324, -1.7e308]),
    st.floats(allow_nan=False, allow_infinity=False),
)


@given(arrays(np.float64, st.tuples(st.integers(1, 12), st.integers(1, 6)),
              elements=RANK_CELLS))
def test_rankdata_matches_scipy(values):
    n = values.shape[0]
    below, above = rankdata(values)
    assert below.dtype == above.dtype == np.int64
    np.testing.assert_array_equal(below, stats.rankdata(values, method="max", axis=0))
    np.testing.assert_array_equal(
        above, n + 1 - stats.rankdata(values, method="min", axis=0)
    )


@pytest.mark.parametrize("plant", [None, "tie", "signed_zeros"])
def test_rankdata_matches_tie_aware_reference(plant):
    # the simulated sample takes the tie-free path, a planted pair the other
    values = simulation_model(1, n=2000, p=200, seed=19).data.values.copy()
    if plant == "tie":
        values[7, -1] = values[1500, -1]
    elif plant == "signed_zeros":
        values[7, 100], values[1500, 100] = 0.0, -0.0
    assert (np.diff(np.sort(values, axis=0), axis=0) > 0).all() == (plant is None)
    below, above = rankdata(values)
    ref_below, ref_above = oracles.rankdata_tie_aware(values)
    np.testing.assert_array_equal(below, ref_below)
    np.testing.assert_array_equal(above, ref_above)
    assert below.flags.f_contiguous and above.flags.f_contiguous
    np.testing.assert_array_equal(
        modified_band_depth(make_sample(values)).scores,
        oracles.modified_band_depth_float(values),
    )


class TestShiftInvariance:
    """Rank-based orderings ignore a common shift; scores match exactly."""

    @pytest.mark.parametrize(
        "measure",
        [
            band_depth,
            modified_band_depth,
            extremal_depth,
            lambda s: extreme_rank_length(s, type="two_sided"),
        ],
    )
    def test_scores_unchanged(self, measure):
        rng = np.random.default_rng(120)
        values = np.round(rng.standard_normal((9, 7)) * 1024.0) / 1024.0
        base = measure(make_sample(values)).scores
        shifted = measure(make_sample(values + 4.0)).scores
        np.testing.assert_array_equal(base, shifted)
        np.testing.assert_array_equal(np.argsort(base), np.argsort(shifted))


class TestDepthVector:
    def test_length_and_double_negation(self):
        dv = DepthVector(np.array([0.1, 0.9]), OUTLYING_IS_LARGER, "demo")
        assert len(dv) == 2
        assert dv.as_deeper_is_larger().as_deeper_is_larger().direction == DEEPER_IS_LARGER

    def test_deeper_is_larger_is_identity(self):
        dv = DepthVector(np.array([0.2, 0.4]), DEEPER_IS_LARGER, "demo")
        np.testing.assert_array_equal(dv.as_deeper_is_larger().scores, dv.scores)

    def test_rejects_non_finite_scores(self):
        with pytest.raises(NonFiniteResult, match="demo depth scores are not finite"):
            DepthVector(np.array([0.1, np.nan]), DEEPER_IS_LARGER, "demo")


@pytest.mark.parametrize("build, error", [
    (lambda: extreme_rank_length(random_sample(109, 4, 3), type="sideways"), UnknownErldType),
    (lambda: depth_by_name(random_sample(109, 4, 3), "erld", erld_type="sideways"),
     UnknownErldType),
    (lambda: depth_by_name(random_sample(109, 4, 3), "sideways"), UnknownDepthMethod),
    (lambda: DepthVector(np.array([0.1, 0.9]), "sideways", "demo"), ValidationError),
], ids=["erld_type", "erld_type_by_name", "depth_method", "direction"])
def test_unknown_names_rejected(build, error):
    with pytest.raises(error, match="sideways"):
        build()


@given(st.integers(0, 10**6), st.integers(3, 9), st.integers(2, 7))
def test_band_depths_stay_in_unit_interval(seed, n, p):
    sample = random_sample(seed, n, p)
    for measure in (band_depth, modified_band_depth, linfinity_depth, extremal_depth):
        scores = measure(sample).scores
        assert np.all(scores >= 0.0) and np.all(scores <= 1.0)


@given(st.integers(0, 10**6), st.integers(3, 8), st.integers(2, 6))
def test_mbd_always_matches_oracle(seed, n, p):
    sample = random_sample(seed, n, p, ties=bool(seed % 2))
    scores = modified_band_depth(sample).scores
    np.testing.assert_allclose(
        scores,
        oracles.modified_band_depth(sample.values),
        rtol=0,
        atol=1e-12,
    )
    np.testing.assert_array_equal(scores, oracles.modified_band_depth_float(sample.values))


@given(st.integers(0, 10**6), st.integers(2, 8), st.integers(2, 6))
def test_erld_always_matches_oracle(seed, n, p):
    sample = random_sample(seed, n, p, ties=bool(seed % 2))
    np.testing.assert_array_equal(
        extreme_rank_length(sample, type="two_sided").scores,
        oracles.extreme_rank_length(sample.values, "two_sided"),
    )


@given(st.integers(0, 10**6), st.integers(2, 8), st.integers(2, 6))
def test_ed_always_matches_oracle(seed, n, p):
    sample = random_sample(seed, n, p, ties=bool(seed % 2))
    np.testing.assert_array_equal(
        extremal_depth(sample).scores, oracles.extremal_depth(sample.values)
    )


@pytest.mark.parametrize("model", range(1, 10))
def test_ed_equals_two_sided_erld_without_ties(model):
    # tie-free, ED's pointwise depth (2 min(below, above) - 1) / n increases
    # with ERLD's key min(below, above), so both give the same scores
    for n, p in ((5, 7), (60, 30), (501, 40)):
        sample = simulation_model(model, n=n, p=p, seed=model).data
        assert (np.diff(np.sort(sample.values, axis=0), axis=0) > 0).all()
        np.testing.assert_array_equal(extremal_depth(sample).scores,
                                      extreme_rank_length(sample).scores)


def test_ed_and_two_sided_erld_differ_with_ties():
    sample = make_sample(np.round(simulation_model(1, n=60, p=30, seed=1).data.values))
    assert not np.array_equal(extremal_depth(sample).scores,
                              extreme_rank_length(sample).scores)


@settings(max_examples=60)
@given(
    seed=st.integers(0, 10**6),
    n=st.integers(3, 40),
    p=st.sampled_from([2, 63, 64, 65, 130]),
    levels=st.sampled_from([0.0, 3.0]),
    flat_head=st.booleans(),
    decimals=st.sampled_from([None, 1, 0]),
    plant=st.booleans(),
    rows=st.integers(1, 40),
)
@example(seed=0, n=3, p=2, levels=0.0, flat_head=False, decimals=None, plant=False, rows=1)
@example(seed=1, n=3, p=64, levels=3.0, flat_head=False, decimals=0, plant=True, rows=2)
@example(seed=2, n=37, p=63, levels=0.0, flat_head=False, decimals=0, plant=True, rows=5)
@example(seed=3, n=37, p=65, levels=3.0, flat_head=True, decimals=1, plant=True, rows=8)
@example(seed=4, n=29, p=130, levels=3.0, flat_head=True, decimals=None, plant=False, rows=4)
@example(seed=5, n=29, p=130, levels=3.0, flat_head=False, decimals=None, plant=True, rows=29)
def test_band_depth_equals_the_product_kernel_bit_for_bit(
    seed, n, p, levels, flat_head, decimals, plant, rows
):
    # Curves spread over random levels cross seldom, so many pairs contain a
    # curve. 64 bits go to a key word: p = 63, 64, 65 and 130 straddle the
    # word edges, and curves flat over the first 64 points share their first
    # word. Rounding makes ties (to 0 decimals, mostly ties), and ``rows``
    # sets the curves per block, so the last block is often a partial one.
    rng = np.random.default_rng(seed)
    values = levels * rng.standard_normal((n, 1)) + rng.standard_normal((n, p))
    if flat_head:
        values[:, :64] = values[:, :1]
    if decimals is not None:
        values = np.round(values, decimals)
    if plant:
        # duplicated curves, and zeros of either sign at a tenth of the points
        values[rng.integers(n, size=n // 3)] = values[rng.integers(n, size=n // 3)]
        zeros = rng.random((n, p)) < 0.1
        values[zeros] = np.where(rng.random(zeros.sum()) < 0.5, 0.0, -0.0)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(depths, "BD_BLOCK_ELEMENTS", rows * n * p)
        scores = band_depth(make_sample(values)).scores
    np.testing.assert_array_equal(scores, oracles.band_depth_product(values))
