import math
import statistics
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

import fdout.robust

from fdout import (
    RandomSource,
    fast_mcd,
    geometric_median,
    hardin_rocke_cutoff,
    robust_distances,
    simulation_model,
)
from fdout.errors import (
    EmptyInput,
    InvalidLevel,
    NonConvergence,
    NonFiniteResult,
    SingularCovariance,
    SingularSubsets,
    TooFewPoints,
)
from fdout.robust import McdFit, _chi2_consistency, _per_matrix, _sum_coords, _trial_blocks

from . import oracles


class TestGeometricMedian:
    def test_square_corners(self):
        pts = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
        np.testing.assert_allclose(geometric_median(pts), [0.5, 0.5], atol=1e-8)

    def test_identical_points(self):
        pts = np.tile([3.0, -2.0], (6, 1))
        np.testing.assert_allclose(geometric_median(pts), [3.0, -2.0], atol=0)

    def test_beats_coordinatewise_median(self):
        rng = np.random.default_rng(7)
        pts = rng.standard_normal((5, 2)) * [1.0, 3.0] + [0.5, -1.0]

        def objective(z):
            return np.linalg.norm(pts - z, axis=1).sum()

        gm = geometric_median(pts)
        cm = np.median(pts, axis=0)
        assert objective(gm) <= objective(cm) + 1e-9

    def test_point_on_a_vertex(self):
        # heavy multiplicity pulls the minimizer onto a data point, where the
        # iteration must not divide by zero
        pts = np.vstack([np.tile([1.0, 1.0], (5, 1)), [[0.0, 0.0], [2.0, 0.0]]])
        np.testing.assert_allclose(geometric_median(pts), [1.0, 1.0], atol=1e-8)

    def test_nonconvergence_surfaces(self, monkeypatch):
        monkeypatch.setattr(fdout.robust, "GM_TOL", 1e-30)
        monkeypatch.setattr(fdout.robust, "GM_MAX_ITER", 3)
        pts = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
        with pytest.raises(NonConvergence):
            geometric_median(pts)


def _one_sided_vertex(m, d, seed):
    """For d > 1, a cloud whose mean is exactly its first point, where the
    optimum is not: the iterate starts on a data point and takes a
    Vardi-Zhang step. The symmetric pairs give the other points unequal
    weights, so a sum that only zeroed the coincident point's weight would
    round differently."""
    rng = np.random.default_rng(seed)
    axis, copies = np.eye(d)[1 % d], 3 + (m % 2 == 0)
    rows = [np.zeros(d)] + [axis] * copies + [-copies * axis]
    pairs = rng.standard_normal(((m - len(rows)) // 2, d)) * 3.0
    return np.array(rows + [v for a in pairs for v in (a, -a)])


def _edge_clouds(kind, m, d, seed):
    """A stack of seven m x d clouds of one kind, seeded."""
    rng = np.random.default_rng(seed)
    clouds = rng.standard_normal((7, m, d))
    if kind == "identical":
        clouds[:] = clouds[:, :1]
    elif kind == "vertex":  # a majority on one point: the optimum is that point
        clouds[:, : m // 2 + 1] = clouds[:, :1]
    elif kind == "collinear":
        clouds = rng.standard_normal((7, m, 1)) * rng.standard_normal((7, 1, d))
    elif kind == "duplicated_dimension":
        clouds[:, :, -1] = clouds[:, :, 0]
    elif kind == "rounded":
        clouds = np.round(clouds * 2.0)
    elif kind == "mixed":  # clouds that finish at different iterations
        clouds[1, : m // 2 + 1] = clouds[1, 0]
        clouds[2] = np.round(clouds[2])
        clouds[3, :, -1] = clouds[3, :, 0]
        clouds[4] = _one_sided_vertex(m, d, seed)
    elif kind == "one_sided_vertex":
        clouds = np.stack([_one_sided_vertex(m, d, seed + i) for i in range(7)])
    return clouds


def _ms_study_values(model, n, d, seed):
    """n x 100 x d: d draws of one model sharing their planted rows, the
    way the MS-plot benchmark builds its multivariate samples."""
    draws = [simulation_model(model, n=n, p=100, outlier_rate=0.1, deterministic=True,
                              seed=1000 * seed + 10 * model + j) for j in range(d)]
    return np.stack([draw.data.values for draw in draws], axis=2)


def _assert_matches_per_cloud_oracle(stack):
    expected = np.stack([oracles.geometric_median_one_cloud(c) for c in stack])
    assert np.array_equal(geometric_median(stack), expected)
    for cloud, center in zip(stack[:3], expected):
        assert np.array_equal(geometric_median(cloud), center)


@pytest.mark.filterwarnings("error::RuntimeWarning")
class TestStackedGeometricMedianMatchesOracle:
    """A k x m x d stack gives each cloud the floats the per-cloud solver gave."""

    @pytest.mark.parametrize("kind, m, d", [
        (kind, m, d)
        for kind in ("gaussian", "identical", "vertex", "collinear", "duplicated_dimension",
                     "rounded", "mixed", "one_sided_vertex")
        for m, d in ((1, 1), (1, 3), (2, 2), (5, 1), (9, 1), (9, 2), (30, 2), (31, 3), (120, 3))
        if not (kind == "duplicated_dimension" and d == 1)
        and not (kind in ("mixed", "one_sided_vertex") and m < 6)
    ])
    def test_edge_clouds(self, kind, m, d):
        _assert_matches_per_cloud_oracle(_edge_clouds(kind, m, d, seed=m * 10 + d))

    @pytest.mark.parametrize("d", [1, 2, 3])
    @pytest.mark.parametrize("m", [8, 9, 16, 17, 40])
    def test_many_one_sided_vertices(self, m, d):
        _assert_matches_per_cloud_oracle(
            np.stack([_one_sided_vertex(m, d, seed) for seed in range(20)]))

    def test_one_sided_vertex_takes_a_vardi_zhang_step(self):
        cloud = _one_sided_vertex(31, 2, 0)
        assert np.array_equal(cloud.mean(axis=0), cloud[0])
        assert not np.array_equal(geometric_median(cloud), cloud[0])

    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("n, d", [(200, 2), (300, 3)])
    @pytest.mark.parametrize("model", [1, 3, 6, 8, 9])
    def test_ms_study_samples(self, model, n, d, seed):
        # the p x n x d stack of grid points that directional_outlyingness solves
        values = _ms_study_values(model, n, d, seed)
        expected = oracles.pointwise_geometric_median(values)
        assert np.array_equal(geometric_median(values.swapaxes(0, 1)), expected)

    def test_rank_two_cloud_fails_on_both_sides(self):
        # models 1, 2 and 3 drawn with one seed: at grid point 82 every curve
        # has x1 == x3, and the optimum lies about 1e-5 from a data point
        values = np.stack([simulation_model(model, n=300, p=100, outlier_rate=0.1,
                                            seed=1).data.values for model in (1, 2, 3)], axis=2)
        cloud = values[:, 82]
        assert np.array_equal(cloud[:, 0], cloud[:, 2])
        assert oracles.geometric_median_one_cloud(cloud) is None
        with pytest.raises(NonConvergence):
            geometric_median(cloud)
        with pytest.raises(NonConvergence, match=r"stack entries \[82\]"):
            geometric_median(values.swapaxes(0, 1))

    @pytest.mark.parametrize("kind", ["gaussian", "vertex", "collinear", "duplicated_dimension",
                                      "rounded", "mixed", "one_sided_vertex"])
    def test_exact_under_power_of_two_scaling_below_one(self, kind):
        # each cloud is solved in units of its largest |value| S, and for
        # S <= 1 the stop test's floor min(1, S) = S scales with the cloud, so
        # scaling by 2^-j only moves the exponent of the result
        rng = np.random.default_rng(len(kind))
        for m, d in ((9, 2), (30, 2), (31, 3)):
            clouds = _edge_clouds(kind, m, d, seed=m * 10 + d)
            clouds /= np.abs(clouds).max(axis=(1, 2), keepdims=True)  # S = 1 exactly
            clouds[1:] /= rng.uniform(1.0, 1e3, (len(clouds) - 1, 1, 1))
            center = geometric_median(clouds)
            for j in (1, 2, 37, 500, 999, 1000):
                assert np.array_equal(geometric_median(np.ldexp(clouds, -j)),
                                      np.ldexp(center, -j))

    @pytest.mark.parametrize("shape", [(5,), (2, 3, 4, 2)])
    def test_neither_matrix_nor_stack(self, shape):
        with pytest.raises(TooFewPoints):
            geometric_median(np.zeros(shape))

    @pytest.mark.parametrize("shape", [(0, 2), (4, 0, 2), (5, 0), (4, 5, 0)])
    def test_no_points(self, shape):
        with pytest.raises(EmptyInput):
            geometric_median(np.zeros(shape))


class TestFastMcd:
    def test_planted_cluster_excluded(self):
        rng = RandomSource(4)
        clean = rng.standard_normal((180, 2))
        shifted = rng.standard_normal((20, 2)) + 10.0
        points = np.vstack([clean, shifted])
        fit = fast_mcd(points, rng=RandomSource(99))
        assert np.intersect1d(fit.subset_indices, np.arange(180, 200)).size == 0

    def test_no_rng_means_seed_zero(self):
        points = RandomSource(6).standard_normal((40, 2))
        a, b = fast_mcd(points), fast_mcd(points, rng=RandomSource(0))
        np.testing.assert_array_equal(a.subset_indices, b.subset_indices)
        np.testing.assert_array_equal(a.covariance, b.covariance)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("d", [3, 1])
    def test_cloud_whose_covariances_can_overflow_raises_before_the_search(self, d):
        # it used to end in SingularSubsets after hundreds of warnings
        points = np.random.default_rng(11).standard_normal((40, d))
        message = r"^fast_mcd: a mean or a covariance of this cloud can overflow"
        with pytest.raises(NonFiniteResult, match=message):
            fast_mcd(points * 1e160)
        # a |value| above max double / m can overflow a mean
        with pytest.raises(NonFiniteResult, match=message):
            fast_mcd(1e307 + points * 1e300)
        # with ranges below sqrt(max double / 4m), about 1e153 at m = 40,
        # the fit runs, also far from the origin
        fast_mcd(points * 1e150)
        fast_mcd(1e155 + points * 1e152)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_same_sign_values_just_below_the_bound(self):
        # these values square past the largest double; the exact 1-d search
        # squares only their deviations from the middle value
        x = 1e153 * (1.0 + 0.005 * np.random.default_rng(13).standard_normal(40))
        fit = fast_mcd(x)
        scaled = fast_mcd(np.ldexp(x, -600))
        np.testing.assert_array_equal(fit.subset_indices, scaled.subset_indices)
        assert fit.center[0] == np.ldexp(scaled.center[0], 600)
        assert fit.covariance[0, 0] == np.ldexp(scaled.covariance[0, 0], 1200)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_point_whose_distance_overflows_is_left_out(self):
        points = _overflow_cloud()
        fit = fast_mcd(points)
        assert 7 not in fit.subset_indices
        assert robust_distances(points, fit)[7] == np.inf

    def test_exact_line_is_singular(self):
        x = np.linspace(0.0, 1.0, 50)
        points = np.column_stack([x, 2.0 * x])
        with pytest.raises(SingularSubsets):
            fast_mcd(points, rng=RandomSource(0))

    @pytest.mark.parametrize("points", [
        # h = 21 of 40 values, 30 of them equal
        np.r_[np.zeros(30), np.arange(1.0, 11.0)],
        # equal values not exact in binary: a window of them still has variance 0
        *(np.r_[np.full(30, v), np.arange(1.0, 11.0)] for v in (1 / 3, 1e-7)),
    ], ids=["d1_equal_values", "d1_thirds", "d1_tiny"])
    def test_singular_exact_paths(self, points):
        with pytest.raises(SingularSubsets, match="more than h identical values"):
            fast_mcd(points)

    def test_vector_is_its_column(self):
        x = np.random.default_rng(8).standard_normal(40)
        for a, b in zip(_fields(fast_mcd(x)), _fields(fast_mcd(x[:, None])), strict=True):
            assert np.array_equal(a, b)

    def test_d1_variance_near_classical_on_clean_data(self):
        # consistency-corrected but not small-sample-corrected: at n=100
        # the half-sample estimate sits 10-25% below the classical variance
        for seed in (0, 1, 2):
            x = RandomSource(seed).standard_normal(100)[:, None]
            fit = fast_mcd(x)
            ratio = fit.covariance[0, 0] / np.var(x, ddof=1)
            assert 0.6 <= ratio <= 1.3

    def test_d1_variance_consistent_at_large_n(self):
        x = RandomSource(3).standard_normal(20000)[:, None]
        fit = fast_mcd(x)
        ratio = fit.covariance[0, 0] / np.var(x, ddof=1)
        assert 0.9 <= ratio <= 1.1

    def test_d1_subset_is_globally_optimal(self):
        x = RandomSource(3).standard_normal(12)[:, None]
        fit = fast_mcd(x)
        h = fit.subset_indices.size
        best = oracles.exhaustive_mcd_determinant(x, h)
        got = oracles.subset_covariance_determinant(x, fit.subset_indices)
        assert got == pytest.approx(best, rel=1e-12)

    def test_d2_subset_matches_exhaustive_search(self):
        rng = np.random.default_rng(21)
        points = np.vstack([rng.standard_normal((8, 2)), rng.standard_normal((2, 2)) + 6.0])
        fit = fast_mcd(points, rng=RandomSource(5))
        h = fit.subset_indices.size
        best = oracles.exhaustive_mcd_determinant(points, h)
        got = oracles.subset_covariance_determinant(points, fit.subset_indices)
        assert got == pytest.approx(best, rel=1e-9)

    def test_default_coverage_is_max_breakdown(self):
        points = np.random.default_rng(2).standard_normal((101, 2))
        fit = fast_mcd(points, rng=RandomSource(1))
        assert fit.subset_indices.size == (101 + 2 + 1) // 2

    def test_seed_determinism(self):
        points = np.random.default_rng(4).standard_normal((80, 3))
        a = fast_mcd(points, rng=RandomSource(11))
        b = fast_mcd(points, rng=RandomSource(11))
        np.testing.assert_array_equal(a.subset_indices, b.subset_indices)
        np.testing.assert_array_equal(a.covariance, b.covariance)

    def test_covariance_symmetric_psd(self):
        points = np.random.default_rng(5).standard_normal((70, 3))
        fit = fast_mcd(points, rng=RandomSource(2))
        np.testing.assert_allclose(fit.covariance, fit.covariance.T, atol=1e-12)
        assert np.linalg.eigvalsh(fit.covariance).min() >= -1e-10

    def test_affine_equivariance(self):
        points = np.random.default_rng(6).standard_normal((90, 2))
        a_map = np.array([[2.0, 0.5], [-1.0, 1.5]])
        b = np.array([3.0, -4.0])
        mapped = points @ a_map.T + b
        fit = fast_mcd(points, rng=RandomSource(8))
        fit_mapped = fast_mcd(mapped, rng=RandomSource(8))
        np.testing.assert_allclose(
            fit_mapped.center, fit.center @ a_map.T + b, atol=1e-8
        )
        np.testing.assert_allclose(
            robust_distances(mapped, fit_mapped),
            robust_distances(points, fit),
            rtol=1e-8,
            atol=1e-8,
        )

    def test_too_few_points(self):
        with pytest.raises(TooFewPoints):
            fast_mcd(np.zeros((4, 2)), rng=RandomSource(0))

    def test_no_coordinates(self):
        with pytest.raises(EmptyInput):
            fast_mcd(np.ones((5, 0)))

    def test_coverage_is_not_an_argument(self):
        # the fit is at maximum breakdown only; a positional value is no rng
        points = np.random.default_rng(7).standard_normal((40, 2))
        with pytest.raises(TypeError):
            fast_mcd(points, coverage=0.75)
        with pytest.raises(TypeError):
            fast_mcd(points, 0.75)


@pytest.mark.parametrize("offset, spread", [(1.0, 1e-7), (1e8, 1e-3), (-3e5, 1e-9)])
def test_d1_spread_small_next_to_offset(offset, spread):
    # a window's variance is taken from its deviations from the middle value,
    # so it does not cancel away against the offset; statistics.variance is exact
    x = offset + spread * np.random.default_rng(21).standard_normal(40)
    fit = fast_mcd(x)
    h = fit.subset_indices.size
    windows = [np.sort(x)[start:start + h] for start in range(x.size - h + 1)]
    variances = [statistics.variance(window) for window in windows]
    best = int(np.argmin(variances))
    np.testing.assert_array_equal(np.sort(x[fit.subset_indices]), windows[best])
    factor = _chi2_consistency(h / x.size, 1)
    np.testing.assert_allclose(fit.covariance[0, 0], variances[best] * factor, rtol=1e-12)
    np.testing.assert_allclose(fit.center[0], statistics.fmean(windows[best]), rtol=1e-15)


def test_d1_tight_cluster_far_from_the_rest():
    # the window of the 21 clustered values is found, and its variance is
    # theirs, not the cancellation left from the values near -1e8
    rng = np.random.default_rng(22)
    x = np.r_[-1e8 + rng.standard_normal(19), 5.0 + 1e-6 * rng.standard_normal(21)]
    fit = fast_mcd(x)
    np.testing.assert_array_equal(fit.subset_indices, np.arange(19, 40))
    factor = _chi2_consistency(21 / 40, 1)
    np.testing.assert_allclose(fit.covariance[0, 0], statistics.variance(x[19:]) * factor,
                               rtol=1e-12)


def _fields(fit):
    return fit.center, fit.covariance, fit.subset_indices


def _overflow_cloud():
    # point 7 lies 1e200 spreads from the bulk, so its C-step distance overflows
    points = np.random.default_rng(12).standard_normal((40, 2)) * 1e-100
    points[7] = [1e100, -1e100]
    return points


def _gaussian(m, d, seed):
    return np.random.default_rng(seed).standard_normal((m, d))


def _repeated_rows(m, d, seed):
    # few distinct rows, so many (d+1)-point elemental starts are singular
    rng = np.random.default_rng(seed)
    distinct = rng.standard_normal((d + 3, d))
    return distinct[rng.integers(d + 3, size=m)]


def _line_plus_scatter(m, d, seed):
    # most points on one line: C-steps that settle on it turn singular
    rng = np.random.default_rng(seed)
    points = np.outer(rng.standard_normal(m), np.arange(1.0, d + 1.0))
    points[: m // 3] = rng.standard_normal((m // 3, d))
    return points


def _plane_plus_cluster(m, d, seed):
    # h + 1 points on a hyperplane inside a shifted cloud: refinements that
    # settle on the plane turn non-PD while others keep stepping
    rng = np.random.default_rng(seed)
    points = rng.standard_normal((m, d)) + 3.0
    points[: (m + d + 1) // 2 + 1, -1] = 0.0
    return points


def _exact_line(m, d, seed):
    return np.outer(np.linspace(0.0, 1.0, m), np.arange(1.0, d + 1.0))


def _assert_matches_oracle(points, seed):
    expected = oracles.fast_mcd_raw(points, RandomSource(seed))
    if expected is None:
        with pytest.raises(SingularSubsets):
            fast_mcd(points, rng=RandomSource(seed))
        return
    center, cov, subset = expected
    fit = fast_mcd(points, rng=RandomSource(seed))
    m, d = points.shape
    factor = _chi2_consistency((m + d + 1) // 2 / m, d)
    assert np.array_equal(fit.center, center)
    assert np.array_equal(fit.covariance, cov * factor)
    assert np.array_equal(fit.subset_indices, subset)


def _recorded_draws(points, seed):
    """(taken, drawn) of each ``_next_rows`` call of a fit, in order."""
    calls = []
    next_rows = fdout.robust._next_rows

    def recording(rng, m, taken):
        drawn = next_rows(rng, m, taken)
        calls.append((taken.copy(), drawn))
        return drawn

    with pytest.MonkeyPatch.context() as monkeypatch:
        monkeypatch.setattr(fdout.robust, "_next_rows", recording)
        try:
            fast_mcd(points, rng=RandomSource(seed))
        except SingularSubsets:
            pass
    return calls


def _is_row_subsequence(rows, of):
    """Whether ``rows`` are rows of ``of`` in the same order."""
    source = iter(of)
    return all(any(np.array_equal(row, candidate) for candidate in source) for row in rows)


class TestElementalStarts:
    @settings(max_examples=12, deadline=None)
    @given(st.integers(9, 60), st.integers(2, 4), st.sampled_from([None, 0]),
           st.integers(0, 10**6))
    def test_starts_hold_distinct_rows_and_grow_by_extension(self, m, d, decimals, seed):
        # rounded clouds repeat rows, so some starts are singular and grow
        points = np.random.default_rng(seed).standard_normal((m, d))
        if decimals is not None:
            points = np.round(points, decimals)
        calls = _recorded_draws(points, seed)
        for taken, drawn in calls:
            rows = np.column_stack((taken, drawn))
            assert ((0 <= rows) & (rows < m)).all()
            assert all(np.unique(row).size == row.size for row in rows)
        # every trial draws d + 1 rows; the singular ones then draw one more
        # row at a time, each keeping the rows it had, in trial order
        assert [len(drawn) for _, drawn in calls[:d + 1]] == [fdout.robust.N_TRIALS] * (d + 1)
        for (taken, drawn), (grown, _) in zip(calls[d:], calls[d + 1:]):
            assert grown.shape[1] == taken.shape[1] + 1
            assert _is_row_subsequence(grown, np.column_stack((taken, drawn)))

    def test_ordered_triples_are_uniform(self):
        # 210 ordered triples of distinct values in range(7), 100 draws each
        rng, n = RandomSource(36), 21000
        rows = np.empty((n, 0), dtype=np.intp)
        for _ in range(3):
            rows = np.column_stack((rows, fdout.robust._next_rows(rng, 7, rows)))
        triples, counts = np.unique(rows, axis=0, return_counts=True)
        assert len(triples) == 210
        assert all(np.unique(triple).size == 3 for triple in triples)
        assert stats.chisquare(counts).pvalue > 0.01


class TestFastMcdMatchesScalarOracle:
    """The blocked trials reproduce the one-trial-at-a-time search bit for bit."""

    @pytest.mark.parametrize("make, m, d, seed", [
        (_gaussian, 9, 4, 0),
        (_gaussian, 10, 2, 1),
        (_gaussian, 40, 3, 2),
        (_gaussian, 57, 2, 3),
        (_gaussian, 120, 4, 4),
        (_gaussian, 200, 2, 5),
        (_gaussian, 300, 3, 6),
        (_gaussian, 300, 4, 7),
        (_gaussian, 1000, 2, 16),
        (_repeated_rows, 30, 2, 8),
        (_repeated_rows, 80, 3, 9),
        (_repeated_rows, 150, 4, 10),
        (_line_plus_scatter, 60, 2, 11),
        (_line_plus_scatter, 90, 3, 12),
        (_plane_plus_cluster, 50, 4, 15),
        (_exact_line, 50, 2, 13),
        (_exact_line, 40, 3, 14),
    ])
    def test_bit_identical(self, make, m, d, seed):
        _assert_matches_oracle(make(m, d, seed), seed)

    @settings(max_examples=12, deadline=None)
    @given(st.integers(9, 80), st.integers(2, 4), st.sampled_from([None, 0, 1]),
           st.integers(0, 10**6))
    def test_random_clouds(self, m, d, decimals, seed):
        # clouds rounded to 0 or 1 decimals tie at the h-th distance and
        # have singular elemental starts
        points = np.random.default_rng(seed).standard_normal((m, d))
        if decimals is not None:
            points = np.round(points, decimals)
        _assert_matches_oracle(points, seed)

    def test_cases_cover_growth_and_failure(self):
        # the repeated-row clouds do have singular elemental starts, which
        # draw more rows than the d + 1 columns that every trial draws
        for m, d, seed in ((30, 2, 8), (80, 3, 9), (150, 4, 10)):
            assert len(_recorded_draws(_repeated_rows(m, d, seed), seed)) > d + 1
        assert oracles.fast_mcd_raw(_exact_line(50, 2, 13), RandomSource(13)) is None

    def test_case_covers_mixed_stops_in_one_refinement_stack(self, monkeypatch):
        # in one refinement call some candidate meets a non-PD step while
        # another steps and is refined again in the next call
        masks = []
        c_steps = fdout.robust._c_steps

        def recording(*args):
            out = c_steps(*args)
            masks.append(out[-1])
            return out

        monkeypatch.setattr(fdout.robust, "_c_steps", recording)
        fast_mcd(_plane_plus_cluster(50, 4, 15), rng=RandomSource(15))
        n_blocks = len(list(fdout.robust._trial_blocks(50, 4)))
        refine = masks[fdout.robust.N_INITIAL_CSTEPS * n_blocks:]
        assert any(ok.any() and not ok.all() and later.any()
                   for ok, later in zip(refine, refine[1:]))

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("m, d, seed", [(30, 2, 8), (80, 3, 9), (150, 4, 10)])
    def test_repeated_rows_tie_at_the_hth_distance(self, monkeypatch, m, d, seed):
        # repeated rows put equal distances on both sides of the h-th place,
        # where the h-subset takes the tied points of lowest index
        h = (m + d + 1) // 2
        seen = []
        mahalanobis_sq = fdout.robust._mahalanobis_sq

        def recording(*args):
            dist, ok = mahalanobis_sq(*args)
            seen.append(dist[ok])
            return dist, ok

        monkeypatch.setattr(fdout.robust, "_mahalanobis_sq", recording)
        fast_mcd(_repeated_rows(m, d, seed), rng=RandomSource(seed))
        ordered = np.sort(np.concatenate(seen), axis=1)
        assert (ordered[:, h - 1] == ordered[:, h]).any()


class TestTrialBlocks:
    """How the trials are blocked changes no fit: the blocks take the
    starts in trial order, and the N_BEST lowest log-determinants kept
    across them are those of one stable sort of all trials."""

    @pytest.mark.parametrize("budget", [None, 1, 1000, 10**9])
    @pytest.mark.parametrize("m, d", [(100, 2), (200, 2), (200, 3), (300, 4), (2000, 2), (9, 4)])
    def test_bounds_cover_the_trials_in_blocks_that_fit_the_budget(self, monkeypatch,
                                                                    budget, m, d):
        if budget is not None:
            monkeypatch.setattr(fdout.robust, "TRIAL_BLOCK_ELEMENTS", budget)
        size = max(1, fdout.robust.TRIAL_BLOCK_ELEMENTS // (m * d))
        blocks = list(_trial_blocks(m, d))
        starts = [lo for lo, _ in blocks]
        assert starts == list(range(0, fdout.robust.N_TRIALS, size))
        assert [hi for _, hi in blocks] == starts[1:] + [fdout.robust.N_TRIALS]

    def test_documented_block_sizes(self):
        sizes = {(m, d): next(_trial_blocks(m, d))[1] for m, d in ((200, 2), (300, 4), (2000, 2))}
        assert sizes == {(200, 2): 150, (300, 4): 50, (2000, 2): 15}

    @pytest.mark.parametrize("trials", [1, 500])
    @pytest.mark.parametrize("make, m, d, seed", [
        (_gaussian, 200, 2, 5),
        (_gaussian, 300, 4, 7),
        (_repeated_rows, 80, 3, 9),
        (_line_plus_scatter, 90, 3, 12),
        (_plane_plus_cluster, 50, 4, 15),
    ])
    def test_fit_does_not_depend_on_the_block_size(self, monkeypatch, trials, make, m, d, seed):
        points = make(m, d, seed)
        expected = fast_mcd(points, rng=RandomSource(seed))
        monkeypatch.setattr(fdout.robust, "TRIAL_BLOCK_ELEMENTS", trials * m * d)
        assert len(list(_trial_blocks(m, d))) == 500 // trials
        fit = fast_mcd(points, rng=RandomSource(seed))
        for got, want in zip(_fields(fit), _fields(expected), strict=True):
            assert np.array_equal(got, want)


def _counted(solver, calls):
    def counting(*stacks):
        calls.append(len(stacks[0]))
        return solver(*stacks)
    return counting


# (stack size k, indices of the matrices that fail)
PER_MATRIX_CASES = [
    (1, []), (1, [0]), (2, [1]), (16, [0]), (16, [15]), (17, [0, 16]),
    (50, [3, 17, 18, 41]), (64, list(range(0, 64, 7))), (9, list(range(9))), (100, []),
]


class TestPerMatrix:
    """A stack that raises is redone in halves: the same (out, ok) as a loop
    over its matrices, in at most 2 f ceil(log2 k) + 1 solver calls."""

    @staticmethod
    def _pd_stack(k, failing, seed):
        a = np.random.default_rng(seed).standard_normal((k, 3, 3))
        stack = a @ np.swapaxes(a, 1, 2) + 0.1 * np.eye(3)
        stack[failing] = np.diag([1.0, 0.0, 1.0])  # singular, so not PD
        return stack

    @staticmethod
    def _assert_matches_loop(solver, stacks, failing):
        calls = []
        out, ok = _per_matrix(_counted(solver, calls), *stacks)
        k = len(stacks[0])
        assert np.array_equal(ok, ~np.isin(np.arange(k), failing))
        for i, single in enumerate(zip(*stacks)):
            want = solver(*single) if ok[i] else np.zeros_like(stacks[-1][i])
            assert np.array_equal(out[i], want)
        assert len(calls) <= 2 * len(failing) * math.ceil(math.log2(k)) + 1

    @pytest.mark.parametrize("k, failing", PER_MATRIX_CASES)
    def test_cholesky(self, k, failing):
        cov = self._pd_stack(k, failing, k)
        self._assert_matches_loop(np.linalg.cholesky, (cov,), failing)

    @pytest.mark.parametrize("k, failing", PER_MATRIX_CASES)
    def test_solve(self, k, failing):
        hess = self._pd_stack(k, failing, k + 1)
        rhs = np.random.default_rng(k).standard_normal((k, 3, 1))
        self._assert_matches_loop(np.linalg.solve, (hess, rhs), failing)

    def test_one_failure_costs_two_calls_per_level(self):
        calls = []
        _per_matrix(_counted(np.linalg.cholesky, calls), self._pd_stack(64, [37], 2))
        # the bound, 2 * 1 * 6 + 1 calls, is met exactly
        assert sorted(calls, reverse=True) == [64, 32, 32, 16, 16, 8, 8, 4, 4, 2, 2, 1, 1]


@pytest.mark.parametrize("d", range(1, 12))
def test_sum_coords_adds_the_coordinates_left_to_right(d):
    rng = np.random.default_rng(d)
    a = rng.standard_normal((4, 6, d)) * 10.0 ** rng.integers(-8, 9, (4, 6, d))
    a[0, 0] = -0.0
    got = _sum_coords(a)
    assert np.array_equal(got.view(np.uint64), a.sum(axis=-1).view(np.uint64))
    if d < 8:
        expected = np.empty(a.shape[:2])
        for index in np.ndindex(*a.shape[:2]):
            total = 0.0
            for value in a[index]:
                total += value
            expected[index] = total
        assert np.array_equal(got.view(np.uint64), expected.view(np.uint64))


class TestNearestMatchesStableArgsort:
    """The h-subset by partition is the first h of a stable argsort, sorted."""

    @staticmethod
    def _check(dist, h):
        expected = np.sort(np.argsort(dist, axis=1, kind="stable")[:, :h], axis=1)
        np.testing.assert_array_equal(fdout.robust._nearest(dist, h), expected)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("seed", range(6))
    def test_ties_and_infinities(self, seed):
        rng = np.random.default_rng(seed)
        for _ in range(50):
            k, m = int(rng.integers(1, 8)), int(rng.integers(2, 30))
            h = int(rng.integers(1, m + 1))
            dist = np.round(rng.standard_normal((k, m)) ** 2, int(rng.integers(0, 3)))
            dist[rng.random((k, m)) < 0.2] = np.inf
            self._check(dist, h)

    @pytest.mark.parametrize("seed", range(3))
    def test_tie_free_blocks_and_one_tied_row(self, seed):
        # distinct distances, then the same block with one row of small
        # integers, which ties at its h-th value in some of the draws
        rng = np.random.default_rng(seed)
        tied_blocks = []
        for _ in range(50):
            k, m = int(rng.integers(1, 8)), int(rng.integers(2, 30))
            h = int(rng.integers(1, m + 1))
            dist = rng.permutation(k * m).reshape(k, m) / 7.0
            self._check(dist, h)
            dist[rng.integers(k)] = rng.integers(0, 3, m)
            kth = np.partition(dist, h - 1, axis=1)[:, h - 1:h]
            tied_blocks.append(np.count_nonzero(dist == kth) > k)
            self._check(dist, h)
        assert any(tied_blocks) and not all(tied_blocks)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_c_steps_hand_it_no_nan(self, monkeypatch):
        # _nearest relies on _mahalanobis_sq reading NaN as +inf: an
        # overflowing distance, and repeated rows whose covariances go singular
        seen = []
        nearest = fdout.robust._nearest

        def recording(dist, h):
            seen.append(dist)
            return nearest(dist, h)

        monkeypatch.setattr(fdout.robust, "_nearest", recording)
        for points in (_repeated_rows(80, 3, 9), _overflow_cloud()):
            seen.clear()
            fast_mcd(points, rng=RandomSource(9))
            assert seen and not any(np.isnan(dist).any() for dist in seen)
        # the overflow cloud, run last, does reach distances past the largest double
        assert any(np.isinf(dist).any() for dist in seen)


class TestRobustDistances:
    def _identity_fit(self, d):
        return McdFit(
            center=np.zeros(d),
            covariance=np.eye(d),
            subset_indices=np.arange(d + 1),
        )

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_a_distance_that_overflows_is_inf(self):
        # the second point used to give NaN: the identity's zero entry
        # times an overflowed coordinate
        points = np.array([[1.0, 2.0], [1.7e308, -1.7e308], [-1.7e308, 1e200], [3e154, 0.0]])
        np.testing.assert_array_equal(robust_distances(points, self._identity_fit(2)),
                                      [5.0, np.inf, np.inf, np.inf])

    def test_center_scores_zero(self):
        fit = self._identity_fit(3)
        assert robust_distances(np.zeros((1, 3)), fit)[0] == 0.0

    def test_unit_vector_scores_one(self):
        fit = self._identity_fit(3)
        x = np.array([[0.0, 1.0, 0.0]])
        assert robust_distances(x, fit)[0] == pytest.approx(1.0, abs=1e-14)

    def test_matches_solve_oracle(self):
        rng = np.random.default_rng(8)
        points = rng.standard_normal((50, 3))
        fit = fast_mcd(points, rng=RandomSource(3))
        np.testing.assert_allclose(
            robust_distances(points, fit),
            oracles.mahalanobis_sq(points, fit.center, fit.covariance),
            rtol=0,
            atol=1e-10,
        )

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("d", range(1, 7))
    @pytest.mark.parametrize("cond", [1.0, 1e4, 1e8, 1e12])
    def test_matches_solve_oracle_on_ill_conditioned_covariances(self, d, cond):
        # forward substitution on the Cholesky factor and the oracle's LU
        # solve each lose up to about d * eps * cond(cov) relative
        rng = np.random.default_rng(10 * d + int(np.log10(cond)))
        q, _ = np.linalg.qr(rng.standard_normal((d, d)))
        cov = (q * np.logspace(0.0, -np.log10(cond), d)) @ q.T
        cov = (cov + cov.T) / 2.0
        center = rng.standard_normal(d)
        points = center + rng.standard_normal((40, d)) @ np.linalg.cholesky(cov).T
        fit = McdFit(center, cov, np.arange(d + 1))
        np.testing.assert_allclose(
            robust_distances(points, fit),
            oracles.mahalanobis_sq(points, center, cov),
            rtol=8 * d * np.finfo(float).eps * np.linalg.cond(cov),
            atol=0,
        )

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_stack_mixing_pd_and_non_pd_covariances(self):
        rng = np.random.default_rng(12)
        d = 3
        a = rng.standard_normal((4, d, d))
        pd = a @ np.swapaxes(a, 1, 2) + 0.1 * np.eye(d)
        repeated_coordinate = np.array([[1.0, 1.0, 0.0], [1.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
        non_pd = [np.zeros((d, d)), np.diag([1.0, 0.0, 2.0]), -pd[0],
                  np.diag([1.0, -1.0, 1.0]), repeated_coordinate]
        cov = np.stack([pd[0], *non_pd[:2], pd[1], non_pd[2], pd[2], *non_pd[3:], pd[3]])
        is_pd = np.array([True, False, False, True, False, True, False, False, True])
        center = rng.standard_normal((len(cov), d))
        points = rng.standard_normal((25, d))
        dist, ok = fdout.robust._mahalanobis_sq(points, center, cov)
        np.testing.assert_array_equal(ok, is_pd)
        assert np.isfinite(dist).all()
        for k in np.flatnonzero(is_pd):
            np.testing.assert_allclose(
                dist[k], oracles.mahalanobis_sq(points, center[k], cov[k]), rtol=1e-13)

    def test_no_general_solve(self, monkeypatch):
        # distances come from forward substitution on the Cholesky factor
        def refuse(*args):
            raise AssertionError("np.linalg.solve was called")

        monkeypatch.setattr(np.linalg, "solve", refuse)
        for points in (_gaussian(60, 3, 17), _repeated_rows(80, 3, 9)):
            fit = fast_mcd(points, rng=RandomSource(4))
            assert np.isfinite(robust_distances(points, fit)).all()
        singular = McdFit(np.zeros(2), np.ones((2, 2)), np.arange(3))
        assert np.isfinite(robust_distances(np.eye(2), singular)).all()

    def test_classical_fit_equals_classical_mahalanobis(self):
        rng = np.random.default_rng(9)
        points = rng.standard_normal((40, 2))
        fit = McdFit(
            center=points.mean(axis=0),
            covariance=np.cov(points, rowvar=False),
            subset_indices=np.arange(40),
        )
        np.testing.assert_allclose(
            robust_distances(points, fit),
            oracles.mahalanobis_sq(points, fit.center, fit.covariance),
            rtol=0,
            atol=1e-10,
        )

    def test_singular_covariance_rejected(self):
        fit = McdFit(
            center=np.zeros(2),
            covariance=np.zeros((2, 2)),
            subset_indices=np.arange(3),
        )
        with pytest.raises(SingularCovariance):
            robust_distances(np.ones((2, 2)), fit)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("covariance", [
        np.full((2, 2), np.nan),
        np.array([[1.0, np.nan], [np.nan, 1.0]]),
        np.array([[np.nan, 0.0], [0.0, 1.0]]),
    ])
    def test_nan_covariance_rejected(self, covariance):
        # LAPACK factors these without raising; the NaN factor is not PD
        fit = McdFit(np.zeros(2), covariance, np.arange(3))
        with pytest.raises(SingularCovariance):
            robust_distances(np.ones((3, 2)), fit)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_nan_covariance_in_a_stack_is_not_pd(self):
        cov = np.stack([np.eye(2), np.full((2, 2), np.nan), 2.0 * np.eye(2)])
        points = np.random.default_rng(13).standard_normal((10, 2))
        dist, ok = fdout.robust._mahalanobis_sq(points, np.zeros((3, 2)), cov)
        np.testing.assert_array_equal(ok, [True, False, True])
        assert np.isfinite(dist).all()

    @pytest.mark.parametrize("center", [[0.0, np.nan], [np.inf, 0.0]])
    def test_non_finite_center_rejected(self, center):
        fit = McdFit(np.array(center), np.eye(2), np.arange(3))
        with pytest.raises(NonFiniteResult, match="center"):
            robust_distances(np.ones((3, 2)), fit)


class TestHardinRockeCutoff:
    def test_threshold_decreasing_in_level(self):
        thresholds = [
            hardin_rocke_cutoff(200, 2, level=level).threshold
            for level in (0.01, 0.05, 0.10, 0.25)
        ]
        assert all(a > b for a, b in zip(thresholds, thresholds[1:]))

    def test_d1_large_m_near_chi2(self):
        cut = hardin_rocke_cutoff(10**4, 1, level=0.05)
        chi2 = stats.chi2.ppf(0.95, df=1)
        assert abs(cut.threshold - chi2) / chi2 <= 0.15

    def test_clean_mvn_flag_rate(self):
        rates = []
        for seed in range(20):
            points = RandomSource(seed).standard_normal((500, 2))
            fit = fast_mcd(points, rng=RandomSource(1000 + seed))
            cut = hardin_rocke_cutoff(500, 2, level=0.05)
            rates.append(np.mean(robust_distances(points, fit) > cut.threshold))
        assert np.mean(rates) <= 0.12

    @pytest.mark.parametrize("level", [0.0, 1.0, -0.2, 1.5])
    def test_invalid_level(self, level):
        with pytest.raises(InvalidLevel):
            hardin_rocke_cutoff(100, 2, level=level)

    def test_no_coordinates(self):
        with pytest.raises(EmptyInput):
            hardin_rocke_cutoff(100, 0)

    @pytest.mark.parametrize("m, d", [(2, 1), (3, 2), (1, 3), (4, 2), (5, 3), (6, 3)])
    def test_too_few_points(self, m, d):
        # the cutoff refuses what fast_mcd refuses: m <= 2d
        with pytest.raises(TooFewPoints, match=f"^need more than 2d = {2 * d} points, "
                                               f"got m={m}, d={d}$"):
            hardin_rocke_cutoff(m, d)

    def test_fields_valid_across_settings(self):
        for m in (30, 100, 1000):
            for d in (1, 2, 4):
                cut = hardin_rocke_cutoff(m, d, level=0.05)
                assert cut.threshold > 0.0
                assert cut.dof2 > 0.0
                assert cut.dof1 == d

    @pytest.mark.parametrize("d", range(1, 7))
    def test_small_sample_floor_does_not_bind_from_m_40(self, d):
        # for d = 1..6 the floor m_hr >= d + 2 (dof2 = 3) binds only below m = 40
        cuts = [hardin_rocke_cutoff(m, d) for m in (40, 100, 200, 500, 2000)]
        assert all(cut.dof2 > 3.0 for cut in cuts)
        thresholds = [cut.threshold for cut in cuts]
        assert all(a > b for a, b in zip(thresholds, thresholds[1:]))

    def test_coverage_is_not_an_argument(self):
        with pytest.raises(TypeError):
            hardin_rocke_cutoff(200, 2, coverage=0.75)
        with pytest.raises(TypeError):
            hardin_rocke_cutoff(200, 2, 0.75)


# m, d in 1..6 and level grid on which the scipy.special cutoff must equal
# the scipy.stats formulas bit for bit
CUTOFF_GRID = [
    (m, d, level)
    for m in (12, 40, 150, 2000)
    for d in range(1, 7)
    if m > 2 * d
    for level in (0.001, 0.025, 0.05, 0.25)
]

# the scipy.stats counterpart of each scipy.special function robust.py calls
STATS_SPECIAL = SimpleNamespace(
    gammaincinv=lambda a, y: stats.chi2.ppf(y, 2.0 * a) / 2.0,
    chdtr=lambda k, x: stats.chi2.cdf(x, k),
    fdtri=lambda dfn, dfd, y: stats.f.ppf(y, dfn, dfd),
)


class TestCutoffsEqualScipyStats:
    def test_hardin_rocke_cutoff(self, monkeypatch):
        assert len(CUTOFF_GRID) == 92
        special = [hardin_rocke_cutoff(m, d, level=level) for m, d, level in CUTOFF_GRID]
        monkeypatch.setattr(fdout.robust, "scipy", SimpleNamespace(special=STATS_SPECIAL))
        reference = [hardin_rocke_cutoff(m, d, level=level) for m, d, level in CUTOFF_GRID]
        assert special == reference

    def test_mcd_consistency_factor(self):
        # at the maximum-breakdown alpha of every m from 2d + 1 to 200, and m = 2000
        cases = [(m, d) for d in range(1, 7) for m in (*range(2 * d + 1, 201), 2000)]
        assert len(cases) == 1164
        for m, d in cases:
            alpha = ((m + d + 1) // 2) / m
            expected = alpha / stats.chi2.cdf(stats.chi2.ppf(alpha, d), d + 2)
            assert _chi2_consistency(alpha, d) == expected, (m, d)
