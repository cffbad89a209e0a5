import numpy as np
import pytest
from scipy import stats

from fdout import (
    RandomSource,
    fast_mcd,
    geometric_median,
    hardin_rocke_cutoff,
    median_mad,
    robust_distances,
)
from fdout.errors import (
    BadCoverage,
    EmptyInput,
    InvalidLevel,
    NonConvergence,
    SingularCovariance,
    SingularSubsets,
    TooFewPoints,
)
from fdout.robust import MAD_CONSISTENCY, McdFit

from . import oracles


class TestMedianMad:
    def test_one_to_five(self):
        loc = median_mad([1, 2, 3, 4, 5])
        assert loc.median == 3.0
        assert loc.mad == pytest.approx(1.4826, abs=0)

    def test_constant(self):
        loc = median_mad([2.5, 2.5, 2.5])
        assert loc.median == 2.5
        assert loc.mad == 0.0

    def test_even_length_median(self):
        assert median_mad([1, 2, 3, 4]).median == 2.5

    def test_empty_input(self):
        with pytest.raises(EmptyInput):
            median_mad([])

    def test_permutation_invariant(self):
        xs = [3.0, -1.0, 7.0, 0.5, 2.0]
        a = median_mad(xs)
        b = median_mad(xs[::-1])
        assert (a.median, a.mad) == (b.median, b.mad)

    def test_translation_equivariant(self):
        xs = np.array([1.0, 2.0, 3.5, 7.0])
        base = median_mad(xs)
        moved = median_mad(xs + 2.5)
        assert moved.median == base.median + 2.5
        assert moved.mad == base.mad

    def test_consistency_constant_exported(self):
        assert MAD_CONSISTENCY == 1.4826


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

    def test_nonconvergence_surfaces(self):
        pts = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
        with pytest.raises(NonConvergence):
            geometric_median(pts, tol=1e-30, max_iter=3)


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

    def test_exact_line_is_singular(self):
        x = np.linspace(0.0, 1.0, 50)
        points = np.column_stack([x, 2.0 * x])
        with pytest.raises(SingularSubsets):
            fast_mcd(points, rng=RandomSource(0))

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
        assert fit.coverage_fraction == pytest.approx(fit.subset_indices.size / 101)

    def test_full_coverage_equals_classical(self):
        points = np.random.default_rng(3).standard_normal((60, 2))
        fit = fast_mcd(points, coverage=1.0, rng=RandomSource(1))
        np.testing.assert_allclose(fit.center, points.mean(axis=0), atol=1e-12)
        np.testing.assert_allclose(fit.covariance, np.cov(points, rowvar=False), atol=1e-10)

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

    @pytest.mark.parametrize("coverage", [0.3, 1.2, 0.0])
    def test_bad_coverage(self, coverage):
        points = np.random.default_rng(7).standard_normal((40, 2))
        with pytest.raises(BadCoverage):
            fast_mcd(points, coverage=coverage, rng=RandomSource(0))


class TestRobustDistances:
    def _identity_fit(self, d):
        return McdFit(
            center=np.zeros(d),
            covariance=np.eye(d),
            subset_indices=np.arange(d + 1),
            coverage_fraction=1.0,
        )

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

    def test_classical_fit_equals_classical_mahalanobis(self):
        rng = np.random.default_rng(9)
        points = rng.standard_normal((40, 2))
        fit = McdFit(
            center=points.mean(axis=0),
            covariance=np.cov(points, rowvar=False),
            subset_indices=np.arange(40),
            coverage_fraction=1.0,
            consistency_corrected=False,
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
            coverage_fraction=1.0,
        )
        with pytest.raises(SingularCovariance):
            robust_distances(np.ones((2, 2)), fit)


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
            cut = hardin_rocke_cutoff(500, 2, coverage=fit.coverage_fraction, level=0.05)
            rates.append(np.mean(robust_distances(points, fit) > cut.threshold))
        assert np.mean(rates) <= 0.12

    @pytest.mark.parametrize("level", [0.0, 1.0, -0.2, 1.5])
    def test_invalid_level(self, level):
        with pytest.raises(InvalidLevel):
            hardin_rocke_cutoff(100, 2, level=level)

    def test_fields_valid_across_settings(self):
        for m in (30, 100, 1000):
            for d in (1, 2, 4):
                for coverage in (None, 0.75, 1.0):
                    cut = hardin_rocke_cutoff(m, d, coverage=coverage, level=0.05)
                    assert cut.threshold > 0.0
                    assert cut.dof2 > 0.0
                    assert cut.dof1 == d
