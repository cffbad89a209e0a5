from types import SimpleNamespace

import numpy as np
import pytest
from scipy import stats

import fdout.robust

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
from fdout.robust import MAD_CONSISTENCY, McdFit, _chi2_consistency

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

    def test_nonconvergence_surfaces(self, monkeypatch):
        monkeypatch.setattr(fdout.robust, "GM_TOL", 1e-30)
        monkeypatch.setattr(fdout.robust, "GM_MAX_ITER", 3)
        pts = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
        with pytest.raises(NonConvergence):
            geometric_median(pts)


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


class TestFastMcdMatchesScalarOracle:
    """The blocked trials reproduce the one-trial-at-a-time search bit for bit."""

    @pytest.mark.parametrize("make, m, d, coverage, seed", [
        (_gaussian, 9, 4, None, 0),
        (_gaussian, 10, 2, 0.9, 1),
        (_gaussian, 40, 3, 0.6, 2),
        (_gaussian, 57, 2, None, 3),
        (_gaussian, 120, 4, 0.9, 4),
        (_gaussian, 200, 2, 0.6, 5),
        (_gaussian, 300, 3, None, 6),
        (_gaussian, 300, 4, 0.6, 7),
        (_repeated_rows, 30, 2, None, 8),
        (_repeated_rows, 80, 3, 0.6, 9),
        (_repeated_rows, 150, 4, 0.9, 10),
        (_line_plus_scatter, 60, 2, None, 11),
        (_line_plus_scatter, 90, 3, 0.9, 12),
        (_plane_plus_cluster, 50, 4, None, 15),
        (_exact_line, 50, 2, None, 13),
        (_exact_line, 40, 3, 0.6, 14),
    ])
    def test_bit_identical(self, make, m, d, coverage, seed):
        points = make(m, d, seed)
        expected = oracles.fast_mcd_raw(points, coverage, RandomSource(seed))
        if expected is None:
            with pytest.raises(SingularSubsets):
                fast_mcd(points, coverage=coverage, rng=RandomSource(seed))
            return
        center, cov, subset = expected
        fit = fast_mcd(points, coverage=coverage, rng=RandomSource(seed))
        factor = _chi2_consistency(fit.coverage_fraction, d)
        assert np.array_equal(fit.center, center)
        assert np.array_equal(fit.covariance, cov * factor)
        assert np.array_equal(fit.subset_indices, subset)

    def test_cases_cover_growth_and_failure(self):
        # the repeated-row clouds do have singular elemental starts
        for m, d, seed in ((30, 2, 8), (80, 3, 9), (150, 4, 10)):
            points = _repeated_rows(m, d, seed)
            rng = RandomSource(seed)
            starts = [points[rng.choice_without_replacement(m, m)[: d + 1]] for _ in range(20)]
            assert any(np.linalg.matrix_rank(s - s.mean(axis=0)) < d for s in starts)
        assert oracles.fast_mcd_raw(_exact_line(50, 2, 13), None, RandomSource(13)) is None

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
        n_blocks = len(range(0, fdout.robust.N_TRIALS, fdout.robust.TRIAL_BLOCK))
        refine = masks[fdout.robust.N_INITIAL_CSTEPS * n_blocks:]
        assert any(ok.any() and not ok.all() and later.any()
                   for ok, later in zip(refine, refine[1:]))


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


# m, d in 1..6, coverage and level grids on which the scipy.special cutoffs
# must equal the scipy.stats formulas bit for bit
CUTOFF_GRID = [
    (m, d, coverage, level)
    for m in (12, 40, 150, 2000)
    for d in range(1, 7)
    if m > 2 * d
    for coverage in (None, 0.6, 0.75, 0.9, 0.995, 1.0)
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
        special = [hardin_rocke_cutoff(*case) for case in CUTOFF_GRID]
        monkeypatch.setattr(fdout.robust, "scipy", SimpleNamespace(special=STATS_SPECIAL))
        reference = [hardin_rocke_cutoff(*case) for case in CUTOFF_GRID]
        assert special == reference

    def test_mcd_consistency_factor(self):
        for m, d, coverage, _level in CUTOFF_GRID:
            h_min = (m + d + 1) // 2
            h = h_min if coverage is None else min(max(int(coverage * m), h_min), m)
            alpha = h / m
            expected = 1.0 if h == m else (
                alpha / stats.chi2.cdf(stats.chi2.ppf(alpha, d), d + 2)
            )
            assert _chi2_consistency(alpha, d) == expected, (m, d, coverage)
