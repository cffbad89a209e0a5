"""Tests for the synthetic contamination models.

Model semantics are checked without reimplementing the generator: two runs
with the same seed share every random draw, so the difference between runs
that vary only a contamination parameter isolates the planted term exactly.
"""

import numpy as np
import pytest

from fdout.errors import BadModel, BadRate, CovarianceNotPD, TooFewCurves
from fdout.fdcore import RandomSource, uniform_grid
from fdout.simmodels import (
    MODEL_IDS,
    GaussianProcessSpec,
    gp_sample,
    simulation_model,
)


class TestGpSample:
    def test_zero_mean_by_default(self):
        grid = uniform_grid(5, 0.0, 1.0)
        out = gp_sample(GaussianProcessSpec(), grid, 4000, RandomSource(11))
        # pointwise SE is 1/sqrt(4000) ~ 0.016
        assert np.all(np.abs(out.values.mean(axis=0)) < 0.08)

    def test_same_seed_identical(self):
        grid = uniform_grid(12, 0.0, 1.0)
        spec = GaussianProcessSpec(amplitude=2.0, range_=0.5)
        a = gp_sample(spec, grid, 7, RandomSource(42))
        b = gp_sample(spec, grid, 7, RandomSource(42))
        assert np.array_equal(a.values, b.values)

    def test_different_children_differ(self):
        grid = uniform_grid(12, 0.0, 1.0)
        root = RandomSource(42)
        a = gp_sample(GaussianProcessSpec(), grid, 7, root.child(0))
        b = gp_sample(GaussianProcessSpec(), grid, 7, root.child(1))
        assert not np.array_equal(a.values, b.values)

    def test_empirical_covariance_matches_kernel(self):
        # sample covariance over 20000 paths vs a * exp(-r |s-t|^e)
        grid = uniform_grid(4, 0.0, 1.0)
        spec = GaussianProcessSpec(amplitude=2.0, range_=1.5, exponent=1.0)
        out = gp_sample(spec, grid, 20000, RandomSource(2026))
        emp = np.cov(out.values, rowvar=False)
        lags = np.abs(grid.points[:, None] - grid.points[None, :])
        expected = 2.0 * np.exp(-1.5 * lags)
        assert np.all(np.abs(emp - expected) < 0.05 * expected)

    def test_rougher_exponent_has_rougher_paths(self):
        grid = uniform_grid(100, 0.0, 1.0)
        smooth = gp_sample(
            GaussianProcessSpec(exponent=1.0), grid, 400, RandomSource(1)
        ).values
        rough = gp_sample(
            GaussianProcessSpec(exponent=0.5), grid, 400, RandomSource(1)
        ).values
        mean_sq_incr = lambda v: np.mean(np.diff(v, axis=1) ** 2)
        assert mean_sq_incr(rough) > 2.0 * mean_sq_incr(smooth)

    def test_needs_a_curve(self):
        grid = uniform_grid(4, 0.0, 1.0)
        with pytest.raises(TooFewCurves, match="^gp_sample needs at least 1 curve, got 0$"):
            gp_sample(GaussianProcessSpec(), grid, 0, RandomSource(0))

    def test_indefinite_kernel_rejected(self):
        grid = uniform_grid(4, 0.0, 1.0)
        with pytest.raises(CovarianceNotPD):
            gp_sample(GaussianProcessSpec(amplitude=-1.0), grid, 2, RandomSource(0))


class TestValidation:
    @pytest.mark.parametrize("k", [0, 10, -3])
    def test_unknown_model(self, k):
        with pytest.raises(BadModel):
            simulation_model(k)

    @pytest.mark.parametrize("rate", [-0.1, 1.0001, 2.0])
    def test_bad_rate(self, rate):
        with pytest.raises(BadRate):
            simulation_model(1, outlier_rate=rate)

    def test_rate_bounds_inclusive(self):
        assert simulation_model(1, n=5, p=4, outlier_rate=0.0).true_outliers.size == 0
        out = simulation_model(1, n=5, p=4, outlier_rate=1.0, seed=1)
        assert np.array_equal(out.true_outliers, np.arange(5))

    def test_needs_a_curve(self):
        with pytest.raises(TooFewCurves,
                           match="^simulation_model needs at least 1 curve, got 0$"):
            simulation_model(1, n=0)

    def test_override_must_belong_to_model(self):
        with pytest.raises(BadModel, match="does not accept"):
            simulation_model(4, shift=3.0)
        with pytest.raises(BadModel, match="interval_length"):
            simulation_model(1, interval_length=0.5)

    def test_gp_overrides_allowed_everywhere(self):
        for k in MODEL_IDS:
            out = simulation_model(k, n=6, p=8, gp_amplitude=0.5, seed=3)
            assert out.data.values.shape == (6, 8)


class TestSelection:
    def test_deterministic_rows_evenly_spaced(self):
        out = simulation_model(1, n=100, outlier_rate=0.1, deterministic=True)
        assert np.array_equal(out.true_outliers, np.arange(10) * 10)

    def test_deterministic_count_is_ceiling(self):
        out = simulation_model(1, n=7, p=4, outlier_rate=0.3, deterministic=True)
        assert np.array_equal(out.true_outliers, np.array([0, 2, 4]))

    def test_deterministic_rate_zero_plants_none(self):
        out = simulation_model(1, n=7, p=4, outlier_rate=0.0, deterministic=True)
        assert out.true_outliers.size == 0 and out.true_outliers.dtype == np.intp
        random = simulation_model(1, n=7, p=4, outlier_rate=0.0)
        assert np.array_equal(out.data.values, random.data.values)

    def test_bernoulli_rate_roughly_respected(self):
        sizes = [
            simulation_model(1, n=200, p=4, outlier_rate=0.1, seed=s).true_outliers.size
            for s in range(10)
        ]
        assert 0.05 < np.mean(sizes) / 200 < 0.15

    def test_selection_monotone_in_rate(self):
        lo = simulation_model(1, n=80, p=4, outlier_rate=0.05, seed=9).true_outliers
        hi = simulation_model(1, n=80, p=4, outlier_rate=0.20, seed=9).true_outliers
        assert set(lo) <= set(hi)

    def test_truth_sorted_unique_in_range(self):
        for k in MODEL_IDS:
            tr = simulation_model(k, n=40, p=10, outlier_rate=0.25, seed=k).true_outliers
            assert np.array_equal(tr, np.unique(tr))
            if tr.size:
                assert tr.min() >= 0 and tr.max() < 40


class TestStreamDiscipline:
    """Bulk rows must be bit identical across models and rates for one seed."""

    def test_bulk_identical_across_trend_models(self):
        runs = {
            k: simulation_model(k, n=60, p=30, outlier_rate=0.2, seed=7)
            for k in (1, 2, 3, 4, 5, 6, 9)
        }
        ref = runs[1]
        bulk = np.setdiff1d(np.arange(60), ref.true_outliers)
        for k, out in runs.items():
            assert np.array_equal(out.true_outliers, ref.true_outliers)
            assert np.array_equal(
                out.data.values[bulk], ref.data.values[bulk]
            ), f"model {k} bulk differs"

    def test_bulk_identical_across_periodic_models(self):
        a = simulation_model(7, n=40, p=25, outlier_rate=0.2, seed=5)
        b = simulation_model(8, n=40, p=25, outlier_rate=0.2, seed=5)
        bulk = np.setdiff1d(np.arange(40), a.true_outliers)
        assert np.array_equal(a.data.values[bulk], b.data.values[bulk])

    def test_bulk_identical_across_rates(self):
        clean = simulation_model(3, n=50, p=20, outlier_rate=0.0, seed=4)
        dirty = simulation_model(3, n=50, p=20, outlier_rate=0.3, seed=4)
        bulk = np.setdiff1d(np.arange(50), dirty.true_outliers)
        assert np.array_equal(dirty.data.values[bulk], clean.data.values[bulk])

    def test_periodic_vs_trend_bulk_differ_by_mean_only(self):
        # same seed, rate 0: swapping the mean function must leave noise bits alone
        trend = simulation_model(1, n=10, p=40, outlier_rate=0.0, seed=12)
        periodic = simulation_model(7, n=10, p=40, outlier_rate=0.0, seed=12)
        t = trend.data.grid.points
        diff = periodic.data.values - trend.data.values
        expected = 4.0 * np.sin(2.0 * np.pi * t) - 4.0 * t
        assert np.allclose(diff, expected[None, :], atol=1e-12)


def _paired_diff(k, seed=17, n=50, p=101, rate=0.2, base=None, varied=None):
    """Difference between two runs that agree on every random draw."""
    a = simulation_model(k, n=n, p=p, outlier_rate=rate, seed=seed, **(base or {}))
    b = simulation_model(k, n=n, p=p, outlier_rate=rate, seed=seed, **(varied or {}))
    assert np.array_equal(a.true_outliers, b.true_outliers)
    return a, b.data.values - a.data.values, a.true_outliers


class TestModelSemantics:
    def test_model1_constant_shift_with_both_signs(self):
        out, diff, rows = _paired_diff(1, base={"shift": 5.0}, varied={"shift": 10.0})
        bulk = np.setdiff1d(np.arange(50), rows)
        assert np.all(diff[bulk] == 0.0)
        signs = set()
        for r in rows:
            level = np.median(diff[r])
            assert abs(abs(level) - 5.0) < 1e-12
            assert np.allclose(diff[r], level, atol=1e-12)
            signs.add(np.sign(level))
        assert signs == {-1.0, 1.0}

    def test_model2_shift_confined_to_short_interval(self):
        out, diff, rows = _paired_diff(2, base={"shift": 0.0}, varied={"shift": 10.0})
        h = out.data.grid.points[1] - out.data.grid.points[0]
        for r in rows:
            nz = np.flatnonzero(np.abs(diff[r]) > 1e-9)
            assert nz.size >= 1
            assert np.array_equal(nz, np.arange(nz[0], nz[-1] + 1))
            assert (nz.size - 1) * h <= 0.04 + 2 * h
            assert np.allclose(np.abs(diff[r][nz]), 10.0, atol=1e-12)

    def test_model3_shift_is_a_suffix_starting_in_window(self):
        out, diff, rows = _paired_diff(3, base={"shift": 0.0}, varied={"shift": 8.0})
        t = out.data.grid.points
        for r in rows:
            nz = np.flatnonzero(np.abs(diff[r]) > 1e-9)
            assert nz.size >= 1 and nz[-1] == t.size - 1
            assert np.array_equal(nz, np.arange(nz[0], t.size))
            assert t[nz[0]] >= 0.2 - 1e-12
            assert np.allclose(np.abs(diff[r][nz]), 8.0, atol=1e-12)

    def test_model4_reversed_trend(self):
        clean = simulation_model(1, n=30, p=40, outlier_rate=0.2, seed=6, shift=0.0)
        rev = simulation_model(4, n=30, p=40, outlier_rate=0.2, seed=6)
        t = rev.data.grid.points
        rows = rev.true_outliers
        diff = rev.data.values - clean.data.values
        bulk = np.setdiff1d(np.arange(30), rows)
        assert np.all(diff[bulk] == 0.0)
        assert np.allclose(diff[rows], (4.0 - 8.0 * t)[None, :], atol=1e-12)

    def test_model5_outliers_have_inflated_variance(self):
        out = simulation_model(5, n=200, p=50, outlier_rate=0.2, seed=8)
        t = out.data.grid.points
        rows = out.true_outliers
        bulk = np.setdiff1d(np.arange(200), rows)
        resid = out.data.values - 4.0 * t[None, :]
        var_out = resid[rows].var(axis=0, ddof=1).mean()
        var_bulk = resid[bulk].var(axis=0, ddof=1).mean()
        assert 0.6 < var_bulk < 1.5
        assert 5.0 < var_out < 12.0

    def test_model6_low_frequency_wave(self):
        out, diff, rows = _paired_diff(
            6, base={"wave_amplitude": 0.0}, varied={"wave_amplitude": 3.0}
        )
        t = out.data.grid.points
        wave = 3.0 * np.sin(2.0 * np.pi * 2.0 * t)
        assert np.allclose(diff[rows], wave[None, :], atol=1e-12)

    def test_model6_cycles_override(self):
        out, diff, rows = _paired_diff(
            6,
            base={"wave_amplitude": 0.0, "wave_cycles": 5.0},
            varied={"wave_amplitude": 3.0, "wave_cycles": 5.0},
        )
        t = out.data.grid.points
        assert np.allclose(diff[rows], 3.0 * np.sin(10.0 * np.pi * t)[None, :], atol=1e-12)

    def test_model7_phase_shift_in_either_direction(self):
        out, diff, rows = _paired_diff(
            7, base={"phase_shift": 0.0}, varied={"phase_shift": 0.3}
        )
        t = out.data.grid.points
        base = 4.0 * np.sin(2.0 * np.pi * t)
        plus = 4.0 * np.sin(2.0 * np.pi * (t + 0.3)) - base
        minus = 4.0 * np.sin(2.0 * np.pi * (t - 0.3)) - base
        for r in rows:
            ok = np.allclose(diff[r], plus, atol=1e-12) or np.allclose(
                diff[r], minus, atol=1e-12
            )
            assert ok

    def test_model8_amplitude_factor(self):
        out, diff, rows = _paired_diff(
            8,
            base={"amplitude_low": 1.5, "amplitude_high": 1.5},
            varied={"amplitude_low": 2.0, "amplitude_high": 2.0},
        )
        t = out.data.grid.points
        assert np.allclose(diff[rows], 2.0 * np.sin(2.0 * np.pi * t)[None, :], atol=1e-12)

    def test_model9_oscillation_on_subinterval(self):
        out, diff, rows = _paired_diff(
            9, base={"wave_amplitude": 0.0}, varied={"wave_amplitude": 3.0}
        )
        t = out.data.grid.points
        h = t[1] - t[0]
        wave = 3.0 * np.sin(2.0 * np.pi * 20.0 * t)
        for r in rows:
            nz = np.flatnonzero(np.abs(diff[r]) > 1e-9)
            assert nz.size >= 1
            window = np.arange(nz[0], nz[-1] + 1)
            assert (window.size - 1) * h <= 0.2 + 2 * h
            assert np.allclose(diff[r][window], wave[window], atol=1e-12)
            outside = np.setdiff1d(np.arange(t.size), window)
            # sin roots at the window edge leave ~1e-16 residues, not exact zeros
            assert np.all(np.abs(diff[r][outside]) < 1e-9)


class TestDistributionalChecks:
    def test_model1_planted_shift_magnitude(self):
        # mean absolute grid-mean offset of planted rows vs bulk is near 8
        gaps = []
        for seed in range(20):
            out = simulation_model(
                1, n=100, p=50, outlier_rate=0.1, deterministic=True, seed=seed
            )
            rowmeans = out.data.values.mean(axis=1)
            bulk = np.setdiff1d(np.arange(100), out.true_outliers)
            gaps.append(
                np.mean(np.abs(rowmeans[out.true_outliers] - rowmeans[bulk].mean()))
            )
        assert abs(np.mean(gaps) - 8.0) < 1.0

    def test_bulk_mean_recovers_trend(self):
        rows = []
        for seed in range(10):
            out = simulation_model(
                3, n=100, p=50, outlier_rate=0.1, deterministic=True, seed=seed
            )
            bulk = np.setdiff1d(np.arange(100), out.true_outliers)
            rows.append(out.data.values[bulk])
        pooled = np.vstack(rows)
        t = uniform_grid(50, 0.0, 1.0).points
        z = (pooled.mean(axis=0) - 4.0 * t) / (pooled.std(axis=0, ddof=1) / np.sqrt(len(pooled)))
        assert np.max(np.abs(z)) < 5.0


class TestOutputRecord:
    def test_shapes_and_grid_for_all_models(self):
        for k in MODEL_IDS:
            out = simulation_model(k, n=12, p=9, outlier_rate=0.25, seed=k)
            assert out.data.values.shape == (12, 9)
            assert out.model_id == k
            assert np.array_equal(out.data.grid.points, uniform_grid(9, 0.0, 1.0).points)

    def test_params_record_inputs_and_overrides(self):
        out = simulation_model(
            2, n=14, p=11, outlier_rate=0.5, deterministic=True, seed=99, shift=6.0
        )
        p = out.params
        assert p["model"] == 2
        assert p["n"] == 14 and p["p"] == 11
        assert p["outlier_rate"] == 0.5
        assert p["deterministic"] is True
        assert p["seed"] == 99
        assert p["shift"] == 6.0
        assert p["interval_length"] == 0.04
        assert p["gp_amplitude"] == 1.0
        assert "wave_cycles" not in p and "phase_shift" not in p

    def test_same_seed_reproduces_everything(self):
        a = simulation_model(6, n=20, p=15, outlier_rate=0.2, seed=31)
        b = simulation_model(6, n=20, p=15, outlier_rate=0.2, seed=31)
        assert np.array_equal(a.data.values, b.data.values)
        assert np.array_equal(a.true_outliers, b.true_outliers)
