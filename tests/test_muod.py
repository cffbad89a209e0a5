import sys

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from fdout import (
    muod,
    muod_cutoff_boxplot,
    muod_cutoff_tangent,
    muod_indices,
    simulation_model,
)
from fdout.errors import AllDegenerate, NonFiniteIndex, TooFewCurves, TooFewPoints, UnknownCutMethod

from . import oracles
from .conftest import make_sample


def random_sample(seed, n, p):
    return make_sample(np.random.default_rng(seed).standard_normal((n, p)))


class TestMuodIndices:
    def test_shifted_lines_fixture(self):
        t = np.linspace(0.0, 1.0, 8)
        sample = make_sample(np.vstack([t, t, t + 3.0]))
        idx = muod_indices(sample)
        np.testing.assert_allclose(idx.shape, 0.0, atol=1e-12)
        np.testing.assert_allclose(idx.amplitude, 0.0, atol=1e-12)
        np.testing.assert_allclose(idx.magnitude, [1.0, 1.0, 2.0], rtol=0, atol=1e-12)

    def test_identical_non_constant_curves(self):
        sample = make_sample(np.tile([0.0, 2.0, 1.0, 4.0], (5, 1)))
        idx = muod_indices(sample)
        np.testing.assert_allclose(idx.shape, 0.0, atol=1e-12)
        np.testing.assert_allclose(idx.magnitude, 0.0, atol=1e-12)
        np.testing.assert_allclose(idx.amplitude, 0.0, atol=1e-12)

    def test_matches_naive_oracle(self):
        sample = random_sample(301, 10, 8)
        shape, magnitude, amplitude = oracles.muod_indices(sample.values)
        idx = muod_indices(sample)
        np.testing.assert_allclose(idx.shape, shape, rtol=0, atol=1e-12)
        np.testing.assert_allclose(idx.magnitude, magnitude, rtol=0, atol=1e-12)
        np.testing.assert_allclose(idx.amplitude, amplitude, rtol=0, atol=1e-12)

    def test_zero_variance_pairs_skipped(self):
        t = np.linspace(0.0, 1.0, 6)
        values = np.vstack([t, 2.0 * t, np.full(6, 3.0), t + 1.0])
        idx = muod_indices(make_sample(values))
        shape, magnitude, amplitude = oracles.muod_indices(values)
        np.testing.assert_allclose(idx.shape, shape, rtol=0, atol=1e-12)
        np.testing.assert_allclose(idx.magnitude, magnitude, rtol=0, atol=1e-12)
        np.testing.assert_allclose(idx.amplitude, amplitude, rtol=0, atol=1e-12)

    def test_all_degenerate(self):
        with pytest.raises(AllDegenerate):
            muod_indices(make_sample(np.ones((4, 5))))

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_near_constant_curve_is_named(self):
        # next to unit-size curves, the variance of curve 4 is subnormal and
        # its reciprocal overflows; the error names it, not every curve
        rng = np.random.default_rng(2)
        values = rng.standard_normal((30, 20))
        values[4] = 1e-160 * rng.standard_normal(20)
        with pytest.raises(NonFiniteIndex, match=r"curves \[4\] .* variance"):
            muod_indices(make_sample(values))

    def test_magnitude_overflow_names_the_intercept(self):
        rng = np.random.default_rng(1)
        values = rng.choice([-1.0, 1.0], size=(20, 6)) * rng.uniform(0.99, 1.0, (20, 6)) * 1.79e308
        with pytest.raises(NonFiniteIndex, match="mean intercept exceeds the largest double"):
            muod_indices(make_sample(values))

    def test_shape_scale_invariance_exact(self):
        # dyadic integer data keeps every covariance operation exact, so the
        # correlation-based shape index is bit-identical under y -> 2y + 1
        base = np.array([
            [0.0, 1.0, 3.0, 2.0, 5.0, 4.0, 7.0, 6.0],
            [1.0, 0.0, 2.0, 4.0, 3.0, 6.0, 5.0, 8.0],
            [2.0, 3.0, 1.0, 5.0, 4.0, 7.0, 6.0, 9.0],
            [3.0, 2.0, 4.0, 1.0, 6.0, 5.0, 8.0, 7.0],
            [4.0, 5.0, 3.0, 7.0, 2.0, 8.0, 6.0, 10.0],
            [5.0, 4.0, 6.0, 3.0, 8.0, 2.0, 9.0, 8.0],
        ])
        modified = base.copy()
        modified[2] = 2.0 * base[2] + 1.0
        before = muod_indices(make_sample(base))
        after = muod_indices(make_sample(modified))
        np.testing.assert_array_equal(before.shape, after.shape)

    def test_translation_moves_only_magnitude(self):
        values = np.random.default_rng(302).standard_normal((6, 7))
        moved = values.copy()
        moved[2] += 5.0
        before = muod_indices(make_sample(values))
        after = muod_indices(make_sample(moved))
        np.testing.assert_allclose(after.shape, before.shape, rtol=0, atol=1e-12)
        np.testing.assert_allclose(after.amplitude, before.amplitude, rtol=0, atol=1e-12)
        assert after.magnitude[2] != pytest.approx(before.magnitude[2], abs=1e-6)

    @pytest.mark.parametrize("exponent, model", [(900, None), (-900, None), (1019, 1)],
                             ids=["900", "-900", "1019"])
    def test_exact_under_power_of_two_scaling(self, exponent, model):
        # at 2**900 the covariances would overflow, at 2**-900 underflow to 0;
        # at 2**1019 model 1's magnitude indices pass 1e308, where the tangent
        # cutoff's slope must be fitted in power-of-two units to stay finite
        values = (np.random.default_rng(304).standard_normal((20, 6)) if model is None
                  else simulation_model(model, n=100, p=50, seed=2).data.values)
        base = muod_indices(make_sample(values))
        scaled = muod_indices(make_sample(np.ldexp(values, exponent)))
        np.testing.assert_array_equal(scaled.shape, base.shape)
        np.testing.assert_array_equal(scaled.amplitude, base.amplitude)
        np.testing.assert_array_equal(scaled.magnitude, np.ldexp(base.magnitude, exponent))
        for cut in ("boxplot", "tangent"):
            flags, _ = muod(make_sample(values), cut_method=cut)
            scaled_flags, _ = muod(make_sample(np.ldexp(values, exponent)), cut_method=cut)
            for kind in ("shape", "magnitude", "amplitude"):
                np.testing.assert_array_equal(
                    getattr(scaled_flags, kind), getattr(flags, kind)
                )

    def test_preconditions(self):
        with pytest.raises(TooFewPoints):
            muod_indices(make_sample(np.random.default_rng(1).standard_normal((5, 2))))


class TestBoxplotCutoff:
    def test_gross_outlier(self):
        values = np.array([0.1] * 9 + [5.0])
        np.testing.assert_array_equal(muod_cutoff_boxplot(values), [9])

    def test_all_equal_flags_nothing(self):
        assert muod_cutoff_boxplot(np.full(8, 0.3)).size == 0

    def test_quartile_arithmetic(self):
        values = np.concatenate([np.arange(1.0, 21.0), [100.0]])
        np.testing.assert_array_equal(muod_cutoff_boxplot(values), [20])

    def test_too_few(self):
        with pytest.raises(TooFewCurves):
            muod_cutoff_boxplot([1.0, 2.0, 3.0, 4.0])

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_quartiles_near_the_largest_double_are_exact(self):
        # Q1 interpolates between -1.7e308 and 1.7e307, whose difference
        # overflows: unscaled it came out -inf, and so did a fence that lies
        # near 8.7e307, below the last index
        values = np.array([-1.7e308] * 2 + [1.7e307] * 5 + [1.53e308])
        np.testing.assert_array_equal(muod_cutoff_boxplot(values), [7])

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_fence_past_the_largest_double_flags_nothing(self):
        values = np.array([-1.7e308] * 4 + [1.7e308] * 4)
        assert muod_cutoff_boxplot(values).size == 0


class TestTangentCutoff:
    def test_linear_indices_flag_all_but_minimum(self):
        n = 20
        values = np.arange(1.0, n + 1.0) / n
        flagged = muod_cutoff_tangent(values)
        np.testing.assert_array_equal(flagged, np.arange(1, n))

    def test_flat_bulk_with_three_spikes(self):
        values = np.concatenate([np.full(197, 0.1), [10.0, 10.0, 10.0]])
        flagged = muod_cutoff_tangent(values)
        np.testing.assert_array_equal(flagged, [197, 198, 199])

    def test_all_equal_flags_nothing(self):
        assert muod_cutoff_tangent(np.full(15, 2.0)).size == 0

    @pytest.mark.parametrize("exponent", [1020, 500, -500])
    def test_same_flags_under_power_of_two_scaling(self, exponent):
        # at 2**1020 the sorted tail passes 1e308, where a slope fitted in
        # the values' own units would be infinite
        values = np.abs(np.random.default_rng(0).standard_normal(60))
        values[:3] += 10.0
        flagged = muod_cutoff_tangent(values)
        assert flagged.size > 3
        np.testing.assert_array_equal(muod_cutoff_tangent(np.ldexp(values, exponent)), flagged)

    def test_too_few(self):
        with pytest.raises(TooFewCurves):
            muod_cutoff_tangent(np.arange(9.0))


class TestMuod:
    def test_planted_magnitude_outliers(self):
        out = simulation_model(1, n=100, p=50, outlier_rate=0.1,
                               deterministic=True, seed=17)
        flags, _ = muod(out.data, cut_method="boxplot")
        assert np.intersect1d(flags.magnitude, out.true_outliers).size == 10

    def test_amplitude_contamination(self):
        t = np.linspace(0.0, 1.0, 30)
        rng = np.random.default_rng(303)
        bulk = np.array([np.sin(2 * np.pi * t) + 0.05 * rng.standard_normal(30)
                         for _ in range(18)])
        scaled = 3.0 * np.sin(2 * np.pi * t) + 0.05 * rng.standard_normal((2, 30))
        sample = make_sample(np.vstack([bulk, scaled]))
        flags, _ = muod(sample, cut_method="boxplot")
        assert {18, 19} <= set(flags.amplitude.tolist())

    def test_tangent_method_runs(self):
        out = simulation_model(1, n=40, p=20, outlier_rate=0.1, seed=18)
        flags, idx = muod(out.data, cut_method="tangent")
        assert flags.cut_method == "tangent"
        assert idx.shape.size == 40

    @pytest.mark.parametrize("offset", [0.0, -3.0, 1000.0])
    @pytest.mark.parametrize("cut", ["boxplot", "tangent"])
    @pytest.mark.parametrize("wave", [np.sin, lambda t: np.sin(2 * np.pi * t)])
    def test_rounding_ties_flag_nothing(self, wave, cut, offset):
        # rows equal in exact arithmetic but not in their last bits: each adds
        # and subtracts its own amount, to its offset and then to its values.
        # Their indices differ only by rounding; only the shifted curve is an
        # outlier. (Bitwise-equal rows get bitwise-equal indices.)
        shift = np.arange(30)[:, None] / 3
        row_offset = (offset + (1 + abs(offset)) * shift) - (1 + abs(offset)) * shift
        values = ((wave(np.linspace(0.0, 1.0, 20)) + row_offset) + shift) - shift
        values[29] += 1.0
        idx = muod_indices(make_sample(values))
        assert np.ptp(idx.shape) > 0 or np.ptp(idx.amplitude) > 0 or np.ptp(idx.magnitude[:29]) > 0
        flags, _ = muod(make_sample(values), cut_method=cut)
        assert flags.shape.size == 0
        assert flags.amplitude.size == 0
        np.testing.assert_array_equal(flags.magnitude, [29])

    @pytest.mark.parametrize("cutoff, flagged", [
        (muod_cutoff_boxplot, [8, 9]),
        (muod_cutoff_tangent, [9]),
    ])
    def test_cutoff_scale_sets_the_tie_width(self, cutoff, flagged):
        values = np.array([0.0] * 8 + [1e-16, 2e-16])
        np.testing.assert_array_equal(cutoff(values), flagged)
        assert cutoff(values, scale=1.0).size == 0

    @pytest.mark.parametrize("cut, n", [("boxplot", 4), ("tangent", 7)])
    def test_cutoff_refuses_before_any_index(self, monkeypatch, cut, n):
        def refuse(sample):
            raise AssertionError("the indices were computed")

        monkeypatch.setattr(sys.modules["fdout.muod"], "muod_indices", refuse)
        with pytest.raises(TooFewCurves, match=f"^muod_cutoff_{cut} needs at least"):
            muod(random_sample(305, n, 6), cut_method=cut)

    def test_unknown_cut_method(self):
        out = simulation_model(1, n=10, p=8, outlier_rate=0.0, seed=19)
        with pytest.raises(UnknownCutMethod):
            muod(out.data, cut_method="fences")


@given(st.integers(0, 10**6), st.integers(3, 9), st.integers(3, 8))
def test_indices_always_match_oracle(seed, n, p):
    sample = random_sample(seed, n, p)
    shape, magnitude, amplitude = oracles.muod_indices(sample.values)
    idx = muod_indices(sample)
    np.testing.assert_allclose(idx.shape, shape, rtol=0, atol=1e-12)
    np.testing.assert_allclose(idx.magnitude, magnitude, rtol=0, atol=1e-12)
    np.testing.assert_allclose(idx.amplitude, amplitude, rtol=0, atol=1e-12)
    for vec in (idx.shape, idx.magnitude, idx.amplitude):
        assert np.all(vec >= 0.0) and np.all(np.isfinite(vec))
