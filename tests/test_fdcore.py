import re

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from fdout import (
    CurveSample,
    Grid,
    MultiCurveSample,
    RandomSource,
    as_multivariate,
    as_univariate,
    functional_boxplot,
    modified_band_depth,
    muod_indices,
    simulation_model,
    uniform_grid,
)
from fdout.errors import (
    DegenerateInterval,
    NonFiniteValue,
    NonIncreasingGrid,
    RaggedRows,
    ValidationError,
)

from .conftest import make_multi, make_sample


class TestGrid:
    def test_interval_length(self):
        g = Grid([0.0, 0.5, 1.0])
        assert g.size == 3
        assert g.interval_length == 1.0

    def test_rejects_non_increasing(self):
        with pytest.raises(NonIncreasingGrid):
            Grid([0.0, 0.5, 0.5])

    def test_rejects_single_point(self):
        with pytest.raises(ValidationError):
            Grid([0.0])

    def test_non_finite_point_is_refused_as_a_grid(self):
        with pytest.raises(NonIncreasingGrid, match="non-finite points"):
            Grid([0.0, np.inf, 1.0])

    def test_point_that_is_not_a_number_is_named(self):
        with pytest.raises(ValidationError) as info:
            Grid([0, None, 1])
        assert type(info.value) is ValidationError
        assert str(info.value) == "None at (1) is not a number"

    def test_uniformity_flag(self):
        assert uniform_grid(7, 0.0, 1.0).is_uniform
        assert not Grid([0.0, 0.1, 1.0]).is_uniform


class TestUniformGrid:
    def test_three_points(self):
        np.testing.assert_array_equal(uniform_grid(3, 0, 1).points, [0.0, 0.5, 1.0])

    def test_fifty_point_step(self):
        g = uniform_grid(50, 0, 1)
        steps = np.diff(g.points)
        np.testing.assert_allclose(steps, 1.0 / 49.0, rtol=0, atol=1e-15)

    def test_two_point_endpoints(self):
        np.testing.assert_array_equal(uniform_grid(2, -1, 1).points, [-1.0, 1.0])

    def test_degenerate_interval(self):
        with pytest.raises(DegenerateInterval):
            uniform_grid(3, 1.0, 1.0)
        with pytest.raises(DegenerateInterval):
            uniform_grid(3, 2.0, 1.0)


class TestValidation:
    def test_accepts_well_formed(self):
        sample = make_sample([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]])
        np.testing.assert_array_equal(sample.values, [[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]])

    def test_locates_non_finite_entry(self):
        values = np.ones((3, 4))
        values[1, 2] = np.nan
        with pytest.raises(NonFiniteValue) as info:
            make_sample(values)
        assert (info.value.row, info.value.col, info.value.dim) == (1, 2, None)

    def test_multivariate_non_finite(self):
        values = np.zeros((2, 3, 2))
        values[0, 1, 1] = np.inf
        with pytest.raises(NonFiniteValue) as info:
            make_multi(values)
        assert (info.value.row, info.value.col, info.value.dim) == (0, 1, 1)

    def test_shape_grid_mismatch_raises_at_construction(self):
        with pytest.raises(ValidationError):
            CurveSample(np.ones((2, 3)), uniform_grid(4, 0, 1))

    @pytest.mark.parametrize("kind, shape", [(CurveSample, (2, 3)), (MultiCurveSample, (2, 3, 1))])
    @pytest.mark.parametrize("points", [[0.0, 0.5, 1.0], np.linspace(0.0, 1.0, 3)],
                             ids=["list", "ndarray"])
    def test_grid_given_as_points_becomes_a_grid(self, kind, shape, points):
        sample = kind(np.ones(shape), points)
        assert isinstance(sample.grid, Grid)
        np.testing.assert_array_equal(sample.grid.points, [0.0, 0.5, 1.0])

    @pytest.mark.parametrize("kind, values, ids, error, message", [
        (CurveSample, np.ones((0, 3)), None, ValidationError, "sample needs at least one curve"),
        (MultiCurveSample, np.ones((0, 3, 2)), None, ValidationError,
         "sample needs at least one curve"),
        (CurveSample, np.ones((2, 3)), ["a"], ValidationError,
         "ids length must equal the number of curves"),
        (MultiCurveSample, np.ones((2, 3, 1)), ["a", "b", "c"], ValidationError,
         "ids length must equal the number of curves"),
        (MultiCurveSample, np.ones((2, 3, 0)), None, ValidationError,
         "dimension d must be >= 1"),
        (CurveSample, np.ones((2, 3, 2)), None, RaggedRows,
         "expected a 2-dimensional array, got shape (2, 3, 2)"),
    ], ids=["no_curves", "no_multi_curves", "short_ids", "long_ids", "d_0", "3d_curves"])
    def test_malformed_sample_rejected(self, kind, values, ids, error, message):
        with pytest.raises(error, match=f"^{re.escape(message)}$"):
            kind(values, np.linspace(0.0, 1.0, 3), ids=ids)

    @pytest.mark.parametrize("kind, shape", [(CurveSample, (2, 3)), (MultiCurveSample, (2, 3, 1))])
    def test_decreasing_points_raise_non_increasing_grid(self, kind, shape):
        with pytest.raises(NonIncreasingGrid):
            kind(np.ones(shape), np.linspace(1.0, 0.0, 3))


class TestConstructionCopies:
    def test_caller_keeps_a_writable_array(self):
        values, points = np.zeros((3, 4)), np.linspace(0.0, 1.0, 4)
        grid = Grid(points)
        sample = CurveSample(values, grid)
        multi = MultiCurveSample(values[:, :, None], grid)
        values[0, 0] = 1.0
        points[0] = -1.0
        assert sample.values[0, 0] == 0.0
        assert multi.values[0, 0, 0] == 0.0
        assert grid.points[0] == 0.0

    def test_sample_values_are_read_only(self):
        sample = make_sample(np.zeros((3, 4)))
        with pytest.raises(ValueError, match="read-only"):
            sample.values[0, 0] = 1.0


def _boxplot(seed):
    sample = simulation_model(1, n=12, p=8, outlier_rate=0.0, seed=seed).data
    return functional_boxplot(sample, modified_band_depth(sample))


@pytest.mark.parametrize("build", [
    lambda seed: Grid([0.0, 1.0, 2.0]),
    lambda seed: make_sample([[0.0, 1.0], [2.0, 3.0]]),
    lambda seed: make_multi(np.zeros((2, 3, 2))),
    lambda seed: simulation_model(1, n=12, p=8, outlier_rate=0.0, seed=seed),
    lambda seed: _boxplot(seed).depth,
    _boxplot,
    lambda seed: muod_indices(simulation_model(1, n=12, p=8, outlier_rate=0.0, seed=seed).data),
], ids=["grid", "curves", "multicurves", "simulation", "depth", "boxplot", "muod"])
def test_records_holding_arrays_compare_by_identity(build):
    first, twin = build(3), build(3)
    assert first == first and first != twin
    assert first in [twin, first] and twin not in [first]
    assert len({first, twin, first}) == 2 and first in {first}

class TestRoundTrip:
    def test_d1_bit_exact(self, np_rng):
        values = np_rng.standard_normal((6, 9))
        multi = make_multi(values[:, :, None])
        back = as_multivariate(as_univariate(multi))
        assert np.array_equal(back.values, multi.values)

    def test_univariate_to_multivariate_shape(self, np_rng):
        sample = make_sample(np_rng.standard_normal((4, 5)))
        multi = as_multivariate(sample)
        assert multi.d == 1
        assert np.array_equal(multi.values[:, :, 0], sample.values)


class TestAsUnivariate:
    def test_curve_sample_passes_through(self, np_rng):
        sample = make_sample(np_rng.standard_normal((4, 5)))
        assert sample.d == 1
        assert as_univariate(sample) is sample

    def test_d1_sample_collapses_bit_exact(self, np_rng):
        values = np_rng.standard_normal((4, 5))
        multi = MultiCurveSample(values[:, :, None], uniform_grid(5, 0.0, 1.0),
                                 ids=["a", "b", "c", "d"])
        uni = as_univariate(multi)
        assert isinstance(uni, CurveSample)
        assert np.array_equal(uni.values, values)
        assert uni.ids == multi.ids
        assert uni.grid is multi.grid

    def test_d2_sample_rejected(self, np_rng):
        with pytest.raises(ValidationError, match="d=2"):
            as_univariate(make_multi(np_rng.standard_normal((4, 5, 2))))


class TestRandomSource:
    def test_seed_determinism(self):
        a = RandomSource(42).standard_normal(5)
        b = RandomSource(42).standard_normal(5)
        np.testing.assert_array_equal(a, b)

    def test_different_seeds_differ(self):
        a = RandomSource(1).standard_normal(8)
        b = RandomSource(2).standard_normal(8)
        assert not np.array_equal(a, b)

    def test_children_are_independent_streams(self):
        root = RandomSource(7)
        c0 = root.child(0).standard_normal(6)
        c1 = root.child(1).standard_normal(6)
        assert not np.array_equal(c0, c1)
        again = RandomSource(7)
        np.testing.assert_array_equal(c0, again.child(0).standard_normal(6))

    def test_streams_are_keyed_by_their_path(self):
        root = RandomSource(5)
        streams = [root, root.child(1), root.child(3), root.child(0).child(1),
                   root.child(3).child(1), root.child(1).child(0), root.child(0).child(1).child(0)]
        draws = {stream.standard_normal(4).tobytes() for stream in streams}
        assert len(draws) == len(streams)

    @pytest.mark.parametrize("seed", [0, 5, 2**63 - 1])
    def test_root_and_first_children_keep_their_bits(self, seed):
        root = np.random.Generator(np.random.Philox(key=np.uint64(seed)))
        np.testing.assert_array_equal(RandomSource(seed).standard_normal(5),
                                      root.standard_normal(5))
        for i in (0, 1, 7):
            child = np.random.Generator(np.random.Philox(
                seed=np.random.SeedSequence(entropy=seed, spawn_key=(i,))))
            np.testing.assert_array_equal(RandomSource(seed).child(i).standard_normal(5),
                                          child.standard_normal(5))

    def test_child_does_not_advance_parent(self):
        a = RandomSource(3)
        a.child(0)
        b = RandomSource(3)
        np.testing.assert_array_equal(a.standard_normal(4), b.standard_normal(4))

    def test_algorithm_documented(self):
        assert RandomSource(0).algorithm == "philox4x64"

    @pytest.mark.parametrize("seed", [-1, 2**64])
    def test_negative_seed_rejected(self, seed):
        # Philox takes a 64-bit key: seeds run 0..2**64 - 1
        message = f"seed must be an integer in 0..2**64 - 1, got {seed}"
        with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
            RandomSource(seed)

    def test_normal_moments(self):
        draws = RandomSource(11).standard_normal(10**6)
        assert abs(draws.mean()) < 0.01
        assert 0.99 <= draws.var() <= 1.01

    def test_zero_draws(self):
        assert RandomSource(0).standard_normal(0).size == 0


@given(st.integers(min_value=0, max_value=2**63 - 1))
def test_identical_seed_identical_stream(seed):
    a = RandomSource(seed).standard_normal(3)
    b = RandomSource(seed).standard_normal(3)
    assert np.array_equal(a, b)


@given(st.lists(st.floats(-1e6, 1e6), min_size=2, max_size=6, unique=True))
def test_any_strictly_increasing_grid_accepted(points):
    pts = sorted(points)
    g = Grid(pts)
    assert g.interval_length == pts[-1] - pts[0]
