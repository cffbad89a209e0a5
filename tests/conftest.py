import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, settings

from fdout import CurveSample, Grid, MultiCurveSample, uniform_grid

settings.register_profile(
    "suite",
    deadline=None,
    max_examples=40,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("suite")

# A failing @given test makes hypothesis's pytest plugin import its patch
# writer, whose libcst import warns a DeprecationWarning (from
# mypy_extensions). Under the suite's error filter that warning would raise
# inside pytest's report hook and end the run at the first such failure, so
# the module is imported here once, with that warning ignored for this import
# only. Without libcst the import fails and the plugin writes no patch.
with warnings.catch_warnings():
    warnings.simplefilter("ignore", DeprecationWarning)
    try:
        import hypothesis.extra._patching  # noqa: F401
    except ImportError:
        pass


def make_sample(values, a=0.0, b=1.0, grid=None, ids=None):
    values = np.asarray(values, dtype=float)
    if grid is None:
        grid = uniform_grid(values.shape[1], a, b)
    elif not isinstance(grid, Grid):
        grid = Grid(np.asarray(grid, dtype=float))
    return CurveSample(values, grid, ids=ids)


def make_multi(values, a=0.0, b=1.0, grid=None):
    values = np.asarray(values, dtype=float)
    if grid is None:
        grid = uniform_grid(values.shape[1], a, b)
    elif not isinstance(grid, Grid):
        grid = Grid(np.asarray(grid, dtype=float))
    return MultiCurveSample(values, grid)


def constant_curves(levels, p=4):
    """One flat curve per level; the workhorse hand-checkable fixture."""
    levels = np.asarray(levels, dtype=float)
    return make_sample(np.repeat(levels[:, None], p, axis=1))


@pytest.fixture
def np_rng():
    return np.random.default_rng(20260825)
