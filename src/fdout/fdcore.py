"""Core data model for grid-sampled functional data.

A functional sample is an ``n x p`` matrix of curve values observed on a
common grid of ``p`` evaluation points, or an ``n x p x d`` array for
d-dimensional curves. All containers copy their input, are immutable after
construction and safe to share across threads; sample values are always
finite.

Randomness everywhere in the package flows through :class:`RandomSource`,
a thin wrapper over numpy's Philox counter-based bit generator (4x64)
with normal variates drawn by numpy's ziggurat algorithm. Both are fixed,
documented algorithms, so a given seed produces the same stream on every
platform. A RandomSource is single-owner: parallel work must use
:meth:`RandomSource.child` streams, never share one instance.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Optional, Sequence, Union

import numpy as np

from .errors import (
    DegenerateInterval,
    NonFiniteValue,
    NonIncreasingGrid,
    RaggedRows,
    TooFewCurves,
    ValidationError,
)

__all__ = [
    "Grid",
    "CurveSample",
    "MultiCurveSample",
    "RandomSource",
    "uniform_grid",
    "ensure_valid",
    "as_univariate",
    "as_multivariate",
]


def _conversion_error(values, exc: Exception) -> ValidationError:
    """Why ``values`` did not convert to floats: RaggedRows for ragged
    nesting, else a ValidationError naming the first entry that is not a
    number."""
    try:
        cells = np.atleast_1d(np.asarray(values, dtype=object))
    except ValueError:
        return RaggedRows(f"could not form a rectangular array: {exc}")
    for index in np.ndindex(cells.shape):
        cell = cells[index]
        if isinstance(cell, (list, tuple, np.ndarray)):
            break
        if not _is_number(cell):
            return _not_a_number(cell, index)
    return RaggedRows(f"could not form a rectangular array: {exc}")


def _is_number(cell) -> bool:
    try:
        float(cell)
    except (TypeError, ValueError):
        return False
    return True


def _not_a_number(cell, index) -> ValidationError:
    return ValidationError(f"{cell!r} at ({', '.join(map(str, index))}) is not a number")


def float_array(values, ndim=None, copy=False) -> np.ndarray:
    """``values`` as a float ndarray: the one conversion of every array that
    comes from outside. Ragged nesting, or ``ndim`` axes wanted and others
    given, raises RaggedRows, an entry that is not a number a
    ValidationError naming it, and the first NaN or infinity NonFiniteValue
    at its index. A float64 ndarray is not copied unless ``copy``."""
    try:
        arr = (np.array if copy else np.asarray)(values, dtype=float)
    except (ValueError, TypeError) as exc:
        raise _conversion_error(values, exc) from None
    if ndim is not None and arr.ndim != ndim:
        raise RaggedRows(f"expected a {ndim}-dimensional array, got shape {arr.shape}")
    if not np.isfinite(arr).all():
        # a 0-d value is reported at index (0,), as its ravelled callers see it
        bad = tuple(int(i) for i in np.argwhere(~np.isfinite(np.atleast_1d(arr)))[0])
        # None converts to NaN, but is not a number
        cell = np.atleast_1d(np.asarray(values, dtype=object))[bad]
        raise NonFiniteValue(*bad) if _is_number(cell) else _not_a_number(cell, bad)
    return arr


@dataclass(frozen=True, eq=False)
class Grid:
    """Strictly increasing evaluation points on a compact interval.

    Parameters
    ----------
    points : sequence of float
        At least two strictly increasing domain points.
    """

    points: np.ndarray

    def __init__(self, points):
        try:
            pts = float_array(points, 1, copy=True)
        except NonFiniteValue:
            raise NonIncreasingGrid("grid contains non-finite points") from None
        if pts.size < 2:
            raise NonIncreasingGrid("grid needs at least 2 points")
        if not np.all(np.diff(pts) > 0):
            raise NonIncreasingGrid("grid points must be strictly increasing")
        pts.flags.writeable = False
        object.__setattr__(self, "points", pts)

    @property
    def size(self) -> int:
        return int(self.points.size)

    @property
    def interval_length(self) -> float:
        """Length of the observation interval (last point minus first)."""
        return float(self.points[-1] - self.points[0])

    @property
    def is_uniform(self) -> bool:
        """True when all grid steps are equal to within 1e-12 relative."""
        steps = np.diff(self.points)
        return bool(np.allclose(steps, steps[0], rtol=1e-12, atol=1e-12 * self.interval_length))


def uniform_grid(p: int, a: float, b: float) -> Grid:
    """Equally spaced grid of ``p`` points from ``a`` to ``b`` inclusive."""
    if a >= b:
        raise DegenerateInterval(f"need a < b, got a={a}, b={b}")
    if p < 2:
        raise NonIncreasingGrid("grid needs at least 2 points")
    return Grid(np.linspace(a, b, p))


@dataclass(frozen=True, eq=False, init=False)
class _Sample:
    """The constructor and shape properties shared by both sample types."""

    values: np.ndarray
    grid: Grid
    ids: Optional[tuple] = None

    _ndim = 2  # axes of values: curve, grid point (and dimension for d-variate)

    def __init__(self, values, grid: Union[Grid, Sequence[float]], ids: Optional[Sequence] = None):
        vals = float_array(values, self._ndim, copy=True)
        if not isinstance(grid, Grid):
            grid = Grid(grid)
        if vals.shape[0] < 1:
            raise ValidationError("sample needs at least one curve")
        if vals.shape[1] != grid.size:
            raise ValidationError(
                f"curve length {vals.shape[1]} does not match grid size {grid.size}"
            )
        if vals.ndim == 3 and vals.shape[2] < 1:
            raise ValidationError("dimension d must be >= 1")
        if ids is not None:
            ids = tuple(str(i) for i in ids)
            if len(ids) != vals.shape[0]:
                raise ValidationError("ids length must equal the number of curves")
        vals.flags.writeable = False
        object.__setattr__(self, "values", vals)
        object.__setattr__(self, "grid", grid)
        object.__setattr__(self, "ids", ids)

    @property
    def n(self) -> int:
        return int(self.values.shape[0])

    @property
    def p(self) -> int:
        return int(self.values.shape[1])


@dataclass(frozen=True, eq=False, init=False)
class CurveSample(_Sample):
    """``n x p`` univariate functional sample on a common grid.

    Construction copies the values and checks the shape, the ids and that
    every value is finite (:class:`~fdout.errors.NonFiniteValue` otherwise).
    A grid given as points is checked as :class:`Grid` checks it.
    """

    @property
    def d(self) -> int:
        """Curve dimension, always 1."""
        return 1


@dataclass(frozen=True, eq=False, init=False)
class MultiCurveSample(_Sample):
    """``n x p x d`` multivariate functional sample on a common grid.

    Construction checks what :class:`CurveSample` checks, and d >= 1.
    """

    _ndim = 3

    @property
    def d(self) -> int:
        return int(self.values.shape[2])


AnySample = Union[CurveSample, MultiCurveSample]


def as_univariate(sample: AnySample) -> CurveSample:
    """The sample as a CurveSample: a d=1 MultiCurveSample is a univariate
    sample, collapsed bit-exactly; a d > 1 sample raises ValidationError."""
    if isinstance(sample, CurveSample):
        return sample
    if sample.d != 1:
        raise ValidationError(f"cannot collapse d={sample.d} sample to univariate")
    return CurveSample(sample.values[:, :, 0], sample.grid, ids=sample.ids)


def as_multivariate(sample: AnySample) -> MultiCurveSample:
    """The sample as a MultiCurveSample: a CurveSample becomes the d=1
    sample with the same values, bit-exactly."""
    if isinstance(sample, MultiCurveSample):
        return sample
    return MultiCurveSample(sample.values[:, :, np.newaxis], sample.grid, ids=sample.ids)


# op -> its least number of curves, or that number as a function of the dimension d
LEAST_CURVES = {
    "band_depth": 3, "modified_band_depth": 3, "extreme_rank_length": 2,
    "directional_quantile": 5, "linfinity_depth": 2, "extremal_depth": 2,
    "total_variation_depth": 2, "modified_shape_similarity": 2, "pointwise_sdo": 3,
    "muod_indices": 3, "muod_cutoff_boxplot": 5, "muod_cutoff_tangent": 10, "tvdmss": 5,
    "msplot": lambda d: 2 * (d + 1) + 3,  # the MO/VO summary's MCD needs n > 2 (d + 1) + 2
    "functional_boxplot": 1, "emit_plot": 1, "write_curves": 1,
    "gp_sample": 1, "simulation_model": 1,
}


def least_curves(op: str, n: Optional[int] = None, d: int = 1) -> int:
    """``op``'s least number of curves at dimension ``d``; TooFewCurves if ``n`` is less."""
    least = LEAST_CURVES[op]
    least = least(d) if callable(least) else least
    if n is not None and n < least:
        noun = "curve" if least == 1 else "curves"
        raise TooFewCurves(f"{op} needs at least {least} {noun}, got {n}")
    return least


def curve_values(sample: AnySample, op: str, univariate: bool = True) -> np.ndarray:
    """The sample's values as a view, the one entry check of every function that
    reads curves: ``n x p`` when ``univariate`` (a d = 1 MultiCurveSample collapses
    to that), else ``n x p x d``. Raises ValidationError naming ``op`` for d > 1
    curves where univariate ones are needed, and TooFewCurves below its least n."""
    values = sample.values
    if not univariate:
        values = values.reshape(values.shape[:2] + (-1,))
    elif values.ndim == 3:
        if values.shape[2] != 1:
            raise ValidationError(f"{op} needs univariate curves, got d={values.shape[2]}")
        values = values[:, :, 0]
    least_curves(op, values.shape[0], sample.d)
    return values


def power_of_two_scaled(values: np.ndarray, axis) -> tuple[np.ndarray, np.ndarray]:
    """``values`` divided by the power of two that brings their largest
    |value| along ``axis`` into [0.5, 1), and the exponents (kept axes of
    size one) that ``np.ldexp`` undoes it with; an all-zero slice keeps
    exponent 0. The scaling is exact, so sums and squares of the scaled
    values neither overflow nor underflow and scale back bit for bit."""
    exponents = np.frexp(np.abs(values).max(axis=axis, keepdims=True))[1]
    return np.ldexp(values, -exponents), exponents


@contextmanager
def small_ufunc_buffer():
    """numpy's ufunc buffer at 256 elements while the block runs, restored
    after it, also when it raises.

    numpy (>= 2.3) copies an operand broadcast along the rows of a 2-d
    operation (a row of directions, of medians, of Cholesky entries) into
    its ufunc buffer whenever the buffer holds more than two rows. With the
    default 8192 elements that makes such calls up to three times slower at
    200 columns and allocates 64 KiB per operand. At 256 elements, rows of
    128 columns or more run unbuffered and shorter rows are still gathered
    a few at a time. Only element-wise operations belong in the block: the
    floats of a sum could depend on the buffer size.
    """
    bufsize = np.setbufsize(256)
    try:
        yield
    finally:
        np.setbufsize(bufsize)


def ensure_valid(sample: AnySample) -> AnySample:
    """Raise NonFiniteValue at the first NaN or infinite value; else return
    the sample. Every sample passed this check when it was constructed."""
    float_array(sample.values)
    return sample


class RandomSource:
    """Seedable, platform-stable random stream.

    Bit generator: numpy Philox (counter-based, four 64-bit counters,
    64-bit output). Normal variates: numpy's ziggurat. Identical seeds
    give identical streams regardless of platform or thread count, since
    every draw is sequential on a single instance.
    """

    algorithm = "philox4x64"

    def __init__(self, seed: int):
        seed = int(seed)
        if not 0 <= seed < 2**64:
            raise ValidationError(f"seed must be an integer in 0..2**64 - 1, got {seed}")
        self.seed = seed
        self._path = ()
        self._generator = np.random.Generator(np.random.Philox(key=np.uint64(seed)))

    def standard_normal(self, shape) -> np.ndarray:
        """i.i.d. standard normal draws of the given shape (scalar allowed)."""
        return self._generator.standard_normal(shape)

    def uniform(self, low=0.0, high=1.0, size=None):
        return self._generator.uniform(low, high, size)

    def integers(self, low, high=None, size=None):
        return self._generator.integers(low, high, size)

    def child(self, index: int) -> "RandomSource":
        """Deterministic child stream for parallel or staged work.

        A stream is keyed by its path from the root: ``child(i)`` re-keys
        Philox from ``SeedSequence(entropy=seed, spawn_key=path + (i,))``,
        so streams of distinct paths differ, ``child(i).child(j)`` among
        them, and none depends on draws already made from its parent.
        """
        src = RandomSource.__new__(RandomSource)
        src.seed = self.seed
        src._path = self._path + (int(index),)
        ss = np.random.SeedSequence(entropy=self.seed, spawn_key=src._path)
        src._generator = np.random.Generator(np.random.Philox(seed=ss))
        return src
