"""Core data model for grid-sampled functional data.

A functional sample is an ``n x p`` matrix of curve values observed on a
common grid of ``p`` evaluation points, or an ``n x p x d`` array for
d-dimensional curves. All containers are immutable after construction and
safe to share across threads.

Randomness everywhere in the package flows through :class:`RandomSource`,
a thin wrapper over numpy's Philox counter-based bit generator (4x64)
with normal variates drawn by numpy's ziggurat algorithm. Both are fixed,
documented algorithms, so a given seed produces the same stream on every
platform. A RandomSource is single-owner: parallel work must use
:meth:`RandomSource.child` streams, never share one instance.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence, Union

import numpy as np

from .errors import (
    DegenerateInterval,
    NonFiniteValue,
    NonIncreasingGrid,
    RaggedRows,
    ValidationError,
)

__all__ = [
    "Grid",
    "CurveSample",
    "MultiCurveSample",
    "RandomSource",
    "ValidationResult",
    "uniform_grid",
    "validate_sample",
    "ensure_valid",
    "as_univariate",
]


def _as_float_matrix(values, ndim):
    """Coerce nested sequences to a float array, mapping ragged input to RaggedRows."""
    try:
        arr = np.asarray(values, dtype=float)
    except (ValueError, TypeError) as exc:
        raise RaggedRows(f"could not form a rectangular array: {exc}") from None
    if arr.ndim != ndim:
        raise RaggedRows(f"expected a {ndim}-dimensional array, got shape {arr.shape}")
    return arr


@dataclass(frozen=True)
class Grid:
    """Strictly increasing evaluation points on a compact interval.

    Parameters
    ----------
    points : sequence of float
        At least two strictly increasing domain points.
    """

    points: np.ndarray

    def __init__(self, points):
        pts = _as_float_matrix(points, 1)
        if pts.size < 2:
            raise NonIncreasingGrid("grid needs at least 2 points")
        if not np.all(np.isfinite(pts)):
            raise NonIncreasingGrid("grid contains non-finite points")
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

    def __len__(self) -> int:
        return self.size


def uniform_grid(p: int, a: float, b: float) -> Grid:
    """Equally spaced grid of ``p`` points from ``a`` to ``b`` inclusive."""
    if a >= b:
        raise DegenerateInterval(f"need a < b, got a={a}, b={b}")
    if p < 2:
        raise NonIncreasingGrid("grid needs at least 2 points")
    return Grid(np.linspace(a, b, p))


@dataclass(frozen=True)
class CurveSample:
    """``n x p`` univariate functional sample on a common grid.

    Construction checks shape consistency only; use :func:`validate_sample`
    (or :func:`ensure_valid`) for the full finite-value scan.
    """

    values: np.ndarray
    grid: Grid
    ids: Optional[tuple] = None

    def __init__(self, values, grid: Grid, ids: Optional[Sequence] = None):
        vals = _as_float_matrix(values, 2)
        if vals.shape[0] < 1:
            raise ValidationError("sample needs at least one curve")
        if vals.shape[1] != grid.size:
            raise ValidationError(
                f"curve length {vals.shape[1]} does not match grid size {grid.size}"
            )
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

    @property
    def d(self) -> int:
        """Curve dimension, always 1."""
        return 1

    def to_multivariate(self) -> "MultiCurveSample":
        """Embed as a d=1 multivariate sample (lossless)."""
        return MultiCurveSample(self.values[:, :, np.newaxis], self.grid, ids=self.ids)


@dataclass(frozen=True)
class MultiCurveSample:
    """``n x p x d`` multivariate functional sample on a common grid."""

    values: np.ndarray
    grid: Grid
    ids: Optional[tuple] = None

    def __init__(self, values, grid: Grid, ids: Optional[Sequence] = None):
        vals = _as_float_matrix(values, 3)
        if vals.shape[0] < 1:
            raise ValidationError("sample needs at least one curve")
        if vals.shape[1] != grid.size:
            raise ValidationError(
                f"curve length {vals.shape[1]} does not match grid size {grid.size}"
            )
        if vals.shape[2] < 1:
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

    @property
    def d(self) -> int:
        return int(self.values.shape[2])

    def to_univariate(self) -> CurveSample:
        """Collapse a d=1 sample to a CurveSample (lossless, bit-exact)."""
        if self.d != 1:
            raise ValidationError(f"cannot collapse d={self.d} sample to univariate")
        return CurveSample(self.values[:, :, 0], self.grid, ids=self.ids)


AnySample = Union[CurveSample, MultiCurveSample]


def as_univariate(sample: AnySample) -> CurveSample:
    """The sample as a CurveSample: a d=1 MultiCurveSample is a univariate
    sample, collapsed bit-exactly; a d > 1 sample raises ValidationError."""
    if isinstance(sample, CurveSample):
        return sample
    return sample.to_univariate()


@dataclass(frozen=True)
class ValidationResult:
    """Outcome of :func:`validate_sample`: ok flag plus first violation, if any."""

    ok: bool
    error: Optional[str] = None
    location: Optional[tuple] = None
    message: str = ""


def validate_sample(sample: AnySample) -> ValidationResult:
    """Check a sample against its invariants, reporting the first violation.

    Shape problems (ragged rows, grid mismatch) are caught at construction
    time; this function performs the full finite-value scan, which is the
    expensive part and therefore opt-in.
    """
    vals = sample.values
    bad = ~np.isfinite(vals)
    if bad.any():
        idx = np.argwhere(bad)[0]
        if vals.ndim == 2:
            loc = (int(idx[0]), int(idx[1]))
        else:
            loc = (int(idx[0]), int(idx[1]), int(idx[2]))
        return ValidationResult(
            ok=False,
            error="NonFiniteValue",
            location=loc,
            message=f"non-finite value at {loc}",
        )
    return ValidationResult(ok=True)


def ensure_valid(sample: AnySample) -> AnySample:
    """Raise the matching typed error if the sample is invalid; else return it."""
    result = validate_sample(sample)
    if not result.ok:
        loc = result.location
        raise NonFiniteValue(*loc)
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
        if seed < 0:
            raise ValidationError("seed must be a non-negative integer")
        self.seed = seed
        self._generator = np.random.Generator(np.random.Philox(key=np.uint64(seed)))

    def standard_normal(self, shape) -> np.ndarray:
        """i.i.d. standard normal draws of the given shape (scalar allowed)."""
        return self._generator.standard_normal(shape)

    def uniform(self, low=0.0, high=1.0, size=None):
        return self._generator.uniform(low, high, size)

    def integers(self, low, high=None, size=None):
        return self._generator.integers(low, high, size)

    def choice_without_replacement(self, n: int, k: int) -> np.ndarray:
        """k distinct indices from range(n), order given by the stream."""
        return self._generator.choice(n, size=k, replace=False)

    def child(self, index: int) -> "RandomSource":
        """Deterministic child stream for parallel or staged work.

        Children are derived by re-keying Philox from
        ``SeedSequence(entropy=seed, spawn_key=(index,))``, so child streams
        are independent of draws already made from the parent.
        """
        ss = np.random.SeedSequence(entropy=self.seed, spawn_key=(int(index),))
        src = RandomSource.__new__(RandomSource)
        src.seed = self.seed
        src._generator = np.random.Generator(np.random.Philox(seed=ss))
        return src
