"""Massive unsupervised outlier detection indices and cutoffs.

Every curve is summarised by three nonnegative indices measuring how far
it sits from the rest of the sample in shape (mean correlation), amplitude
(mean regression slope) and magnitude (mean regression intercept), each
taken against all curves including itself. Large indices are outlying; a
boxplot rule or a tangent-line heuristic turns each index vector into a
flag set.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import AllDegenerate, NonFiniteIndex, TooFewPoints, UnknownCutMethod
from .fdcore import AnySample, curve_values, float_array, least_curves, power_of_two_scaled

__all__ = [
    "MuodIndices",
    "MuodOutliers",
    "muod_indices",
    "muod_cutoff_boxplot",
    "muod_cutoff_tangent",
    "muod",
]


@dataclass(frozen=True, eq=False)
class MuodIndices:
    shape: np.ndarray
    magnitude: np.ndarray
    amplitude: np.ndarray


@dataclass(frozen=True, eq=False)
class MuodOutliers:
    shape: np.ndarray
    magnitude: np.ndarray
    amplitude: np.ndarray
    cut_method: str


def muod_indices(sample: AnySample) -> MuodIndices:
    """Shape, magnitude and amplitude indices of every curve.

    With grid means x_bar and pairwise covariances C over grid points
    (p - 1 denominator): rho = C_ij/(s_i s_j), beta = C_ij/s_j^2,
    alpha = x_bar_i - beta * x_bar_j; the indices are |mean_j rho - 1|,
    |mean_j alpha| and |mean_j beta - 1|. Pairs with a zero-variance member
    are dropped from the means; a curve with no valid pairs gets means of
    zero, which marks it maximally atypical in shape and amplitude.

    The values are first scaled by the power of two that brings their
    largest magnitude into [0.5, 1), so covariances neither overflow nor
    underflow; being exact, this makes the indices exactly equivariant
    under scaling by powers of two. For curves near the largest double
    the magnitude index can still overflow, and so can every index when a
    curve's variance over the grid is too small next to the sample's
    largest value; both raise NonFiniteIndex.
    """
    values = curve_values(sample, "muod_indices")
    n, p = values.shape
    if p < 3:
        raise TooFewPoints(f"muod indices need p >= 3, got {p}")

    values, exponent = power_of_two_scaled(values, axis=None)
    grid_means = values.mean(axis=1)
    centered = values - grid_means[:, None]
    variances = np.einsum("it,it->i", centered, centered) / (p - 1)
    valid = variances > 0.0
    count = int(valid.sum())
    if count == 0:
        raise AllDegenerate("every curve has zero variance over the grid")

    safe_var = np.where(valid, variances, 1.0)
    with np.errstate(over="ignore"):  # reported just below, before any product
        inv_var = np.where(valid, 1.0 / safe_var, 0.0)
    tiny = np.flatnonzero(np.isinf(inv_var))
    if tiny.size:
        raise NonFiniteIndex(f"the indices overflow for curves {tiny.tolist()} (0-based): their "
                             "variance over the grid is too small next to the sample's largest value")
    sd = np.sqrt(safe_var)
    # sums over j of C_ij w_j as centered @ (centered.T @ w), with no n x n C; a
    # zero-variance curve j gets weight 0, which drops it from every sum. Plain
    # einsum runs numpy's own loops, whose bits do not depend on the BLAS threads
    weights = np.stack([np.where(valid, 1.0 / sd, 0.0), inv_var, grid_means * inv_var])
    sums = np.einsum("it,kt->ki", centered, np.einsum("kj,jt->kt", weights, centered)) / (p - 1)
    mean_rho, mean_beta, mean_alpha = np.where(
        valid, [sums[0] / (sd * count), sums[1] / count, grid_means - sums[2] / count], 0.0)

    with np.errstate(over="ignore"):  # reported just below
        magnitude = np.ldexp(np.abs(mean_alpha), exponent[0])
    if np.any(np.isinf(magnitude)):
        raise NonFiniteIndex(f"the magnitude index overflows for {np.isinf(magnitude).sum()} "
                             "curve(s): their mean intercept exceeds the largest double")
    return MuodIndices(
        shape=np.abs(mean_rho - 1.0),
        magnitude=magnitude,
        amplitude=np.abs(mean_beta - 1.0),
    )


# an index exceeds a cutoff only by more than this many times its scale, so
# indices that differ only by the rounding of their sums are ties
TIE_TOLERANCE = 8 * np.finfo(float).eps


def _beyond(x: np.ndarray, cutoff: float, scale: float | None) -> np.ndarray:
    scale = np.abs(x).max() if scale is None else scale
    return np.flatnonzero(x > cutoff + TIE_TOLERANCE * scale)


def muod_cutoff_boxplot(indices, scale: float | None = None) -> np.ndarray:
    """Indices above Q3 + 1.5 IQR (upper side only; large = outlying) by more
    than TIE_TOLERANCE * ``scale``, the size of the values the indices come
    from (default: the largest index); closer ones are ties with the fence."""
    x = float_array(indices).ravel()
    least_curves("muod_cutoff_boxplot", x.size)
    scaled, exponent = power_of_two_scaled(x, axis=None)  # exact quartiles and fence
    q1, q3 = np.percentile(scaled, [25.0, 75.0])
    with np.errstate(over="ignore"):  # a fence past the largest double flags nothing
        fence = np.ldexp(q3 + 1.5 * (q3 - q1), exponent[0])
    return _beyond(x, fence, scale)


def muod_cutoff_tangent(indices, scale: float | None = None) -> np.ndarray:
    """Tangent-line cutoff on the sorted index curve.

    The terminal slope is a least-squares fit over the last
    max(3, ceil(0.02 n)) sorted points; the tangent through the maximum
    meets the x axis at k*, and the cutoff is the sorted value at
    ceil(k*) clamped into range. The slope and k* are taken in units of the
    power of two of the largest |index|, so the fit of a tail near the
    largest double does not overflow. Non-increasing tails flag nothing,
    and ties with the cutoff are treated as in ``muod_cutoff_boxplot``.
    """
    x = float_array(indices).ravel()
    n = x.size
    least_curves("muod_cutoff_tangent", n)
    g = np.sort(x, kind="stable")
    scaled, _exponent = power_of_two_scaled(g, axis=None)  # the same k* at any scale
    window = max(3, int(np.ceil(0.02 * n)))
    ks = np.arange(n - window + 1, n + 1, dtype=float)
    slope = np.polyfit(ks, scaled[n - window:], 1)[0]
    if slope <= 0.0:
        return np.array([], dtype=np.intp)
    k_star = n - scaled[-1] / slope
    k_cut = min(max(int(np.ceil(k_star)), 1), n)
    return _beyond(x, g[k_cut - 1], scale)


# cut_method -> (op name, cutoff); the lambdas look the cutoffs up when
# called, so a wrapper installed on the module attribute sees every call
_CUTOFFS = {
    "boxplot": ("muod_cutoff_boxplot", lambda x, scale: muod_cutoff_boxplot(x, scale)),
    "tangent": ("muod_cutoff_tangent", lambda x, scale: muod_cutoff_tangent(x, scale)),
}
MUOD_CUTS = tuple(_CUTOFFS)


def muod(sample: AnySample, cut_method: str = "boxplot"):
    """Flag shape, magnitude and amplitude outliers via the chosen cutoff."""
    if cut_method not in MUOD_CUTS:
        raise UnknownCutMethod(f"cut_method must be one of {MUOD_CUTS}, got {cut_method!r}")
    op, cut = _CUTOFFS[cut_method]
    least_curves(op, sample.n)
    idx = muod_indices(sample)
    # each index is rounded to a few eps of what it is computed from: shape
    # and amplitude are distances from 1, magnitude is in the curves' units
    flags = MuodOutliers(
        shape=cut(idx.shape, 1.0 + idx.shape.max()),
        magnitude=cut(idx.magnitude, np.abs(sample.values).max()),
        amplitude=cut(idx.amplitude, 1.0 + idx.amplitude.max()),
        cut_method=cut_method,
    )
    return flags, idx
