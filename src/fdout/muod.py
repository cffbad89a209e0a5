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

from .errors import AllDegenerate, TooFewCurves, TooFewPoints
from .fdcore import AnySample, as_univariate

__all__ = [
    "MuodIndices",
    "MuodOutliers",
    "muod_indices",
    "muod_cutoff_boxplot",
    "muod_cutoff_tangent",
    "muod",
]


@dataclass(frozen=True)
class MuodIndices:
    shape: np.ndarray
    magnitude: np.ndarray
    amplitude: np.ndarray


@dataclass(frozen=True)
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
    """
    values = as_univariate(sample).values
    n, p = values.shape
    if n < 3:
        raise TooFewCurves(f"muod indices need n >= 3, got {n}")
    if p < 3:
        raise TooFewPoints(f"muod indices need p >= 3, got {p}")

    grid_means = values.mean(axis=1)
    centered = values - grid_means[:, None]
    cov = centered @ centered.T / (p - 1)
    variances = np.diag(cov).copy()
    valid = variances > 0.0
    if not valid.any():
        raise AllDegenerate("every curve has zero variance over the grid")

    pair_ok = valid[:, None] & valid[None, :]
    counts = pair_ok.sum(axis=1)
    safe_var = np.where(valid, variances, 1.0)
    sd = np.sqrt(safe_var)

    rho = np.where(pair_ok, cov / (sd[:, None] * sd[None, :]), 0.0)
    beta = np.where(pair_ok, cov / safe_var[None, :], 0.0)
    alpha = np.where(pair_ok, grid_means[:, None] - beta * grid_means[None, :], 0.0)

    denom = np.where(counts > 0, counts, 1)
    mean_rho = np.where(counts > 0, rho.sum(axis=1) / denom, 0.0)
    mean_beta = np.where(counts > 0, beta.sum(axis=1) / denom, 0.0)
    mean_alpha = np.where(counts > 0, alpha.sum(axis=1) / denom, 0.0)

    return MuodIndices(
        shape=np.abs(mean_rho - 1.0),
        magnitude=np.abs(mean_alpha),
        amplitude=np.abs(mean_beta - 1.0),
    )


def muod_cutoff_boxplot(indices) -> np.ndarray:
    """Indices above Q3 + 1.5 IQR (upper side only; large = outlying)."""
    x = np.asarray(indices, dtype=float).ravel()
    if x.size < 5:
        raise TooFewCurves(f"boxplot cutoff needs n >= 5, got {x.size}")
    q1, q3 = np.percentile(x, [25.0, 75.0])
    return np.flatnonzero(x > q3 + 1.5 * (q3 - q1))


def muod_cutoff_tangent(indices) -> np.ndarray:
    """Tangent-line cutoff on the sorted index curve.

    The terminal slope is a least-squares fit over the last
    max(3, ceil(0.02 n)) sorted points; the tangent through the maximum
    meets the x axis at k*, and the cutoff is the sorted value at
    ceil(k*) clamped into range. Non-increasing tails flag nothing.
    """
    x = np.asarray(indices, dtype=float).ravel()
    n = x.size
    if n < 10:
        raise TooFewCurves(f"tangent cutoff needs n >= 10, got {n}")
    g = np.sort(x, kind="stable")
    window = max(3, int(np.ceil(0.02 * n)))
    ks = np.arange(n - window + 1, n + 1, dtype=float)
    tail = g[n - window:]
    slope = np.polyfit(ks, tail, 1)[0]
    if slope <= 0.0:
        return np.array([], dtype=np.intp)
    k_star = n - g[-1] / slope
    k_cut = min(max(int(np.ceil(k_star)), 1), n)
    cutoff = g[k_cut - 1]
    return np.flatnonzero(x > cutoff)


def muod(sample: AnySample, cut_method: str = "boxplot"):
    """Flag shape, magnitude and amplitude outliers via the chosen cutoff."""
    if cut_method not in ("boxplot", "tangent"):
        raise ValueError(f"cut_method must be 'boxplot' or 'tangent', got {cut_method!r}")
    idx = muod_indices(sample)
    cut = muod_cutoff_boxplot if cut_method == "boxplot" else muod_cutoff_tangent
    flags = MuodOutliers(
        shape=cut(idx.shape),
        magnitude=cut(idx.magnitude),
        amplitude=cut(idx.amplitude),
        cut_method=cut_method,
    )
    return flags, idx
