"""Total variation depth and the modified shape similarity index.

Both statistics are built from the below-curve indicator process
R_y(t) = 1{Y(t) <= y(t)}. Total variation depth integrates the pointwise
variance of that process; the shape similarity index measures how much of
that variance at a point is explained by the indicator one grid step
earlier, after shifting the comparison levels to the pointwise median.
Low similarity means the curve's increments are atypical, i.e. a shape
outlier.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.stats import rankdata

from .errors import TooFewCurves, TooFewPoints
from .fdcore import CurveSample

__all__ = [
    "TvdResult",
    "total_variation_depth",
    "modified_shape_similarity",
    "compute_tvd_mss",
    "indicator_variance_terms",
]


@dataclass(frozen=True)
class TvdResult:
    """Per-curve total variation depth (in [0, 0.25]) and shape similarity."""

    tvd: np.ndarray
    mss: np.ndarray


def total_variation_depth(sample: CurveSample) -> np.ndarray:
    """Mean over the grid of p_hat(1 - p_hat), p_hat the fraction of curves
    at or below the evaluated curve (ties and the curve itself count)."""
    values = sample.values
    n = values.shape[0]
    if n < 2:
        raise TooFewCurves(f"total variation depth needs n >= 2, got {n}")
    # rank with 'max' counts every j with Y_j(t) <= Y_i(t), self included
    p_hat = rankdata(values, method="max", axis=0) / n
    return (p_hat * (1.0 - p_hat)).mean(axis=1)


def indicator_variance_terms(r_s: np.ndarray, r_t: np.ndarray):
    """Variance decomposition of the indicator R_t conditioned on R_s.

    Returns (total, explained, unexplained) where total = var(R_t),
    explained = var[E(R_t | R_s)], unexplained = E[var(R_t | R_s)].
    Conditional terms with empty conditioning cells are taken as zero.
    """
    r_s = np.asarray(r_s, dtype=float)
    r_t = np.asarray(r_t, dtype=float)
    p_s = r_s.mean()
    p_t = r_t.mean()
    p_st = (r_s * r_t).mean()
    a = p_st / p_s if p_s > 0.0 else 0.0
    b = (p_t - p_st) / (1.0 - p_s) if p_s < 1.0 else 0.0
    total = p_t * (1.0 - p_t)
    explained = p_s * (1.0 - p_s) * (a - b) ** 2
    unexplained = p_s * a * (1.0 - a) + (1.0 - p_s) * b * (1.0 - b)
    return total, explained, unexplained


def modified_shape_similarity(sample: CurveSample) -> np.ndarray:
    """Weighted share of pointwise indicator variance explained one step back.

    For curve i and grid points s = t_{k-1}, t = t_k the comparison levels
    are shifted so the level at t is the pointwise median m(t) and the level
    at s keeps curve i's increment: c_i = y_i(s) - y_i(t) + m(t). The share
    S = var[E(R_t | R_s)] / var(R_t) is set to 1 when var(R_t) = 0, and a
    zero conditioning cell contributes 0. Weights are the curve's absolute
    increments normalised to sum 1 (uniform for a flat curve).
    """
    values = sample.values
    n, p = values.shape
    if n < 2:
        raise TooFewCurves(f"shape similarity needs n >= 2, got {n}")
    if p < 2:
        raise TooFewPoints(f"shape similarity needs p >= 2, got {p}")

    med = np.median(values, axis=0)
    similarity = np.empty((n, p - 1))
    for t in range(1, p):
        at_or_below_t = values[:, t] <= med[t]
        n_t = int(at_or_below_t.sum())
        p_t = n_t / n
        total = p_t * (1.0 - p_t)
        if total == 0.0:
            similarity[:, t - 1] = 1.0
            continue
        thresholds = values[:, t - 1] - values[:, t] + med[t]
        sorted_s = np.sort(values[:, t - 1])
        sorted_s_joint = np.sort(values[at_or_below_t, t - 1])
        n_s = np.searchsorted(sorted_s, thresholds, side="right")
        n_st = np.searchsorted(sorted_s_joint, thresholds, side="right")
        p_s = n_s / n
        p_st = n_st / n
        a = np.where(n_s > 0, p_st / np.where(n_s > 0, p_s, 1.0), 0.0)
        b = np.where(
            n_s < n, (p_t - p_st) / np.where(n_s < n, 1.0 - p_s, 1.0), 0.0
        )
        explained = p_s * (1.0 - p_s) * (a - b) ** 2
        similarity[:, t - 1] = np.clip(explained / total, 0.0, 1.0)

    increments = np.abs(np.diff(values, axis=1))
    denom = increments.sum(axis=1)
    flat = denom == 0.0
    weights = np.where(
        flat[:, None],
        1.0 / (p - 1),
        increments / np.where(flat, 1.0, denom)[:, None],
    )
    return (similarity * weights).sum(axis=1)


def compute_tvd_mss(sample: CurveSample) -> TvdResult:
    """Both statistics for one sample, computed by two separate passes."""
    return TvdResult(
        tvd=total_variation_depth(sample),
        mss=modified_shape_similarity(sample),
    )
