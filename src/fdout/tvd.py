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

import numpy as np

from .depths import rankdata
from .errors import EmptyInput, ShapeMismatch
from .fdcore import AnySample, curve_values, float_array

__all__ = [
    "total_variation_depth",
    "modified_shape_similarity",
]


def total_variation_depth(sample: AnySample) -> np.ndarray:
    """Mean over the grid of p_hat(1 - p_hat), p_hat the fraction of curves
    at or below the evaluated curve (ties and the curve itself count)."""
    values = curve_values(sample, "total_variation_depth")
    n = values.shape[0]
    # the below count includes every j with Y_j(t) <= Y_i(t), self included
    p_hat = rankdata(values)[0] / n
    return (p_hat * (1.0 - p_hat)).mean(axis=1)


def _explained_variance(p_s, p_t, p_st):
    """a = P(R_t | R_s), b = P(R_t | not R_s) and var[E(R_t | R_s)],
    elementwise, from P(R_s), P(R_t) and P(R_s R_t); a or b is 0 on an
    empty conditioning cell."""
    a = np.where(p_s > 0.0, p_st / np.where(p_s > 0.0, p_s, 1.0), 0.0)
    b = np.where(p_s < 1.0, (p_t - p_st) / np.where(p_s < 1.0, 1.0 - p_s, 1.0), 0.0)
    return a, b, p_s * (1.0 - p_s) * (a - b) ** 2


def indicator_variance_terms(r_s: np.ndarray, r_t: np.ndarray):
    """Variance decomposition of the indicator R_t conditioned on R_s.

    Returns (total, explained, unexplained) where total = var(R_t),
    explained = var[E(R_t | R_s)], unexplained = E[var(R_t | R_s)].
    Conditional terms with empty conditioning cells are taken as zero.
    Vectors of different shapes raise ShapeMismatch, empty ones EmptyInput.
    """
    r_s, r_t = float_array(r_s), float_array(r_t)
    if r_s.shape != r_t.shape:
        raise ShapeMismatch(f"r_s of shape {r_s.shape} and r_t of shape {r_t.shape}")
    if r_s.size == 0:
        raise EmptyInput("indicator_variance_terms needs at least one indicator pair")
    p_s, p_t = r_s.mean(), r_t.mean()
    a, b, explained = _explained_variance(p_s, p_t, (r_s * r_t).mean())
    unexplained = p_s * a * (1.0 - a) + (1.0 - p_s) * b * (1.0 - b)
    return p_t * (1.0 - p_t), explained, unexplained


def modified_shape_similarity(sample: AnySample) -> np.ndarray:
    """Weighted share of pointwise indicator variance explained one step back.

    For curve i and grid points s = t_{k-1}, t = t_k the comparison levels
    are shifted so the level at t is the pointwise median m(t) and the level
    at s keeps curve i's increment: c_i = y_i(s) - y_i(t) + m(t). The share
    S = var[E(R_t | R_s)] / var(R_t) is set to 1 when var(R_t) = 0, and a
    zero conditioning cell contributes 0. Weights are the curve's absolute
    increments normalised to sum 1 (uniform for a flat curve).
    """
    values = curve_values(sample, "modified_shape_similarity")
    n, p = values.shape
    med = np.median(values, axis=0)
    similarity = np.empty((n, p - 1))
    for t in range(1, p):
        at_or_below_t = values[:, t] <= med[t]
        p_t = int(at_or_below_t.sum()) / n
        total = p_t * (1.0 - p_t)
        if total == 0.0:
            similarity[:, t - 1] = 1.0
            continue
        thresholds = values[:, t - 1] - values[:, t] + med[t]
        order = np.argsort(thresholds)  # searchsorted is fastest on increasing queries
        thresholds = thresholds[order]
        n_s = np.searchsorted(np.sort(values[:, t - 1]), thresholds, side="right")
        n_st = np.searchsorted(np.sort(values[at_or_below_t, t - 1]), thresholds, side="right")
        _a, _b, explained = _explained_variance(n_s / n, p_t, n_st / n)
        similarity[order, t - 1] = np.clip(explained / total, 0.0, 1.0)

    increments = np.abs(np.diff(values, axis=1))
    denom = increments.sum(axis=1)
    flat = denom == 0.0
    weights = np.where(
        flat[:, None],
        1.0 / (p - 1),
        increments / np.where(flat, 1.0, denom)[:, None],
    )
    return (similarity * weights).sum(axis=1)
