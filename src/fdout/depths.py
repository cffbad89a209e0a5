"""Curve-ordering measures for functional boxplots and transformations.

Band depth and modified band depth follow the inclusive-envelope
convention: a curve sits inside the band of a pair whenever it lies
between the pair's pointwise min and max, boundaries included, and pairs
involving the evaluated curve count. Correctness of the fast kernels is
defined by brute-force pair enumeration (see tests), not by any closed
formula; in particular band depth counts bands whose defining curves
cross each other around the evaluated curve.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb

import numpy as np
from scipy.stats import rankdata

from .errors import InvalidTail, TooFewCurves
from .fdcore import CurveSample

__all__ = [
    "DEEPER_IS_LARGER",
    "OUTLYING_IS_LARGER",
    "DepthVector",
    "PointwiseRanks",
    "pointwise_ranks",
    "band_depth",
    "modified_band_depth",
    "extreme_rank_length",
    "directional_quantile",
    "linfinity_depth",
    "extremal_depth",
]

DEEPER_IS_LARGER = "deeper_is_larger"
OUTLYING_IS_LARGER = "outlying_is_larger"

ERLD_TYPES = ("two_sided", "one_sided_right", "one_sided_left")


@dataclass(frozen=True)
class DepthVector:
    """Per-curve scores plus the direction in which they order the sample."""

    scores: np.ndarray
    direction: str
    method: str

    def __post_init__(self):
        scores = np.asarray(self.scores, dtype=float)
        object.__setattr__(self, "scores", scores)
        if self.direction not in (DEEPER_IS_LARGER, OUTLYING_IS_LARGER):
            raise ValueError(f"unknown direction {self.direction!r}")
        if not np.all(np.isfinite(scores)):
            raise ValueError("depth scores must be finite")

    def as_deeper_is_larger(self) -> "DepthVector":
        """Return an equivalent ordering with deeper-is-larger direction."""
        if self.direction == DEEPER_IS_LARGER:
            return self
        return DepthVector(-self.scores, DEEPER_IS_LARGER, self.method)

    def __len__(self) -> int:
        return int(self.scores.size)


@dataclass(frozen=True)
class PointwiseRanks:
    """Tie-aware pointwise rank counts, the shared kernel for rank-based measures.

    ``below[i, t]`` counts curves j with Y_j(t) <= Y_i(t) and ``above[i, t]``
    counts Y_j(t) >= Y_i(t); both include the curve itself, so
    below + above = n + (number of ties at (i, t) besides self) + 1.
    """

    below: np.ndarray
    above: np.ndarray


def _require(sample: CurveSample, min_n: int, op: str) -> np.ndarray:
    if sample.n < min_n:
        raise TooFewCurves(f"{op} needs at least {min_n} curves, got {sample.n}")
    return sample.values


def pointwise_ranks(values: np.ndarray) -> PointwiseRanks:
    """Below/above counts for every curve at every grid point."""
    n = values.shape[0]
    below = rankdata(values, method="max", axis=0)
    above = n + 1 - rankdata(values, method="min", axis=0)
    return PointwiseRanks(below=below.astype(np.int64), above=above.astype(np.int64))


def band_depth(sample: CurveSample) -> DepthVector:
    """Fraction of two-curve bands that contain each curve over the whole domain.

    A pair {j, k} contains curve i exactly when no grid point has both j
    and k strictly below i, and none has both strictly above; the (n - 1)
    pairs involving i itself always contain it.
    """
    values = _require(sample, 3, "band_depth")
    n = values.shape[0]
    n_pairs = comb(n, 2)
    scores = np.empty(n)
    for i in range(n):
        strictly_below = (values < values[i]).astype(np.float64)
        strictly_above = (values > values[i]).astype(np.float64)
        # counts of grid points where both pair members are on the same strict side
        both_below = strictly_below @ strictly_below.T
        both_above = strictly_above @ strictly_above.T
        contains = (both_below == 0.0) & (both_above == 0.0)
        contains[i, :] = False
        contains[:, i] = False
        n_containing = int(np.triu(contains, k=1).sum())
        scores[i] = (n_containing + (n - 1)) / n_pairs
    return DepthVector(scores, DEEPER_IS_LARGER, "bd")


def modified_band_depth(sample: CurveSample) -> DepthVector:
    """Average fraction of the domain each curve spends inside two-curve bands."""
    values = _require(sample, 3, "modified_band_depth")
    n = values.shape[0]
    n_pairs = comb(n, 2)
    # strict below/above counts exclude ties, so containing-pair counts are
    # n_pairs minus pairs lying entirely on one strict side
    ranks = pointwise_ranks(values)
    n_below_strict, n_above_strict = n - ranks.above, n - ranks.below
    failing = _choose2(n_below_strict) + _choose2(n_above_strict)
    scores = (n_pairs - failing).mean(axis=1) / n_pairs
    return DepthVector(scores, DEEPER_IS_LARGER, "mbd")


def _choose2(counts: np.ndarray) -> np.ndarray:
    return counts * (counts - 1) / 2.0


def _lex_extremeness_scores(vectors: np.ndarray) -> np.ndarray:
    """For each row, the fraction of rows lexicographically <= it (ties share scores)."""
    n = vectors.shape[0]
    order = np.lexsort(vectors.T[::-1])
    ordered = vectors[order]
    new_group = np.ones(n, dtype=bool)
    if n > 1:
        new_group[1:] = np.any(ordered[1:] != ordered[:-1], axis=1)
    group_id = np.cumsum(new_group) - 1
    cum_counts = np.cumsum(np.bincount(group_id))
    scores = np.empty(n)
    scores[order] = cum_counts[group_id] / n
    return scores


def extreme_rank_length(sample: CurveSample, type: str = "two_sided") -> DepthVector:
    """Extreme rank length depth with one- or two-sided extremeness.

    Each curve gets a vector of pointwise extremeness ranks (small = more
    extreme), sorted ascending; curves are compared lexicographically and
    scored by the fraction of curves weakly more extreme than or tied with
    them. ``one_sided_right`` treats large values as extreme,
    ``one_sided_left`` small values, ``two_sided`` both.
    """
    values = _require(sample, 2, "extreme_rank_length")
    if type not in ERLD_TYPES:
        raise ValueError(f"type must be one of {ERLD_TYPES}, got {type!r}")
    n = values.shape[0]
    ranks = pointwise_ranks(values)
    if type == "one_sided_right":
        r = ranks.above / n
    elif type == "one_sided_left":
        r = ranks.below / n
    else:
        r = np.minimum(ranks.below, ranks.above) / n
    r = np.sort(r, axis=1)
    scores = _lex_extremeness_scores(r)
    return DepthVector(scores, DEEPER_IS_LARGER, f"erld_{type}")


def directional_quantile(sample: CurveSample, tail: float = 0.025) -> DepthVector:
    """Worst-case exceedance of a curve over the pointwise tail-quantile envelope.

    Each column's median and tail quantiles use linear interpolation
    between order statistics; denominators are floored at 1e-12 so
    tie-heavy columns cannot blow up the ratio. Larger scores mean more
    outlying.
    """
    values = _require(sample, 5, "directional_quantile")
    if not 0.0 < tail < 0.5:
        raise InvalidTail(f"tail probability must lie in (0, 0.5), got {tail}")
    med = np.quantile(values, 0.5, axis=0)
    q_hi = np.quantile(values, 1.0 - tail, axis=0)
    q_lo = np.quantile(values, tail, axis=0)
    den_up = np.maximum(q_hi - med, 1e-12)
    den_dn = np.maximum(med - q_lo, 1e-12)
    up = (values - med) / den_up
    dn = (med - values) / den_dn
    scores = np.maximum(up, dn).max(axis=1)
    return DepthVector(scores, OUTLYING_IS_LARGER, "dq")


def linfinity_depth(sample: CurveSample) -> DepthVector:
    """Depth from the mean sup-norm distance to the rest of the sample.

    L-infinity depth of curve i is 1 / (1 + mean_j sup_t |Y_i - Y_j|),
    the self term included, so scores lie in (0, 1].
    """
    values = _require(sample, 2, "linfinity_depth")
    n = values.shape[0]
    mean_dist = np.empty(n)
    for i in range(n):
        mean_dist[i] = np.abs(values - values[i]).max(axis=1).mean()
    return DepthVector(1.0 / (1.0 + mean_dist), DEEPER_IS_LARGER, "linfinity")


def extremal_depth(sample: CurveSample) -> DepthVector:
    """Depth ordering by the cumulative distribution of pointwise depths.

    Pointwise depth is 1 - |#below - #above| / n (strict counts). A curve
    is more extreme than another when, at the lowest depth level where
    their depth distributions differ, it carries more mass. Scores are the
    fraction of curves weakly more extreme or tied.
    """
    values = _require(sample, 2, "extremal_depth")
    n, p = values.shape
    ranks = pointwise_ranks(values)
    n_below_strict, n_above_strict = n - ranks.above, n - ranks.below
    pointwise = 1.0 - np.abs(n_below_strict - n_above_strict) / n
    levels = np.unique(pointwise)
    sorted_rows = np.sort(pointwise, axis=1)
    cdf = np.empty((n, levels.size))
    for i in range(n):
        cdf[i] = np.searchsorted(sorted_rows[i], levels, side="right") / p
    # heavier mass at low levels = lexicographically larger cdf = more extreme
    scores = _lex_extremeness_scores(-cdf)
    return DepthVector(scores, DEEPER_IS_LARGER, "extremal")
