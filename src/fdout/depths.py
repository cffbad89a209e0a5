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

from .errors import NonFiniteResult, UnknownErldType, ValidationError
from .fdcore import AnySample, curve_values

__all__ = [
    "DEEPER_IS_LARGER",
    "OUTLYING_IS_LARGER",
    "DepthVector",
    "band_depth",
    "modified_band_depth",
    "extreme_rank_length",
    "directional_quantile",
    "linfinity_depth",
    "extremal_depth",
]

DEEPER_IS_LARGER = "deeper_is_larger"
OUTLYING_IS_LARGER = "outlying_is_larger"

# tail probability of the quantile envelope that directional_quantile measures
DQ_TAIL = 0.025

# curves i x curves j x grid points that band_depth compares at once
BD_BLOCK_ELEMENTS = 2**20


@dataclass(frozen=True, eq=False)
class DepthVector:
    """Per-curve scores plus the direction in which they order the sample."""

    scores: np.ndarray
    direction: str
    method: str

    def __post_init__(self):
        scores = np.asarray(self.scores, dtype=float)
        object.__setattr__(self, "scores", scores)
        if self.direction not in (DEEPER_IS_LARGER, OUTLYING_IS_LARGER):
            raise ValidationError(f"unknown direction {self.direction!r}")
        if not np.all(np.isfinite(scores)):
            raise NonFiniteResult(f"{self.method} depth scores are not finite")

    def as_deeper_is_larger(self) -> "DepthVector":
        """Return an equivalent ordering with deeper-is-larger direction."""
        if self.direction == DEEPER_IS_LARGER:
            return self
        return DepthVector(-self.scores, DEEPER_IS_LARGER, self.method)

    def __len__(self) -> int:
        return int(self.scores.size)


def rankdata(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Tie-aware pointwise rank counts of an ``n x p`` matrix, shared by rank measures.

    ``below[i, t]`` counts curves j with Y_j(t) <= Y_i(t) and ``above[i, t]``
    counts Y_j(t) >= Y_i(t); both include the curve itself, so
    below + above = n + (number of ties at (i, t) besides self) + 1.

    One sort per grid point. When no sorted column holds two equal
    neighbours (``0.0`` and ``-0.0`` are equal), a curve's below count is
    its sorted position + 1 and its above count n + 1 minus that. Otherwise
    a tie group spans the positions first..last, so below = last + 1 and
    above = n - first. Both paths return ``.T`` views of ``p x n`` arrays,
    column-major as SciPy's ``rankdata(axis=0)`` returns them, so reductions
    along axis 1 sum in the same order as they did on SciPy's ranks, bit for
    bit.
    """
    columns = values.T
    n = columns.shape[1]
    order = np.argsort(columns, axis=1)
    ordered = np.take_along_axis(columns, order, axis=1)
    equal_neighbours = ordered[:, 1:] == ordered[:, :-1]
    below = np.empty(order.shape, dtype=np.int64)
    if not equal_neighbours.any():
        np.put_along_axis(below, order, np.arange(1, n + 1), axis=1)
        return below.T, (n + 1 - below).T
    starts = np.ones(ordered.shape, dtype=bool)
    starts[:, 1:] = ~equal_neighbours
    ends = np.ones(ordered.shape, dtype=bool)
    ends[:, :-1] = starts[:, 1:]
    positions = np.arange(n)
    first = np.maximum.accumulate(np.where(starts, positions, 0), axis=1)
    last = np.minimum.accumulate(np.where(ends, positions, n - 1)[:, ::-1], axis=1)[:, ::-1]
    above = np.empty(order.shape, dtype=np.int64)
    np.put_along_axis(below, order, last + 1, axis=1)
    np.put_along_axis(above, order, n - first, axis=1)
    return below.T, above.T


def pointwise_ranks(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Below/above counts for every curve at every grid point."""
    return rankdata(values)


def band_depth(sample: AnySample) -> DepthVector:
    """Fraction of two-curve bands that contain each curve over the whole domain.

    A pair {j, k} contains curve i exactly when no grid point has both j
    and k strictly below i, and none has both strictly above; the (n - 1)
    pairs involving i itself always contain it. Two curves that tie i nowhere
    contain it exactly when one lies strictly above i where the other does not:
    such pairs are counted by sorting these above patterns, O(n^2 p), in blocks
    of ``BD_BLOCK_ELEMENTS`` comparisons. A curve that some other curve ties
    has all its pairs tested directly, O(n^2 p) for that curve alone.
    """
    values = curve_values(sample, "band_depth")
    n, p = values.shape
    n_words = -(-p // 64)
    # a pattern and its complement share a key: the p bits of a pattern are
    # flipped when its first one is set, and that flag is kept apart
    complement = np.packbits(np.arange(64 * n_words) < p, bitorder="little").view("<u8")
    # without two equal values at a grid point only i ties i: `below` is skipped
    ordered = np.sort(values, axis=0)
    has_ties = bool((ordered[1:] == ordered[:-1]).any())
    counts = np.full(n, n - 1, dtype=np.int64)
    rows = max(1, BD_BLOCK_ELEMENTS // (n * p))
    for start in range(0, n, rows):
        block = values[start:start + rows, None]
        b = block.shape[0]
        above = values > block
        if has_ties:
            below = values < block
            free = (above | below).all(axis=2)  # curve j ties curve i nowhere
        else:
            free = np.arange(n) != np.arange(start, start + b)[:, None]
        packed = np.packbits(above, axis=2, bitorder="little")
        keys = np.pad(packed, ((0, 0), (0, 0), (0, 8 * n_words - packed.shape[2]))).view("<u8")
        flipped = (keys[..., 0] & 1).astype(bool)
        keys ^= flipped[..., None] * complement
        order = np.lexsort(keys.transpose(2, 0, 1)[::-1], axis=-1)
        keys = np.take_along_axis(keys, order[..., None], axis=1)
        new_key = np.ones((b, n), dtype=bool)
        new_key[:, 1:] = (keys[:, 1:] != keys[:, :-1]).any(axis=2)
        starts = np.flatnonzero(new_key)
        flipped, counted = (np.take_along_axis(a, order, axis=1).ravel() for a in (flipped, free))
        ones = np.add.reduceat(flipped & counted, starts, dtype=np.int64)
        pairs = ones * (np.add.reduceat(counted, starts, dtype=np.int64) - ones)
        # a row's groups add up from its first, which starts at a multiple of n
        counts[start:start + b] += np.add.reduceat(pairs, np.flatnonzero(starts % n == 0))
        # a curve that another curve ties somewhere has all its pairs tested
        # directly (i is never free): a pair's product counts the grid points
        # where both lie on one strict side of i, 0 in any precision when the
        # pair contains i, and the symmetric matrix holds each pair twice
        for q in np.flatnonzero(np.count_nonzero(~free, axis=1) > 1):
            side = np.concatenate([below[q], above[q]], axis=1, dtype=np.float32)
            contains = side @ side.T == 0.0
            counts[start + q] = (np.count_nonzero(contains) - np.trace(contains)) // 2
    return DepthVector(counts / comb(n, 2), DEEPER_IS_LARGER, "bd")


def modified_band_depth(sample: AnySample) -> DepthVector:
    """Average fraction of the domain each curve spends inside two-curve bands."""
    values = curve_values(sample, "modified_band_depth")
    n, p = values.shape
    n_pairs = comb(n, 2)
    # strict below/above counts (lo, hi) exclude ties, so containing-pair
    # counts are n_pairs minus pairs lying entirely on one strict side
    below, above = pointwise_ranks(values)
    lo, hi = n - above, n - below
    # every term is an integer below 2**53, so the sum is exact in any order
    # and the divisions by p and n_pairs are the only roundings
    failing = (lo * (lo - 1) + hi * (hi - 1)).sum(axis=1) // 2
    scores = (n_pairs * p - failing) / p / n_pairs
    return DepthVector(scores, DEEPER_IS_LARGER, "mbd")


def _lex_extremeness_scores(vectors: np.ndarray) -> np.ndarray:
    """Sort each row ascending; score it by the fraction of sorted rows
    lexicographically <= it (ties share scores): any strictly increasing map
    of the entries gives the same scores."""
    vectors = np.sort(vectors, axis=1)
    n = vectors.shape[0]
    order = np.lexsort(vectors.T[::-1])
    ordered = vectors[order]
    new_group = np.ones(n, dtype=bool)
    new_group[1:] = np.any(ordered[1:] != ordered[:-1], axis=1)
    group_id = np.cumsum(new_group) - 1
    cum_counts = np.cumsum(np.bincount(group_id))
    scores = np.empty(n)
    scores[order] = cum_counts[group_id] / n
    return scores


# type -> pointwise extremeness counts (small = extreme) from (below, above)
_ERLD_TAILS = {
    "two_sided": np.minimum,
    "one_sided_right": lambda below, above: above,
    "one_sided_left": lambda below, above: below,
}
ERLD_TYPES = tuple(_ERLD_TAILS)


def erld_tail(type: str | None) -> str:
    """The ERLD tail that ``type`` names, ``None`` meaning ``two_sided``;
    any other value outside ``ERLD_TYPES`` raises UnknownErldType."""
    if type is None:
        return "two_sided"
    if type not in ERLD_TYPES:
        raise UnknownErldType(f"type must be one of {ERLD_TYPES}, got {type!r}")
    return type


def extreme_rank_length(sample: AnySample, type: str | None = "two_sided") -> DepthVector:
    """Extreme rank length depth with one- or two-sided extremeness.

    Each curve gets a vector of pointwise extremeness ranks (small = more
    extreme), sorted ascending; curves are compared lexicographically and
    scored by the fraction of curves weakly more extreme than or tied with
    them. ``one_sided_right`` treats large values as extreme,
    ``one_sided_left`` small values, ``two_sided`` (or ``None``) both.
    """
    values = curve_values(sample, "extreme_rank_length")
    type = erld_tail(type)
    counts = _ERLD_TAILS[type](*pointwise_ranks(values))
    return DepthVector(_lex_extremeness_scores(counts), DEEPER_IS_LARGER, f"erld_{type}")


def directional_quantile(sample: AnySample) -> DepthVector:
    """Worst-case exceedance of a curve over the pointwise tail-quantile envelope.

    The envelope is the ``DQ_TAIL`` and ``1 - DQ_TAIL`` quantile curves.
    Each column's median and tail quantiles use linear interpolation
    between order statistics. So that tie-heavy columns cannot blow up the
    ratio, a grid point's two denominators are floored at 2**-40 times the
    power of two of its envelope, max(|q_lo|, |q_hi|), or of its largest
    |value| where both quantiles are 0: multiplying the data by a power of
    two leaves the scores unchanged, and one huge curve moves no other
    point's floor. Larger scores mean more outlying. Where a quantile or a
    difference overflows, some score is not finite, and DepthVector raises
    NonFiniteResult.
    """
    values = curve_values(sample, "directional_quantile")
    with np.errstate(over="ignore", invalid="ignore"):  # NonFiniteResult just below
        q_lo, med, q_hi = np.quantile(values, [DQ_TAIL, 0.5, 1.0 - DQ_TAIL], axis=0)
        envelope = np.maximum(np.abs(q_lo), np.abs(q_hi))
        flat = envelope == 0.0
        envelope[flat] = np.abs(values[:, flat]).max(axis=0)
        # an all-zero point gets 2**-40; a subnormal floor stays at least 2**-1074
        floor = np.ldexp(1.0, np.maximum(np.frexp(envelope)[1] - 40, -1074))
        up = (values - med) / np.maximum(q_hi - med, floor)
        dn = (med - values) / np.maximum(med - q_lo, floor)
    scores = np.maximum(up, dn).max(axis=1)
    return DepthVector(scores, OUTLYING_IS_LARGER, "dq")


def linfinity_depth(sample: AnySample) -> DepthVector:
    """Depth from the mean sup-norm distance to the rest of the sample.

    L-infinity depth of curve i is 1 / (1 + mean_j sup_t |Y_i - Y_j|),
    the self term included, so scores lie in (0, 1]. Curves reaching 1 or
    more in size are measured in units of 2**e, the power of two of their
    largest |value|, as 2**-e / (2**-e + mean distance): the same bits,
    and no overflow however large the curves.
    """
    values = curve_values(sample, "linfinity_depth")
    n = values.shape[0]
    # e >= 0: smaller curves need no scaling, and 2**-e overflows for subnormal ones
    unit = 2.0 ** -max(int(np.frexp(np.abs(values).max())[1]), 0)
    # |a - b| == |b - a| bit for bit, so each pair's sup distance is computed
    # once and written to both triangles; row means sum each full row in order.
    # Scaling each row as it is differenced holds no scaled copy of the curves.
    dist = np.zeros((n, n))
    buffer = np.empty(values.shape)
    for i in range(n - 1):
        diff = np.multiply(values[i + 1:], unit, out=buffer[:n - i - 1])
        diff -= values[i] * unit
        dist[i, i + 1:] = dist[i + 1:, i] = np.abs(diff, out=diff).max(axis=1)
    return DepthVector(unit / (unit + dist.mean(axis=1)), DEEPER_IS_LARGER, "linfinity")


def extremal_depth(sample: AnySample) -> DepthVector:
    """Depth ordering by the cumulative distribution of pointwise depths.

    Pointwise depth is 1 - |#below - #above| / n (strict counts). A curve
    is more extreme than another when, at the lowest depth level where
    their depth distributions differ, it carries more mass. Scores are the
    fraction of curves weakly more extreme or tied.

    Comparing ascending pointwise-depth rows lexicographically gives this
    order: two CDFs first differ at the first position where the sorted
    rows differ, and the smaller row carries more mass there.
    """
    values = curve_values(sample, "extremal_depth")
    n = values.shape[0]
    below, above = pointwise_ranks(values)
    # n times the pointwise depth: the strict counts are n - above and n - below
    scaled = n - np.abs(below - above)
    return DepthVector(_lex_extremeness_scores(scaled), DEEPER_IS_LARGER, "extremal")
