"""Directional outlyingness of functional data.

Pointwise Stahel-Donoho outlyingness is turned into a vector field by
attaching the unit direction from the pointwise (geometric) median to each
observation, then summarised per curve into a mean-outlyingness vector MO,
a variation-of-outlyingness scalar VO, and their combination FO. Curves
that are shifted in level show up in MO, curves with a different shape in
VO.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .fdcore import (AnySample, Grid, RandomSource, as_multivariate, curve_values,
                     power_of_two_scaled, small_ufunc_buffer)
from .robust import geometric_median

__all__ = [
    "DirectionalOutlyingnessField",
    "OutlyingnessDecomposition",
    "pointwise_sdo",
    "directional_outlyingness",
    "decompose",
]

DEFAULT_DIRECTIONS = 500
# scales the raw MAD to be consistent for the standard deviation under normality
MAD_CONSISTENCY = 1.4826


@dataclass(frozen=True, eq=False)
class DirectionalOutlyingnessField:
    """Per-curve, per-grid-point outlyingness vectors O[i, t, :]."""

    values: np.ndarray
    sdo: np.ndarray
    grid: Grid


@dataclass(frozen=True, eq=False)
class OutlyingnessDecomposition:
    """MO (n x d), VO (n), FO (n) with FO = ||MO||^2 + VO."""

    mo: np.ndarray
    vo: np.ndarray
    fo: np.ndarray
    weights: np.ndarray


def _unit_directions(rng: RandomSource, d: int) -> np.ndarray:
    u = rng.standard_normal((DEFAULT_DIRECTIONS, d))
    return u / np.sqrt((u * u).sum(axis=1))[:, None]


def _kth_smallest(valley: np.ndarray, k: int) -> np.ndarray:
    """The 0-based k-th smallest entry of every row (last axis) of ``valley``.

    Each row falls and then rises, so its k + 1 smallest entries are k + 1
    consecutive ones, and the largest of those sits at an end of the run:
    the k-th smallest is the least over runs of their larger end.
    """
    n = valley.shape[-1]
    ends = np.maximum(valley[..., :n - k], valley[..., k:])
    # one reduction over the flat runs: a reduction per row is slower
    flat = np.minimum.reduceat(ends.ravel(), np.arange(0, ends.size, n - k))
    return flat.reshape(ends.shape[:-1])


def _project(block: np.ndarray, u: np.ndarray, proj: np.ndarray, term: np.ndarray) -> None:
    """proj[s, k, i] = <block[i, s], u[k]>, summed in coordinate order.

    Each product x_j u_j is formed in ``term``, which is overwritten, and
    added to ``proj``. As |u_j| <= 1 every product of a finite curve is
    finite, so the running sum may overflow to +-inf but never meets
    inf - inf: a finite curve does not project to NaN.
    """
    # one contiguous s x d x n copy, so that each product reads its
    # coordinate's curves as a contiguous row
    x = np.ascontiguousarray(block.transpose(1, 2, 0))[:, :, None, :]  # s x d x 1 x n
    u = u.T[:, :, None]  # d x k x 1
    np.multiply(x[:, 0], u[0], out=proj)
    for j in range(1, len(u)):
        np.add(proj, np.multiply(x[:, j], u[j], out=term), out=proj)


def _block_sdo(proj: np.ndarray, dev: np.ndarray) -> np.ndarray:
    """Per-row SDO of a block of projections, step x k x n, as step x n;
    overwrites both buffers.

    Each row of ``proj`` is copied to ``dev`` and sorted there in place.
    The median is read off it as ``np.median`` forms it, and along the
    sorted row |x - median| falls and then rises, so the MAD comes from
    ``_kth_smallest`` instead of a second selection: the same floats as two
    ``np.median`` calls. No projection is NaN (see ``_project``), so a NaN
    deviation comes only from a median that is NaN or +-inf, and the window
    MAD is NaN exactly where ``np.median``'s is.
    """
    n = proj.shape[-1]
    lo, hi = (n - 1) // 2, n // 2
    np.copyto(dev, proj)
    dev.sort(axis=-1)
    # a copy for odd n: dev is overwritten with the deviations next
    med = (dev[..., lo:lo + 1].copy() if lo == hi
           else (dev[..., lo:lo + 1] + dev[..., hi:hi + 1]) / 2)
    np.abs(np.subtract(dev, med, out=dev), out=dev)
    mad = _kth_smallest(dev, lo)
    if hi != lo:
        mad = (mad + _kth_smallest(dev, hi)) / 2
    mad = MAD_CONSISTENCY * mad
    np.abs(np.subtract(proj, med, out=proj), out=proj)
    # zero (or NaN) MAD: points at the median score 0, all others are
    # infinitely out
    bad = ~(mad > 0.0)
    np.divide(proj, np.where(bad, 1.0, mad)[..., None], out=proj)
    proj[bad] = np.where(proj[bad] == 0.0, 0.0, np.inf)
    return proj.max(axis=1)


def pointwise_sdo(
    sample: AnySample,
    rng: RandomSource | None = None,
) -> np.ndarray:
    """Stahel-Donoho outlyingness at every grid point, as an n x p array.

    Univariate data uses the exact form |y - median| / (1.4826 * MAD): the
    single direction +1 projects each value onto itself. Higher dimensions
    maximise that ratio over ``DEFAULT_DIRECTIONS`` random unit projections
    shared across all grid points, so results are deterministic given
    ``rng`` (no ``rng`` means ``RandomSource(0)``).

    Grid points are taken in blocks of step = max(1, p // k), k the number
    of directions. A block's projections are held as step x k x n, the
    curves on the last, contiguous axis, in a projection buffer and a sort
    buffer that are allocated once and reused for every block. A
    projection adds its coordinates' products in coordinate order, so a
    finite curve never projects to NaN (see ``_project``). Each (grid
    point, direction) row is sorted once in place and gives both the median
    and the MAD (see ``_block_sdo``); the result is that of two
    ``np.median`` calls bit for bit, NaN and infinite values included.
    """
    values = curve_values(sample, "pointwise_sdo", univariate=False)
    n, p, d = values.shape
    u = np.ones((1, 1)) if d == 1 else _unit_directions(rng or RandomSource(0), d)
    step = max(1, p // len(u))
    # proj[s, k, i] = <Y_i(t + s), u_k>; medians and MADs are per (s, k)
    proj = np.empty((step, len(u), n))
    dev = np.empty_like(proj)
    sdo = np.empty((n, p))
    # the directions, medians and MADs are broadcast along rows of curves;
    # no sum runs in the loop, so the floats do not depend on the buffer
    with small_ufunc_buffer(), np.errstate(over="ignore", invalid="ignore"):  # inf, NaN above
        for t in range(0, p, step):
            if t + step > p:  # the last block is shorter
                proj, dev = proj[:p - t], dev[:p - t]
            _project(values[:, t:t + step], u, proj, dev)
            sdo[:, t:t + step] = _block_sdo(proj, dev).T
    return sdo


def directional_outlyingness(
    sample: AnySample,
    rng: RandomSource | None = None,
) -> DirectionalOutlyingnessField:
    """Outlyingness vectors O_i(t) = SDO_i(t) * unit(Y_i(t) - Z(t)).

    Z(t) is the pointwise median (univariate) or geometric median. Curves
    sitting exactly on the center get a zero vector there. Each difference
    vector is scaled by the power of two of its largest |component| before
    its norm is taken, so the squares neither overflow nor underflow; the
    scaling is exact, so elsewhere the unit vector is the unscaled one bit
    for bit. Where the center or the differences overflow, the field is inf or NaN.
    """
    sample = as_multivariate(sample)
    values = sample.values
    sdo = pointwise_sdo(sample, rng=rng)
    if values.shape[2] == 1:
        with np.errstate(over="ignore"):  # the mean of the middle two values can be inf
            center = np.median(values, axis=0)
    else:
        center = geometric_median(values.swapaxes(0, 1))
    with np.errstate(over="ignore", invalid="ignore"):  # documented above; msplot refuses it
        diff, _exponents = power_of_two_scaled(values - center[None, :, :], axis=2)
        norms = np.sqrt((diff * diff).sum(axis=2))
        safe = np.where(norms > 0.0, norms, 1.0)
        field = np.where(
            norms[:, :, None] > 0.0,
            sdo[:, :, None] * (diff / safe[:, :, None]),
            0.0,
        )
    return DirectionalOutlyingnessField(values=field, sdo=sdo, grid=sample.grid)


def decompose(field: DirectionalOutlyingnessField) -> OutlyingnessDecomposition:
    """Split an outlyingness field into mean (MO) and variation (VO) parts.

    Grid points carry uniform weights 1/p, which sum to one and so make
    FO = ||MO||^2 + VO an exact identity; parts that overflow are inf or NaN.
    """
    o = field.values
    n, p, d = o.shape
    w = np.full(p, 1.0 / p)
    with np.errstate(over="ignore", invalid="ignore"):  # msplot names the curves
        mo = np.einsum("itd,t->id", o, w)
        resid = o - mo[:, None, :]
        vo = np.einsum("itd,t->i", resid * resid, w)
        fo = (mo * mo).sum(axis=1) + vo
    return OutlyingnessDecomposition(mo=mo, vo=vo, fo=fo, weights=w)
