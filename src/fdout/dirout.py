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

from .errors import TooFewCurves
from .fdcore import AnySample, Grid, RandomSource, as_multivariate
from .robust import MAD_CONSISTENCY, geometric_median

__all__ = [
    "DirectionalOutlyingnessField",
    "OutlyingnessDecomposition",
    "pointwise_sdo",
    "directional_outlyingness",
    "decompose",
]

DEFAULT_DIRECTIONS = 500


@dataclass(frozen=True)
class DirectionalOutlyingnessField:
    """Per-curve, per-grid-point outlyingness vectors O[i, t, :]."""

    values: np.ndarray
    sdo: np.ndarray
    grid: Grid


@dataclass(frozen=True)
class OutlyingnessDecomposition:
    """MO (n x d), VO (n), FO (n) with FO = ||MO||^2 + VO."""

    mo: np.ndarray
    vo: np.ndarray
    fo: np.ndarray
    weights: np.ndarray


def _sdo_ratio(dev: np.ndarray, mad: np.ndarray) -> np.ndarray:
    # zero MAD: points at the median score 0, everything else is infinitely out
    safe = np.where(mad > 0.0, mad, 1.0)
    return np.where(mad > 0.0, dev / safe, np.where(dev == 0.0, 0.0, np.inf))


def _unit_directions(rng: RandomSource, d: int) -> np.ndarray:
    u = rng.standard_normal((DEFAULT_DIRECTIONS, d))
    norms = np.sqrt((u * u).sum(axis=1))
    while np.any(norms == 0.0):
        bad = norms == 0.0
        u[bad] = rng.standard_normal((int(bad.sum()), d))
        norms = np.sqrt((u * u).sum(axis=1))
    return u / norms[:, None]


def _kth_smallest(valley: np.ndarray, k: int) -> np.ndarray:
    """The 0-based k-th smallest entry of every column of ``valley``.

    Each column falls and then rises along axis 0, so its k + 1 smallest
    entries are k + 1 consecutive rows, and the largest of those sits at an
    end of the run: the k-th smallest is the least over runs of their
    larger end.
    """
    n = valley.shape[0]
    return np.maximum(valley[:n - k], valley[k:]).min(axis=0)


def _block_sdo(proj: np.ndarray) -> np.ndarray:
    """Per-column SDO of a block of projections, n x step x k; overwrites
    ``proj``.

    Each column is sorted once. The median is read off it as ``np.median``
    forms it, and along the sorted column |x - median| falls and then
    rises, so the MAD comes from ``_kth_smallest`` instead of a second
    selection: the same floats as two ``np.median`` calls. Finite curves
    never project to NaN (|u_k| <= 1, and a sum that reaches +-inf stays
    there), so a NaN deviation comes only from a median that is NaN or
    +-inf; the window MAD is then NaN exactly where ``np.median``'s is.
    """
    n = proj.shape[0]
    lo, hi = (n - 1) // 2, n // 2
    dev_sorted = np.sort(proj, axis=0)
    # a copy for odd n: dev_sorted is overwritten with the deviations next
    med = dev_sorted[lo].copy() if lo == hi else (dev_sorted[lo] + dev_sorted[hi]) / 2
    np.abs(np.subtract(dev_sorted, med, out=dev_sorted), out=dev_sorted)
    mad = _kth_smallest(dev_sorted, lo)
    if hi != lo:
        mad = (mad + _kth_smallest(dev_sorted, hi)) / 2
    mad = MAD_CONSISTENCY * mad
    del dev_sorted
    dev = np.abs(np.subtract(proj, med, out=proj), out=proj)
    if np.all(mad > 0.0):
        # _sdo_ratio divides by mad itself when every MAD is positive
        return np.divide(dev, mad, out=dev).max(axis=2)
    return _sdo_ratio(dev, mad).max(axis=2)


def pointwise_sdo(
    sample: AnySample,
    rng: RandomSource | None = None,
) -> np.ndarray:
    """Stahel-Donoho outlyingness at every grid point, as an n x p array.

    Univariate data uses the exact form |y - median| / (1.4826 * MAD): the
    single direction +1 projects each value onto itself. Higher dimensions
    maximise that ratio over ``DEFAULT_DIRECTIONS`` random unit projections
    shared across all grid points, so results are deterministic given
    ``rng`` (no ``rng`` means ``RandomSource(0)``). Grid points are taken
    in blocks whose projections hold at most about n * max(p, 500) values.

    Each (grid point, direction) column of projections is sorted once and
    gives both the median and the MAD (see ``_block_sdo``); the result is
    that of two ``np.median`` calls bit for bit, NaN and infinite values
    included.
    """
    values = as_multivariate(sample).values
    n, p, d = values.shape
    if n < 3:
        raise TooFewCurves(f"pointwise outlyingness needs at least 3 curves, got {n}")
    u = np.ones((1, 1)) if d == 1 else _unit_directions(rng or RandomSource(0), d)
    step = max(1, p // len(u))
    sdo = np.empty((n, p))
    for t in range(0, p, step):
        # proj[i, t, k] = <Y_i(t), u_k>; medians and MADs are per (t, k)
        proj = np.einsum("itd,kd->itk", values[:, t:t + step], u)
        sdo[:, t:t + step] = _block_sdo(proj)
    return sdo


def _pointwise_center(values: np.ndarray) -> np.ndarray:
    n, p, d = values.shape
    if d == 1:
        return np.median(values, axis=0)
    return np.stack([geometric_median(values[:, t, :]) for t in range(p)])


def directional_outlyingness(
    sample: AnySample,
    rng: RandomSource | None = None,
) -> DirectionalOutlyingnessField:
    """Outlyingness vectors O_i(t) = SDO_i(t) * unit(Y_i(t) - Z(t)).

    Z(t) is the pointwise median (univariate) or geometric median. Curves
    sitting exactly on the center get a zero vector there.
    """
    sample = as_multivariate(sample)
    values = sample.values
    sdo = pointwise_sdo(sample, rng=rng)
    center = _pointwise_center(values)
    diff = values - center[None, :, :]
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
    FO = ||MO||^2 + VO an exact identity.
    """
    o = field.values
    n, p, d = o.shape
    w = np.full(p, 1.0 / p)
    mo = np.einsum("itd,t->id", o, w)
    resid = o - mo[:, None, :]
    vo = np.einsum("itd,t->i", resid * resid, w)
    fo = (mo * mo).sum(axis=1) + vo
    return OutlyingnessDecomposition(mo=mo, vo=vo, fo=fo, weights=w)
