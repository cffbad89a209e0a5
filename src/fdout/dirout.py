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
        med = np.median(proj, axis=0)
        dev = np.abs(proj - med)
        mad = MAD_CONSISTENCY * np.median(dev, axis=0)
        sdo[:, t:t + step] = _sdo_ratio(dev, mad).max(axis=2)
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
