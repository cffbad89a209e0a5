"""Synthetic curve samples with planted outliers.

Nine contamination models over a common base process X(t) = 4t + e(t),
e a zero-mean Gaussian process with exponential covariance on [0, 1].
Each model returns the sample together with the indices of the rows it
contaminated, so detectors can be scored against ground truth.

Random draws follow a fixed stream discipline: child stream 0 of the seed
draws the base noise for all n rows, child 1 draws the Bernoulli row
selection, child 2 draws contamination parameters. Bulk rows are therefore
identical across models (and contamination rates) for the same seed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import BadModel, BadRate, CovarianceNotPD
from .fdcore import CurveSample, Grid, RandomSource, least_curves, uniform_grid

__all__ = [
    "GaussianProcessSpec",
    "SimulationOutput",
    "gp_sample",
    "simulation_model",
]

@dataclass(frozen=True)
class GaussianProcessSpec:
    """Gaussian process with covariance amplitude * exp(-range * |s-t|^exponent)."""

    amplitude: float = 1.0
    range_: float = 1.0
    exponent: float = 1.0


@dataclass(frozen=True, eq=False)
class SimulationOutput:
    data: CurveSample
    true_outliers: np.ndarray
    model_id: int
    params: dict


def _cholesky_factor(spec: GaussianProcessSpec, grid: Grid) -> np.ndarray:
    t = grid.points
    lags = np.abs(t[:, None] - t[None, :])
    cov = spec.amplitude * np.exp(-spec.range_ * lags ** spec.exponent)
    try:
        return np.linalg.cholesky(cov)
    except np.linalg.LinAlgError:
        pass
    jitter = 1e-10 * np.eye(t.size)
    try:
        return np.linalg.cholesky(cov + jitter)
    except np.linalg.LinAlgError:
        raise CovarianceNotPD(
            "covariance matrix not positive definite even after jitter"
        ) from None


def gp_sample(spec: GaussianProcessSpec, grid: Grid, n: int, rng: RandomSource) -> CurveSample:
    """n zero-mean Gaussian-process paths on the grid, via the lower Cholesky
    factor."""
    least_curves("gp_sample", n)
    factor = _cholesky_factor(spec, grid)
    z = rng.standard_normal((n, grid.size))
    return CurveSample(z @ factor.T, grid)


_BASE_TREND = 4.0


def _select_outliers(n: int, rate: float, deterministic: bool, rng: RandomSource) -> np.ndarray:
    if deterministic:
        k = int(np.ceil(n * rate))
        if k == 0:
            return np.array([], dtype=np.intp)
        return np.unique((np.arange(k) * n) // k).astype(np.intp)
    return np.flatnonzero(rng.uniform(size=n) < rate).astype(np.intp)


def _signs(rng: RandomSource, k: int) -> np.ndarray:
    return rng.integers(0, 2, size=k) * 2 - 1


def _linear(t: np.ndarray) -> np.ndarray:
    return _BASE_TREND * t


def _periodic(t: np.ndarray) -> np.ndarray:
    return 4.0 * np.sin(2.0 * np.pi * t)


def _window(t: np.ndarray, crng: RandomSource, count: int, length: float) -> np.ndarray:
    """One random subinterval of the given length per row, as a row mask."""
    starts = crng.uniform(0.0, 1.0 - length, size=count)
    return (t[None, :] >= starts[:, None]) & (t[None, :] <= (starts + length)[:, None])


def _wave(t: np.ndarray, cfg: dict) -> np.ndarray:
    return cfg["wave_amplitude"] * np.sin(2.0 * np.pi * cfg["wave_cycles"] * t)


def _spike(rows, grid, crng, cfg):
    signs = _signs(crng, len(rows))
    inside = _window(grid.points, crng, len(rows), cfg["interval_length"])
    return rows + cfg["shift"] * signs[:, None] * inside


def _partial_shift(rows, grid, crng, cfg):
    signs = _signs(crng, len(rows))
    onsets = crng.uniform(0.2, 0.8, size=len(rows))
    return rows + cfg["shift"] * signs[:, None] * (grid.points[None, :] >= onsets[:, None])


def _gp_spec(cfg: dict, prefix: str) -> GaussianProcessSpec:
    return GaussianProcessSpec(*(cfg[prefix + key] for key in ("amplitude", "range", "exponent")))


def _rougher(rows, grid, crng, cfg):
    rough = gp_sample(_gp_spec(cfg, "outlier_gp_"), grid, len(rows), crng).values
    return _linear(grid.points) + rough


def _phase_shift(rows, grid, crng, cfg):
    t = grid.points
    signs = _signs(crng, len(rows))
    return rows + (_periodic(t[None, :] + cfg["phase_shift"] * signs[:, None]) - _periodic(t))


def _amplitude(rows, grid, crng, cfg):
    theta = crng.uniform(cfg["amplitude_low"], cfg["amplitude_high"], size=len(rows))
    return rows + 4.0 * (theta[:, None] - 1.0) * np.sin(2.0 * np.pi * grid.points)[None, :]


def _burst(rows, grid, crng, cfg):
    inside = _window(grid.points, crng, len(rows), cfg["interval_length"])
    return rows + _wave(grid.points, cfg)[None, :] * inside


# model -> (bulk mean on the grid points, the model's own parameters and
# their defaults, contaminate(rows, grid, crng, cfg) returning the planted
# rows from the bulk rows; model 5 replaces them, the others add to them)
_MODELS = {
    1: (_linear, {"shift": 8.0},
        lambda rows, grid, crng, cfg: rows + cfg["shift"] * _signs(crng, len(rows))[:, None]),
    2: (_linear, {"shift": 8.0, "interval_length": 0.04}, _spike),
    3: (_linear, {"shift": 8.0}, _partial_shift),
    4: (_linear, {}, lambda rows, grid, crng, cfg: rows + (4.0 - 8.0 * grid.points[None, :])),
    5: (_linear, {"outlier_gp_amplitude": 8.0, "outlier_gp_range": 2.0,
                  "outlier_gp_exponent": 0.5}, _rougher),
    6: (_linear, {"wave_amplitude": 2.0, "wave_cycles": 2.0},
        lambda rows, grid, crng, cfg: rows + _wave(grid.points, cfg)),
    7: (_periodic, {"phase_shift": 0.15}, _phase_shift),
    8: (_periodic, {"amplitude_low": 1.5, "amplitude_high": 2.0}, _amplitude),
    9: (_linear, {"wave_amplitude": 2.0, "wave_cycles": 20.0, "interval_length": 0.2}, _burst),
}
MODEL_IDS = tuple(_MODELS)
_GP_DEFAULTS = {"gp_amplitude": 1.0, "gp_range": 1.0, "gp_exponent": 1.0}


def simulation_model(
    k: int,
    n: int = 100,
    p: int = 50,
    outlier_rate: float = 0.1,
    deterministic: bool = False,
    seed: int = 0,
    **overrides,
) -> SimulationOutput:
    """Sample model ``k`` (1..9) with planted outliers at ``outlier_rate``.

    Models: 1 persistent magnitude shift, 2 short magnitude spike,
    3 partial magnitude shift from a random onset, 4 reversed trend,
    5 rougher and wider noise covariance, 6 added low-frequency wave,
    7 phase-shifted periodic mean, 8 inflated periodic amplitude,
    9 high-frequency oscillation on a random subinterval.

    ``deterministic`` plants exactly ceil(n * rate) outliers at evenly
    spaced rows instead of Bernoulli selection.
    """
    if k not in MODEL_IDS:
        raise BadModel(f"model must be in 1..9, got {k}")
    if not 0.0 <= outlier_rate <= 1.0:
        raise BadRate(f"outlier rate must lie in [0, 1], got {outlier_rate}")
    least_curves("simulation_model", n)
    mean, own, contaminate = _MODELS[k]
    unknown = set(overrides) - set(own) - set(_GP_DEFAULTS)
    if unknown:
        raise BadModel(f"model {k} does not accept overrides: {sorted(unknown)}")
    cfg = {**_GP_DEFAULTS, **own, **overrides}

    grid = uniform_grid(p, 0.0, 1.0)
    root = RandomSource(seed)
    noise = gp_sample(_gp_spec(cfg, "gp_"), grid, n, root.child(0)).values
    out_rows = _select_outliers(n, outlier_rate, deterministic, root.child(1))
    values = mean(grid.points)[None, :] + noise
    if out_rows.size:
        values[out_rows] = contaminate(values[out_rows], grid, root.child(2), cfg)

    params = dict(
        cfg, model=k, n=n, p=p, outlier_rate=outlier_rate,
        deterministic=deterministic, seed=seed,
    )
    return SimulationOutput(
        data=CurveSample(values, grid),
        true_outliers=np.sort(out_rows),
        model_id=k,
        params=params,
    )
