"""Scalar and multivariate robust statistics.

The MCD estimator here is the raw (unreweighted) FastMCD of Rousseeuw and
Van Driessen: random elemental starts, two concentration steps each, full
refinement of the best candidates. The returned covariance carries the
chi-square consistency factor, and the matching outlier threshold comes
from the Hardin-Rocke F approximation for raw MCD distances.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy

from .errors import (
    BadCoverage,
    EmptyInput,
    InvalidLevel,
    NonConvergence,
    SingularCovariance,
    SingularSubsets,
    TooFewPoints,
)
from .fdcore import RandomSource

__all__ = [
    "RobustLocationScale",
    "McdFit",
    "FCutoff",
    "MAD_CONSISTENCY",
    "median_mad",
    "geometric_median",
    "fast_mcd",
    "robust_distances",
    "hardin_rocke_cutoff",
]

# scales the raw MAD to be consistent for the standard deviation under normality
MAD_CONSISTENCY = 1.4826

# FastMCD search budget: random elemental starts, C-steps on each start, the
# number of best starts refined, and the cap on C-steps per refinement
N_TRIALS = 500
N_INITIAL_CSTEPS = 2
N_BEST = 10
MAX_REFINE_CSTEPS = 30
# trials whose initial phase runs as one stack: a block holds a few
# TRIAL_BLOCK x m x d arrays, about 1 MB of temporaries at m = 300, d = 4
TRIAL_BLOCK = 50

# Weiszfeld stop test: a step no longer than GM_TOL times max(1, |y|), at
# most GM_MAX_ITER steps before NonConvergence
GM_TOL = 1e-10
GM_MAX_ITER = 1000


@dataclass(frozen=True)
class RobustLocationScale:
    median: float
    mad: float


@dataclass(frozen=True)
class McdFit:
    """Raw MCD location and consistency-corrected scatter with the defining h-subset."""

    center: np.ndarray
    covariance: np.ndarray
    subset_indices: np.ndarray
    coverage_fraction: float


@dataclass(frozen=True)
class FCutoff:
    """F-approximation threshold for squared robust distances."""

    level: float
    dof1: float
    dof2: float
    scale: float
    threshold: float


def median_mad(xs) -> RobustLocationScale:
    """Median and consistency-scaled median absolute deviation."""
    xs = np.asarray(xs, dtype=float).ravel()
    if xs.size == 0:
        raise EmptyInput("median_mad needs at least one value")
    med = float(np.median(xs))
    mad = MAD_CONSISTENCY * float(np.median(np.abs(xs - med)))
    return RobustLocationScale(median=med, mad=mad)


def geometric_median(points) -> np.ndarray:
    """Point minimising the sum of Euclidean distances to the rows of ``points``.

    Weiszfeld iteration with the Vardi-Zhang correction for iterates that
    coincide with data points, started from the coordinatewise mean.
    """
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2:
        raise TooFewPoints("points must be an m x d matrix")
    m = pts.shape[0]
    if m == 0:
        raise EmptyInput("geometric_median needs at least one point")
    if m == 1:
        return pts[0].copy()
    y = pts.mean(axis=0)
    scale = np.abs(pts).max() or 1.0
    eps = 1e-14 * scale

    def vertex_is_optimal(k: int) -> bool:
        # Data point k minimises the distance sum iff the unit vectors
        # towards the other points sum to a norm no larger than the
        # multiplicity of that point.  This is exact, unlike the iterate.
        d_k = pts - pts[k]
        dist_k = np.sqrt((d_k * d_k).sum(axis=1))
        off = dist_k > eps
        multiplicity = m - int(off.sum())
        r_k = (d_k[off] / dist_k[off, None]).sum(axis=0)
        return float(np.sqrt((r_k * r_k).sum())) <= multiplicity * (1.0 + 1e-12)

    rejected = np.zeros(m, dtype=bool)
    for _ in range(GM_MAX_ITER):
        diff = pts - y
        dist = np.sqrt((diff * diff).sum(axis=1))
        nearest = int(dist.argmin())
        if not rejected[nearest]:
            # Fixed-point steps slow to a crawl when the optimum sits on a
            # data point, so test the nearest vertex directly; a failed test
            # depends only on the data and is never repeated.
            if vertex_is_optimal(nearest):
                return pts[nearest].copy()
            rejected[nearest] = True
        active = dist > eps
        n_coincident = int(m - active.sum())
        if not active.any():
            return y
        w = 1.0 / dist[active]
        t = (pts[active] * w[:, None]).sum(axis=0) / w.sum()
        if n_coincident == 0:
            y_new = t
            # When the optimum lies close to (but not on) a data point the
            # fixed-point rate degenerates, so try a Newton step on the
            # smooth objective and keep it only if it does better.
            grad = (diff[active] * w[:, None]).sum(axis=0)
            d = pts.shape[1]
            hess = (w.sum()) * np.eye(d) - np.einsum(
                "i,ij,ik->jk", w**3, diff[active], diff[active]
            )
            try:
                y_newton = y + np.linalg.solve(hess, grad)
            except np.linalg.LinAlgError:
                y_newton = None
            if y_newton is not None and np.isfinite(y_newton).all():
                obj_w = np.sqrt(((pts - t) ** 2).sum(axis=1)).sum()
                obj_n = np.sqrt(((pts - y_newton) ** 2).sum(axis=1)).sum()
                if obj_n < obj_w:
                    y_new = y_newton
        else:
            r_vec = (diff[active] * w[:, None]).sum(axis=0)
            r = np.sqrt((r_vec * r_vec).sum())
            if r <= eps:
                return y
            gamma = min(1.0, n_coincident / r)
            y_new = (1.0 - gamma) * t + gamma * y
        step = np.sqrt(((y_new - y) ** 2).sum())
        y = y_new
        if step <= GM_TOL * max(1.0, np.sqrt((y * y).sum())):
            return y
    raise NonConvergence(f"geometric median did not converge in {GM_MAX_ITER} iterations")


def _chi2_ppf(alpha: float, d: int) -> float:
    """Chi-square quantile by the formula of SciPy's ``chi2.ppf``, whose
    results it matches bit for bit (``scipy.special.chdtri`` does not)."""
    return 2.0 * scipy.special.gammaincinv(d / 2.0, alpha)


def _chi2_consistency(alpha: float, d: int) -> float:
    """Factor making the h-subset covariance consistent under normality."""
    if alpha >= 1.0 - 1e-12:
        return 1.0
    return alpha / scipy.special.chdtr(d + 2, _chi2_ppf(alpha, d))


def _subset_cov(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Mean and covariance of the rows of x, or of each matrix of a stack."""
    center = x.mean(axis=-2)
    diff = x - center[..., None, :]
    cov = np.swapaxes(diff, -1, -2) @ diff / (x.shape[-2] - 1)
    return center, cov


def _mahalanobis_sq(x: np.ndarray, center: np.ndarray, cov: np.ndarray):
    """Squared Mahalanobis distances of the rows of x from each (center, cov)
    of a stack, with the mask of the PD covariances; the other rows are
    garbage. Stacked numpy linalg runs LAPACK matrix by matrix, so each row
    is bit for bit what one matrix alone gives."""
    ok = np.ones(len(cov), dtype=bool)
    try:
        lower = np.linalg.cholesky(cov)
    except np.linalg.LinAlgError:
        # some matrix is not PD: factor one by one, identity for the failures
        lower = np.empty_like(cov)
        for i, single in enumerate(cov):
            try:
                lower[i] = np.linalg.cholesky(single)
            except np.linalg.LinAlgError:
                lower[i], ok[i] = np.eye(len(single)), False
    solved = np.linalg.solve(lower, np.swapaxes(x - center[:, None, :], -1, -2))
    return np.einsum("kji,kji->ki", solved, solved), ok


def _c_steps(x: np.ndarray, center: np.ndarray, cov: np.ndarray, h: int):
    """One C-step from each (center, cov) of a stack: the h points nearest in
    Mahalanobis distance, as mean, covariance, log-determinant and sorted
    indices, with a mask of the steps whose covariances in and out are PD."""
    dist, ok = _mahalanobis_sq(x, center, cov)
    support = np.sort(np.argsort(dist, axis=1, kind="stable")[:, :h], axis=1)
    center, cov = _subset_cov(x[support])
    sign, logdet = np.linalg.slogdet(cov)
    ok &= (sign > 0) & np.isfinite(logdet)
    return center, cov, logdet, support, ok


def _initial_candidates(x: np.ndarray, h: int, perms: np.ndarray):
    """Stacked center, cov, logdet and support of a block of trials, one per
    row of ``perms``, in order: the first d+1 permuted points, grown until
    nonsingular, then N_INITIAL_CSTEPS C-steps. Trials that stay singular or
    meet a non-PD covariance are dropped."""
    k, m = perms.shape
    d = x.shape[1]
    center, cov = np.empty((k, d)), np.empty((k, d, d))
    started = np.zeros(k, dtype=bool)
    for size in range(d + 1, m + 1):
        pending = np.flatnonzero(~started)
        c, s = _subset_cov(x[perms[pending, :size]])
        sign, logdet = np.linalg.slogdet(s)
        good = (sign > 0) & np.isfinite(logdet)
        center[pending[good]], cov[pending[good]] = c[good], s[good]
        started[pending[good]] = True
        if started.all():
            break
    center, cov = center[started], cov[started]
    for _ in range(N_INITIAL_CSTEPS):
        center, cov, logdet, support, ok = _c_steps(x, center, cov, h)
        center, cov, logdet, support = center[ok], cov[ok], logdet[ok], support[ok]
    return center, cov, logdet, support


def _mcd_exact_1d(x: np.ndarray, h: int) -> tuple[float, float, np.ndarray]:
    """Exact univariate MCD: the minimum-variance window of h sorted values."""
    order = np.argsort(x[:, 0], kind="stable")
    xs = x[order, 0]
    csum = np.concatenate(([0.0], np.cumsum(xs)))
    csum2 = np.concatenate(([0.0], np.cumsum(xs * xs)))
    m = xs.size
    starts = np.arange(m - h + 1)
    sums = csum[starts + h] - csum[starts]
    sums2 = csum2[starts + h] - csum2[starts]
    variances = (sums2 - sums * sums / h) / (h - 1)
    best = int(np.argmin(variances))
    subset = np.sort(order[best:best + h])
    return float(sums[best] / h), float(max(variances[best], 0.0)), subset


def fast_mcd(
    points,
    coverage: float | None = None,
    rng: RandomSource | None = None,
) -> McdFit:
    """Raw minimum covariance determinant fit of an ``m x d`` point cloud.

    ``coverage`` is the fraction h/m of points defining the fit; default is
    the maximum-breakdown choice floor((m + d + 1)/2) / m. Deterministic
    for a given ``rng`` seed; no ``rng`` means ``RandomSource(0)``.
    """
    x = np.asarray(points, dtype=float)
    if x.ndim == 1:
        x = x[:, None]
    m, d = x.shape
    if m <= 2 * d:
        raise TooFewPoints(f"need more than 2d = {2 * d} points, got {m}")
    h_min = (m + d + 1) // 2
    if coverage is None:
        h = h_min
    else:
        if not 0.5 <= coverage <= 1.0:
            raise BadCoverage(f"coverage must lie in [0.5, 1], got {coverage}")
        h = min(max(int(np.floor(coverage * m)), h_min), m)
    alpha = h / m
    factor = _chi2_consistency(alpha, d)

    if h == m:
        center, cov = _subset_cov(x)
        sign, _ = np.linalg.slogdet(cov)
        if sign <= 0:
            raise SingularSubsets("full-sample covariance is singular")
        return McdFit(center, cov * factor, np.arange(m), 1.0)

    if d == 1:
        center, var, subset = _mcd_exact_1d(x, h)
        if var <= 0.0:
            raise SingularSubsets("more than h identical values in 1-d data")
        return McdFit(np.array([center]), np.array([[var * factor]]), subset, alpha)

    if rng is None:
        rng = RandomSource(0)

    # the trials draw their permutations in order, as one loop would, and
    # run side by side a block at a time
    blocks = []
    for start in range(0, N_TRIALS, TRIAL_BLOCK):
        perms = [rng.choice_without_replacement(m, m)
                 for _ in range(min(TRIAL_BLOCK, N_TRIALS - start))]
        blocks.append(_initial_candidates(x, h, np.array(perms)))
    centers, covs, logdets, supports = (np.concatenate(part) for part in zip(*blocks))
    if not logdets.size:
        raise SingularSubsets("all candidate subsets produced singular covariances")

    # refine the best candidates side by side; a candidate stops when its
    # step is not PD (keeping its state), its support is unchanged, or its
    # log-determinant no longer falls
    keep = np.argsort(logdets, kind="stable")[:N_BEST]
    centers, covs, logdets, supports = centers[keep], covs[keep], logdets[keep], supports[keep]
    active = np.arange(keep.size)
    for _ in range(MAX_REFINE_CSTEPS):
        if not active.size:
            break
        center, cov, logdet, support, ok = _c_steps(x, centers[active], covs[active], h)
        active = active[ok]
        improved = logdet[ok] < logdets[active] - 1e-12 * np.maximum(1.0, np.abs(logdets[active]))
        moved = (support[ok] != supports[active]).any(axis=1)
        centers[active], covs[active] = center[ok], cov[ok]
        logdets[active], supports[active] = logdet[ok], support[ok]
        active = active[improved & moved]

    best = np.argmin(logdets)
    return McdFit(centers[best], covs[best] * factor, supports[best], alpha)


def robust_distances(points, fit: McdFit) -> np.ndarray:
    """Squared Mahalanobis distances to an MCD fit.

    A singular covariance gets one shot of diagonal regularisation
    (1e-12 * trace/d) before failing.
    """
    x = np.asarray(points, dtype=float)
    if x.ndim == 1:
        x = x[:, None]
    cov = np.asarray(fit.covariance, dtype=float)
    d = cov.shape[0]
    center = np.asarray(fit.center, dtype=float)[None]
    dist, ok = _mahalanobis_sq(x, center, cov[None])
    if not ok[0]:
        jitter = 1e-12 * np.trace(cov) / d
        dist, ok = _mahalanobis_sq(x, center, (cov + jitter * np.eye(d))[None])
        if not ok[0]:
            raise SingularCovariance("covariance not invertible after regularisation")
    return np.maximum(dist[0], 0.0)


def _asymptotic_wishart_df(m: int, d: int, alpha: float) -> float:
    """Croux-Haesbroeck asymptotic Wishart degrees of freedom of the MCD scatter."""
    q = _chi2_ppf(alpha, d)
    cdf_d2 = scipy.special.chdtr(d + 2, q)
    c_alpha = alpha / cdf_d2
    c2 = -cdf_d2 / 2.0
    c3 = -scipy.special.chdtr(d + 4, q) / 2.0
    c4 = 3.0 * c3
    b1 = c_alpha * (c3 - c4) / (1.0 - alpha)
    b2 = 0.5 + c_alpha / (1.0 - alpha) * (c3 - (q / d) * (c2 + (1.0 - alpha) / 2.0))
    v1 = (1.0 - alpha) * b1 ** 2 * (alpha * (c_alpha * q / d - 1.0) ** 2 - 1.0) \
        - 2.0 * c3 * c_alpha ** 2 * (
            3.0 * (b1 - d * b2) ** 2 + (d + 2.0) * b2 * (2.0 * b1 - d * b2)
        )
    v2 = m * (b1 * (b1 - d * b2) * (1.0 - alpha)) ** 2 * c_alpha ** 2
    return 2.0 / (c_alpha ** 2 * (v1 / v2))


def hardin_rocke_cutoff(m: int, d: int, coverage: float | None = None,
                        level: float = 0.05) -> FCutoff:
    """F-approximation threshold for raw-MCD squared robust distances.

    Degrees of freedom follow the Croux-Haesbroeck asymptotics with the
    Hardin-Rocke finite-sample adjustment, fitted at the maximum-breakdown
    coverage and faded linearly to no adjustment as coverage approaches 1.
    """
    if not 0.0 < level < 1.0:
        raise InvalidLevel(f"level must lie in (0, 1), got {level}")
    if m <= d + 1:
        raise TooFewPoints(f"need m > d + 1, got m={m}, d={d}")
    h_min = (m + d + 1) // 2
    alpha_mbp = h_min / m
    alpha = alpha_mbp if coverage is None else min(max(coverage, alpha_mbp), 1.0)

    if alpha >= 1.0 - 1e-12:
        m_hr = float(m - 1)
    else:
        m_asy = _asymptotic_wishart_df(m, d, alpha)
        corr_mbp = 0.725 - 0.00663 * d - 0.0780 * np.log(m)
        if alpha <= alpha_mbp:
            corr = corr_mbp
        else:
            corr = corr_mbp * (1.0 - alpha) / (1.0 - alpha_mbp)
        m_hr = m_asy * np.exp(corr)
    m_hr = max(m_hr, d + 2.0)

    dof2 = m_hr - d + 1.0
    scale = d * m_hr / dof2
    threshold = scale * scipy.special.fdtri(d, dof2, 1.0 - level)
    return FCutoff(level=level, dof1=float(d), dof2=float(dof2),
                   scale=float(scale), threshold=float(threshold))
