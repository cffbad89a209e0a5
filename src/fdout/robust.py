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
from scipy.linalg import cho_factor, cho_solve
from scipy.stats import chi2, f as f_dist

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


@dataclass(frozen=True)
class RobustLocationScale:
    median: float
    mad: float


@dataclass(frozen=True)
class McdFit:
    """Raw MCD location/scatter with the defining h-subset."""

    center: np.ndarray
    covariance: np.ndarray
    subset_indices: np.ndarray
    coverage_fraction: float
    consistency_corrected: bool = True


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


def geometric_median(points, tol: float = 1e-10, max_iter: int = 1000) -> np.ndarray:
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
    for _ in range(max_iter):
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
        if step <= tol * max(1.0, np.sqrt((y * y).sum())):
            return y
    raise NonConvergence(f"geometric median did not converge in {max_iter} iterations")


def _chi2_consistency(alpha: float, d: int) -> float:
    """Factor making the h-subset covariance consistent under normality."""
    if alpha >= 1.0 - 1e-12:
        return 1.0
    q = chi2.ppf(alpha, d)
    return alpha / chi2.cdf(q, d + 2)


def _subset_cov(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    center = x.mean(axis=0)
    diff = x - center
    cov = diff.T @ diff / (x.shape[0] - 1)
    return center, cov


def _mahalanobis_sq(x: np.ndarray, center: np.ndarray, cov: np.ndarray):
    """Squared Mahalanobis distances, or None when cov is not PD."""
    try:
        factor = cho_factor(cov, lower=True)
    except np.linalg.LinAlgError:
        return None
    diff = x - center
    solved = cho_solve(factor, diff.T)
    return np.einsum("ij,ji->i", diff, solved)


def _c_step(x: np.ndarray, center, cov, h: int):
    dist = _mahalanobis_sq(x, center, cov)
    if dist is None:
        return None
    support = np.sort(np.argsort(dist, kind="stable")[:h])
    center, cov = _subset_cov(x[support])
    sign, logdet = np.linalg.slogdet(cov)
    if sign <= 0 or not np.isfinite(logdet):
        return None
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
        return McdFit(center, cov * factor, np.arange(m), 1.0, True)

    if d == 1:
        center, var, subset = _mcd_exact_1d(x, h)
        if var <= 0.0:
            raise SingularSubsets("more than h identical values in 1-d data")
        return McdFit(
            np.array([center]), np.array([[var * factor]]), subset, alpha, True
        )

    if rng is None:
        rng = RandomSource(0)

    candidates = []
    for _ in range(N_TRIALS):
        perm = rng.choice_without_replacement(m, m)
        # grow the elemental subset until its covariance is nonsingular
        size = d + 1
        state = None
        while size <= m:
            center, cov = _subset_cov(x[perm[:size]])
            sign, logdet = np.linalg.slogdet(cov)
            if sign > 0 and np.isfinite(logdet):
                state = (center, cov, logdet, np.sort(perm[:size]))
                break
            size += 1
        if state is None:
            continue
        for _ in range(N_INITIAL_CSTEPS):
            nxt = _c_step(x, state[0], state[1], h)
            if nxt is None:
                state = None
                break
            state = nxt
        if state is not None:
            candidates.append(state)

    if not candidates:
        raise SingularSubsets("all candidate subsets produced singular covariances")

    logdets = np.array([c[2] for c in candidates])
    keep = np.argsort(logdets, kind="stable")[:N_BEST]

    best = None
    for idx in keep:
        state = candidates[idx]
        for _ in range(MAX_REFINE_CSTEPS):
            nxt = _c_step(x, state[0], state[1], h)
            if nxt is None:
                break
            improved = nxt[2] < state[2] - 1e-12 * max(1.0, abs(state[2]))
            same_support = np.array_equal(nxt[3], state[3])
            state = nxt
            if same_support or not improved:
                break
        if best is None or state[2] < best[2]:
            best = state

    center, cov, _, support = best
    return McdFit(center, cov * factor, support, alpha, True)


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
    dist = _mahalanobis_sq(x, fit.center, cov)
    if dist is None:
        jitter = 1e-12 * np.trace(cov) / d
        dist = _mahalanobis_sq(x, fit.center, cov + jitter * np.eye(d))
        if dist is None:
            raise SingularCovariance("covariance not invertible after regularisation")
    return np.maximum(dist, 0.0)


def _asymptotic_wishart_df(m: int, d: int, alpha: float) -> float:
    """Croux-Haesbroeck asymptotic Wishart degrees of freedom of the MCD scatter."""
    q = chi2.ppf(alpha, d)
    c_alpha = alpha / chi2.cdf(q, d + 2)
    c2 = -chi2.cdf(q, d + 2) / 2.0
    c3 = -chi2.cdf(q, d + 4) / 2.0
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
    threshold = scale * f_dist.ppf(1.0 - level, d, dof2)
    return FCutoff(level=level, dof1=float(d), dof2=float(dof2),
                   scale=float(scale), threshold=float(threshold))
