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
    NonFiniteResult,
    ShapeMismatch,
    SingularCovariance,
    SingularSubsets,
    TooFewPoints,
)
from .fdcore import RandomSource, float_array, power_of_two_scaled, small_ufunc_buffer

__all__ = [
    "McdFit",
    "FCutoff",
    "geometric_median",
    "fast_mcd",
    "robust_distances",
    "hardin_rocke_cutoff",
]

# FastMCD search budget: random elemental starts, C-steps on each start, the
# number of best starts refined, and the cap on C-steps per refinement
N_TRIALS = 500
N_INITIAL_CSTEPS = 2
N_BEST = 10
MAX_REFINE_CSTEPS = 30
# trials whose initial phase runs as one stack: a block holds a few
# TRIAL_BLOCK x m x d arrays, about 1 MB of temporaries at m = 300, d = 4
TRIAL_BLOCK = 50

# Weiszfeld stop test: a step no longer than GM_TOL times max(min(1, S), |y|),
# S the cloud's largest |value|, at most GM_MAX_ITER steps before
# NonConvergence
GM_TOL = 1e-10
GM_MAX_ITER = 1000


@dataclass(frozen=True, eq=False)
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


def check_level(level: float) -> None:
    """The rule for a tail probability: it lies in (0, 1)."""
    if not 0.0 < level < 1.0:
        raise InvalidLevel(f"level must lie in (0, 1), got {level}")


def check_coverage(coverage: float | None) -> None:
    """The rule for an MCD coverage fraction: None, or in [0.5, 1]."""
    if coverage is not None and not 0.5 <= coverage <= 1.0:
        raise BadCoverage(f"coverage must lie in [0.5, 1], got {coverage}")


def _sum_kept(a: np.ndarray, keep: np.ndarray) -> np.ndarray:
    """Sum over axis 1 of the entries of ``a`` that ``keep`` marks, each row
    bit for bit as its kept entries alone would sum: a pairwise sum depends
    on where each term sits, so the rows that drop entries are compacted."""
    out = a.sum(axis=1)
    counts = keep.sum(axis=1)
    for count in np.unique(counts[counts < keep.shape[1]]):
        rows = counts == count
        out[rows] = a[keep & rows[:, None]].reshape((rows.sum(), count) + a.shape[2:]).sum(axis=1)
    return out


def geometric_median(points) -> np.ndarray:
    """Point minimising the sum of Euclidean distances to the rows of an
    ``m x d`` cloud, or one such point per cloud of a ``k x m x d`` stack.

    Weiszfeld iteration with the Vardi-Zhang correction for iterates that
    coincide with data points, started from the coordinatewise mean. The
    clouds of a stack are solved side by side, each with the floats it gives
    alone, and leave the stack when they are done. Each cloud is solved in
    units of the power of two of its largest |value| S, which is exact; the
    stop test's floor min(1, S) is relative only below S = 1. The
    ``NonConvergence`` message names the stack entries still iterating.
    """
    pts = float_array(points)
    if pts.ndim not in (2, 3):
        raise TooFewPoints("points must be an m x d matrix or a k x m x d stack")
    if pts.shape[-2] == 0:
        raise EmptyInput("geometric_median needs at least one point")
    if pts.shape[-1] == 0:
        raise EmptyInput("geometric_median needs at least one coordinate")
    # in these units no squared distance overflows or underflows; the
    # scaled stack is the only copy of the points that is kept
    stack, exponents = power_of_two_scaled(
        np.ascontiguousarray(pts if pts.ndim == 3 else pts[None]), axis=(1, 2))
    exponents = exponents[:, 0, 0]
    k, m, d = stack.shape
    y = stack.mean(axis=1)
    scale = np.abs(stack).max(axis=(1, 2))
    eps = 1e-14 * np.where(scale == 0.0, 1.0, scale)
    # the stop test's floor min(1, S) in these units, S = 2^exponent * scale
    floor = np.ldexp(np.minimum(1.0, np.ldexp(scale, exponents)), -exponents)
    rejected = np.zeros((k, m), dtype=bool)
    left = np.arange(k)  # the clouds still iterating
    for _ in range(GM_MAX_ITER):
        if not left.size:
            y = np.ldexp(y, exponents[:, None])
            return y if pts.ndim == 3 else y[0]
        x = stack if left.size == k else stack[left]
        diff = x - y[left, None]
        dist = np.sqrt((diff * diff).sum(axis=2))
        nearest = dist.argmin(axis=1)
        # Fixed-point steps crawl when the optimum sits on a data point, so
        # test the nearest vertex exactly: it is optimal iff the unit vectors
        # towards the other points sum to a norm no larger than its
        # multiplicity. A failed test depends only on the data: never redone.
        test = np.flatnonzero(~rejected[left, nearest])
        rejected[left[test], nearest[test]] = True
        vertex = x[test, nearest[test]]
        units = x[test] - vertex[:, None]
        dist_k = np.sqrt((units * units).sum(axis=2))
        off = dist_k > eps[left[test], None]
        np.divide(units, dist_k[..., None], out=units, where=off[..., None])
        r_k = _sum_kept(units, off)
        optimal = np.sqrt((r_k * r_k).sum(axis=1)) <= (m - off.sum(axis=1)) * (1.0 + 1e-12)

        # points within eps of the iterate get no weight; a cloud is stuck at
        # its iterate when all are, or when the others pull it by at most eps
        far = dist > eps[left, None]
        coincident = m - far.sum(axis=1)
        w = np.divide(1.0, dist, out=np.zeros_like(dist), where=far)
        wsum = _sum_kept(w, far)
        t = _sum_kept(x * w[..., None], far) / np.where(coincident < m, wsum, 1.0)[:, None]
        grad = _sum_kept(diff * w[..., None], far)
        r = np.sqrt((grad * grad).sum(axis=1))
        stuck = (coincident == m) | (coincident > 0) & (r <= eps[left])
        # Without coincident points, a Newton step is kept where it beats the
        # Weiszfeld step t, whose rate degenerates near a data point.
        y_old, y_new = y[left], t.copy()
        newton = np.flatnonzero(coincident == 0)
        hess = wsum[:, None, None] * np.eye(d) - np.einsum("ci,cij,cik->cjk", w**3, diff, diff)
        del diff, units
        delta, solved = _per_matrix(np.linalg.solve, hess[newton], grad[newton, :, None])
        y_newton = y_old[newton] + delta[:, :, 0]
        tried = solved & np.isfinite(y_newton).all(axis=1)
        newton, y_newton = newton[tried], y_newton[tried]
        obj_w = np.sqrt(((x[newton] - t[newton, None]) ** 2).sum(axis=2)).sum(axis=1)
        obj_n = np.sqrt(((x[newton] - y_newton[:, None]) ** 2).sum(axis=2)).sum(axis=1)
        better = obj_n < obj_w
        y_new[newton[better]] = y_newton[better]
        # Vardi-Zhang: pull the Weiszfeld step back towards a coincident point
        vz = (coincident > 0) & ~stuck
        gamma = np.minimum(1.0, coincident[vz] / r[vz])[:, None]
        y_new[vz] = (1.0 - gamma) * t[vz] + gamma * y_old[vz]
        step = np.sqrt(((y_new - y_old) ** 2).sum(axis=1))
        norm = np.sqrt((y_new * y_new).sum(axis=1))
        done = stuck | (step <= GM_TOL * np.maximum(floor[left], norm))
        done[test[optimal]] = True
        y[left[~stuck]] = y_new[~stuck]
        y[left[test[optimal]]] = vertex[optimal]
        left = left[~done]
    raise NonConvergence(f"geometric median did not converge in {GM_MAX_ITER} iterations: "
                         f"stack entries {left.tolist()} (0-based)")


def _chi2_ppf(alpha: float, d: int) -> float:
    """Chi-square quantile by the formula of SciPy's ``chi2.ppf``, whose
    results it matches bit for bit (``scipy.special.chdtri`` does not)."""
    return 2.0 * scipy.special.gammaincinv(d / 2.0, alpha)


def _chi2_consistency(alpha: float, d: int) -> float:
    """Factor making the h-subset covariance consistent under normality."""
    if alpha >= 1.0 - 1e-12:
        return 1.0
    return alpha / scipy.special.chdtr(d + 2, _chi2_ppf(alpha, d))


def _subset_cov(x: np.ndarray, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Mean and covariance of the rows of x that ``rows`` names, or of those
    each row of a k x s ``rows`` names.

    The centre sums an s x k x d gather along its outer axis, so each sum
    adds the rows one by one in the order of ``rows``. A sum along a
    contiguous last axis would be pairwise and give other floats."""
    center = np.take(x, rows.T, axis=0).mean(axis=0)
    diff = np.take(x, rows, axis=0)
    diff -= center[..., None, :]
    cov = np.swapaxes(diff, -1, -2) @ diff / (rows.shape[-1] - 1)
    return center, cov


def _per_matrix(solver, *stacks):
    """``solver``, a stacked numpy.linalg call, over stacks of matrices, and
    the mask of those it succeeded on; results are zero where it failed.
    It runs ``np.linalg.cholesky`` on the covariances of ``_mahalanobis_sq``
    and ``np.linalg.solve`` on the Newton step of ``geometric_median``, the
    only general solve left. LAPACK runs matrix by matrix, so each result is
    what that matrix alone gives, and a stack that raises is redone one
    matrix at a time."""
    try:
        return solver(*stacks), np.ones(len(stacks[0]), dtype=bool)
    except np.linalg.LinAlgError:
        out, ok = np.zeros_like(stacks[-1]), np.zeros(len(stacks[0]), dtype=bool)
        for i, single in enumerate(zip(*stacks)):
            try:
                out[i], ok[i] = solver(*single), True
            except np.linalg.LinAlgError:
                pass
        return out, ok


def _mahalanobis_sq(x: np.ndarray, center: np.ndarray, cov: np.ndarray):
    """Squared Mahalanobis distances of the rows of x from each (center, cov)
    of a stack, with the mask of the PD covariances.

    With L the Cholesky factor of cov, z = L^-1 (x - center) comes from
    forward substitution over the whole stack, coordinate by coordinate,
    and the distance is the sum of the squared z_j in coordinate order. A
    non-PD covariance gets the identity for its factor, so its row holds the
    squared Euclidean distances from its center: garbage that no caller
    reads, but computed without a warning. LAPACK factors a covariance that
    holds a NaN without raising, so a factor that is not finite counts as
    not PD. A distance whose terms overflow is +inf, never NaN."""
    lower, ok = _per_matrix(np.linalg.cholesky, cov)
    ok &= np.isfinite(lower).all(axis=(1, 2))
    lower[~ok] = np.eye(cov.shape[-1])
    # k x d x m from one contiguous d x m copy of the points: each
    # coordinate's differences form a contiguous row, and the factor's
    # entries are broadcast along them
    z = np.ascontiguousarray(x.T) - center[:, :, None]
    dist = np.zeros(z[:, 0].shape)
    # inf - inf is NaN, read as +inf
    with small_ufunc_buffer(), np.errstate(over="ignore", invalid="ignore"):
        for j in range(z.shape[1]):
            for i in range(j):
                z[:, j] -= lower[:, j, i, None] * z[:, i]
            z[:, j] /= lower[:, j, j, None]
            dist += z[:, j] * z[:, j]
    return np.where(np.isnan(dist), np.inf, dist), ok


def _nearest(dist: np.ndarray, h: int) -> np.ndarray:
    """Sorted indices of the h smallest entries of each row of ``dist``, ties
    broken by lowest index: ``np.sort(np.argsort(dist, kind="stable")[:, :h])``
    from one partition. Every entry below the row's h-th smallest value is
    taken, and of the entries equal to it the first ones in index order;
    the flat indices of the kept entries, less each row's offset, are the
    indices sorted. ``dist`` holds no NaN, because ``_mahalanobis_sq``
    reads NaN as +inf."""
    k, m = dist.shape
    kth = np.partition(dist, h - 1, axis=1)[:, h - 1:h]
    keep = dist < kth
    tie = dist == kth
    keep |= tie & (np.cumsum(tie, axis=1) <= h - keep.sum(axis=1, keepdims=True))
    return np.flatnonzero(keep).reshape(k, h) - np.arange(0, k * m, m)[:, None]


def _c_steps(x: np.ndarray, center: np.ndarray, cov: np.ndarray, h: int):
    """One C-step from each (center, cov) of a stack: the h points nearest in
    Mahalanobis distance, as mean, covariance, log-determinant and sorted
    indices, with a mask of the steps whose covariances in and out are PD."""
    dist, ok = _mahalanobis_sq(x, center, cov)
    support = _nearest(dist, h)
    center, cov = _subset_cov(x, support)
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
        c, s = _subset_cov(x, perms[pending, :size])
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
    """Exact univariate MCD: the minimum-variance window of h sorted values.
    As h > m/2, every window holds the middle value xs[c]. Its sums of deviations
    from xs[c] run outward from c over its own values: equal values give variance 0."""
    order = np.argsort(x[:, 0], kind="stable")
    xs = x[order, 0]
    c = xs.size // 2
    dev = xs - xs[c]
    starts = np.arange(xs.size - h + 1)

    def window_sums(a):
        # window [s, s + h) adds a[s:c] from c - 1 down and a[c:s + h] from c up
        down = np.concatenate(([0.0], np.cumsum(a[c - 1::-1])))
        return down[c - starts] + np.cumsum(a[c:])[starts + h - c - 1]

    sums, sums2 = window_sums(dev), window_sums(dev * dev)
    # S1 * (S1 / h): S1 * S1 can overflow where the range meets fast_mcd's bound
    variances = (sums2 - sums * (sums / h)) / (h - 1)
    best = int(np.argmin(variances))
    subset = np.sort(order[best:best + h])
    return float(xs[c] + sums[best] / h), float(variances[best]), subset


def fast_mcd(
    points,
    coverage: float | None = None,
    rng: RandomSource | None = None,
) -> McdFit:
    """Raw minimum covariance determinant fit of an ``m x d`` point cloud.

    ``coverage`` is the fraction h/m of points defining the fit; default is
    the maximum-breakdown choice floor((m + d + 1)/2) / m. Deterministic
    for a given ``rng`` seed; no ``rng`` means ``RandomSource(0)``. A cloud
    whose mean or covariance can overflow raises ``NonFiniteResult``.
    """
    x = float_array(points)
    if x.ndim == 1:
        x = x[:, None]
    if x.ndim != 2:
        raise TooFewPoints("points must be a vector or an m x d matrix")
    m, d = x.shape
    if d == 0:
        raise EmptyInput("fast_mcd needs at least one coordinate")
    if m <= 2 * d:
        raise TooFewPoints(f"need more than 2d = {2 * d} points, got {m}")
    check_coverage(coverage)
    big, half_range = np.finfo(float).max, (x.max(axis=0) / 2 - x.min(axis=0) / 2).max()
    if np.abs(x).max() > big / m or half_range > np.sqrt(big / (16 * m)):  # m squares of a range
        raise NonFiniteResult("fast_mcd: a mean or a covariance of this cloud can overflow")
    h_min = (m + d + 1) // 2
    h = h_min if coverage is None else min(max(int(np.floor(coverage * m)), h_min), m)
    alpha = h / m
    factor = _chi2_consistency(alpha, d)

    if h == m:
        center, cov = _subset_cov(x, np.arange(m))
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
    # step is not PD (keeping its state) or its log-determinant no longer
    # falls, as it does not when its support is unchanged
    keep = np.argsort(logdets, kind="stable")[:N_BEST]
    centers, covs, logdets, supports = centers[keep], covs[keep], logdets[keep], supports[keep]
    active = np.arange(keep.size)
    for _ in range(MAX_REFINE_CSTEPS):
        if not active.size:
            break
        center, cov, logdet, support, ok = _c_steps(x, centers[active], covs[active], h)
        active = active[ok]
        improved = logdet[ok] < logdets[active] - 1e-12 * np.maximum(1.0, np.abs(logdets[active]))
        centers[active], covs[active] = center[ok], cov[ok]
        logdets[active], supports[active] = logdet[ok], support[ok]
        active = active[improved]

    best = np.argmin(logdets)
    return McdFit(centers[best], covs[best] * factor, supports[best], alpha)


def robust_distances(points, fit: McdFit) -> np.ndarray:
    """Squared Mahalanobis distances to an MCD fit.

    A singular covariance gets one shot of diagonal regularisation
    (1e-12 * trace/d) before failing with ``SingularCovariance``, which is
    also what a covariance holding a NaN or an infinity raises. A center
    that is not finite raises ``NonFiniteResult``. A distance that overflows
    is +inf, never NaN.
    """
    x = float_array(points)
    if x.ndim == 1:
        x = x[:, None]
    cov = np.asarray(fit.covariance, dtype=float)
    d = cov.shape[0]
    if x.ndim != 2 or x.shape[1] != d:
        raise ShapeMismatch(f"points of shape {x.shape} for a fit of dimension {d}")
    center = np.asarray(fit.center, dtype=float)[None]
    if not np.isfinite(center).all():
        raise NonFiniteResult(f"MCD center is not finite: {center[0].tolist()}")
    dist, ok = _mahalanobis_sq(x, center, cov[None])
    if not ok[0]:
        jitter = 1e-12 * np.trace(cov) / d
        dist, ok = _mahalanobis_sq(x, center, (cov + jitter * np.eye(d))[None])
        if not ok[0]:
            raise SingularCovariance("covariance not invertible after regularisation")
    return dist[0]


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


def hardin_rocke_cutoff(m: int, d: int, *, level: float = 0.05) -> FCutoff:
    """F-approximation threshold for squared robust distances under the
    maximum-breakdown raw MCD, the default fit of ``fast_mcd``.

    Degrees of freedom follow the Croux-Haesbroeck asymptotics with the
    Hardin-Rocke finite-sample adjustment, which was fitted at this coverage
    only, h = floor((m + d + 1) / 2).
    """
    check_level(level)
    if d < 1:
        raise EmptyInput(f"hardin_rocke_cutoff needs at least one coordinate, got d={d}")
    if m <= d + 1:
        raise TooFewPoints(f"need m > d + 1, got m={m}, d={d}")
    alpha = ((m + d + 1) // 2) / m
    corr = 0.725 - 0.00663 * d - 0.0780 * np.log(m)
    m_hr = max(_asymptotic_wishart_df(m, d, alpha) * np.exp(corr), d + 2.0)

    dof2 = m_hr - d + 1.0
    scale = d * m_hr / dof2
    threshold = scale * scipy.special.fdtri(d, dof2, 1.0 - level)
    return FCutoff(level=level, dof1=float(d), dof2=float(dof2),
                   scale=float(scale), threshold=float(threshold))
