"""Slow reference implementations that pin down the fast kernels.

Everything here is a direct transcription of the defining formulas:
explicit loops over curves, pairs, grid points and directions, with no
shared code paths with the package under test. Production kernels must
agree with these to the tolerances asserted in the test modules. The
FastMCD and pointwise SDO references keep the package's earlier, plainer
form with the same float operations, so those kernels are pinned bit for
bit.
"""

from itertools import combinations

import numpy as np

MAD_CONSTANT = 1.4826


# ---------------------------------------------------------------- depths

def band_depth(values):
    values = np.asarray(values, dtype=float)
    n = values.shape[0]
    pairs = list(combinations(range(n), 2))
    out = np.zeros(n)
    for i in range(n):
        hits = 0
        for j, k in pairs:
            lo = np.minimum(values[j], values[k])
            hi = np.maximum(values[j], values[k])
            if np.all((values[i] >= lo) & (values[i] <= hi)):
                hits += 1
        out[i] = hits / len(pairs)
    return out


def modified_band_depth(values):
    values = np.asarray(values, dtype=float)
    n = values.shape[0]
    pairs = list(combinations(range(n), 2))
    out = np.zeros(n)
    for i in range(n):
        total = 0.0
        for j, k in pairs:
            lo = np.minimum(values[j], values[k])
            hi = np.maximum(values[j], values[k])
            total += np.mean((values[i] >= lo) & (values[i] <= hi))
        out[i] = total / len(pairs)
    return out


def _lex_scores(rows):
    """Fraction of rows lexicographically <= each row (ties share scores)."""
    keys = [tuple(row) for row in rows]
    n = len(keys)
    return np.array([sum(k <= keys[i] for k in keys) / n for i in range(n)])


def extreme_rank_length(values, kind="two_sided"):
    values = np.asarray(values, dtype=float)
    n, p = values.shape
    r = np.zeros((n, p))
    for i in range(n):
        for t in range(p):
            below = np.sum(values[:, t] <= values[i, t])
            above = np.sum(values[:, t] >= values[i, t])
            if kind == "two_sided":
                r[i, t] = min(below, above) / n
            elif kind == "one_sided_right":
                r[i, t] = above / n
            elif kind == "one_sided_left":
                r[i, t] = below / n
            else:
                raise ValueError(kind)
    return _lex_scores(np.sort(r, axis=1))


def extremal_depth(values):
    values = np.asarray(values, dtype=float)
    n, p = values.shape
    pointwise = np.zeros((n, p))
    for i in range(n):
        for t in range(p):
            nb = np.sum(values[:, t] < values[i, t])
            na = np.sum(values[:, t] > values[i, t])
            pointwise[i, t] = 1.0 - abs(nb - na) / n
    levels = np.unique(pointwise)
    cdf = np.zeros((n, levels.size))
    for i in range(n):
        for li, level in enumerate(levels):
            cdf[i, li] = np.mean(pointwise[i] <= level)
    # heavier mass at low depth levels = more extreme; score counts curves
    # weakly more extreme than or tied with each one
    keys = [tuple(row) for row in cdf]
    return np.array([sum(k >= keys[i] for k in keys) / n for i in range(n)])


def directional_quantile(values, tail=0.025, floor=1e-12):
    values = np.asarray(values, dtype=float)
    n, p = values.shape
    out = np.zeros(n)
    for i in range(n):
        worst = -np.inf
        for t in range(p):
            col = values[:, t]
            med = np.quantile(col, 0.5)
            hi = np.quantile(col, 1.0 - tail)
            lo = np.quantile(col, tail)
            up = (values[i, t] - med) / max(hi - med, floor)
            down = (med - values[i, t]) / max(med - lo, floor)
            worst = max(worst, up, down)
        out[i] = worst
    return out


def linfinity_depth(values):
    values = np.asarray(values, dtype=float)
    n = values.shape[0]
    out = np.zeros(n)
    for i in range(n):
        total = sum(np.max(np.abs(values[i] - values[j])) for j in range(n))
        out[i] = 1.0 / (1.0 + total / n)
    return out


# ------------------------------------------------------------------- tvd

def total_variation_depth(values):
    values = np.asarray(values, dtype=float)
    n, p = values.shape
    out = np.zeros(n)
    for i in range(n):
        acc = 0.0
        for t in range(p):
            phat = np.sum(values[:, t] <= values[i, t]) / n
            acc += phat * (1.0 - phat)
        out[i] = acc / p
    return out


def variance_split(r_s, r_t):
    """(total, explained, unexplained) variance of the r_t indicators given r_s."""
    r_s = np.asarray(r_s, dtype=bool)
    r_t = np.asarray(r_t, dtype=bool)
    p_s = np.mean(r_s)
    p_t = np.mean(r_t)
    p_st = np.mean(r_s & r_t)
    a = p_st / p_s if p_s > 0 else 0.0
    b = (p_t - p_st) / (1.0 - p_s) if p_s < 1 else 0.0
    total = p_t * (1.0 - p_t)
    explained = p_s * (1.0 - p_s) * (a - b) ** 2
    unexplained = p_s * a * (1.0 - a) + (1.0 - p_s) * b * (1.0 - b)
    return total, explained, unexplained


def modified_shape_similarity(values):
    values = np.asarray(values, dtype=float)
    n, p = values.shape
    med = np.median(values, axis=0)
    out = np.zeros(n)
    for i in range(n):
        terms = np.zeros(p - 1)
        for t in range(1, p):
            s = t - 1
            r_t = values[:, t] <= med[t]
            threshold = values[i, s] - values[i, t] + med[t]
            r_s = values[:, s] <= threshold
            total, explained, _ = variance_split(r_s, r_t)
            if total == 0.0:
                terms[t - 1] = 1.0
            else:
                terms[t - 1] = min(max(explained / total, 0.0), 1.0)
        increments = np.abs(np.diff(values[i]))
        weight_sum = increments.sum()
        if weight_sum > 0.0:
            weights = increments / weight_sum
        else:
            weights = np.full(p - 1, 1.0 / (p - 1))
        out[i] = float(terms @ weights)
    return out


# ------------------------------------------------------------------ muod

def muod_indices(values):
    """(shape, magnitude, amplitude) index triples from explicit pair loops."""
    values = np.asarray(values, dtype=float)
    n, p = values.shape
    means = values.mean(axis=1)
    variances = np.array([
        np.dot(values[i] - means[i], values[i] - means[i]) / (p - 1)
        for i in range(n)
    ])
    mean_rho = np.zeros(n)
    mean_beta = np.zeros(n)
    mean_alpha = np.zeros(n)
    for i in range(n):
        rhos, betas, alphas = [], [], []
        for j in range(n):
            if variances[i] == 0.0 or variances[j] == 0.0:
                continue
            cov = np.dot(values[i] - means[i], values[j] - means[j]) / (p - 1)
            rho = cov / np.sqrt(variances[i] * variances[j])
            beta = cov / variances[j]
            alpha = means[i] - beta * means[j]
            rhos.append(rho)
            betas.append(beta)
            alphas.append(alpha)
        mean_rho[i] = np.mean(rhos) if rhos else 0.0
        mean_beta[i] = np.mean(betas) if betas else 0.0
        mean_alpha[i] = np.mean(alphas) if alphas else 0.0
    return np.abs(mean_rho - 1.0), np.abs(mean_alpha), np.abs(mean_beta - 1.0)


# ---------------------------------------------------------------- robust

def mahalanobis_sq(points, center, covariance):
    points = np.asarray(points, dtype=float)
    diffs = points - np.asarray(center, dtype=float)
    solved = np.linalg.solve(np.asarray(covariance, dtype=float), diffs.T).T
    return np.einsum("ij,ij->i", diffs, solved)


def exhaustive_mcd_determinant(points, h):
    """Smallest determinant over every h-subset's classical covariance."""
    points = np.asarray(points, dtype=float)
    m = points.shape[0]
    best = np.inf
    for subset in combinations(range(m), h):
        x = points[list(subset)]
        cov = np.cov(x, rowvar=False, bias=False)
        det = np.linalg.det(np.atleast_2d(cov))
        if det < best:
            best = det
    return best


def subset_covariance_determinant(points, subset):
    x = np.asarray(points, dtype=float)[np.asarray(subset, dtype=int)]
    cov = np.cov(x, rowvar=False, bias=False)
    return np.linalg.det(np.atleast_2d(cov))


def fast_mcd_raw(points, coverage, rng, n_trials=500, n_initial=2, n_best=10, max_refine=30):
    """FastMCD for d >= 2 with h < m, one trial at a time.

    The scalar form of the package's search: every trial draws a full
    permutation from ``rng``, grows its elemental start until nonsingular,
    takes ``n_initial`` C-steps, and the ``n_best`` lowest log-determinants
    are refined. Returns the center, the covariance before the consistency
    factor, and the sorted subset indices.
    """
    x = np.asarray(points, dtype=float)
    m, d = x.shape
    h_min = (m + d + 1) // 2
    h = h_min if coverage is None else min(max(int(np.floor(coverage * m)), h_min), m)

    def subset_cov(rows):
        center = rows.mean(axis=0)
        diff = rows - center
        return center, diff.T @ diff / (rows.shape[0] - 1)

    def c_step(center, cov):
        try:
            lower = np.linalg.cholesky(cov)
        except np.linalg.LinAlgError:
            return None
        solved = np.linalg.solve(lower, (x - center).T)
        dist = np.einsum("ji,ji->i", solved, solved)
        support = np.sort(np.argsort(dist, kind="stable")[:h])
        center, cov = subset_cov(x[support])
        sign, logdet = np.linalg.slogdet(cov)
        if sign <= 0 or not np.isfinite(logdet):
            return None
        return center, cov, logdet, support

    candidates = []
    for _ in range(n_trials):
        perm = rng.choice_without_replacement(m, m)
        state = None
        for size in range(d + 1, m + 1):
            center, cov = subset_cov(x[perm[:size]])
            sign, logdet = np.linalg.slogdet(cov)
            if sign > 0 and np.isfinite(logdet):
                state = (center, cov, logdet, np.sort(perm[:size]))
                break
        for _ in range(n_initial):
            if state is not None:
                state = c_step(state[0], state[1])
        if state is not None:
            candidates.append(state)
    if not candidates:
        return None

    best = None
    for idx in np.argsort([c[2] for c in candidates], kind="stable")[:n_best]:
        state = candidates[idx]
        for _ in range(max_refine):
            nxt = c_step(state[0], state[1])
            if nxt is None:
                break
            improved = nxt[2] < state[2] - 1e-12 * max(1.0, abs(state[2]))
            same_support = np.array_equal(nxt[3], state[3])
            state = nxt
            if same_support or not improved:
                break
        if best is None or state[2] < best[2]:
            best = state
    return best[0], best[1], best[3]


# ---------------------------------------------------------------- dirout

def sdo_projection(points, direction):
    """One-direction Stahel-Donoho ratio with the MAD-zero sentinel."""
    proj = np.asarray(points, dtype=float) @ np.asarray(direction, dtype=float)
    med = np.median(proj)
    dev = np.abs(proj - med)
    mad = MAD_CONSTANT * np.median(dev)
    if mad > 0.0:
        return dev / mad
    return np.where(dev == 0.0, 0.0, np.inf)


def pointwise_sdo_two_medians(values, directions):
    """Pointwise SDO as the package computed it with two ``np.median`` calls.

    values: n x p x d array; directions: k x d unit vectors (``[[1.0]]`` for
    d = 1). Grid points are projected in the package's blocks with the same
    ``einsum``, so the projections, medians and MADs are the same floats and
    the result can be compared with ``np.array_equal``.
    """
    values = np.asarray(values, dtype=float)
    directions = np.asarray(directions, dtype=float)
    n, p, _ = values.shape
    step = max(1, p // len(directions))
    out = np.empty((n, p))
    for t in range(0, p, step):
        proj = np.einsum("itd,kd->itk", values[:, t:t + step], directions)
        med = np.median(proj, axis=0)
        dev = np.abs(proj - med)
        mad = MAD_CONSTANT * np.median(dev, axis=0)
        ratio = np.where(
            mad > 0.0, dev / np.where(mad > 0.0, mad, 1.0),
            np.where(dev == 0.0, 0.0, np.inf),
        )
        out[:, t:t + step] = ratio.max(axis=2)
    return out


def sdo_dense(values, directions, chunk=20000):
    """Maximum projection outlyingness over an explicit direction set.

    values: n x p x d array; directions: k x d unit vectors. Directions are
    processed in chunks to bound memory; per chunk the ratios are computed
    columnwise exactly as in sdo_projection.
    """
    values = np.asarray(values, dtype=float)
    directions = np.asarray(directions, dtype=float)
    n, p, _ = values.shape
    out = np.zeros((n, p))
    for t in range(p):
        x = values[:, t, :]
        for start in range(0, directions.shape[0], chunk):
            proj = x @ directions[start:start + chunk].T  # n x k
            med = np.median(proj, axis=0)
            dev = np.abs(proj - med)
            mad = MAD_CONSTANT * np.median(dev, axis=0)
            ratio = np.where(
                mad > 0.0, dev / np.where(mad > 0.0, mad, 1.0),
                np.where(dev == 0.0, 0.0, np.inf),
            )
            out[:, t] = np.maximum(out[:, t], ratio.max(axis=1))
    return out


def half_circle_directions(count):
    """Evenly spaced unit vectors over half the circle (SDO is symmetric)."""
    angles = np.pi * np.arange(count) / count
    return np.column_stack([np.cos(angles), np.sin(angles)])
