"""Slow reference implementations that pin down the fast kernels.

Everything here is a direct transcription of the defining formulas:
explicit loops over curves, pairs, grid points and directions, with no
shared code paths with the package under test. Production kernels must
agree with these to the tolerances asserted in the test modules. The
FastMCD and pointwise SDO references keep the package's earlier, plainer
form with the same float operations, so those kernels are pinned bit for
bit, as are the ranks by the tie-aware rank kernel, MBD by its float
form, BD by its per-curve pair product and MSS by its unsorted queries; the
SVG renderers keep their per-point form, so the files are pinned byte for
byte.
"""

from __future__ import annotations

import math
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


def band_depth_product(values):
    """BD from one float32 product of the side indicators per curve (the
    package's kernel before it matched sign patterns)."""
    values = np.asarray(values, dtype=float)
    n = values.shape[0]
    n_pairs = n * (n - 1) // 2
    scores = np.empty(n)
    for i in range(n):
        # [strictly below | strictly above]: a pair's product counts the grid
        # points where both sit on the same strict side
        side = np.hstack([values < values[i], values > values[i]], dtype=np.float32)
        contains = side @ side.T == 0.0
        n_containing = (int(contains.sum()) - int(np.trace(contains))) // 2
        scores[i] = n_containing / n_pairs
    return scores


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


def rankdata_tie_aware(values):
    """Below and above counts with tie groups located in every column, as
    ``.T`` views of ``p x n`` arrays (the package's rank kernel before its
    tie-free path)."""
    columns = np.asarray(values, dtype=float).T
    n = columns.shape[1]
    order = np.argsort(columns, axis=1)
    ordered = np.take_along_axis(columns, order, axis=1)
    starts = np.ones(ordered.shape, dtype=bool)
    starts[:, 1:] = ordered[:, 1:] != ordered[:, :-1]
    ends = np.ones(ordered.shape, dtype=bool)
    ends[:, :-1] = starts[:, 1:]
    positions = np.arange(n)
    first = np.maximum.accumulate(np.where(starts, positions, 0), axis=1)
    last = np.minimum.accumulate(np.where(ends, positions, n - 1)[:, ::-1], axis=1)[:, ::-1]
    below = np.empty(order.shape, dtype=np.int64)
    above = np.empty(order.shape, dtype=np.int64)
    np.put_along_axis(below, order, last + 1, axis=1)
    np.put_along_axis(above, order, n - first, axis=1)
    return below.T, above.T


def modified_band_depth_float(values):
    """MBD from the strict below/above counts in floats: each grid point's
    containing-pair count, averaged over the grid, over the number of pairs
    (the package's MBD before it summed integers)."""
    values = np.asarray(values, dtype=float)
    n = values.shape[0]
    n_pairs = n * (n - 1) // 2
    below, above = rankdata_tie_aware(values)
    failing = (n - above) * (n - above - 1) / 2.0 + (n - below) * (n - below - 1) / 2.0
    return (n_pairs - failing).mean(axis=1) / n_pairs


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


def directional_quantile(values, tail=0.025):
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
            # 2**-40 of the envelope's power of two, of the largest |value| on a
            # zero envelope; an all-zero point takes 2**-40
            envelope = max(abs(lo), abs(hi)) or np.abs(col).max()
            floor = math.ldexp(1.0, max(math.frexp(envelope)[1] - 40, -1074))
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


def modified_shape_similarity_unsorted(values):
    """MSS with the threshold queries searched in curve order (the package's
    loop before it sorted them): the same counts and float operations."""
    values = np.asarray(values, dtype=float)
    n, p = values.shape
    med = np.median(values, axis=0)
    similarity = np.empty((n, p - 1))
    for t in range(1, p):
        at_or_below_t = values[:, t] <= med[t]
        p_t = int(at_or_below_t.sum()) / n
        total = p_t * (1.0 - p_t)
        if total == 0.0:
            similarity[:, t - 1] = 1.0
            continue
        thresholds = values[:, t - 1] - values[:, t] + med[t]
        n_s = np.searchsorted(np.sort(values[:, t - 1]), thresholds, side="right")
        n_st = np.searchsorted(np.sort(values[at_or_below_t, t - 1]), thresholds, side="right")
        p_s, p_st = n_s / n, n_st / n
        a = np.where(p_s > 0.0, p_st / np.where(p_s > 0.0, p_s, 1.0), 0.0)
        b = np.where(p_s < 1.0, (p_t - p_st) / np.where(p_s < 1.0, 1.0 - p_s, 1.0), 0.0)
        explained = p_s * (1.0 - p_s) * (a - b) ** 2
        similarity[:, t - 1] = np.clip(explained / total, 0.0, 1.0)
    increments = np.abs(np.diff(values, axis=1))
    denom = increments.sum(axis=1)
    flat = denom == 0.0
    weights = np.where(
        flat[:, None], 1.0 / (p - 1), increments / np.where(flat, 1.0, denom)[:, None]
    )
    return (similarity * weights).sum(axis=1)


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


def fast_mcd_raw(points, rng, n_trials=500, n_initial=2, n_best=10, max_refine=30):
    """Maximum-breakdown FastMCD for d >= 2, one trial at a time.

    The scalar form of the package's search. The elemental starts are
    drawn first, a column at a time: one ``rng.integers(0, m - j, size=k)``
    call gives each of the k trials that draw the index of its next row
    among the rows it has not taken, in ascending order. All trials draw
    d + 1 rows; those whose start is singular draw one more row at a time,
    in trial order, until it is nonsingular or holds all m rows. Then each
    trial takes ``n_initial`` C-steps, and the ``n_best`` lowest
    log-determinants are refined. A C-step's distances come from forward
    substitution on the Cholesky factor, the package's float operations for
    one matrix. Returns the center, the covariance before the consistency
    factor, and the sorted subset indices.
    """
    x = np.asarray(points, dtype=float)
    m, d = x.shape
    h = (m + d + 1) // 2

    def subset_cov(rows):
        center = rows.mean(axis=0)
        diff = rows - center
        return center, diff.T @ diff / (rows.shape[0] - 1)

    def c_step(center, cov):
        try:
            lower = np.linalg.cholesky(cov)
        except np.linalg.LinAlgError:
            return None
        # z = L^-1 (x - center) by forward substitution, one coordinate row
        # at a time, and the squares of z summed in coordinate order
        z = (x - center).T.copy()
        dist = np.zeros(m)
        for j in range(d):
            for i in range(j):
                z[j] -= lower[j, i] * z[i]
            z[j] /= lower[j, j]
            dist += z[j] * z[j]
        support = np.sort(np.argsort(dist, kind="stable")[:h])
        center, cov = subset_cov(x[support])
        sign, logdet = np.linalg.slogdet(cov)
        if sign <= 0 or not np.isfinite(logdet):
            return None
        return center, cov, logdet, support

    def draw(trials):
        for t, r in zip(trials, rng.integers(0, m - len(rows[trials[0]]), size=len(trials))):
            rows[t].append(int(np.setdiff1d(np.arange(m), rows[t])[r]))

    def start(t):
        center, cov = subset_cov(x[rows[t]])
        sign, logdet = np.linalg.slogdet(cov)
        if sign > 0 and np.isfinite(logdet):
            return center, cov, logdet, np.sort(rows[t])
        return None

    rows = [[] for _ in range(n_trials)]
    for _ in range(d + 1):
        draw(range(n_trials))
    starts = [start(t) for t in range(n_trials)]
    pending = [t for t in range(n_trials) if starts[t] is None]
    while pending and len(rows[pending[0]]) < m:
        draw(pending)
        for t in pending:
            starts[t] = start(t)
        pending = [t for t in pending if starts[t] is None]

    candidates = []
    for state in starts:
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
    d = 1). Grid points are taken in the package's blocks, and each
    projection adds x_j * u_j over the coordinates j in order, as the package
    does, so the projections, medians and MADs are the same floats and the
    result can be compared with ``np.array_equal``.
    """
    values = np.asarray(values, dtype=float)
    directions = np.asarray(directions, dtype=float)
    n, p, _ = values.shape
    step = max(1, p // len(directions))
    out = np.empty((n, p))
    for t in range(0, p, step):
        block = values[:, t:t + step, None, :]
        proj = block[..., 0] * directions[:, 0]
        for j in range(1, directions.shape[1]):
            proj = proj + block[..., j] * directions[:, j]
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


def geometric_median_one_cloud(points, tol=1e-10, max_iter=1000):
    """Geometric median of one m x d cloud, as the package solved each grid point.

    Weiszfeld iteration with the Vardi-Zhang correction, an exact vertex test
    at the nearest data point, and a Newton step kept where it beats the
    Weiszfeld objective. Returns None where the package raises
    ``NonConvergence``.
    """
    pts = np.asarray(points, dtype=float)
    m = pts.shape[0]
    if m == 1:
        return pts[0].copy()
    y = pts.mean(axis=0)
    scale = np.abs(pts).max() or 1.0
    eps = 1e-14 * scale

    def vertex_is_optimal(k):
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
    return None


def pointwise_geometric_median(values):
    """One geometric median per grid point of an n x p x d array, a p x d
    array, or None if some grid point does not converge."""
    centers = [geometric_median_one_cloud(values[:, t, :]) for t in range(values.shape[1])]
    return None if any(c is None for c in centers) else np.stack(centers)


# --------------------------------------------------------------- svgplot

# The SVG renderers as they stood with a per-point mapping object: every
# coordinate goes through a method call and its own f-string. The package
# maps whole arrays and formats whole rows, and must write the same bytes.

WIDTH, HEIGHT = 800.0, 500.0
MARGIN_LEFT, MARGIN_RIGHT, MARGIN_TOP, MARGIN_BOTTOM = 72.0, 24.0, 24.0, 56.0
INLIER_STROKE = "#8fa7bf"
OUTLIER_STROKE = "#d62728"
AXIS_STROKE = "#333333"
N_TICKS = 5

_HEADER = (
    '<?xml version="1.0" encoding="UTF-8"?>\n'
    f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
    f'width="{WIDTH:.0f}" height="{HEIGHT:.0f}" '
    f'viewBox="0 0 {WIDTH:.0f} {HEIGHT:.0f}">\n'
)


def _span(values: np.ndarray) -> tuple[float, float]:
    lo = float(np.min(values))
    hi = float(np.max(values))
    if hi == lo:
        lo, hi = lo - 1.0, hi + 1.0
    pad = 0.05 * (hi - lo)
    return lo - pad, hi + pad


class _Frame:
    """Maps data coordinates onto the fixed plot rectangle."""

    def __init__(self, x_span, y_span):
        self.x0, self.x1 = x_span
        self.y0, self.y1 = y_span
        self.px0 = MARGIN_LEFT
        self.px1 = WIDTH - MARGIN_RIGHT
        self.py0 = HEIGHT - MARGIN_BOTTOM
        self.py1 = MARGIN_TOP

    def x(self, v: float) -> float:
        return self.px0 + (v - self.x0) / (self.x1 - self.x0) * (self.px1 - self.px0)

    def y(self, v: float) -> float:
        return self.py0 + (v - self.y0) / (self.y1 - self.y0) * (self.py1 - self.py0)


def _axes(frame: _Frame, x_label: str, y_label: str) -> list:
    parts = [
        f'<line x1="{frame.px0:.2f}" y1="{frame.py0:.2f}" x2="{frame.px1:.2f}" '
        f'y2="{frame.py0:.2f}" stroke="{AXIS_STROKE}" stroke-width="1"/>',
        f'<line x1="{frame.px0:.2f}" y1="{frame.py0:.2f}" x2="{frame.px0:.2f}" '
        f'y2="{frame.py1:.2f}" stroke="{AXIS_STROKE}" stroke-width="1"/>',
    ]
    for value in np.linspace(frame.x0, frame.x1, N_TICKS):
        px = frame.x(float(value))
        parts.append(
            f'<line x1="{px:.2f}" y1="{frame.py0:.2f}" x2="{px:.2f}" '
            f'y2="{frame.py0 + 5:.2f}" stroke="{AXIS_STROKE}" stroke-width="1"/>'
        )
        parts.append(
            f'<text x="{px:.2f}" y="{frame.py0 + 18:.2f}" font-size="11" '
            f'text-anchor="middle" fill="{AXIS_STROKE}">{float(value):.4g}</text>'
        )
    for value in np.linspace(frame.y0, frame.y1, N_TICKS):
        py = frame.y(float(value))
        parts.append(
            f'<line x1="{frame.px0 - 5:.2f}" y1="{py:.2f}" x2="{frame.px0:.2f}" '
            f'y2="{py:.2f}" stroke="{AXIS_STROKE}" stroke-width="1"/>'
        )
        parts.append(
            f'<text x="{frame.px0 - 8:.2f}" y="{py + 4:.2f}" font-size="11" '
            f'text-anchor="end" fill="{AXIS_STROKE}">{float(value):.4g}</text>'
        )
    mid_x = (frame.px0 + frame.px1) / 2.0
    mid_y = (frame.py0 + frame.py1) / 2.0
    parts.append(
        f'<text x="{mid_x:.2f}" y="{HEIGHT - 14:.2f}" font-size="13" '
        f'text-anchor="middle" fill="{AXIS_STROKE}">{x_label}</text>'
    )
    parts.append(
        f'<text x="{18:.2f}" y="{mid_y:.2f}" font-size="13" text-anchor="middle" '
        f'fill="{AXIS_STROKE}" transform="rotate(-90 18 {mid_y:.2f})">{y_label}</text>'
    )
    return parts


def render_curves(sample: CurveSample, outliers: Sequence[int] = ()) -> str:
    """All curves as polylines, flagged rows highlighted and drawn on top."""
    values = sample.values
    t = sample.grid.points
    frame = _Frame(_span(t), _span(values))
    flagged = set(int(i) for i in outliers)
    parts = [_HEADER, f'<rect width="{WIDTH:.0f}" height="{HEIGHT:.0f}" fill="white"/>\n']
    parts.extend(line + "\n" for line in _axes(frame, "t", "value"))

    def polyline(row: int, stroke: str, width: float) -> str:
        pts = " ".join(
            f"{frame.x(float(t[j])):.2f},{frame.y(float(values[row, j])):.2f}"
            for j in range(t.size)
        )
        return (
            f'<polyline fill="none" stroke="{stroke}" stroke-width="{width:g}" '
            f'points="{pts}"/>\n'
        )

    for i in range(sample.n):
        if i not in flagged:
            parts.append(polyline(i, INLIER_STROKE, 1.0))
    for i in range(sample.n):
        if i in flagged:
            parts.append(polyline(i, OUTLIER_STROKE, 1.8))
    parts.append("</svg>\n")
    return "".join(parts)


def render_msplot(
    mo: np.ndarray, vo: np.ndarray, outliers: Sequence[int] = (), d: int = 1
) -> str:
    """Scatter of VO against MO (d = 1) or against ||MO|| otherwise."""
    mo = np.asarray(mo, dtype=float)
    if mo.ndim == 2:
        scalar_mo = mo[:, 0] if mo.shape[1] == 1 else np.sqrt((mo * mo).sum(axis=1))
    else:
        scalar_mo = mo
    vo = np.asarray(vo, dtype=float)
    x_label = "MO" if d == 1 else "||MO||"
    frame = _Frame(_span(scalar_mo), _span(vo))
    flagged = set(int(i) for i in outliers)
    parts = [_HEADER, f'<rect width="{WIDTH:.0f}" height="{HEIGHT:.0f}" fill="white"/>\n']
    parts.extend(line + "\n" for line in _axes(frame, x_label, "VO"))
    for i in range(scalar_mo.size):
        color = OUTLIER_STROKE if i in flagged else INLIER_STROKE
        parts.append(
            f'<circle cx="{frame.x(float(scalar_mo[i])):.2f}" '
            f'cy="{frame.y(float(vo[i])):.2f}" r="3.5" fill="{color}"/>\n'
        )
    parts.append("</svg>\n")
    return "".join(parts)
