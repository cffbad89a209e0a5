"""Outlier detectors for functional samples.

Four families: the functional boxplot (fences around the envelope of the
deepest curves), the magnitude-shape plot (robust distances of per-curve
mean and variation of directional outlyingness), the TVD/MSS two-stage
procedure (shape outliers by a boxplot on shape similarity, then magnitude
outliers by a functional boxplot on total variation depth), and sequential
transformations (detect after each of a pipeline of normalising or
differencing transforms).
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import depths as _depths
from .depths import DEEPER_IS_LARGER, OUTLYING_IS_LARGER, DepthVector, erld_tail
from .dirout import decompose, directional_outlyingness, pointwise_sdo
from .errors import (
    BadCentralRegion,
    EmptySequence,
    NonFiniteOutlyingness,
    NonFiniteResult,
    NonFiniteValue,
    OOnUnivariate,
    ShapeMismatch,
    TooFewPoints,
    UnknownDepthMethod,
    ValidationError,
)
from .fdcore import (
    AnySample,
    CurveSample,
    Grid,
    RandomSource,
    as_univariate,
    curve_values,
    ensure_valid,  # noqa: F401 -- unused here, but perfbench/tracer.py wraps it
    least_curves,
    power_of_two_scaled,
)
from .robust import (FCutoff, check_coverage, check_level, fast_mcd, hardin_rocke_cutoff,
                     robust_distances)
from .tvd import modified_shape_similarity, total_variation_depth

__all__ = [
    "FunctionalBoxplotResult",
    "MsplotResult",
    "TvdmssResult",
    "SeqTransformResult",
    "DEPTH_METHODS",
    "SEQ_STAGES",
    "depth_by_name",
    "functional_boxplot",
    "msplot",
    "tvdmss",
    "o_transform",
    "seq_transform",
    "stage_set_differences",
]

@dataclass(frozen=True, eq=False)
class FunctionalBoxplotResult:
    depth: DepthVector
    central_indices: np.ndarray
    envelope_lower: np.ndarray
    envelope_upper: np.ndarray
    fence_lower: np.ndarray
    fence_upper: np.ndarray
    outliers: np.ndarray


@dataclass(frozen=True, eq=False)
class MsplotResult:
    outliers: np.ndarray
    mo: np.ndarray
    vo: np.ndarray
    distances: np.ndarray
    cutoff: FCutoff


@dataclass(frozen=True, eq=False)
class TvdmssResult:
    shape_outliers: np.ndarray
    magnitude_outliers: np.ndarray
    outliers: np.ndarray
    tvd: np.ndarray
    mss: np.ndarray


@dataclass(frozen=True, eq=False)
class SeqStage:
    label: str
    outliers: np.ndarray
    sample: Optional[AnySample]


@dataclass(frozen=True, eq=False)
class SeqTransformResult:
    stages: tuple
    warnings: tuple


# name -> (op of the kernel it runs, ordering(sample, erld_type, rng)). Entries
# look their kernels up when called, so a replaced module attribute is seen.
_DEPTHS = {
    "bd": ("band_depth", lambda s, erld_type, rng: _depths.band_depth(s)),
    "mbd": ("modified_band_depth", lambda s, erld_type, rng: _depths.modified_band_depth(s)),
    "erld": ("extreme_rank_length", lambda s, erld_type, rng: _depths.extreme_rank_length(
        s, type=erld_type)),
    "dq": ("directional_quantile", lambda s, erld_type, rng: _depths.directional_quantile(s)),
    "linf": ("linfinity_depth", lambda s, erld_type, rng: _depths.linfinity_depth(s)),
    "ed": ("extremal_depth", lambda s, erld_type, rng: _depths.extremal_depth(s)),
    "tvd": ("total_variation_depth", lambda s, erld_type, rng: DepthVector(
        total_variation_depth(s), DEEPER_IS_LARGER, "tvd")),
    # robust distance of the MO/VO summary: the only ordering for d > 1
    "rmd": ("msplot", lambda s, erld_type, rng: DepthVector(
        msplot(s, rng=rng).distances, OUTLYING_IS_LARGER, "rmd")),
}
DEPTH_METHODS = tuple(_DEPTHS)


def _depth_entry(method: str) -> tuple:
    """The ``_DEPTHS`` entry of ``method``; UnknownDepthMethod for any other name."""
    if method not in DEPTH_METHODS:
        raise UnknownDepthMethod(f"unknown depth method {method!r}")
    return _DEPTHS[method]


def depth_by_name(
    sample: AnySample,
    method: str,
    erld_type: Optional[str] = None,
    rng: Optional[RandomSource] = None,
) -> DepthVector:
    """Ordering scores for a sample under a named method.

    Univariate methods: bd, mbd, erld, dq, linf, ed, tvd. The rmd method
    orders by the robust distance of the (MO, VO) summary and works for any
    dimension (it is the only choice for multivariate data).
    """
    return _depth_entry(method)[1](sample, erld_type, rng)


def check_fences(factor: float, central_region: float,
                 factor_name: str = "factor", region_name: str = "central_region") -> None:
    """The rule for a functional boxplot's fence parameters, each named in
    its message: the central region lies in (0, 1) and the factor is
    positive and finite."""
    if not 0.0 < central_region < 1.0:
        raise BadCentralRegion(f"{region_name} must lie in (0, 1), got {central_region}")
    if not 0.0 < factor < math.inf:
        raise ValidationError(f"{factor_name} must be positive and finite, got {factor}")


def functional_boxplot(
    sample: AnySample,
    depth: DepthVector,
    central_region: float = 0.5,
    factor: float = 1.5,
    central_count: Optional[int] = None,
) -> FunctionalBoxplotResult:
    """Flag curves leaving the inflated envelope of the deepest curves.

    The central region is the pointwise envelope of the ceil(n * central_region)
    deepest curves (``central_count`` overrides that count); fences sit
    ``factor`` times the envelope width beyond it, and any curve strictly
    outside a fence anywhere is an outlier.
    """
    values = curve_values(sample, "functional_boxplot")
    n = values.shape[0]
    if len(depth) != n:
        raise ShapeMismatch(f"depth has {len(depth)} scores for {n} curves")
    check_fences(factor, central_region)
    if central_count is None:
        central_count = math.ceil(n * central_region)
    if not 1 <= central_count <= n:
        raise BadCentralRegion(
            f"central count {central_count} outside 1..{n}"
        )

    scores = depth.as_deeper_is_larger().scores
    order = np.argsort(-scores, kind="stable")
    central = np.sort(order[:central_count])
    envelope_lower = values[central].min(axis=0)
    envelope_upper = values[central].max(axis=0)
    with np.errstate(over="ignore"):  # reported just below
        spread = envelope_upper - envelope_lower
        width = factor * spread
        fence_lower = envelope_lower - width
        fence_upper = envelope_upper + width
    if not (np.isfinite(fence_lower).all() and np.isfinite(fence_upper).all()):
        cause = (f"factor {factor!r} times the envelope width is not finite"
                 if np.isfinite(spread).all() and not np.isfinite(width).all()
                 else "the curves are too large")
        raise NonFiniteResult(f"functional boxplot fences overflow: {cause}")
    exceed = (values > fence_upper[None, :]) | (values < fence_lower[None, :])
    return FunctionalBoxplotResult(
        depth=depth,
        central_indices=central,
        envelope_lower=envelope_lower,
        envelope_upper=envelope_upper,
        fence_lower=fence_lower,
        fence_upper=fence_upper,
        outliers=np.flatnonzero(exceed.any(axis=1)),
    )


_NON_FINITE_OUTLYINGNESS = (
    (np.isinf, "infinite where the pointwise MAD is zero and some curves are off the median"),
    (np.isnan, "NaN where deviations from the pointwise median overflow"),
)


def _check_finite_outlyingness(sdo: np.ndarray) -> None:
    """Raise NonFiniteOutlyingness naming the grid points where outlyingness
    is infinite (zero pointwise MAD) or NaN (overflowing deviations)."""
    for test, where in _NON_FINITE_OUTLYINGNESS:
        points = np.flatnonzero(test(sdo).any(axis=0))
        if points.size:
            raise NonFiniteOutlyingness(
                f"outlyingness is {where}: grid points {points.tolist()} (0-based)"
            )


def msplot(
    sample: AnySample,
    level: float = 0.05,
    coverage: Optional[float] = None,
    rng: Optional[RandomSource] = None,
) -> MsplotResult:
    """Magnitude-shape plot detection.

    Stacks the mean directional outlyingness MO (d columns) and its
    variation VO into an n x (d+1) cloud, fits a minimum covariance
    determinant estimate, and flags curves whose squared robust distance
    exceeds the F-approximation threshold at ``level``. A summary that
    overflows raises NonFiniteResult naming its curves.
    """
    n, d = curve_values(sample, "msplot", univariate=False).shape[0], sample.d
    check_level(level)
    check_coverage(coverage)
    if rng is None:
        rng = RandomSource(0)
    field = directional_outlyingness(sample, rng=rng.child(0))
    _check_finite_outlyingness(field.sdo)
    summary = decompose(field)
    points = np.hstack([summary.mo, summary.vo[:, None]])
    overflowed = np.flatnonzero(~np.isfinite(points).all(axis=1))
    if overflowed.size:
        raise NonFiniteResult(
            f"the MO/VO summary overflows for curves {overflowed.tolist()} (0-based)")
    fit = fast_mcd(points, coverage=coverage, rng=rng.child(1))
    distances = robust_distances(points, fit)
    cutoff = hardin_rocke_cutoff(n, d + 1, coverage=fit.coverage_fraction, level=level)
    return MsplotResult(
        outliers=np.flatnonzero(distances > cutoff.threshold),
        mo=summary.mo,
        vo=summary.vo,
        distances=distances,
        cutoff=cutoff,
    )


def tvdmss(
    sample: AnySample,
    emp_factor_mss: float = 1.5,
    emp_factor_tvd: float = 1.5,
    central_region_tvd: float = 0.5,
) -> TvdmssResult:
    """Two-stage shape/magnitude detection via TVD and shape similarity.

    Shape outliers fall below the lower boxplot fence of the MSS values
    and are removed; a functional boxplot ordered by the total variation
    depth of the remaining curves (central size relative to the original
    n) flags magnitude outliers.
    """
    values = curve_values(sample, "tvdmss")
    n = values.shape[0]
    if not 0.0 <= emp_factor_mss < math.inf:
        raise ValidationError(
            f"emp_factor_mss must be non-negative and finite, got {emp_factor_mss}")
    check_fences(emp_factor_tvd, central_region_tvd, "emp_factor_tvd", "central_region_tvd")
    tvd_scores = total_variation_depth(sample)
    mss_scores = modified_shape_similarity(sample)

    q1, q3 = np.percentile(mss_scores, [25.0, 75.0])
    shape = np.flatnonzero(mss_scores < q1 - emp_factor_mss * (q3 - q1))

    # the fence is at most q1, so the curve of largest MSS is always kept
    keep = np.setdiff1d(np.arange(n), shape)
    remainder = CurveSample(values[keep], sample.grid)
    depth = DepthVector(total_variation_depth(remainder), DEEPER_IS_LARGER, "tvd")
    central_count = min(math.ceil(n * central_region_tvd), keep.size)
    box = functional_boxplot(remainder, depth, factor=emp_factor_tvd, central_count=central_count)
    magnitude = keep[box.outliers]

    return TvdmssResult(
        shape_outliers=shape,
        magnitude_outliers=magnitude,
        outliers=np.union1d(shape, magnitude),
        tvd=tvd_scores,
        mss=mss_scores,
    )


def o_transform(sample: AnySample, rng: Optional[RandomSource] = None) -> CurveSample:
    """Univariate sample of pointwise outlyingness magnitudes (all >= 0).

    Raises NonFiniteOutlyingness where the pointwise MAD is zero and some
    curve is off the median, or where deviations overflow to NaN.
    """
    magnitudes = pointwise_sdo(sample, rng=rng)
    _check_finite_outlyingness(magnitudes)
    return CurveSample(magnitudes, sample.grid, ids=sample.ids)


def _center_rows(sample: CurveSample) -> tuple[CurveSample, list]:
    values = sample.values
    scaled, exponents = power_of_two_scaled(values, axis=1)
    with np.errstate(over="ignore"):  # seq_transform names the stage that overflows
        centered = values - np.ldexp(scaled.mean(axis=1, keepdims=True), exponents)
    return CurveSample(centered, sample.grid, ids=sample.ids), []


def _normalise_rows(sample: CurveSample) -> tuple[CurveSample, list]:
    values, _exponents = power_of_two_scaled(sample.values, axis=1)
    rms = np.sqrt((values * values).mean(axis=1))
    degenerate = np.flatnonzero(rms == 0.0)
    safe = np.where(rms > 0.0, rms, 1.0)
    out = values / safe[:, None]
    warnings = []
    if degenerate.size:
        warnings.append(
            f"normalisation left zero-norm curves as zeros: rows {degenerate.tolist()}"
        )
    return CurveSample(out, sample.grid, ids=sample.ids), warnings


def _difference_rows(sample: CurveSample) -> tuple[CurveSample, list]:
    with np.errstate(over="ignore"):  # seq_transform names the stage that overflows
        values = np.diff(sample.values, axis=1)
    grid = Grid(sample.grid.points[1:])
    return CurveSample(values, grid, ids=sample.ids), []


# stage -> (needs d > 1 curves, grid points it drops,
#           transform(sample, rng) -> (sample, warnings));
# every stage but O needs univariate curves
_SEQ_TRANSFORMS = {
    "T0": (False, 0, lambda sample, rng: (sample, [])),
    "D0": (False, 0, lambda sample, rng: (sample, [])),
    "T1": (False, 0, lambda sample, rng: _center_rows(sample)),
    "T2": (False, 0, lambda sample, rng: _normalise_rows(sample)),
    "D1": (False, 1, lambda sample, rng: _difference_rows(sample)),
    "D2": (False, 1, lambda sample, rng: _difference_rows(sample)),
    "O": (True, 0, lambda sample, rng: (o_transform(sample, rng=rng), [])),
}
SEQ_STAGES = tuple(_SEQ_TRANSFORMS)


def seq_transform(
    sample: AnySample,
    sequence=("T0", "T1", "T2"),
    depth_method: str = "mbd",
    erld_type: Optional[str] = None,
    save_data: bool = False,
    rng: Optional[RandomSource] = None,
    central_region: float = 0.5,
    factor: float = 1.5,
) -> SeqTransformResult:
    """Detect outliers after each transformation in ``sequence``.

    Stages: T0/D0 detect on the data as it stands; T1 subtracts each
    curve's grid mean; T2 divides each curve by its root-mean-square over
    the grid (zero-norm curves stay zero, with a warning); D1/D2 take
    lag-1 differences, dropping the first grid point; O replaces
    multivariate curves by their pointwise outlyingness magnitudes. A stage
    whose output overflows raises NonFiniteResult naming it.

    The whole plan is checked before the first stage runs, in this order: stage
    names, ``depth_method``, fences, each stage's dimension (O only first, on d > 1
    curves; every other stage on univariate ones), grid length (each D1/D2 drops a
    point, and 2 must remain; TooFewPoints names the stage), ``erld_type`` for erld,
    and the least number of curves (``LEAST_CURVES``) of an O stage and the ordering.

    Every stage's raw flag set comes from a functional boxplot under
    ``depth_method``; no curves are removed between stages. Use
    :func:`stage_set_differences` for first-flagged-at classification.
    """
    sequence = list(sequence)
    if not sequence:
        raise EmptySequence("sequence must name at least one stage")
    for name in sequence:
        if name not in SEQ_STAGES:
            raise ValidationError(
                f"unknown stage {name!r}; stages are {', '.join(SEQ_STAGES)}"
            )
    ordering = _depth_entry(depth_method)[0]
    check_fences(factor, central_region)
    d, p = sample.d, sample.p
    for position, name in enumerate(sequence, start=1):
        needs_multivariate, dropped, _ = _SEQ_TRANSFORMS[name]
        if needs_multivariate and d == 1:
            raise OOnUnivariate(f"the {name} stage needs multivariate curves")
        if d > 1 and not needs_multivariate:
            raise ValidationError(
                f"stage {name} needs univariate curves; apply an O stage first"
            )
        d, p = 1, p - dropped
        if p < 2:
            raise TooFewPoints(f"stage {name} at position {position} leaves {p} grid point; "
                               "curves need at least 2")
    if depth_method == "erld":
        erld_tail(erld_type)
    if sequence[0] == "O":
        least_curves("pointwise_sdo", sample.n)
    least_curves(ordering, sample.n)  # every ordering runs on univariate curves
    if rng is None:
        rng = RandomSource(0)

    counts, seen = Counter(sequence), Counter()
    duplicated = sorted(name for name, count in counts.items() if count > 1)
    warnings = ([f"duplicate stage names {duplicated} relabelled with numeric suffixes"]
                if duplicated else [])
    current = sample if sample.d > 1 else as_univariate(sample)
    stages = []
    for position, name in enumerate(sequence):
        seen[name] += 1
        label = f"{name}_{seen[name]}" if counts[name] > 1 else name
        stage_rng = rng.child(position)
        try:
            current, extra = _SEQ_TRANSFORMS[name][2](current, stage_rng.child(0))
        except NonFiniteValue as exc:
            # the stage's input is a checked sample, so its output overflowed
            raise NonFiniteResult(
                f"stage {label} overflows: its output at ({exc.row}, {exc.col}) is not finite"
            ) from None
        warnings.extend(extra)

        depth = depth_by_name(
            current, depth_method, erld_type=erld_type, rng=stage_rng.child(1)
        )
        box = functional_boxplot(
            current, depth, central_region=central_region, factor=factor
        )
        stages.append(
            SeqStage(
                label=label,
                outliers=box.outliers,
                sample=current if save_data else None,
            )
        )
    return SeqTransformResult(stages=tuple(stages), warnings=tuple(warnings))


def stage_set_differences(result: SeqTransformResult):
    """(label, newly flagged indices) per stage: the stage set minus all
    earlier stage sets, the classification arithmetic of the sequential
    procedure."""
    seen = np.array([], dtype=np.intp)
    out = []
    for stage in result.stages:
        new = np.setdiff1d(stage.outliers, seen)
        out.append((stage.label, new))
        seen = np.union1d(seen, stage.outliers)
    return out
