"""Outlier detection for grid-sampled functional data.

Curves live in :class:`CurveSample` (univariate) or
:class:`MultiCurveSample` (vector-valued); detectors in :mod:`fdout.detect`
and :mod:`fdout.muod` flag magnitude, shape and amplitude outliers; the
building blocks (depth notions, robust multivariate statistics, directional
outlyingness, total variation depth) are importable on their own.
"""

from .depths import (
    DEEPER_IS_LARGER,
    OUTLYING_IS_LARGER,
    DepthVector,
    band_depth,
    directional_quantile,
    extremal_depth,
    extreme_rank_length,
    linfinity_depth,
    modified_band_depth,
)
from .detect import (
    DEPTH_METHODS,
    SEQ_STAGES,
    FunctionalBoxplotResult,
    MsplotResult,
    SeqTransformResult,
    TvdmssResult,
    depth_by_name,
    functional_boxplot,
    msplot,
    o_transform,
    seq_transform,
    stage_set_differences,
    tvdmss,
)
from .dirout import (
    DirectionalOutlyingnessField,
    OutlyingnessDecomposition,
    decompose,
    directional_outlyingness,
    pointwise_sdo,
)
from .errors import FdoutError, NumericError, ValidationError
from .fdcore import (
    CurveSample,
    Grid,
    MultiCurveSample,
    RandomSource,
    as_multivariate,
    as_univariate,
    ensure_valid,
    uniform_grid,
)
from .muod import (
    MuodIndices,
    MuodOutliers,
    muod,
    muod_cutoff_boxplot,
    muod_cutoff_tangent,
    muod_indices,
)
from .robust import (
    FCutoff,
    McdFit,
    RobustLocationScale,
    fast_mcd,
    geometric_median,
    hardin_rocke_cutoff,
    median_mad,
    robust_distances,
)
from .simmodels import GaussianProcessSpec, SimulationOutput, gp_sample, simulation_model
from .tvd import modified_shape_similarity, total_variation_depth

__version__ = "0.1.0"

__all__ = [
    "__version__",
    "Grid",
    "CurveSample",
    "MultiCurveSample",
    "RandomSource",
    "uniform_grid",
    "ensure_valid",
    "as_univariate",
    "as_multivariate",
    "FdoutError",
    "ValidationError",
    "NumericError",
    "DepthVector",
    "DEEPER_IS_LARGER",
    "OUTLYING_IS_LARGER",
    "band_depth",
    "modified_band_depth",
    "extreme_rank_length",
    "directional_quantile",
    "linfinity_depth",
    "extremal_depth",
    "RobustLocationScale",
    "McdFit",
    "FCutoff",
    "median_mad",
    "geometric_median",
    "fast_mcd",
    "robust_distances",
    "hardin_rocke_cutoff",
    "DirectionalOutlyingnessField",
    "OutlyingnessDecomposition",
    "pointwise_sdo",
    "directional_outlyingness",
    "decompose",
    "total_variation_depth",
    "modified_shape_similarity",
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
    "MuodIndices",
    "MuodOutliers",
    "muod_indices",
    "muod_cutoff_boxplot",
    "muod_cutoff_tangent",
    "muod",
    "GaussianProcessSpec",
    "SimulationOutput",
    "gp_sample",
    "simulation_model",
]
