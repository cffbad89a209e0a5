"""Command-line interface.

Subcommands: ``simulate`` writes a synthetic sample and its planted-outlier
truth file; ``detect`` runs a detector on CSV curves and writes a JSON
report (optionally an SVG); ``depth`` writes per-curve ordering scores;
``plot`` renders a stored report. Exit codes: 0 success, 2 invalid input,
3 numeric failure.

Flag defaults are read off the library function signatures, so the CLI can
never drift from the library defaults. The one exception is the ``--seed``
of ``detect`` and ``depth``, the CLI's own 0: the functions they call take a
``RandomSource``, not a seed.
"""

from __future__ import annotations

import argparse
import inspect
import os
import sys
from typing import Optional

import numpy as np

from . import detect as _detect
from .csvio import atomic_write_text, read_curves, write_curves, write_scores, write_truth
from .depths import ERLD_TYPES
from .errors import FdoutError, NumericError, ValidationError
from .fdcore import RandomSource
from .muod import MUOD_CUTS, muod as _muod
from .report import DetectionReport, to_external_indices
from .simmodels import simulation_model
from .svgplot import PLOT_KINDS, emit_plot

__all__ = ["main", "build_parser", "run_simulate", "run_detect", "run_depth", "run_plot"]

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_NUMERIC = 3

# failure class -> exit code, most specific first: a file that cannot be opened
# or decoded is invalid input, any other exception a fault in fdout
_EXIT_CODES = (
    (NumericError, EXIT_NUMERIC),
    (FdoutError, EXIT_VALIDATION),
    ((OSError, UnicodeDecodeError), EXIT_VALIDATION),
    (Exception, EXIT_NUMERIC),
)


def _default(func, name):
    return inspect.signature(func).parameters[name].default


# --header/--id-column value -> the read_curves argument
_TRISTATE = {"auto": "auto", "yes": True, "no": False}


def _add_csv_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--header", choices=list(_TRISTATE), default="auto",
                        help="whether the first CSV row holds grid points")
    parser.add_argument("--id-column", choices=list(_TRISTATE), default="auto",
                        help="whether the first CSV column holds curve ids")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fdout",
        description="Outlier detection for grid-sampled functional data.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    sim = sub.add_parser("simulate", help="generate a synthetic sample with planted outliers")
    sim.set_defaults(run=run_simulate)
    sim.add_argument("--model", type=int, required=True, help="model id, 1..9")
    sim.add_argument("--n", type=int, default=_default(simulation_model, "n"))
    sim.add_argument("--p", type=int, default=_default(simulation_model, "p"))
    sim.add_argument("--rate", type=float, default=_default(simulation_model, "outlier_rate"))
    sim.add_argument("--seed", type=int, default=_default(simulation_model, "seed"))
    sim.add_argument("--deterministic", action="store_true",
                     help="plant exactly ceil(n*rate) outliers at evenly spaced rows")
    sim.add_argument("--out", required=True, help="output directory for data.csv and truth.txt")

    det = sub.add_parser("detect", help="run a detector and write a JSON report")
    det.set_defaults(run=run_detect)
    det.add_argument("--method", required=True, choices=list(DETECTORS))
    det.add_argument("--in", dest="infile", required=True,
                     help="input CSV path, or one path per dimension, comma separated")
    det.add_argument("--report", required=True, help="output JSON report path")
    det.add_argument("--plot", default=None, help="optional SVG output path")
    det.add_argument("--plot-kind", choices=list(PLOT_KINDS), default="curves")
    det.add_argument("--seed", type=int, default=0, help="seed for randomised steps")
    det.add_argument("--level", type=float, default=_default(_detect.msplot, "level"),
                     help="msplot: flagging tail probability")
    det.add_argument("--factor-mss", type=float,
                     default=_default(_detect.tvdmss, "emp_factor_mss"),
                     help="tvdmss: boxplot factor on shape similarity")
    det.add_argument("--sequence", default=",".join(_default(_detect.seq_transform, "sequence")),
                     help=f"seq: comma-separated stages from {','.join(_detect.SEQ_STAGES)}")
    det.add_argument("--depth", default=_default(_detect.seq_transform, "depth_method"),
                     choices=list(_detect.DEPTH_METHODS),
                     help="seq/fbplot: ordering method")
    det.add_argument("--erld-type", default=_default(_detect.seq_transform, "erld_type"),
                     choices=ERLD_TYPES,
                     help="tail convention when --depth erld")
    det.add_argument("--central-region", type=float,
                     default=_default(_detect.functional_boxplot, "central_region"),
                     help="fbplot/seq/tvdmss: central region fraction")
    det.add_argument("--factor", type=float,
                     default=_default(_detect.functional_boxplot, "factor"),
                     help="fbplot/seq/tvdmss: fence factor")
    det.add_argument("--cut", default=_default(_muod, "cut_method"),
                     choices=MUOD_CUTS, help="muod: cutoff method")
    _add_csv_flags(det)

    dep = sub.add_parser("depth", help="write per-curve ordering scores as CSV")
    dep.set_defaults(run=run_depth)
    dep.add_argument("--method", required=True, choices=list(_detect.DEPTH_METHODS))
    dep.add_argument("--in", dest="infile", required=True)
    dep.add_argument("--out", required=True)
    dep.add_argument("--erld-type", default=_default(_detect.seq_transform, "erld_type"),
                     choices=ERLD_TYPES)
    dep.add_argument("--seed", type=int, default=0)
    _add_csv_flags(dep)

    plo = sub.add_parser("plot", help="render an SVG from data and a stored report")
    plo.set_defaults(run=run_plot)
    plo.add_argument("--in", dest="infile", required=True)
    plo.add_argument("--kind", choices=list(PLOT_KINDS), default="curves")
    plo.add_argument("--out", required=True)
    plo.add_argument("--report", default=None, help="JSON report with outliers to highlight")
    _add_csv_flags(plo)

    return parser


def _load_sample(args):
    paths = [p for p in args.infile.split(",") if p]
    return read_curves(paths, header=_TRISTATE[args.header], id_column=_TRISTATE[args.id_column])


def run_simulate(args) -> int:
    out = simulation_model(
        args.model,
        n=args.n,
        p=args.p,
        outlier_rate=args.rate,
        deterministic=args.deterministic,
        seed=args.seed,
    )
    os.makedirs(args.out, exist_ok=True)
    data_path = os.path.join(args.out, "data.csv")
    truth_path = os.path.join(args.out, "truth.txt")
    write_curves(data_path, out.data)
    write_truth(truth_path, out.true_outliers)
    print(f"wrote {data_path} ({out.data.n}x{out.data.p}) and "
          f"{truth_path} ({out.true_outliers.size} outliers)")
    return EXIT_OK


def _detect_msplot(args, sample):
    res = _detect.msplot(sample, level=args.level, rng=RandomSource(args.seed))
    diagnostics = {
        "mo": res.mo,
        "vo": res.vo,
        "distances": res.distances,
        "cutoff_threshold": res.cutoff.threshold,
        "cutoff_dof": [res.cutoff.dof1, res.cutoff.dof2],
    }
    parameters = {"level": args.level, "seed": args.seed}
    return parameters, {"all": res.outliers}, diagnostics, ()


def _detect_tvdmss(args, sample):
    parameters = {"emp_factor_mss": args.factor_mss,
                  "emp_factor_tvd": args.factor,
                  "central_region_tvd": args.central_region}
    _detect.check_fences(args.factor, args.central_region)
    res = _detect.tvdmss(sample, **parameters)
    outliers = {"all": res.outliers, "shape": res.shape_outliers,
                "magnitude": res.magnitude_outliers}
    return parameters, outliers, {"tvd": res.tvd, "mss": res.mss}, ()


def _detect_seq(args, sample):
    stages = [s for s in args.sequence.split(",") if s]
    res = _detect.seq_transform(
        sample, stages,
        depth_method=args.depth,
        erld_type=args.erld_type,
        rng=RandomSource(args.seed),
        central_region=args.central_region,
        factor=args.factor,
    )
    parameters = {"sequence": stages, "depth": args.depth,
                  "erld_type": args.erld_type, "seed": args.seed,
                  "central_region": args.central_region, "factor": args.factor}
    union = np.unique(np.concatenate([stage.outliers for stage in res.stages]))
    diagnostics = {
        "stages": [
            {"label": s.label, "outliers": to_external_indices(s.outliers)}
            for s in res.stages
        ],
        "new_per_stage": [
            {"label": label, "outliers": to_external_indices(idx)}
            for label, idx in _detect.stage_set_differences(res)
        ],
    }
    return parameters, {"all": union}, diagnostics, res.warnings


def _detect_muod(args, sample):
    flags, indices = _muod(sample, cut_method=args.cut)
    outliers = {
        "all": np.union1d(np.union1d(flags.shape, flags.magnitude), flags.amplitude),
        "shape": flags.shape,
        "magnitude": flags.magnitude,
        "amplitude": flags.amplitude,
    }
    diagnostics = {
        "index_shape": indices.shape,
        "index_magnitude": indices.magnitude,
        "index_amplitude": indices.amplitude,
    }
    return {"cut": args.cut}, outliers, diagnostics, ()


def _detect_fbplot(args, sample):
    if sample.d > 1:
        raise ValidationError(
            f"fbplot needs univariate curves, got d={sample.d}; "
            "use msplot, or seq with a leading O stage"
        )
    _detect.check_fences(args.factor, args.central_region)
    depth = _detect.depth_by_name(
        sample, args.depth, erld_type=args.erld_type, rng=RandomSource(args.seed)
    )
    res = _detect.functional_boxplot(
        sample, depth, central_region=args.central_region, factor=args.factor
    )
    parameters = {"depth": args.depth, "erld_type": args.erld_type,
                  "central_region": args.central_region, "factor": args.factor}
    diagnostics = {
        "depth": res.depth.scores,
        "depth_direction": res.depth.direction,
        "central": to_external_indices(res.central_indices),
        "envelope_lower": res.envelope_lower,
        "envelope_upper": res.envelope_upper,
        "fence_lower": res.fence_lower,
        "fence_upper": res.fence_upper,
    }
    return parameters, {"all": res.outliers}, diagnostics, ()


# --method -> adapter(args, sample) returning the resolved parameters, the
# 0-based outlier classes, the diagnostics and the warnings of one detector
DETECTORS = {
    "msplot": _detect_msplot,
    "tvdmss": _detect_tvdmss,
    "seq": _detect_seq,
    "muod": _detect_muod,
    "fbplot": _detect_fbplot,
}


def run_detect(args) -> int:
    sample = _load_sample(args)
    if args.plot:
        check_plot, _render = PLOT_KINDS[args.plot_kind]
        check_plot(args.method, sample)
    parameters, outliers, diagnostics, warnings = DETECTORS[args.method](args, sample)
    if not sample.grid.is_uniform:
        warnings = (*warnings, "grid spacing is non-uniform; summaries that average "
                    "over the grid treat all points equally")
    report = DetectionReport(
        method=args.method,
        parameters=parameters,
        n=sample.n, p=sample.p, d=sample.d,
        outliers={name: to_external_indices(idx) for name, idx in outliers.items()},
        diagnostics=diagnostics,
        warnings=tuple(warnings),
    )
    atomic_write_text(args.report, report.to_json())
    if args.plot:
        emit_plot(report, sample, args.plot_kind, args.plot)
    return EXIT_OK


def run_depth(args) -> int:
    sample = _load_sample(args)
    depth = _detect.depth_by_name(
        sample, args.method, erld_type=args.erld_type, rng=RandomSource(args.seed)
    )
    write_scores(args.out, depth.scores, sample.ids)
    return EXIT_OK


def run_plot(args) -> int:
    sample = _load_sample(args)
    if args.report is not None:
        with open(args.report, "r", encoding="utf-8") as handle:
            report = DetectionReport.from_json(handle.read())
    else:
        report = DetectionReport(method="none", n=sample.n, p=sample.p, d=sample.d,
                                 outliers={"all": []})
    emit_plot(report, sample, args.kind, args.out)
    return EXIT_OK


def _report_failure(args, exc: Exception, code: int) -> int:
    """Print the failure and, for detect, write a best-effort error report so
    pipelines can inspect it."""
    print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
    if args.subcommand == "detect":
        report = DetectionReport(method=args.method,
                                 error={"type": type(exc).__name__, "message": str(exc)})
        try:
            atomic_write_text(args.report, report.to_json())
        except OSError:
            pass
    return code


def main(argv: Optional[list] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.run(args)
    except Exception as exc:
        code = next(code for kinds, code in _EXIT_CODES if isinstance(exc, kinds))
        return _report_failure(args, exc, code)


if __name__ == "__main__":
    sys.exit(main())
