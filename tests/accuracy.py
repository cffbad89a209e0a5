"""Detection-accuracy table of the five detectors over simulation models 1-9.

Each detector runs as ``fdout detect`` runs it with its default options, on
samples of simulation model 1..9 at 100 x 50: one with 10 % planted
outliers (``deterministic=True``) and one clean sample per seed. msplot runs
at the level of acceptance criterion 5 (0.01) and with the data seed as
its ``--seed``, on the univariate sample (d = 1) and on a bivariate one
(d = 2) whose second coordinate is a draw of the same model, with the same
planted rows, at seed + 1000000. The table holds, per (method, model), the
counts of flagged planted outliers (tp), flagged inliers of the planted
samples (fp) and flagged curves of the clean samples (clean_fp), and their
rates with 95 % Wilson intervals.

    python tests/accuracy.py --out ACCURACY_36.json   # write the table
    python tests/accuracy.py --seeds 20 --check ACCURACY_36.json
    python tests/accuracy.py --digest                 # one sha256 per cell

``--check`` exits 1 unless the counts over the first ``--seeds`` seeds
equal those the table stores for that many seeds (20 and the full run).
``--digest`` hashes every report of a cell, diagnostics included, so two
commits whose digests match give the same reports bit for bit. Simulated
data follow the BLAS thread count, so run with one BLAS thread
(``OPENBLAS_NUM_THREADS=1``), as the table was made.
"""

import argparse
import copy
import hashlib
import json
import math
import os
import platform
import sys

import numpy as np
import scipy

from fdout import cli
from fdout.fdcore import MultiCurveSample
from fdout.report import to_external_indices
from fdout.simmodels import simulation_model

N, P, RATE = 100, 50, 0.1
MODELS = range(1, 10)
MSPLOT_LEVEL = 0.01
SECOND_COORDINATE_SEED = 1000000
SEEDS_CHECKED_IN_TIER1 = 20
# (label, --method, dimension of the curves)
METHODS = (
    ("msplot d=1", "msplot", 1),
    ("msplot d=2", "msplot", 2),
    ("tvdmss", "tvdmss", 1),
    ("seq", "seq", 1),
    ("muod", "muod", 1),
    ("fbplot", "fbplot", 1),
)
WILSON_Z = 1.959963984540054  # the normal 0.975 quantile


def _sample(model, seed, rate, d):
    """A d-variate sample: d draws of one model with the same planted rows."""
    draws = [simulation_model(model, n=N, p=P, outlier_rate=rate, deterministic=True,
                              seed=seed + j * SECOND_COORDINATE_SEED) for j in range(d)]
    if d == 1:
        return draws[0].data, draws[0].true_outliers
    values = np.stack([draw.data.values for draw in draws], axis=2)
    return MultiCurveSample(values, draws[0].data.grid), draws[0].true_outliers


def _report(parser, method, sample, seed):
    """The report that ``fdout detect --method METHOD`` writes for ``sample``."""
    args = parser.parse_args(
        ["detect", "--method", method, "--in", "-", "--report", "-",
         "--level", str(MSPLOT_LEVEL), "--seed", str(seed)])
    return cli._detection_report(args, sample)


def run(seeds, snapshots=(), digest=False):
    """Counts [tp, fp, clean_fp] per label and model over seeds
    0..seeds-1, the same after each number of seeds in ``snapshots``, and
    with ``digest`` one sha256 per label and model over its reports in
    order."""
    parser = cli.build_parser()
    counts = {label: {str(model): [0, 0, 0] for model in MODELS} for label, _, _ in METHODS}
    hashes = {label: {str(model): hashlib.sha256() for model in MODELS}
              for label, _, _ in METHODS}
    taken = {}
    for seed in range(seeds):
        # models whose clean samples are the same share their reports
        clean_reports = {}
        for model in MODELS:
            samples = {d: (_sample(model, seed, RATE, d), _sample(model, seed, 0.0, d))
                       for d in {d for _, _, d in METHODS}}
            for label, method, d in METHODS:
                (planted, truth), (clean, _) = samples[d]
                key = (label, clean.values.tobytes())
                if key not in clean_reports:
                    clean_reports[key] = _report(parser, method, clean, seed)
                found = []
                for report in (_report(parser, method, planted, seed), clean_reports[key]):
                    if digest:
                        hashes[label][str(model)].update(report.to_json().encode())
                    found.append(set(report.outliers["all"]))
                truth = set(to_external_indices(truth))
                cell = counts[label][str(model)]
                cell[0] += len(found[0] & truth)
                cell[1] += len(found[0] - truth)
                cell[2] += len(found[1])
        if seed + 1 in snapshots:
            taken[seed + 1] = copy.deepcopy(counts)
    digests = {label: {model: h.hexdigest() for model, h in cells.items()}
               for label, cells in hashes.items()}
    return counts, taken, digests


def wilson(k, n):
    """[k / n, low, high]: the rate and its 95 % Wilson score interval."""
    p = k / n
    denom = 1.0 + WILSON_Z ** 2 / n
    centre = (p + WILSON_Z ** 2 / (2 * n)) / denom
    half = WILSON_Z * math.sqrt(p * (1 - p) / n + WILSON_Z ** 2 / (4 * n * n)) / denom
    return [round(p, 6), round(max(0.0, centre - half), 6), round(min(1.0, centre + half), 6)]


def table(seeds, counts, snapshots, out):
    positives = math.ceil(N * RATE) * seeds
    rates = {
        label: {model: {"tpr": wilson(tp, positives),
                        "fpr": wilson(fp, N * seeds - positives),
                        "clean_fpr": wilson(clean_fp, N * seeds)}
                for model, (tp, fp, clean_fp) in cells.items()}
        for label, cells in counts.items()}
    return {
        "about": __doc__.split("\n\n")[1].replace("\n", " "),
        "command": (f"OPENBLAS_NUM_THREADS=1 python tests/accuracy.py --seeds {seeds} "
                    f"--out {os.path.basename(out)}"),
        "settings": {"n": N, "p": P, "outlier_rate": RATE, "msplot_level": MSPLOT_LEVEL,
                     "models": list(MODELS), "seeds": seeds,
                     "planted_per_sample": math.ceil(N * RATE)},
        "versions": {"python": platform.python_version(), "numpy": np.__version__,
                     "scipy": scipy.__version__},
        "rates": rates,
        "counts": {str(k): v for k, v in {**snapshots, seeds: counts}.items()},
    }


def _dumps(obj, indent=0):
    """JSON with sorted keys and one line for each dict that holds no dict."""
    if not isinstance(obj, dict) or not any(isinstance(v, dict) for v in obj.values()):
        return json.dumps(obj, sort_keys=True)
    pad = " " * (indent + 1)
    lines = ",\n".join(f"{pad}{json.dumps(key)}: {_dumps(value, indent + 1)}"
                        for key, value in sorted(obj.items()))
    return "{\n" + lines + "\n" + " " * indent + "}"


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=int, default=200, help="seeds 0..SEEDS-1")
    parser.add_argument("--out", help="write the table to this JSON file")
    parser.add_argument("--check",
                        help="compare the counts with this table's; exit 1 if any differ")
    parser.add_argument("--digest", action="store_true", help="print one sha256 per cell")
    args = parser.parse_args(argv)
    if args.seeds < 1:
        parser.error("--seeds must be at least 1")
    snapshots = {SEEDS_CHECKED_IN_TIER1} if args.seeds > SEEDS_CHECKED_IN_TIER1 else set()
    counts, taken, digests = run(args.seeds, snapshots, args.digest)
    if args.digest:
        for label, cells in digests.items():
            for model, digest in cells.items():
                print(f"{label:<11} model {model}  {digest}")
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(_dumps(table(args.seeds, counts, taken, args.out)) + "\n")
    if args.check:
        with open(args.check, encoding="utf-8") as handle:
            stored = json.load(handle)["counts"].get(str(args.seeds))
        if stored is None:
            print(f"{args.check} stores no counts for {args.seeds} seeds", file=sys.stderr)
            return 1
        differ = [f"{label} model {model}: {cell} against {stored[label][model]}"
                  for label, cells in counts.items() for model, cell in cells.items()
                  if cell != stored[label][model]]
        for line in differ:
            print(line, file=sys.stderr)
        return 1 if differ else 0
    return 0


if __name__ == "__main__":
    sys.exit(main())
