"""Acceptance gate: nine end-to-end criteria, one PASS/FAIL line each.

Criterion 5's detection-power thresholds were calibrated with a pilot run
before the suite was written; the recorded magnitude-shape operating point
is level=0.01 (the library default of 0.05 admits more false positives on
clean data because the variation component is right skewed).
"""

import json
import os
import subprocess
import sys
import time

import numpy as np
import pytest

from fdout.depths import (
    band_depth,
    linfinity_depth,
    modified_band_depth,
)
from fdout.detect import functional_boxplot, msplot, seq_transform, tvdmss
from fdout.dirout import decompose, directional_outlyingness
from fdout.fdcore import RandomSource
from fdout.muod import muod, muod_indices
from fdout.report import to_external_indices
from fdout.robust import fast_mcd, hardin_rocke_cutoff, robust_distances
from fdout.simmodels import simulation_model
from fdout.tvd import indicator_variance_terms, modified_shape_similarity, total_variation_depth

from . import oracles
from .conftest import constant_curves, make_multi, make_sample

MSPLOT_LEVEL = 0.01  # recorded operating point, see module docstring


@pytest.fixture()
def verdict(capsys):
    def _verdict(num, label, ok, detail=""):
        suffix = f" ({detail})" if detail else ""
        with capsys.disabled():
            print(f"\n{'PASS' if ok else 'FAIL'}: criterion {num} - {label}{suffix}")
        assert ok, f"criterion {num}: {label}{suffix}"

    return _verdict


def _rates(found, truth, n):
    found = set(int(i) for i in found)
    truth = set(int(i) for i in truth)
    tpr = len(found & truth) / len(truth) if truth else float("nan")
    fpr = len(found - truth) / (n - len(truth)) if n > len(truth) else float("nan")
    return tpr, fpr


def test_criterion_1_oracle_equivalence(verdict):
    start = time.monotonic()
    rng = np.random.default_rng(1001)
    worst = 0.0

    for trial in range(50):
        n = int(rng.integers(3, 26))
        p = int(rng.integers(2, 21))
        values = rng.standard_normal((n, p))
        if trial % 3 == 0:
            values = np.round(values, 1)
        sample = make_sample(values)
        worst = max(worst, float(np.max(np.abs(
            band_depth(sample).scores - oracles.band_depth(values)))))
        worst = max(worst, float(np.max(np.abs(
            modified_band_depth(sample).scores - oracles.modified_band_depth(values)))))

    for trial in range(50):
        n = int(rng.integers(3, 21))
        p = int(rng.integers(2, 13))
        values = rng.standard_normal((n, p))
        if trial % 3 == 1:
            values = np.round(values, 1)
        sample = make_sample(values)
        worst = max(worst, float(np.max(np.abs(
            total_variation_depth(sample) - oracles.total_variation_depth(values)))))
        worst = max(worst, float(np.max(np.abs(
            modified_shape_similarity(sample)
            - oracles.modified_shape_similarity(values)))))

    for trial in range(20):
        n = int(rng.integers(3, 13))
        p = int(rng.integers(3, 13))
        values = rng.standard_normal((n, p))
        got = muod_indices(make_sample(values))
        ref_shape, ref_mag, ref_amp = oracles.muod_indices(values)
        worst = max(worst, float(np.max(np.abs(got.shape - ref_shape))))
        worst = max(worst, float(np.max(np.abs(got.magnitude - ref_mag))))
        worst = max(worst, float(np.max(np.abs(got.amplitude - ref_amp))))

    elapsed = time.monotonic() - start
    verdict(
        1, "fast implementations match brute-force oracles",
        worst <= 1e-12 and elapsed < 60.0,
        f"max deviation {worst:.2e}, {elapsed:.1f}s",
    )


def test_criterion_2_fo_identity(verdict):
    rng = np.random.default_rng(1002)
    worst = 0.0
    for trial in range(100):
        n = int(rng.integers(3, 31))
        p = int(rng.integers(2, 21))
        d = 1 if trial < 50 else 2
        sample = make_multi(rng.standard_normal((n, p, d)))
        field = directional_outlyingness(sample, rng=RandomSource(trial))
        fit = decompose(field)
        # FO computed directly from the field, not from the MO/VO identity.
        # Deviation is measured relative to FO: small samples with a
        # near-degenerate pointwise scale push FO into the 1e6 range, where
        # float64 cannot hold an absolute 1e-10 and only the relative error
        # is meaningful.
        fo_direct = np.einsum("itd,t->i", field.values ** 2, fit.weights)
        denom = np.maximum(1.0, np.abs(fo_direct))
        lhs = (fit.mo * fit.mo).sum(axis=1) + fit.vo
        worst = max(worst, float(np.max(np.abs(fo_direct - lhs) / denom)))
        worst = max(worst, float(np.max(np.abs(fo_direct - fit.fo) / denom)))
    verdict(
        2, "FO equals ||MO||^2 + VO on random fields",
        worst <= 1e-10, f"max relative deviation {worst:.2e}",
    )


def test_criterion_3_law_of_total_variance(verdict):
    rng = np.random.default_rng(1003)
    worst = 0.0
    for _ in range(10):
        n = int(rng.integers(4, 30))
        p = int(rng.integers(2, 10))
        values = rng.standard_normal((n, p))
        if rng.random() < 0.5:
            values = np.round(values, 1)
        ranks = values <= values[int(rng.integers(0, n))][None, :]
        for s in range(p):
            for t in range(p):
                total, explained, unexplained = indicator_variance_terms(
                    ranks[:, s].astype(float), ranks[:, t].astype(float)
                )
                worst = max(worst, abs(total - explained - unexplained))
    verdict(
        3, "indicator variance splits into explained plus unexplained",
        worst <= 1e-12, f"max deviation {worst:.2e}",
    )


def test_criterion_4_worked_examples(verdict):
    sample = constant_curves([0.0, 1.0, 2.0])
    checks = [
        np.allclose(band_depth(sample).scores, [2 / 3, 1.0, 2 / 3], rtol=0, atol=0),
        np.allclose(modified_band_depth(sample).scores, [2 / 3, 1.0, 2 / 3], rtol=0, atol=0),
        np.allclose(total_variation_depth(sample), [2 / 9, 2 / 9, 0.0], rtol=0, atol=1e-15),
        np.allclose(linfinity_depth(sample).scores, [0.5, 0.6, 0.5], rtol=0, atol=1e-15),
    ]

    levels = constant_curves([0.0, 1.0, 2.0, 3.0, 10.0])
    box = functional_boxplot(levels, modified_band_depth(levels))
    checks += [
        np.all(box.envelope_lower == 1.0) and np.all(box.envelope_upper == 3.0),
        np.all(box.fence_lower == -2.0) and np.all(box.fence_upper == 6.0),
        np.array_equal(box.outliers, [4]),
    ]

    t = np.linspace(0.0, 1.0, 9)
    lines = make_sample(np.vstack([t, t, t + 3.0]))
    idx = muod_indices(lines)
    checks += [
        np.allclose(idx.magnitude, [1.0, 1.0, 2.0], rtol=0, atol=1e-12),
        np.allclose(idx.shape, 0.0, rtol=0, atol=1e-12),
        np.allclose(idx.amplitude, 0.0, rtol=0, atol=1e-12),
    ]
    verdict(4, "hand-checkable worked examples reproduce", all(checks),
            f"{sum(checks)}/{len(checks)} checks")


def _power_detectors(seed):
    return {
        "msplot": lambda s: msplot(s, level=MSPLOT_LEVEL, rng=RandomSource(seed)).outliers,
        "tvdmss": lambda s: tvdmss(s).magnitude_outliers,
        "muod": lambda s: muod(s)[0].magnitude,
        "fbplot": lambda s: functional_boxplot(s, modified_band_depth(s)).outliers,
    }


def test_criterion_5_detection_power(verdict):
    start = time.monotonic()
    tprs = {name: [] for name in ("msplot", "tvdmss", "muod", "fbplot")}
    fprs = {name: [] for name in tprs}
    shape_tprs = []
    seq_t0_tprs, seq_full_tprs = [], []

    for seed in range(20):
        out = simulation_model(
            1, n=100, p=50, outlier_rate=0.1, deterministic=True, seed=seed
        )
        truth = out.true_outliers
        for name, run in _power_detectors(seed).items():
            tpr, fpr = _rates(run(out.data), truth, 100)
            tprs[name].append(tpr)
            fprs[name].append(fpr)

        rough = simulation_model(
            5, n=100, p=50, outlier_rate=0.1, deterministic=True, seed=seed
        )
        shape_tprs.append(_rates(tvdmss(rough.data).shape_outliers,
                                 rough.true_outliers, 100)[0])

        # the transformation sequence earns its keep on shape outliers,
        # where detection on the raw curves is incomplete
        seq = seq_transform(rough.data, ["T0", "T1", "T2"], depth_method="mbd")
        union = np.array([], dtype=np.intp)
        for stage in seq.stages:
            union = np.union1d(union, stage.outliers)
        seq_t0_tprs.append(_rates(seq.stages[0].outliers, rough.true_outliers, 100)[0])
        seq_full_tprs.append(_rates(union, rough.true_outliers, 100)[0])

    elapsed = time.monotonic() - start
    power_ok = all(np.mean(tprs[k]) >= 0.9 and np.mean(fprs[k]) <= 0.1 for k in tprs)
    shape_ok = np.mean(shape_tprs) >= 0.8
    seq_ok = np.mean(seq_full_tprs) > np.mean(seq_t0_tprs)
    detail = ", ".join(
        f"{k} tpr={np.mean(tprs[k]):.3f} fpr={np.mean(fprs[k]):.3f}" for k in tprs
    )
    detail += (f", shape tpr={np.mean(shape_tprs):.3f}, "
               f"seq {np.mean(seq_t0_tprs):.3f}->{np.mean(seq_full_tprs):.3f}, "
               f"{elapsed:.0f}s")
    verdict(5, "planted outliers recovered at calibrated power",
            power_ok and shape_ok and seq_ok and elapsed < 300.0, detail)


def test_criterion_6_clean_data_restraint(verdict):
    rates = {k: [] for k in ("msplot", "tvdmss", "muod", "fbplot", "seq")}
    for seed in range(20):
        out = simulation_model(1, n=100, p=50, outlier_rate=0.0, seed=seed)
        sample = out.data
        rates["msplot"].append(
            msplot(sample, level=MSPLOT_LEVEL, rng=RandomSource(seed)).outliers.size / 100
        )
        rates["tvdmss"].append(tvdmss(sample).outliers.size / 100)
        rates["muod"].append(muod(sample)[0].magnitude.size / 100)
        rates["fbplot"].append(
            functional_boxplot(sample, modified_band_depth(sample)).outliers.size / 100
        )
        seq = seq_transform(sample, ["T0", "T1", "T2"], depth_method="mbd")
        union = np.array([], dtype=np.intp)
        for stage in seq.stages:
            union = np.union1d(union, stage.outliers)
        rates["seq"].append(union.size / 100)
    means = {k: float(np.mean(v)) for k, v in rates.items()}
    verdict(6, "clean samples stay mostly unflagged",
            all(v <= 0.15 for v in means.values()),
            ", ".join(f"{k}={v:.3f}" for k, v in means.items()))


def test_criterion_7_mcd_separates_planted_cluster(verdict):
    all_excluded = True
    all_beyond = True
    for seed in range(20):
        rng = np.random.default_rng(5000 + seed)
        points = np.vstack([
            rng.normal(size=(180, 2)),
            rng.normal(size=(20, 2)) + 10.0,
        ])
        fit = fast_mcd(points, rng=RandomSource(seed))
        if np.any(fit.subset_indices >= 180):
            all_excluded = False
        cutoff = hardin_rocke_cutoff(200, 2, level=0.05)
        if not np.all(robust_distances(points, fit)[180:] > cutoff.threshold):
            all_beyond = False
    verdict(7, "MCD subset excludes a shifted cluster whose distances exceed the cutoff",
            all_excluded and all_beyond)


def _pipeline(workdir, threads):
    env = dict(os.environ)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = threads
    sim_dir = os.path.join(workdir, f"sim_{threads}_{np.random.default_rng().integers(1 << 30)}")
    report = os.path.join(sim_dir, "report.json")
    svg = os.path.join(sim_dir, "plot.svg")
    cmds = [
        [sys.executable, "-m", "fdout.cli", "simulate", "--model", "1",
         "--n", "60", "--p", "30", "--rate", "0.1", "--seed", "7",
         "--deterministic", "--out", sim_dir],
        [sys.executable, "-m", "fdout.cli", "detect", "--method", "msplot",
         "--in", os.path.join(sim_dir, "data.csv"), "--report", report,
         "--plot", svg, "--plot-kind", "msplot",
         "--level", str(MSPLOT_LEVEL), "--seed", "4"],
    ]
    for cmd in cmds:
        proc = subprocess.run(cmd, env=env, capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
    def slurp(name):
        with open(os.path.join(sim_dir, name), "rb") as handle:
            return handle.read()
    return {name: slurp(name) for name in ("data.csv", "truth.txt", "report.json", "plot.svg")}


def test_criterion_8_end_to_end_determinism(verdict, tmp_path):
    first = _pipeline(str(tmp_path), "1")
    second = _pipeline(str(tmp_path), "1")
    threaded = _pipeline(str(tmp_path), "2")
    same_rerun = all(first[k] == second[k] for k in first)
    same_threads = all(first[k] == threaded[k] for k in first)
    verdict(8, "pipeline output is byte identical across reruns and thread counts",
            same_rerun and same_threads)


def test_criterion_9_cli_mirrors_library(verdict, tmp_path):
    sim_dir = tmp_path / "sim"
    rc = subprocess.run(
        [sys.executable, "-m", "fdout.cli", "simulate", "--model", "1",
         "--n", "40", "--p", "25", "--rate", "0.2", "--seed", "13",
         "--deterministic", "--out", str(sim_dir)],
        capture_output=True,
    ).returncode
    report_path = tmp_path / "report.json"
    rc_detect = subprocess.run(
        [sys.executable, "-m", "fdout.cli", "detect", "--method", "msplot",
         "--in", str(sim_dir / "data.csv"), "--report", str(report_path),
         "--level", "0.05", "--seed", "21"],
        capture_output=True,
    ).returncode
    payload = json.loads(report_path.read_text())

    from fdout.csvio import read_curves, write_curves
    sample = read_curves(str(sim_dir / "data.csv"))
    expected = to_external_indices(
        msplot(sample, level=0.05, rng=RandomSource(21)).outliers
    )
    indices_match = payload["outliers"]["all"] == expected

    rc_missing = subprocess.run(
        [sys.executable, "-m", "fdout.cli", "detect", "--method", "fbplot",
         "--in", str(tmp_path / "absent.csv"), "--report", str(tmp_path / "r2.json")],
        capture_output=True,
    ).returncode
    flat_csv = tmp_path / "flat.csv"
    write_curves(str(flat_csv), make_sample(np.ones((5, 4))))
    rc_numeric = subprocess.run(
        [sys.executable, "-m", "fdout.cli", "detect", "--method", "muod",
         "--in", str(flat_csv), "--report", str(tmp_path / "r3.json")],
        capture_output=True,
    ).returncode

    verdict(
        9, "CLI reproduces library results and honours the exit-code contract",
        rc == 0 and rc_detect == 0 and indices_match
        and rc_missing == 2 and rc_numeric == 3,
        f"exit codes {rc}/{rc_detect}/{rc_missing}/{rc_numeric}",
    )
