"""Inputs and ops of the benchmark workloads, built from workloads.json.

Every op returns an output that ``Op.check`` verifies: CLI ops must exit 0
and write a report that parses with ``DetectionReport.from_json``, has the
input's n, p and d and 1-based indices in 1..n, and SVGs that are whole
documents; library ops must return in-range outlier indices and finite
scores. ``check`` returns a digest of the output (so repeats of an op can be
compared byte for byte) and the flagged rows (so recall and false alarms can
be scored against the planted truth).
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from fdout import cli, csvio, detect, fdcore, report, simmodels

HERE = os.path.dirname(os.path.abspath(__file__))
OUTLIER_RATE = 0.1


class CheckFailed(Exception):
    """An op ran but its output is wrong."""


@dataclass(frozen=True)
class Outcome:
    digest: str
    flagged: Optional[frozenset]  # 0-based rows, None for ops that flag nothing
    truth: frozenset
    n: int


@dataclass
class Op:
    index: int
    label: str
    run: Callable  # run(cold: bool) -> output passed to check
    check: Callable  # check(output) -> Outcome
    small: bool = True  # for CLI ops: runs on a 500x100 input


def load_records() -> dict:
    with open(os.path.join(HERE, "workloads.json"), encoding="utf-8") as handle:
        return json.load(handle)


def shape(n: int, p: int, size: str) -> tuple[int, int]:
    if size == "tiny":
        return max(20, n // 50), max(10, p // 10)
    return n, p


def data_seed(seed: int, i: int, j: int = 0) -> int:
    return 1000 * seed + 10 * i + j


def sample(model: int, n: int, p: int, d: int, seed: int, i: int):
    """(sample, planted rows); d > 1 stacks d draws with the same planted rows."""
    draws = [
        simmodels.simulation_model(model, n=n, p=p, outlier_rate=OUTLIER_RATE,
                                   deterministic=True, seed=data_seed(seed, i, j))
        for j in range(d)
    ]
    truth = frozenset(int(r) for r in draws[0].true_outliers)
    if d == 1:
        return draws[0].data, truth
    values = np.stack([draw.data.values for draw in draws], axis=2)
    return fdcore.MultiCurveSample(values, draws[0].data.grid), truth


def _digest(*parts: bytes) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(part)
    return h.hexdigest()


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def _flagged(indices, n: int) -> frozenset:
    rows = np.asarray(indices, dtype=np.int64).ravel()
    _require(bool(np.all((rows >= 0) & (rows < n))), "outlier index out of range")
    return frozenset(int(r) for r in rows)


# --- library ops (ms_study, depth_study) -------------------------------------

def _lib_op(index, spec, seed, size) -> Op:
    n, p = shape(spec["n"], spec["p"], size)
    d = spec.get("d", 1)
    data, truth = sample(spec["model"], n, p, d, seed, index)
    kind = spec["kind"]
    rng = fdcore.RandomSource

    if kind == "msplot":
        def run(cold):
            return detect.msplot(data, rng=rng(index))

        def scored(res):
            _require(res.distances.shape == (n,) and bool(np.all(np.isfinite(res.distances))),
                     "msplot distances are not n finite values")
            return res.outliers, [res.distances, res.mo, res.vo]
    elif kind == "fbplot":
        def run(cold):
            depth = detect.depth_by_name(data, spec["depth"], rng=rng(index))
            return detect.functional_boxplot(data, depth)

        def scored(res):
            _require(bool(np.all(np.isfinite(res.depth.scores))), "depth scores not finite")
            return res.outliers, [res.depth.scores, res.fence_lower, res.fence_upper]
    elif kind == "seq":
        def run(cold):
            return detect.seq_transform(data, spec["stages"], rng=rng(index))

        def scored(res):
            _require(len(res.stages) == len(spec["stages"]), "seq stage count")
            per_stage = [np.asarray(s.outliers, dtype=np.int64) for s in res.stages]
            return np.unique(np.concatenate(per_stage)), per_stage
    elif kind == "tvdmss":
        def run(cold):
            return detect.tvdmss(data)

        def scored(res):
            return res.outliers, [res.tvd, res.mss, res.shape_outliers]
    elif kind == "muod":
        muod_module = sys.modules["fdout.muod"]

        def run(cold):
            return muod_module.muod(data)

        def scored(res):
            flags, idx = res
            union = np.union1d(np.union1d(flags.shape, flags.magnitude), flags.amplitude)
            return union, [idx.shape, idx.magnitude, idx.amplitude]
    else:
        raise ValueError(f"unknown library op kind {kind!r}")

    def check(res) -> Outcome:
        outliers, arrays = scored(res)
        flagged = _flagged(outliers, n)
        blobs = [np.asarray(outliers, dtype=np.int64).tobytes()]
        blobs += [np.ascontiguousarray(a).tobytes() for a in arrays]
        return Outcome(_digest(*blobs), flagged, truth, n)

    dims = f"{n}x{p}" + (f"x{d}" if d > 1 else "")
    label = " ".join(filter(None, [kind, spec.get("depth"), f"m{spec['model']}", dims]))
    return Op(index, label, run, check)


# --- CLI ops (cli_cold) --------------------------------------------------------

def run_cold(argv: list, stderr_path: str) -> tuple[int, int]:
    """Run ``python -m fdout.cli argv`` in a fresh process: (exit code, peak RSS kB)."""
    with open(stderr_path, "wb") as err:
        proc = subprocess.Popen([sys.executable, "-m", "fdout.cli", *argv],
                                stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL,
                                stderr=err)
        _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, usage.ru_maxrss


def _read_bytes(path: str) -> bytes:
    with open(path, "rb") as handle:
        return handle.read()


def _check_svg(path: str) -> bytes:
    data = _read_bytes(path)
    _require(data.startswith(b"<?xml") and data.rstrip().endswith(b"</svg>"),
             f"{os.path.basename(path)} is not a whole SVG document")
    return data


def _check_report(path: str, n: int, p: int, d: int) -> tuple[bytes, frozenset]:
    data = _read_bytes(path)
    rep = report.DetectionReport.from_json(data.decode("utf-8"))
    _require(rep.error is None, f"report carries an error: {rep.error}")
    _require((rep.n, rep.p, rep.d) == (n, p, d),
             f"report shape {(rep.n, rep.p, rep.d)} != input {(n, p, d)}")
    for name, rows in rep.outliers.items():
        _require(all(1 <= int(r) <= n for r in rows), f"outlier class {name} outside 1..{n}")
    return data, frozenset(int(r) - 1 for r in rep.outliers["all"])


def build_cli_inputs(record: dict, seed: int, size: str, workdir: str) -> dict:
    """Write one CSV per named input; returns name -> (path, n, p, truth)."""
    inputs = {}
    for i, (name, spec) in enumerate(sorted(record["inputs"].items())):
        n, p = shape(spec["n"], spec["p"], size)
        data, truth = sample(spec["model"], n, p, 1, seed, i)
        path = os.path.join(workdir, f"{name}.csv")
        csvio.write_curves(path, data)
        inputs[name] = (path, n, p, truth)
    return inputs


def _cli_op(index, spec, seed, size, inputs, workdir, report_paths) -> Op:
    kind = spec["kind"]
    stderr_path = os.path.join(workdir, f"op{index}.stderr")
    out = os.path.join(workdir, f"op{index}")
    if kind == "simulate":
        n, p = shape(spec["n"], spec["p"], size)
        sim_seed = data_seed(seed, 50 + index)
        argv = ["simulate", "--model", str(spec["model"]), "--n", str(n), "--p", str(p),
                "--rate", str(OUTLIER_RATE), "--seed", str(sim_seed), "--deterministic",
                "--out", out]
        planted = simmodels.simulation_model(spec["model"], n=n, p=p, outlier_rate=OUTLIER_RATE,
                                             deterministic=True, seed=sim_seed).true_outliers
        expected_truth = "".join(f"{int(r) + 1}\n" for r in planted).encode()
        small = True

        def check_files() -> Outcome:
            truth_bytes = _read_bytes(os.path.join(out, "truth.txt"))
            _require(truth_bytes == expected_truth, "truth.txt differs from the planted rows")
            data = _read_bytes(os.path.join(out, "data.csv"))
            lines = data.splitlines()
            _require(len(lines) == n + 1 and all(len(line.split(b",")) == p for line in lines),
                     f"data.csv is not a {n}x{p} table with a grid header")
            return Outcome(_digest(data, truth_bytes), None, frozenset(), n)
        label = f"simulate m{spec['model']} {n}x{p}"
    else:
        path, n, p, truth = inputs[spec["input"]]
        small = spec["input"] != "large"
        if kind == "detect":
            report_path = out + ".json"
            report_paths[index] = report_path
            argv = ["detect", "--method", spec["method"], "--in", path, "--report", report_path,
                    "--seed", str(index)]
            svg_path = out + ".svg" if spec.get("plot") else None
            if svg_path:
                argv += ["--plot", svg_path]
                if spec["method"] == "msplot":
                    argv += ["--plot-kind", "msplot"]

            def check_files() -> Outcome:
                data, flagged = _check_report(report_path, n, p, 1)
                svg = _check_svg(svg_path) if svg_path else b""
                return Outcome(_digest(data, svg), flagged, truth, n)
        elif kind == "depth":
            argv = ["depth", "--method", spec["method"], "--in", path, "--out", out + ".csv"]

            def check_files() -> Outcome:
                data = _read_bytes(out + ".csv")
                lines = data.decode().splitlines()
                _require(lines[0] == "curve,score" and len(lines) == n + 1, "depth CSV shape")
                _require(all(np.isfinite(float(line.split(",")[1])) for line in lines[1:]),
                         "depth scores not finite")
                return Outcome(_digest(data), None, frozenset(), n)
        elif kind == "plot":
            argv = ["plot", "--in", path, "--kind", spec["plot_kind"], "--out", out + ".svg",
                    "--report", report_paths[spec["report_of"]]]

            def check_files() -> Outcome:
                return Outcome(_digest(_check_svg(out + ".svg")), None, frozenset(), n)
        else:
            raise ValueError(f"unknown CLI op kind {kind!r}")
        label = " ".join([kind, spec.get("method", spec.get("plot_kind", "")), spec["input"]])

    def run(cold):
        if cold:
            rc, rss_kb = run_cold(argv, stderr_path)
        else:
            rc, rss_kb = cli.main(list(argv)), 0
        if rc != 0:
            detail = _read_bytes(stderr_path).decode(errors="replace")[-300:] if cold else ""
            raise CheckFailed(f"exit code {rc} {detail}")
        return rss_kb

    def check(_rss_kb) -> Outcome:
        return check_files()

    return Op(index, label, run, check, small)


def build(workload: str, seed: int, size: str, workdir: str) -> list:
    """Generate the workload's inputs (writing CSVs for cli_cold) and its op cycle."""
    record = load_records()["workloads"][workload]
    if workload == "cli_cold":
        inputs = build_cli_inputs(record, seed, size, workdir)
        report_paths: dict = {}
        return [_cli_op(i, spec, seed, size, inputs, workdir, report_paths)
                for i, spec in enumerate(record["ops"])]
    return [_lib_op(i, spec, seed, size) for i, spec in enumerate(record["ops"])]
