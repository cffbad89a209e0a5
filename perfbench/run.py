"""fdout benchmark: one workload, one seed, end-to-end or per-layer metrics.

    python3 perfbench/run.py --workload cli_cold --seed 1 --seconds 30 --trace 0

Run from the root of a checkout; fdout is imported from its src/ directory.
Workloads and their op cycles are in perfbench/workloads.json, metric names
and units in BENCHMARK.json.

--trace 0 starts three workers one after another: two that only set up and
one that sets up and then runs the closed loop for --seconds. setup_s is the
median set-up time of the three; every other metric comes from the loop.
All times are calibrated (see calib.py): a timed interval is divided by the
host's slowdown against the measuring machine, measured with fixed
reference kernels just before and just after it, which takes out the drift
of a shared host's speed. The units ref_ms and 1/ref_s name that clock;
setup_s is on it too. The latency percentiles are taken over the cycle's
ops, each at its median latency, and ops_per_s is the rate of one pass of
the cycle at those medians.
--trace 1 parses `python -X importtime` of fresh processes and then runs one
worker with the boundary wrappers installed (see tracer.py); its spans are
written to .perfbench_out/.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
from collections import Counter
from time import monotonic, perf_counter

import calib
import tracer

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SETUP_REPEATS = 3
IMPORT_REPEATS = 5
TIME_LIMIT_S = 170


class BenchError(Exception):
    pass


def load_json(path: str) -> dict:
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


def child_env() -> dict:
    env = dict(os.environ)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    # one BLAS thread: the closed loop has one client on a small shared machine
    for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[name] = "1"
    return env


class Runner:
    """Starts child processes under one deadline and kills what overruns it."""

    def __init__(self, args, workdir: str):
        self.args = args
        self.workdir = workdir
        self.env = child_env()
        self.deadline = monotonic() + TIME_LIMIT_S

    def _remaining(self) -> float:
        left = self.deadline - monotonic()
        if left <= 0:
            raise BenchError("time limit reached")
        return left

    def run(self, argv: list, capture_stderr: bool = False) -> tuple[float, str]:
        """Run a child to completion: (wall seconds, stderr if captured)."""
        start = perf_counter()
        proc = subprocess.Popen(argv, env=self.env, cwd=ROOT, stdin=subprocess.DEVNULL,
                                stdout=subprocess.DEVNULL,
                                stderr=subprocess.PIPE if capture_stderr else None,
                                start_new_session=True, text=True)
        try:
            _, err = proc.communicate(timeout=self._remaining())
        except BaseException:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
            raise
        if proc.returncode != 0:
            raise BenchError(f"{argv[1:3]} exited with {proc.returncode}")
        return perf_counter() - start, err or ""

    def worker(self, mode: str, tag: str) -> dict:
        out = os.path.join(self.workdir, f"{tag}.json")
        a = self.args
        before = calib.slowdown()
        start = perf_counter()
        self.run([sys.executable, os.path.join(HERE, "worker.py"), "--workload", a.workload,
                  "--seed", str(a.seed), "--seconds", str(a.seconds), "--size", a.size,
                  "--mode", mode, "--workdir", self.workdir, "--out", out])
        result = load_json(out)
        result["setup_s"] = calib.calibrated(result["setup_end"] - start,
                                             (before + result["setup_slowdown"]) / 2)
        return result


def op_medians(samples: list) -> dict:
    """Median calibrated latency (ms) of each op of the cycle. The latency
    metrics are taken over these, one value per op, so they do not depend
    on where in the cycle the loop stopped or on a single slow sample."""
    by_op: dict = {}
    for index, wall, factor in samples:
        by_op.setdefault(index, []).append(calib.calibrated(wall, factor))
    return {index: statistics.median(values) for index, values in by_op.items()}


def percentile(values, q: float) -> float:
    """Linear interpolation between order statistics (numpy's default)."""
    ordered = sorted(values)
    pos = (len(ordered) - 1) * q / 100
    low = int(pos)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (pos - low)


def cycle_rate(samples: list) -> float:
    """Ops per calibrated second over one pass of the cycle at each op's median."""
    medians = op_medians(samples).values()
    return 1000 * len(medians) / sum(medians)


def end_to_end(runner: Runner, record: dict) -> tuple[dict, list]:
    workers = [runner.worker("setup", f"setup{k}") for k in range(SETUP_REPEATS - 1)]
    loop = runner.worker("measure", "measure")
    workers.append(loop)
    samples = loop["samples"]
    if not samples:
        raise BenchError("no op completed in the timed loop")
    medians = op_medians(samples)
    q = loop["quality"]
    tail = record["tail_percentile"]
    metrics = {
        "setup_s": statistics.median(w["setup_s"] for w in workers),
        "ops_per_s": cycle_rate(samples),
        "latency_p50_ms": percentile(medians.values(), 50),
        "latency_tail_ms": percentile(medians.values(), tail),
        "peak_rss_mb": loop["peak_rss_kb"] / 1024,
        "recall": q["tp"] / q["planted"] if q["planted"] else 0.0,
        "false_alarm_rate": q["fp"] / q["clean"] if q["clean"] else 0.0,
    }
    walls = [wall for _index, wall, _factor in samples]
    factors = [factor for _index, _wall, factor in samples]
    beyond = sum(calib.calibrated(wall, factor) > metrics["latency_tail_ms"]
                 for _index, wall, factor in samples)
    print(f"samples {len(samples)} in {loop['loop_s']:.1f} s; tail is p{tail} "
          f"({beyond} samples beyond)")
    print(f"wall clock: median op {statistics.median(walls):.1f} ms; slowdown against the "
          f"measuring machine: median {statistics.median(factors):.3f}, "
          f"min {min(factors):.3f}, max {max(factors):.3f}")
    print(f"quality: {q['tp']}/{q['planted']} planted flagged, {q['fp']}/{q['clean']} clean flagged")
    counts = Counter(index for index, _wall, _factor in samples)
    for index in sorted(medians):
        print(f"  op {index:2d} {loop['labels'][index]:32s} x{counts[index]:<3d} "
              f"median {medians[index]:9.1f} ref_ms")
    return metrics, workers


def per_layer(runner: Runner, workload: str) -> tuple[dict, list]:
    breakdowns, cold_starts = [], []
    repeats = 2 if runner.args.size == "tiny" else IMPORT_REPEATS
    for _ in range(repeats):
        _, log = runner.run([sys.executable, "-X", "importtime", "-c", "import fdout"],
                            capture_stderr=True)
        breakdowns.append(tracer.parse_importtime(log))
        wall, _ = runner.run([sys.executable, "-m", "fdout.cli", "--help"])
        cold_starts.append(wall * 1000)
    metrics = {name: statistics.median(b[name] for b in breakdowns) for name in breakdowns[0]}
    metrics["cli.cold_start_ms"] = statistics.median(cold_starts)

    result = runner.worker("trace", "trace")
    metrics.update(result["layers"])
    metrics.setdefault("cli.process_overhead_ms", 0.0)
    small_op_ms = metrics.pop("cli.small_cold_op_ms", 0.0)
    metrics["share.import_of_small_cli_op"] = (
        metrics["import.fdout_ms"] / small_op_ms if small_op_ms else 0.0)
    traced, untraced = (cycle_rate(result[k]["samples"]) for k in ("traced", "untraced"))
    metrics["trace.overhead_frac"] = 1.0 - traced / untraced

    out_dir = os.path.join(ROOT, ".perfbench_out")
    os.makedirs(out_dir, exist_ok=True)
    spans = os.path.join(out_dir, f"spans-{workload}-seed{runner.args.seed}.json")
    shutil.move(os.path.join(runner.workdir, "spans.json"), spans)
    print(f"spans written to {os.path.relpath(spans, ROOT)}")
    return metrics, [result]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--size", choices=["full", "tiny"], default="full",
                        help="tiny shapes for the harness self-test (smoke.py)")
    args = parser.parse_args()

    if not os.path.isfile(os.path.join(ROOT, "src", "fdout", "__init__.py")):
        print(f"fdout sources not found under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    bench = load_json(os.path.join(ROOT, "BENCHMARK.json"))
    records = load_json(os.path.join(HERE, "workloads.json"))["workloads"]
    if args.workload not in records or args.seed < 0 or args.seconds <= 0:
        print(f"unknown workload {args.workload!r} or bad seed/seconds", file=sys.stderr)
        return 2

    # one CPU for run.py, the workers and the CLI processes they start, so
    # the calibration kernels always time the CPU the ops ran on
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    workdir = os.path.join(ROOT, ".perfbench_work", f"{args.workload}-s{args.seed}-{os.getpid()}")
    os.makedirs(workdir)
    runner = Runner(args, workdir)
    try:
        if args.trace:
            metrics, workers = per_layer(runner, args.workload)
            wanted = bench["per_layer"]
        else:
            metrics, workers = end_to_end(runner, records[args.workload])
            wanted = bench["end_to_end"]
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = sum(w["attempted"] for w in workers)
    failed = sum(w["failed"] for w in workers)
    for w in workers:
        for error in w["errors"]:
            print(f"error: {error}")
    print("machine: " + json.dumps(workers[-1]["machine"], sort_keys=True))
    print(f"error_frac {failed / attempted:.4f} ({failed} of {attempted} ops)")
    for name in sorted(metrics):
        print(f"  {name} {metrics[name]:.6g}")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in wanted},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
