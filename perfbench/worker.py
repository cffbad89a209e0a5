"""One benchmark process: set up a workload, then run its closed loop.

Modes:
  setup    import fdout, generate the inputs, run one untimed warm-up op, exit
  measure  setup, then run ops back to back for --seconds (no wrappers)
  trace    install the boundary wrappers, set up, run a traced loop for half
           of --seconds and an untraced loop for the other half

Every loop also runs until each op of the cycle has run once, so the
quality scores always cover the whole cycle and depend only on the seed.

run.py starts the workers and turns their result files into metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
import traceback
from time import perf_counter

import calib
import ops
import tracer


class Tally:
    """Failures, digests of first outputs, and planted-truth scores of one worker."""

    def __init__(self, op_list: list):
        self.op_list = op_list
        self.attempted = 0
        self.failed = 0
        self.errors: list = []
        self.digests: dict = {}
        self.quality = {"tp": 0, "planted": 0, "fp": 0, "clean": 0}
        self.child_rss_kb = 0
        self.scored: set = set()

    def attempt(self, op, cold: bool, rec=None):
        """Run and check one op; returns its latency in ms, or None if it failed."""
        self.attempted += 1
        start = perf_counter()
        try:
            out = rec.run_op(op.index, op.run, cold) if rec else op.run(cold)
            latency_ms = (perf_counter() - start) * 1000
            outcome = op.check(out)
            if self.digests.setdefault(op.index, outcome.digest) != outcome.digest:
                raise ops.CheckFailed("output differs from the first run of this op")
        except Exception as exc:  # an op that fails is counted, and the loop goes on
            self.failed += 1
            if len(self.errors) < 5:
                self.errors.append(f"op {op.index} ({op.label}): {exc!r}")
                traceback.print_exc(file=sys.stderr)
            return None
        if cold:
            self.child_rss_kb = max(self.child_rss_kb, out)
        if outcome.flagged is not None and op.index not in self.scored:
            self.scored.add(op.index)
            q = self.quality
            q["tp"] += len(outcome.flagged & outcome.truth)
            q["planted"] += len(outcome.truth)
            q["fp"] += len(outcome.flagged - outcome.truth)
            q["clean"] += outcome.n - len(outcome.truth)
        return latency_ms

    def loop(self, seconds: float, cold: bool, rec=None) -> dict:
        """Closed loop over the op cycle, from op 0, until ``seconds`` have
        passed and every op has run at least once. Each sample is
        [op index, wall ms, mean of calib.slowdown just before and after]."""
        samples = []
        count = 0
        before = calib.slowdown()
        start = perf_counter()
        while count < len(self.op_list) or perf_counter() - start < seconds:
            op = self.op_list[count % len(self.op_list)]
            count += 1
            latency = self.attempt(op, cold, rec)
            after = calib.slowdown()
            if latency is not None:
                samples.append([op.index, latency, (before + after) / 2])
            before = after
        return {"samples": samples, "loop_s": perf_counter() - start}


def machine() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS", "default"),
    }


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--size", default="full")
    parser.add_argument("--mode", choices=["setup", "measure", "trace"], required=True)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args()

    cli = args.workload == "cli_cold"
    rec = tracer.Recorder() if args.mode == "trace" else None
    saved = tracer.install(rec) if rec else None

    op_list = ops.build(args.workload, args.seed, args.size, args.workdir)
    record = ops.load_records()["workloads"][args.workload]
    tally = Tally(op_list)
    result: dict = {"machine": machine(), "labels": [op.label for op in op_list]}
    if cli and rec:
        # cold latencies of every op, for the process overhead; no spans
        cold_ms = {op.index: tally.attempt(op, cold=True) for op in op_list}
    else:
        tally.attempt(op_list[record["warmup_op"]], cold=cli, rec=rec)
    result["setup_end"] = perf_counter()
    result["setup_slowdown"] = calib.slowdown()

    if args.mode == "measure":
        result.update(tally.loop(args.seconds, cold=cli))
    elif args.mode == "trace":
        result["traced"] = tally.loop(args.seconds / 2, cold=False, rec=rec)
        tracer.uninstall(saved)
        result["untraced"] = tally.loop(args.seconds / 2, cold=False)
        rec.dump(os.path.join(args.workdir, "spans.json"))
        result["layers"] = tracer.layer_metrics(rec.spans)
        if cli:
            result["layers"].update(cli_overhead(op_list, cold_ms, result["untraced"]))

    result.update(
        attempted=tally.attempted, failed=tally.failed, errors=tally.errors,
        quality=tally.quality,
        peak_rss_kb=tally.child_rss_kb if cli else resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    )
    with open(args.out, "w", encoding="utf-8") as handle:
        json.dump(result, handle)
    return 0


def cli_overhead(op_list: list, cold_ms: dict, untraced: dict) -> dict:
    """Cold op latency minus in-process cli.main latency, median over ops."""
    inproc: dict = {}
    for index, latency, _factor in untraced["samples"]:
        inproc.setdefault(index, []).append(latency)
    gaps = [cold_ms[i] - statistics.median(inproc[i])
            for i in inproc if cold_ms.get(i) is not None]
    small = [cold_ms[op.index] for op in op_list if op.small and cold_ms.get(op.index) is not None]
    return {
        "cli.process_overhead_ms": statistics.median(gaps) if gaps else 0.0,
        "cli.small_cold_op_ms": statistics.median(small) if small else 0.0,
    }


if __name__ == "__main__":
    sys.exit(main())
