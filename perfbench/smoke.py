"""Self-test of the benchmark harness at tiny sizes (no timing is gated).

    python3 perfbench/smoke.py

For every workload, with --trace 0 and --trace 1, runs run.py for one
second on tiny inputs and asserts that the last line names every metric
BENCHMARK.json lists, with its unit, and that no op failed (error_frac 0).
Then checks that run.py refuses to run without the fdout sources.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run(cwd: str, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"), "--workload", workload,
         "--seed", "1", "--seconds", "1", "--trace", str(trace), "--size", "tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=180,
    )


def check(bench: dict, workload: str, trace: int) -> None:
    proc = run(ROOT, workload, trace)
    assert proc.returncode == 0, f"{workload} trace={trace} exited {proc.returncode}:\n{proc.stderr}"
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, result.keys()
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1, result
    wanted = bench["per_layer" if trace else "end_to_end"]
    got = result["metrics"]
    assert set(got) == {m["name"] for m in wanted}, set(got) ^ {m["name"] for m in wanted}
    for m in wanted:
        assert got[m["name"]]["unit"] == m["unit"], m["name"]
        assert isinstance(got[m["name"]]["value"], (int, float)), m["name"]
    assert "error_frac 0.0000" in proc.stdout, proc.stdout
    print(f"ok {workload} trace={trace}: {len(got)} metrics, {result['attempted']} ops")


def check_refuses_without_sources() -> None:
    bare = os.path.join(ROOT, ".perfbench_work", "smoke-bare")
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    try:
        proc = run(bare, "ms_study", 0)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert proc.returncode != 0 and "{" not in proc.stdout, proc.stdout
    print(f"ok refuses to run without src/fdout (exit {proc.returncode})")


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        bench = json.load(handle)
    for workload in (w["name"] for w in bench["workloads"]):
        for trace in (0, 1):
            check(bench, workload, trace)
    check_refuses_without_sources()
    return 0


if __name__ == "__main__":
    sys.exit(main())
