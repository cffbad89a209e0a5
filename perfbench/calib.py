"""Reference kernels that calibrate the timed loop's clock.

The benchmark runs on a few cores of a shared host, and the speed those
cores give it drifts by up to a quarter within tens of seconds: on the
measuring machine (2-core VM, Python 3.11.7, numpy 2.4.6, one BLAS thread)
one fixed msplot call, repeated for two minutes, had 2.5 s window medians
between 103 and 168 ms with no steal time. Fixed kernels run beside the
ops drift in step with them, but not all alike: rank-based detectors follow
a large numpy sort most closely, univariate msplot follows loops of small
numpy calls and plain Python, so no single kernel serves every workload.

The benchmark calls ``slowdown`` around everything it times: once
before the timed loop's first op and once after every op, and once before
and once after each set-up. It times six short kernels (a BLAS product, a
sort, a cumulative sum, a LAPACK eigendecomposition, a loop of small numpy
calls and a plain Python loop) and returns the geometric mean of their
times relative to their times on the measuring machine. A timed interval
is then divided by the mean slowdown just before and just after it. run.py
pins itself and every process it starts to one CPU, so that the kernels
time the CPU the ops ran on: unpinned, a cold CLI process of cli_cold may
run on another CPU than the kernels, and over ten seeds calibration left
cli_cold's latency metrics spread 12 % (quartile distance over median),
against 3-4 % pinned. Pinned, over ten runs of each workload with ten
seeds, each calibrated latency and rate metric spread 1-5 %, where the
same metrics in wall-clock time had spread up to 38 %.

The kernels never call fdout and their inputs do not depend on the
workload seed, so a change to fdout moves calibrated times exactly as it
moves wall times.
"""

from __future__ import annotations

import math
from time import perf_counter

import numpy as np

_rng = np.random.default_rng(0)
_A = _rng.standard_normal((120, 120))
_V = _rng.standard_normal(200_000)


def _matmul():
    for _ in range(16):
        _A @ _A


def _sort():
    np.sort(_V)


def _cumsum():
    np.cumsum(_V * _V)


def _eigh():
    np.linalg.eigh(_A + _A.T)


def _small_calls():
    for _ in range(80):
        np.median(_A[:, :10], axis=0)


def _python():
    total = 0
    for i in range(30_000):
        total += (i * 7) % 13
    return total


# each kernel with its median time in ms on the measuring machine
KERNELS = {
    "matmul": (_matmul, 1.6),
    "sort": (_sort, 2.3),
    "cumsum": (_cumsum, 1.9),
    "eigh": (_eigh, 2.1),
    "small_calls": (_small_calls, 2.8),
    "python": (_python, 3.0),
}


def _warm_up() -> None:
    # first calls load BLAS and LAPACK code and fill caches
    for kernel, _nominal_ms in KERNELS.values():
        kernel()


_warm_up()


def slowdown() -> float:
    """Geometric mean of the kernels' times over their times on the
    measuring machine."""
    logs = 0.0
    for kernel, nominal_ms in KERNELS.values():
        start = perf_counter()
        kernel()
        logs += math.log((perf_counter() - start) * 1000 / nominal_ms)
    return math.exp(logs / len(KERNELS))


def calibrated(interval: float, factor: float) -> float:
    """A wall-clock ``interval`` on the measuring machine's clock, given the
    mean slowdown ``factor`` around it."""
    return interval / factor
