"""Property test of the CLI exit-code contract on degenerate and extreme input.

Every ``fdout detect`` run ends with exit code 0, 2 or 3 and a report that is
strict JSON (no NaN or Infinity); a failed run names a typed ``FdoutError``.
A sweep of every float flag over non-finite and out-of-range values checks
the same, and that a non-finite value exits 2; a sweep of ``--seed`` checks
that a seed outside 0..2**64 - 1 exits 2 on every command that takes one.
"""

import contextlib
import io
import json
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fdout.errors
from fdout import CurveSample, uniform_grid
from fdout.cli import main
from fdout.csvio import write_curves
from fdout.detect import DEPTH_METHODS
from fdout.fdcore import least_curves
from fdout.muod import MUOD_CUTS

# method -> (n, p) around which the draws sit for d = 1: the least number of
# curves of a kernel the detector runs, and the least grid length
MINIMUM_SIZE = {
    "msplot": (least_curves("msplot"), 2),
    "tvdmss": (least_curves("tvdmss"), 2),
    "seq": (least_curves("modified_band_depth"), 2),
    "muod": (least_curves("muod_indices"), 3),
    "fbplot": (least_curves("modified_band_depth"), 2),
}


@st.composite
def curve_values(draw):
    """n x p (x d) values near a method's minimum size: small-integer ties or
    continuous values, scaled by 2^k for k in [-1000, 1000] or pushed to
    +-(0.99-1) * 1.7e308, with constant columns and duplicate rows."""
    method = draw(st.sampled_from(sorted(MINIMUM_SIZE)))
    min_n, min_p = MINIMUM_SIZE[method]
    n = draw(st.integers(min_n - 1, min_n + 4))
    p = draw(st.integers(min_p - 1, min_p + 3))
    d = draw(st.sampled_from([1, 1, 2])) if method in ("msplot", "seq") else 1
    shape = (n, p, d)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    scale = draw(st.sampled_from(["power", "power", "extreme"]))
    if draw(st.booleans()):
        values = rng.integers(-2, 3, size=shape).astype(float)
    else:
        values = rng.standard_normal(shape)
    if scale == "power":
        values = np.ldexp(values, draw(st.integers(-1000, 1000)))
    else:
        values = np.sign(values) * rng.uniform(0.99, 1.0, size=shape) * 1.7e308
    if draw(st.booleans()):
        column = draw(st.integers(0, p - 1))
        values[:, column] = values[0, column]
    for row in draw(st.lists(st.integers(1, n - 1), max_size=3)):
        values[row] = values[0]
    return method, values


@st.composite
def dependent_dimensions(draw):
    """n x p x d values, d in {2, 3}, for the methods that take d > 1 curves,
    whose dimensions depend on one another: each dimension after the first
    copies an earlier one, possibly negated or scaled by 2^k, and keeps the
    copy on all rows or only on some (the others drawn afresh). The
    pointwise clouds are then collinear or rank-deficient, with points shared
    between dimensions."""
    method = draw(st.sampled_from(["msplot", "seq"]))
    d = draw(st.sampled_from([2, 3]))
    min_n = least_curves("msplot", d=d) if method == "msplot" else MINIMUM_SIZE[method][0]
    n = draw(st.integers(min_n, min_n + 8))
    p = draw(st.integers(2, 5))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    values = rng.standard_normal((n, p, d))
    if draw(st.booleans()):
        values = np.round(values * 2.0)
    for k in range(1, d):
        source = draw(st.integers(0, k - 1))
        factor = draw(st.sampled_from([1.0, -1.0, 2.0**-3, 2.0**5]))
        shared = draw(st.sampled_from(["all", "some"]))
        rows = slice(None) if shared == "all" else rng.random(n) < 0.7
        values[rows, :, k] = factor * values[rows, :, source]
    values = np.ldexp(values, draw(st.sampled_from([0, 0, -1000, 1000])))
    return method, values


def _run(method, values, extra):
    with tempfile.TemporaryDirectory() as tmp:
        paths = []
        for k in range(values.shape[2]):
            path = str(Path(tmp) / f"dim{k}.csv")
            if values.shape[1] >= 2:
                write_curves(path, CurveSample(values[:, :, k], uniform_grid(values.shape[1], 0, 1)))
            else:
                # one grid point: no grid header can be written
                Path(path).write_text("".join(f"{repr(v)}\n" for v in values[:, 0, k]))
            paths.append(path)
        report = Path(tmp) / "report.json"
        with contextlib.redirect_stderr(io.StringIO()):
            code = main(["detect", "--method", method, "--in", ",".join(paths),
                         "--report", str(report), *extra])
        return code, report.read_text()


def _refuse_constant(token):
    raise AssertionError(f"report holds {token}")


def _assert_keeps_the_contract(method, values, data):
    extra = []
    if method == "fbplot":
        extra = ["--depth", data.draw(st.sampled_from(DEPTH_METHODS))]
    elif method == "seq":
        stages = ["O,T2"] if values.shape[2] > 1 else ["T0,T1,T2", "D0,D1,D2"]
        extra = ["--sequence", data.draw(st.sampled_from(stages))]
    elif method == "muod":
        extra = ["--cut", data.draw(st.sampled_from(MUOD_CUTS))]
    _assert_typed_report(*_run(method, values, extra))


def _assert_typed_report(code, text):
    assert code in (0, 2, 3)
    payload = json.loads(text, parse_constant=_refuse_constant)
    error = payload["error"]
    assert (error is None) == (code == 0)
    if error is not None:
        kind = getattr(fdout.errors, error["type"], None)
        assert isinstance(kind, type) and issubclass(kind, fdout.errors.FdoutError), error


@settings(max_examples=150)
@given(curve_values(), st.data())
def test_every_run_keeps_the_exit_contract(case, data):
    _assert_keeps_the_contract(*case, data)


@settings(max_examples=60)
@given(dependent_dimensions(), st.data())
def test_dependent_dimensions_keep_the_exit_contract(case, data):
    # until the geometric median's stall is fixed, NonConvergence (exit 3)
    # is an accepted outcome here
    _assert_keeps_the_contract(*case, data)


# float flag of detect -> the methods that read it
FLOAT_FLAGS = {
    "--level": ["msplot"],
    "--factor": ["fbplot", "seq", "tvdmss"],
    "--factor-mss": ["tvdmss"],
    "--central-region": ["fbplot", "seq", "tvdmss"],
}
SWEEP_VALUES = ["nan", "inf", "-inf", "-1", "0", "1", "2"]


@pytest.mark.parametrize("value", SWEEP_VALUES)
@pytest.mark.parametrize("flag,method", [
    (flag, method) for flag, methods in FLOAT_FLAGS.items() for method in methods
])
def test_float_flags_keep_the_exit_contract(flag, method, value):
    values = np.random.default_rng(14).standard_normal((40, 20, 1))
    code, text = _run(method, values, [f"{flag}={value}"])
    _assert_typed_report(code, text)
    if not np.isfinite(float(value)):
        assert code == 2, text


# a seed is Philox's 64-bit key: 0..2**64 - 1 runs, anything else exits 2
@pytest.mark.parametrize("seed", [-1, 2**64 - 1, 2**64])
@pytest.mark.parametrize("command", ["msplot", "seq", "depth", "simulate"])
def test_seed_flags_keep_the_exit_contract(command, seed):
    if command in ("msplot", "seq"):
        values = np.random.default_rng(14).standard_normal((40, 20, 1))
        code, text = _run(command, values, [f"--seed={seed}"])
        _assert_typed_report(code, text)
        error = json.loads(text)["error"]
        failure = error and f"{error['type']}: {error['message']}"
    else:
        with tempfile.TemporaryDirectory() as tmp:
            if command == "depth":
                data = str(Path(tmp) / "data.csv")
                values = np.random.default_rng(14).standard_normal((40, 20))
                write_curves(data, CurveSample(values, uniform_grid(20, 0, 1)))
                argv = ["depth", "--method", "mbd", "--in", data,
                        "--out", str(Path(tmp) / "depth.csv")]
            else:
                argv = ["simulate", "--model", "1", "--n", "20", "--p", "10", "--out", tmp]
            stderr = io.StringIO()
            with contextlib.redirect_stderr(stderr), contextlib.redirect_stdout(io.StringIO()):
                code = main([*argv, f"--seed={seed}"])
        failure = stderr.getvalue().strip()
    if 0 <= seed < 2**64:
        assert code == 0, failure
    else:
        assert code == 2
        assert failure == f"ValidationError: seed must be an integer in 0..2**64 - 1, got {seed}"


def _overflowing_summary():
    values = np.random.default_rng(1).standard_normal((40, 20))
    values[5] *= 1e200
    return values


def _near_constant_curve():
    rng = np.random.default_rng(2)
    values = rng.standard_normal((30, 20))
    values[4] = 1e-160 * rng.standard_normal(20)
    return values


# an overflow inside a detector is its own numeric error (exit 3), never the
# NonFiniteValue (exit 2) that the building blocks raise on outside arrays
@pytest.mark.parametrize("method, values, error, message", [
    ("msplot", _overflowing_summary(), "NonFiniteResult",
     "the MO/VO summary overflows for curves [5] (0-based)"),
    ("muod", _near_constant_curve(), "NonFiniteIndex",
     "the indices overflow for curves [4] (0-based): their variance over the grid "
     "is too small next to the sample's largest value"),
], ids=["msplot", "muod"])
def test_overflow_inside_a_detector_exits_3_naming_its_curves(method, values, error, message):
    code, text = _run(method, values[:, :, None], [])
    assert code == 3, text
    assert json.loads(text)["error"] == {"type": error, "message": message}
