"""Property test of the CLI exit-code contract on degenerate and extreme input.

Every ``fdout detect`` run ends with exit code 0, 2 or 3 and a report that is
strict JSON (no NaN or Infinity); a failed run names a typed ``FdoutError``.
"""

import contextlib
import io
import json
import tempfile
from pathlib import Path

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import fdout.errors
from fdout import CurveSample, uniform_grid
from fdout.cli import main
from fdout.csvio import write_curves
from fdout.detect import DEPTH_METHODS
from fdout.muod import MUOD_CUTS

# method -> (smallest n, smallest p) that the detector accepts for d = 1
MINIMUM_SIZE = {
    "msplot": (7, 2),
    "tvdmss": (5, 2),
    "seq": (3, 2),
    "muod": (3, 3),
    "fbplot": (3, 2),
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


@settings(max_examples=150)
@given(curve_values(), st.data())
def test_every_run_keeps_the_exit_contract(case, data):
    method, values = case
    extra = []
    if method == "fbplot":
        extra = ["--depth", data.draw(st.sampled_from(DEPTH_METHODS))]
    elif method == "seq":
        stages = ["O,T2"] if values.shape[2] > 1 else ["T0,T1,T2", "D0,D1,D2"]
        extra = ["--sequence", data.draw(st.sampled_from(stages))]
    elif method == "muod":
        extra = ["--cut", data.draw(st.sampled_from(MUOD_CUTS))]
    code, text = _run(method, values, extra)
    assert code in (0, 2, 3)
    payload = json.loads(text, parse_constant=_refuse_constant)
    error = payload["error"]
    assert (error is None) == (code == 0)
    if error is not None:
        kind = getattr(fdout.errors, error["type"], None)
        assert isinstance(kind, type) and issubclass(kind, fdout.errors.FdoutError), error
