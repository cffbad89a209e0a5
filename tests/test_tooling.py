"""Checks on what the tooling relies on.

The traced benchmark run (perfbench/tracer.py) wraps fdout functions by
attribute name; a name it lists that its owner no longer holds makes the
traced run fail, so the names are checked here, and so are the names the
package and its modules export. A cold CLI run is mostly import time, so
whether each step loads scipy, and which of its subpackages, is checked
too, and so is every op name the source gives the least-curves table, that
one helper owns numpy's ufunc buffer size, and that some module builds
each error type. A failing property test must not end the suite's run, so
that is checked in a fresh pytest process. The CI job at the declared floors must install what
pyproject.toml declares, and the console script it declares must resolve.
"""

import ast
import importlib
import importlib.util
import json
import os
import pkgutil
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import fdout
import fdout.cli  # noqa: F401 -- the tracer finds its owners in sys.modules
import fdout.errors
import fdout.report  # noqa: F401
from fdout.csvio import write_curves
from fdout.fdcore import LEAST_CURVES

ROOT = Path(__file__).resolve().parent.parent
TRACER = ROOT / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_boundary_is_an_attribute_of_its_owner():
    tracer = _load_tracer()
    missing = [
        f"{path}.{attr}"
        for path, attr, _name, _amount in tracer.BOUNDARIES
        if attr not in tracer._owner(path).__dict__
    ]
    assert missing == []


def test_traced_calls_run_under_every_wrapper(tmp_path):
    """The detectors and a CLI run with the boundary wrappers installed,
    each span's amount computed from what the wrapper sees."""
    tracer = _load_tracer()
    rec = tracer.Recorder()
    saved = tracer.install(rec)
    try:
        out = fdout.simulation_model(1, n=40, p=20, outlier_rate=0.1, seed=4)
        values = np.random.default_rng(400).standard_normal((40, 20, 2))
        multi = fdout.MultiCurveSample(values, out.data.grid)
        fdout.detect.msplot(out.data)
        fdout.detect.msplot(multi)
        fdout.detect.tvdmss(out.data)
        fdout.detect.seq_transform(multi, ["O", "T1"])
        fdout.muod(out.data)
        data, svg = str(tmp_path / "data.csv"), str(tmp_path / "plot.svg")
        write_curves(data, out.data)
        assert fdout.cli.main(["detect", "--method", "fbplot", "--in", data,
                               "--report", str(tmp_path / "r.json"), "--plot", svg]) == 0
    finally:
        tracer.uninstall(saved)
    amounts = {}
    for name, _start, _end, _parent, _op, amount in rec.spans:
        amounts.setdefault(name, []).append(amount)
    assert {"dirout.pointwise_sdo", "robust.fast_mcd", "depths.rankdata",
            "svgplot.emit_plot"} <= set(amounts)
    # pointwise SDO projects only d > 1 curves; the SVG is never empty
    assert max(amounts["dirout.pointwise_sdo"]) > 0.0
    assert amounts["svgplot.emit_plot"] == [float(Path(svg).stat().st_size)]


MODULES = ["fdout"] + [f"fdout.{info.name}" for info in pkgutil.iter_modules(fdout.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves_once(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", [])
    assert [n for n in exported if not hasattr(module, n)] == []
    assert len(set(exported)) == len(exported)


# runs in a fresh interpreter: whether scipy and which of its heavy
# subpackages are loaded after import, after rank-based CLI runs and after
# an msplot run
LOADED_SCIPY = """
import json, os, sys
work = sys.argv[1]
data, report = os.path.join(work, "data.csv"), os.path.join(work, "r.json")
def heavy():
    return [m for m in ("scipy", "scipy.stats", "scipy.linalg", "scipy.special")
            if m in sys.modules]
loaded = {}
import fdout
from fdout.cli import main
loaded["import"] = heavy()
assert main(["simulate", "--model", "1", "--n", "40", "--p", "20", "--out", work]) == 0
for method in ("fbplot", "tvdmss"):
    assert main(["detect", "--method", method, "--in", data, "--report", report]) == 0
loaded["fbplot_tvdmss"] = heavy()
assert main(["detect", "--method", "msplot", "--in", data, "--report", report]) == 0
loaded["msplot"] = heavy()
print(json.dumps(loaded))
"""


def test_only_msplot_loads_scipy_special(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-c", LOADED_SCIPY, str(tmp_path)],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    loaded = json.loads(proc.stdout.splitlines()[-1])
    assert loaded == {"import": [], "fbplot_tvdmss": [], "msplot": ["scipy", "scipy.special"]}


def test_every_op_given_the_least_curves_table_is_a_key_and_every_key_is_given():
    """A misspelt op would raise KeyError only once reached; an entry no call names is dead."""
    op_position = {"curve_values": 1, "least_curves": 0}
    literals = {
        call.args[op_position[name]].value
        for path in (ROOT / "src" / "fdout").glob("*.py")
        for call in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(call, ast.Call)
        and (name := getattr(call.func, "id", getattr(call.func, "attr", None))) in op_position
        and isinstance(call.args[op_position[name]], ast.Constant)
    }
    tabled = {op for op, _order in fdout.detect._DEPTHS.values()} | {
        op for op, _cut in sys.modules["fdout.muod"]._CUTOFFS.values()}
    assert sorted((literals | tabled) - set(LEAST_CURVES)) == []
    assert sorted(set(LEAST_CURVES) - literals) == []


def test_only_the_buffer_helper_sets_the_ufunc_buffer_size():
    """numpy's buffer size is process state: ``fdcore.small_ufunc_buffer``
    sets it and restores it, and no other code names ``setbufsize``."""
    def uses(tree):
        return sum("setbufsize" in (getattr(node, "attr", None), getattr(node, "id", None),
                                    getattr(node, "name", None))
                   for node in ast.walk(tree))

    trees = {path.name: ast.parse(path.read_text(encoding="utf-8"))
             for path in (ROOT / "src" / "fdout").glob("*.py")}
    helper = next(node for node in ast.walk(trees["fdcore.py"])
                  if isinstance(node, ast.FunctionDef) and node.name == "small_ufunc_buffer")
    assert uses(helper) == 2
    assert {name: uses(tree) for name, tree in trees.items() if uses(tree)} == {"fdcore.py": 2}


def test_every_error_type_is_built_by_some_module():
    """An error class no module builds is dead: a leftover of a removed
    check. The bases are caught, not built."""
    called = {
        getattr(call.func, "id", getattr(call.func, "attr", None))
        for path in (ROOT / "src" / "fdout").glob("*.py") if path.name != "errors.py"
        for call in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(call, ast.Call)
    }
    kinds = {name for name, kind in vars(fdout.errors).items()
             if isinstance(kind, type) and issubclass(kind, fdout.errors.FdoutError)}
    assert sorted(kinds - called) == ["FdoutError", "NumericError"]


FAILING_PROPERTY = """
from hypothesis import given, strategies as st


@given(st.integers())
def test_fails(x):
    assert x < 0


def test_plain():
    pass
"""


def test_a_failing_property_test_does_not_end_the_run(tmp_path):
    """The suite's warning filters and conftest, on a failing @given test
    followed by a plain one: both are reported, and pytest does not crash."""
    (tmp_path / "conftest.py").write_text((ROOT / "tests" / "conftest.py").read_text())
    (tmp_path / "test_property.py").write_text(FAILING_PROPERTY)
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "-c", str(ROOT / "pyproject.toml"), "--rootdir", str(tmp_path), str(tmp_path)],
        capture_output=True, text=True, timeout=120, cwd=tmp_path,
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
    )
    assert "INTERNALERROR" not in proc.stdout + proc.stderr
    assert "1 failed, 1 passed" in proc.stdout


def test_floors_job_installs_the_declared_floors():
    """The CI floors job runs the Python, numpy and scipy floors of pyproject.toml."""
    # Python 3.10 has no tomllib, so the floors are read by pattern
    pyproject = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    python = re.search(r'^requires-python = ">=([\d.]+)"$', pyproject, re.M).group(1)
    numpy_floor, scipy_floor = (re.search(rf'"{name}>=([\d.]+)"', pyproject).group(1)
                                for name in ("numpy", "scipy"))
    workflow = (ROOT / ".github" / "workflows" / "tests.yml").read_text(encoding="utf-8")
    floors = re.search(r"^  floors:\n((?:    .*\n|\n)*)", workflow, re.M).group(1)
    assert re.search(rf'^ +python-version: "{re.escape(python)}"$', floors, re.M)
    assert f'pip install "numpy=={numpy_floor}.*" "scipy=={scipy_floor}.*"' in floors


def test_the_console_script_resolves_to_a_callable():
    """The target of the fdout command that installing the package makes is a callable."""
    pyproject = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    scripts = re.search(r"^\[project\.scripts\]\n((?:.+\n)*)", pyproject, re.M).group(1)
    entries = dict(re.findall(r'^([\w-]+) = "([\w.:]+)"$', scripts, re.M))
    assert entries == {"fdout": "fdout.cli:main"}
    module, attribute = entries["fdout"].split(":")
    assert callable(getattr(importlib.import_module(module), attribute))
