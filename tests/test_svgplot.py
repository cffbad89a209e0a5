"""SVG files equal to the per-point reference renderer, and the plot path's
refusal of reports and samples it cannot draw faithfully.

The renderers map whole arrays onto pixels and format a row at a time; the
oracle maps and formats point by point. The files must agree byte for byte.
"""

import json

import numpy as np
import pytest

from fdout.cli import DETECTORS, main
from fdout.csvio import write_curves
from fdout.svgplot import render_curves, render_msplot

from . import oracles
from .conftest import make_sample


def _gaussian(n, p, seed=0, scale=1.0):
    return np.random.default_rng(seed).standard_normal((n, p)) * scale


SAMPLES = {
    "gaussian_5x3": lambda: make_sample(_gaussian(5, 3, 1)),
    "gaussian_2000x200": lambda: make_sample(_gaussian(2000, 200, 2)),
    "heavy_ties": lambda: make_sample(
        np.random.default_rng(3).integers(0, 3, size=(40, 25)).astype(float)),
    # a constant sample spans a point, which _span pads by 1 each side
    "constant": lambda: make_sample(np.full((6, 9), -2.5)),
    "times_1e300": lambda: make_sample(_gaussian(30, 20, 4, 1e300)),
    "times_1e-300": lambda: make_sample(_gaussian(30, 20, 5, 1e-300)),
    "non_uniform_grid": lambda: make_sample(
        _gaussian(25, 40, 6),
        grid=np.cumsum(np.random.default_rng(7).uniform(0.01, 1.0, 40))),
}

# the renderers ignore entries outside 0..n-1 and flag a repeated row once
OUTLIER_LISTS = {
    "none": lambda n: [],
    "unsorted_duplicated": lambda n: [n - 1, 2, 0, 2, n - 1],
    "out_of_range": lambda n: [-1, n, n + 5, 1],
    "all_rows": lambda n: list(range(n)),
}


@pytest.mark.parametrize("outliers", OUTLIER_LISTS)
@pytest.mark.parametrize("name", SAMPLES)
def test_curves_file_equals_oracle(name, outliers):
    sample = SAMPLES[name]()
    flagged = OUTLIER_LISTS[outliers](sample.n)
    assert render_curves(sample, flagged) == oracles.render_curves(sample, flagged)


@pytest.mark.parametrize("outliers", OUTLIER_LISTS)
@pytest.mark.parametrize("d", [1, 2, 3])
def test_msplot_file_equals_oracle(d, outliers):
    rng = np.random.default_rng(10 + d)
    m = 60
    mo = rng.standard_normal(m) if d == 1 else rng.standard_normal((m, d))
    vo = rng.exponential(size=m)
    flagged = OUTLIER_LISTS[outliers](m)
    assert render_msplot(mo, vo, flagged, d=d) == oracles.render_msplot(mo, vo, flagged, d=d)


def test_msplot_with_one_mo_column_equals_oracle():
    rng = np.random.default_rng(14)
    mo, vo = rng.standard_normal((20, 1)), rng.exponential(size=20)
    assert render_msplot(mo, vo, [3], d=1) == oracles.render_msplot(mo, vo, [3], d=1)


# ------------------------------------------------------- malformed reports

N_CURVES = 30


@pytest.fixture()
def curves_csv(tmp_path):
    path = tmp_path / "curves.csv"
    write_curves(str(path), make_sample(_gaussian(N_CURVES, 10, 8)))
    return str(path)


def _report(**fields):
    rng = np.random.default_rng(9)
    payload = {
        "schema_version": 1, "method": "msplot", "n": N_CURVES, "p": 10, "d": 1,
        "outliers": {"all": [2]},
        "diagnostics": {"mo": rng.standard_normal(N_CURVES).tolist(),
                        "vo": rng.exponential(size=N_CURVES).tolist()},
    }
    payload.update(fields)
    return payload


def _plot(tmp_path, csv, payload, kind):
    report_path = tmp_path / "report.json"
    report_path.write_text(json.dumps(payload))
    out = tmp_path / "plot.svg"
    rc = main(["plot", "--in", csv, "--kind", kind, "--report", str(report_path),
               "--out", str(out)])
    return rc, out


MALFORMED = {
    "entry_not_a_number": (_report(outliers={"all": ["x"]}), "curves"),
    "outliers_not_an_object": (_report(outliers=[1, 2]), "curves"),
    "outlier_class_not_a_list": (_report(outliers={"all": 3}), "curves"),
    "n_not_an_integer": (_report(n="abc"), "curves"),
    "d_is_a_bool": (_report(d=True), "msplot"),
    "schema_version_a_float": (_report(schema_version=1.0), "curves"),
    "not_an_object": (5, "curves"),
    "diagnostics_a_list": (_report(diagnostics=[1.0, 2.0]), "msplot"),
    "warnings_a_number": (_report(warnings=5), "curves"),
    "mo_of_strings": (_report(diagnostics={"mo": ["a"] * N_CURVES,
                                           "vo": [1.0] * N_CURVES}), "msplot"),
    "vo_holds_null": (_report(diagnostics={"mo": [0.5] * N_CURVES,
                                           "vo": [1.0] * (N_CURVES - 1) + [None]}), "msplot"),
    "entry_zero": (_report(outliers={"all": [0, 3]}), "curves"),
    "entry_past_n": (_report(outliers={"all": [3, N_CURVES + 5]}), "curves"),
    "entry_past_len_vo": (_report(outliers={"all": [N_CURVES + 1]}), "msplot"),
    "entry_a_float": (_report(outliers={"all": [1.7]}), "curves"),
    "entry_a_bool": (_report(outliers={"all": [True]}), "curves"),
}


@pytest.mark.parametrize("case", MALFORMED)
def test_malformed_report_exits_2_with_one_line(tmp_path, curves_csv, capsys, case):
    payload, kind = MALFORMED[case]
    rc, out = _plot(tmp_path, curves_csv, payload, kind)
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("InconsistentReport: ") and err.count("\n") == 1
    assert not out.exists()


@pytest.mark.parametrize("kind", ["curves", "msplot"])
def test_well_formed_report_flags_its_curve(tmp_path, curves_csv, kind):
    rc, out = _plot(tmp_path, curves_csv, _report(outliers={"all": [2, N_CURVES]}), kind)
    assert rc == 0
    text = out.read_text()
    marks = text.count("<polyline" if kind == "curves" else "<circle")
    assert marks == N_CURVES and text.count('"#d62728"') == 2


# ------------------------------------------------------ spans that overflow

def _overflow_csv(tmp_path):
    values = np.array([[1.7e308, -1.7e308, 0.0], [0.0, 1.0, -1.0],
                       [2.0, 3.0, 4.0], [-1.0, 0.5, 1.5]])
    path = tmp_path / "big.csv"
    write_curves(str(path), make_sample(values))
    return str(path)


def test_plot_of_an_overflowing_span_exits_3(tmp_path, capsys):
    out = tmp_path / "big.svg"
    rc = main(["plot", "--in", _overflow_csv(tmp_path), "--out", str(out)])
    assert rc == 3
    err = capsys.readouterr().err
    assert err.startswith("NonFiniteResult: ") and err.count("\n") == 1
    assert not out.exists()


def test_detect_refuses_an_overflowing_plot_before_detecting(tmp_path, capsys, monkeypatch):
    def detector(*args, **kwargs):
        raise AssertionError("detector ran although the plot cannot be drawn")

    monkeypatch.setitem(DETECTORS, "fbplot", detector)
    report_path, out = tmp_path / "r.json", tmp_path / "big.svg"
    rc = main(["detect", "--method", "fbplot", "--in", _overflow_csv(tmp_path),
               "--report", str(report_path), "--plot", str(out)])
    assert rc == 3
    assert json.loads(report_path.read_text())["error"]["type"] == "NonFiniteResult"
    assert capsys.readouterr().err.count("\n") == 1
    assert not out.exists()


def test_constant_curves_too_large_to_pad_have_no_scale(tmp_path, capsys):
    # 1e20 plus or minus 1 is 1e20, so the padded span has width 0
    path = tmp_path / "flat.csv"
    write_curves(str(path), make_sample(np.full((4, 3), 1e20)))
    rc = main(["plot", "--in", str(path), "--out", str(tmp_path / "flat.svg")])
    assert rc == 3
    assert capsys.readouterr().err.startswith("NonFiniteResult: ")
