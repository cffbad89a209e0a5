"""CSV/JSON/SVG serialisation and the command-line entry point.

CLI behaviour is exercised in process through ``main(argv)``; the exit-code
and byte-determinism contracts across OS processes are covered again in the
acceptance suite via subprocess. The BLAS thread-count test runs ``main`` in
one subprocess per thread count, since the count is fixed at numpy's import.
"""

import argparse
import csv
import dataclasses
import inspect
import json
import os
import re
import subprocess
import sys
import warnings

import numpy as np
import pytest

import fdout.cli
import fdout.detect
import fdout.report
from fdout.cli import DETECTORS, build_parser, main
from fdout.csvio import (
    atomic_write_text,
    read_curves,
    read_truth,
    write_curves,
    write_truth,
)
from fdout.depths import ERLD_TYPES
from fdout.detect import (
    DEPTH_METHODS,
    depth_by_name,
    functional_boxplot,
    msplot,
    seq_transform,
    tvdmss,
)
from fdout.errors import (
    EmptyInput,
    InconsistentReport,
    NonFiniteResult,
    ParseError,
    ShapeMismatch,
)
from fdout.fdcore import (
    CurveSample,
    MultiCurveSample,
    RandomSource,
    as_multivariate,
    uniform_grid,
)
from fdout.muod import MUOD_CUTS, muod
from fdout.report import DetectionReport, to_external_indices
from fdout.simmodels import simulation_model
from fdout.svgplot import PLOT_KINDS, _curve_parts, _msplot_parts, emit_plot

from .conftest import make_sample

HOSTILE = [np.pi, 1.0 / 3.0, 1e-300, 1e16 + 1.0, -0.0, 2.0 ** -1052, -1.5e300]


def _write(path, text):
    atomic_write_text(str(path), text)


class TestReadCurves:
    def test_header_row_becomes_grid(self, tmp_path):
        path = tmp_path / "a.csv"
        _write(path, "0,0.25,0.5,0.75\n1,2,3,4\n5,6,7,8\n9,10,11,12\n")
        sample = read_curves(str(path))
        assert isinstance(sample, CurveSample)
        assert sample.values.shape == (3, 4)
        assert np.array_equal(sample.grid.points, [0.0, 0.25, 0.5, 0.75])
        assert sample.ids is None

    def test_headerless_numeric_rows_get_uniform_grid(self, tmp_path):
        path = tmp_path / "a.csv"
        # first row is not strictly increasing, so it is data
        _write(path, "3,1,2\n4,5,6\n")
        sample = read_curves(str(path))
        assert sample.values.shape == (2, 3)
        assert np.array_equal(sample.grid.points, uniform_grid(3, 0.0, 1.0).points)

    def test_id_column_autodetected(self, tmp_path):
        path = tmp_path / "a.csv"
        _write(path, "id,0,0.5,1\ncurve_a,1,2,3\ncurve_b,4,5,6\n")
        sample = read_curves(str(path))
        assert tuple(sample.ids) == ("curve_a", "curve_b")
        assert np.array_equal(sample.grid.points, [0.0, 0.5, 1.0])
        assert np.array_equal(sample.values, [[1, 2, 3], [4, 5, 6]])

    def test_explicit_flags_override_detection(self, tmp_path):
        path = tmp_path / "a.csv"
        _write(path, "1,2,3\n4,5,6\n")
        forced = read_curves(str(path), header=False, id_column=True)
        assert tuple(forced.ids) == ("1", "4")
        assert forced.values.shape == (2, 2)

    def test_single_row_without_header_hint_is_data(self, tmp_path):
        path = tmp_path / "a.csv"
        _write(path, "1,2,3\n")
        sample = read_curves(str(path))
        assert sample.values.shape == (1, 3)

    def test_per_dimension_files(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        rng = np.random.default_rng(0)
        va, vb = rng.normal(size=(5, 10)), rng.normal(size=(5, 10))
        write_curves(str(a), CurveSample(va, uniform_grid(10, 0.0, 1.0)))
        write_curves(str(b), CurveSample(vb, uniform_grid(10, 0.0, 1.0)))
        sample = read_curves([str(a), str(b)])
        assert isinstance(sample, MultiCurveSample)
        assert sample.values.shape == (5, 10, 2)
        assert np.array_equal(sample.values[:, :, 0], va)
        assert np.array_equal(sample.values[:, :, 1], vb)

    def test_per_dimension_shape_mismatch(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        write_curves(str(a), CurveSample(np.zeros((5, 10)), uniform_grid(10, 0.0, 1.0)))
        write_curves(str(b), CurveSample(np.zeros((5, 9)), uniform_grid(9, 0.0, 1.0)))
        with pytest.raises(ShapeMismatch):
            read_curves([str(a), str(b)])

    def test_per_dimension_grid_mismatch(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        write_curves(str(a), CurveSample(np.zeros((4, 3)), uniform_grid(3, 0.0, 1.0)))
        write_curves(str(b), CurveSample(np.zeros((4, 3)), uniform_grid(3, 0.0, 2.0)))
        with pytest.raises(ShapeMismatch):
            read_curves([str(a), str(b)])

    def test_per_dimension_id_mismatch(self, tmp_path):
        # the same curves with their rows reversed: pairing rows by position
        # would mix curves
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        values = np.random.default_rng(1).normal(size=(6, 4))
        ids, grid = list("abcdef"), uniform_grid(4, 0.0, 1.0)
        write_curves(str(a), CurveSample(values, grid, ids=ids))
        write_curves(str(b), CurveSample(values[::-1], grid, ids=ids[::-1]))
        with pytest.raises(ShapeMismatch, match=r"b\.csv has id 'f' on curve row 1"):
            read_curves([str(a), str(b)])
        write_curves(str(b), CurveSample(values[::-1], grid))  # no ids: paired by row
        assert read_curves([str(a), str(b)]).ids == read_curves(str(a)).ids

    def test_bad_cell_reports_position(self, tmp_path):
        path = tmp_path / "a.csv"
        _write(path, "3,1,2\n4,oops,6\n")
        with pytest.raises(ParseError) as err:
            read_curves(str(path))
        assert err.value.line == 2
        assert err.value.column == 2

    @pytest.mark.parametrize("text, line, column", [
        ("1.0,2.0,3.0\n\n4.0,5.0,6.0\n7.0,x,9.0\n", 4, 2),
        ("id,0,0.5,1\n\n \na,1,2,3\n,,,\nb,4,5,y\n", 6, 4),
        ("1.0,2.0,3.0\n\n4.0,5.0\n", 3, 3),
    ])
    def test_positions_count_blank_lines(self, tmp_path, text, line, column):
        path = tmp_path / "a.csv"
        _write(path, text)
        with pytest.raises(ParseError) as err:
            read_curves(str(path))
        assert (err.value.line, err.value.column) == (line, column)

    def test_padded_cells_parse(self, tmp_path):
        path = tmp_path / "a.csv"
        _write(path, "3,1,2\n\x1c4 , 5\t,\u20036\n")
        assert np.array_equal(read_curves(str(path)).values, [[3, 1, 2], [4, 5, 6]])

    def test_ragged_rows_rejected(self, tmp_path):
        path = tmp_path / "a.csv"
        _write(path, "1,2,3\n4,5\n")
        with pytest.raises(ParseError):
            read_curves(str(path))

    def test_empty_file(self, tmp_path):
        path = tmp_path / "a.csv"
        _write(path, "\n\n")
        with pytest.raises(EmptyInput):
            read_curves(str(path))

    def test_header_only_file(self, tmp_path):
        path = tmp_path / "a.csv"
        _write(path, "0.0,0.5,1.0\n")
        with pytest.raises(EmptyInput):
            read_curves(str(path), header=True)


class TestRoundTrip:
    def test_write_read_is_bit_exact(self, tmp_path):
        grid = np.array([0.0, 1e-9, 1.0 / 3.0, 0.7, 1.0])
        values = np.array([HOSTILE[:5], HOSTILE[1:6]])
        sample = make_sample(values, grid=grid)
        path = tmp_path / "hostile.csv"
        write_curves(str(path), sample)
        back = read_curves(str(path))
        assert np.array_equal(back.values, values)
        assert np.array_equal(np.signbit(back.values), np.signbit(values))
        assert np.array_equal(back.grid.points, grid)

    def test_ids_survive_round_trip(self, tmp_path):
        sample = CurveSample(
            np.array([[1.0, 2.0], [3.0, 4.0]]),
            uniform_grid(2, 0.0, 1.0),
            ids=["first", "second"],
        )
        path = tmp_path / "ids.csv"
        write_curves(str(path), sample)
        back = read_curves(str(path))
        assert tuple(back.ids) == ("first", "second")
        assert np.array_equal(back.values, sample.values)

    def test_ids_with_commas_and_quotes_survive_round_trip(self, tmp_path):
        ids = ["a,b", 'say "hi"', "plain"]
        sample = CurveSample(np.arange(6.0).reshape(3, 2), uniform_grid(2, 0.0, 1.0), ids=ids)
        path = tmp_path / "ids.csv"
        write_curves(str(path), sample)
        rows = path.read_text().splitlines()[1:]
        assert rows == ['"a,b",0.0,1.0', '"say ""hi""",2.0,3.0', "plain,4.0,5.0"]
        back = read_curves(str(path))
        assert back.ids == tuple(ids)
        assert np.array_equal(back.values, sample.values)

    @pytest.mark.parametrize("ids", [["a", "b", "3"], ["1", "2", "3"], ["x", "-inf", "1e5"]])
    def test_numeric_looking_ids_survive_round_trip(self, tmp_path, ids):
        # the "id" header cell settles detection, whatever the last id looks like
        sample = CurveSample(np.arange(6.0).reshape(3, 2), uniform_grid(2, 0.0, 1.0), ids=ids)
        path = tmp_path / "ids.csv"
        write_curves(str(path), sample)
        back = read_curves(str(path))
        assert back.ids == tuple(ids)
        assert np.array_equal(back.values, sample.values)

    def test_padded_ids_survive_round_trip(self, tmp_path):
        ids = [" a ", "b\t", "  c"]
        sample = CurveSample(np.arange(6.0).reshape(3, 2), uniform_grid(2, 0.0, 1.0), ids=ids)
        path = tmp_path / "ids.csv"
        write_curves(str(path), sample)
        back = read_curves(str(path))
        assert back.ids == tuple(ids)
        assert np.array_equal(back.values, sample.values)

    def test_no_header_round_trip(self, tmp_path):
        values = np.array([[3.0, 1.0, 2.0], [0.5, 0.25, 0.125]])
        path = tmp_path / "nohdr.csv"
        path.write_text("".join(",".join(map(repr, row)) + "\n" for row in values.tolist()))
        back = read_curves(str(path), header=False)
        assert np.array_equal(back.values, values)

    @pytest.mark.parametrize("ids", [None, ["a", "b,c", 'd"e']])
    def test_write_curves_takes_a_d1_multivariate_sample(self, tmp_path, ids):
        sample = CurveSample(np.array([[0.1, -0.0], [1e-300, 2.0], [3.0, 5e300]]),
                             uniform_grid(2, 0.0, 1.0), ids=ids)
        write_curves(str(tmp_path / "uni.csv"), sample)
        write_curves(str(tmp_path / "multi.csv"), as_multivariate(sample))
        assert (tmp_path / "multi.csv").read_bytes() == (tmp_path / "uni.csv").read_bytes()

    def test_write_curves_rejects_multivariate(self, tmp_path):
        multi = MultiCurveSample(np.zeros((3, 4, 2)), uniform_grid(4, 0.0, 1.0))
        with pytest.raises(ShapeMismatch):
            write_curves(str(tmp_path / "m.csv"), multi)

    def test_atomic_write_leaves_no_temp_files(self, tmp_path):
        path = tmp_path / "out.txt"
        atomic_write_text(str(path), "abc\n")
        assert os.listdir(tmp_path) == ["out.txt"]

    def test_atomic_write_takes_pieces_and_removes_a_failed_temp_file(self, tmp_path):
        path = tmp_path / "out.txt"
        assert atomic_write_text(str(path), iter(["ab", "c\n"])) == 4
        assert path.read_text() == "abc\n"

        def failing():
            yield "partial"
            raise InconsistentReport("render failed")

        with pytest.raises(InconsistentReport):
            atomic_write_text(str(path), failing())
        assert os.listdir(tmp_path) == ["out.txt"]
        assert path.read_text() == "abc\n"

    @pytest.mark.parametrize("target, error", [
        ("nodir/out.txt", FileNotFoundError),  # the temp file cannot be opened
        ("taken", IsADirectoryError),  # the temp file cannot replace the target
    ])
    def test_failed_atomic_write_names_its_target(self, tmp_path, target, error):
        (tmp_path / "taken").mkdir()
        path = str(tmp_path / target)
        with pytest.raises(error) as caught:
            atomic_write_text(path, "abc\n")
        assert caught.value.filename == path and caught.value.filename2 is None
        assert str(caught.value).endswith(f": {path!r}")
        assert sorted(os.listdir(tmp_path)) == ["taken"]


class TestTruthFiles:
    def test_written_one_based(self, tmp_path):
        path = tmp_path / "truth.txt"
        write_truth(str(path), [9, 2, 4])
        assert path.read_text() == "3\n5\n10\n"
        assert np.array_equal(read_truth(str(path)), [2, 4, 9])

    def test_empty_truth(self, tmp_path):
        path = tmp_path / "truth.txt"
        write_truth(str(path), [])
        assert path.read_text() == ""
        assert read_truth(str(path)).size == 0

    @pytest.mark.parametrize("text, message", [
        ("3\nbogus\n", "line 2, column 1: expected an integer row index, got 'bogus'"),
        ("0\n-3\n2\n2\n", "line 1, column 1: row index 0 is below 1"),
        ("2\n\n-3\n", "line 3, column 1: row index -3 is below 1"),
        ("2\n5\n2\n", "line 3, column 1: row index 2 is repeated"),
    ], ids=["not_an_integer", "zero", "negative", "repeated"])
    def test_malformed_truth(self, tmp_path, text, message):
        path = tmp_path / "truth.txt"
        path.write_text(text)
        with pytest.raises(ParseError, match=f"^{re.escape(message)}$"):
            read_truth(str(path))


class TestReportJson:
    def _report(self):
        return DetectionReport(
            method="fbplot",
            parameters={"factor": 1.5, "depth": "mbd"},
            n=5, p=4, d=1,
            outliers={"all": [5], "shape": []},
            diagnostics={"depth": [0.1, 0.5, 0.7, 0.5, 0.1]},
            warnings=("check the grid",),
        )

    def test_round_trip(self):
        rep = self._report()
        back = DetectionReport.from_json(rep.to_json())
        assert back.method == rep.method
        assert back.parameters == rep.parameters
        assert (back.n, back.p, back.d) == (5, 4, 1)
        assert back.outliers == rep.outliers
        assert back.diagnostics == rep.diagnostics
        assert back.warnings == rep.warnings
        assert back.error is None
        assert back.schema_version == rep.schema_version

    def test_field_types_name_every_field(self):
        names = {f.name for f in dataclasses.fields(DetectionReport)}
        assert set(fdout.report._FIELD_TYPES) == names
        assert set(json.loads(self._report().to_json())) == names

    def test_every_field_round_trips(self):
        rep = DetectionReport(
            method="seq", parameters={"seed": 3, "sequence": ["T0", "O"]},
            n=5, p=4, d=2, outliers={"all": [1, 5], "shape": [5]},
            diagnostics={"stages": [{"label": "T0", "outliers": [1]}]},
            warnings=("one", "two"), error={"type": "ParseError", "message": "m"},
            schema_version=7,
        )
        assert DetectionReport.from_json(rep.to_json()) == rep

    def test_an_error_report_leaves_the_other_fields_empty(self):
        rep = DetectionReport(method="msplot", error={"type": "E", "message": "m"})
        assert json.loads(rep.to_json()) == {
            "schema_version": 1, "method": "msplot", "parameters": {}, "n": 0, "p": 0,
            "d": 0, "outliers": {}, "diagnostics": {}, "warnings": [],
            "error": {"type": "E", "message": "m"},
        }

    def test_serialisation_is_deterministic(self):
        assert self._report().to_json() == self._report().to_json()

    def test_numpy_payloads_become_plain_json(self):
        rep = DetectionReport(
            method="m", parameters={"seed": np.int64(3)}, n=2, p=2, d=1,
            outliers={"all": to_external_indices(np.array([1], dtype=np.intp))},
            diagnostics={"scores": np.array([0.5, np.float64(1.0)])},
        )
        payload = json.loads(rep.to_json())
        assert payload["outliers"]["all"] == [2]
        assert payload["parameters"]["seed"] == 3
        assert payload["diagnostics"]["scores"] == [0.5, 1.0]

    def test_a_value_json_cannot_hold_is_refused(self):
        rep = DetectionReport(method="m", parameters={}, n=2, p=2, d=1,
                              outliers={"all": []}, diagnostics={"scores": {0.5}})
        with pytest.raises(TypeError, match="^set is not JSON serializable$"):
            rep.to_json()

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_values_are_refused(self, value):
        rep = DetectionReport(method="m", parameters={}, n=2, p=2, d=1,
                              outliers={"all": []}, diagnostics={"scores": [0.5, value]})
        with pytest.raises(NonFiniteResult):
            rep.to_json()

    def test_invalid_json_rejected(self):
        with pytest.raises(InconsistentReport):
            DetectionReport.from_json("{not json")

    def test_missing_keys_rejected(self):
        with pytest.raises(InconsistentReport, match="required keys"):
            DetectionReport.from_json('{"method": "x"}')

    def test_external_indices_sorted_one_based(self):
        assert to_external_indices(np.array([4, 0, 2])) == [1, 3, 5]


class TestSvg:
    def _sample(self):
        rng = np.random.default_rng(7)
        return make_sample(rng.normal(size=(5, 12)))

    def test_one_polyline_per_curve(self):
        text = "".join(_curve_parts(self._sample(), [2]))
        assert text.count("<polyline") == 5
        assert text.count('stroke="#d62728"') == 1
        assert text.startswith('<?xml version="1.0"')
        assert text.rstrip().endswith("</svg>")

    def test_flagged_curves_drawn_last(self):
        text = "".join(_curve_parts(self._sample(), [0]))
        last_poly = text.rfind("<polyline")
        assert text.find('stroke="#d62728"', last_poly) > 0

    def test_rendering_is_deterministic(self):
        a = "".join(_curve_parts(self._sample(), [1, 3]))
        b = "".join(_curve_parts(self._sample(), [1, 3]))
        assert a == b

    def test_msplot_axis_labels(self):
        mo = np.array([0.1, -0.2, 0.3])
        vo = np.array([0.5, 0.6, 0.7])
        univariate = "".join(_msplot_parts(mo, vo, [1], 1))
        assert ">MO</text>" in univariate and ">VO</text>" in univariate
        assert univariate.count("<circle") == 3
        multi = "".join(_msplot_parts(np.abs(mo), vo, [], 2))
        assert ">||MO||</text>" in multi

    def test_emit_plot_validates_kind_and_shape(self, tmp_path):
        sample = self._sample()
        report = DetectionReport(
            method="fbplot", parameters={}, n=5, p=12, d=1, outliers={"all": []}
        )
        with pytest.raises(InconsistentReport):
            emit_plot(report, sample, "histogram", str(tmp_path / "x.svg"))
        wrong_n = DetectionReport(
            method="fbplot", parameters={}, n=7, p=12, d=1, outliers={"all": []}
        )
        with pytest.raises(InconsistentReport):
            emit_plot(wrong_n, sample, "curves", str(tmp_path / "x.svg"))

    def test_emit_msplot_needs_diagnostics(self, tmp_path):
        report = DetectionReport(
            method="msplot", parameters={}, n=3, p=4, d=1, outliers={"all": []}
        )
        with pytest.raises(InconsistentReport, match="diagnostics"):
            emit_plot(report, None, "msplot", str(tmp_path / "x.svg"))

    def test_emit_plot_rejects_truly_multivariate_curves(self, tmp_path):
        multi = MultiCurveSample(np.zeros((3, 4, 2)), uniform_grid(4, 0.0, 1.0))
        report = DetectionReport(
            method="msplot", parameters={}, n=3, p=4, d=2, outliers={"all": []}
        )
        with pytest.raises(InconsistentReport, match="univariate"):
            emit_plot(report, multi, "curves", str(tmp_path / "x.svg"))


@pytest.fixture()
def boxplot_csv(tmp_path):
    """Five constant curves; level 10 is the magnitude outlier (row 5)."""
    values = np.repeat(np.array([0.0, 1.0, 2.0, 3.0, 10.0])[:, None], 4, axis=1)
    path = tmp_path / "levels.csv"
    write_curves(str(path), make_sample(values, grid=np.array([0.0, 0.25, 0.5, 0.75])))
    return str(path)


class TestCliCommands:
    def test_simulate_writes_data_and_truth(self, tmp_path, capsys):
        out_dir = tmp_path / "sim"
        rc = main([
            "simulate", "--model", "5", "--n", "30", "--p", "20", "--rate", "0.2",
            "--seed", "3", "--deterministic", "--out", str(out_dir),
        ])
        assert rc == 0
        assert "wrote" in capsys.readouterr().out
        sample = read_curves(str(out_dir / "data.csv"))
        truth = read_truth(str(out_dir / "truth.txt"))
        expected = simulation_model(
            5, n=30, p=20, outlier_rate=0.2, deterministic=True, seed=3
        )
        assert np.array_equal(sample.values, expected.data.values)
        assert np.array_equal(sample.grid.points, expected.data.grid.points)
        assert np.array_equal(truth, expected.true_outliers)
        assert truth.size == 6

    def test_simulate_rate_zero_empty_truth(self, tmp_path):
        out_dir = tmp_path / "sim"
        rc = main([
            "simulate", "--model", "1", "--n", "8", "--p", "6",
            "--rate", "0", "--out", str(out_dir),
        ])
        assert rc == 0
        assert read_truth(str(out_dir / "truth.txt")).size == 0

    def test_detect_fbplot_report(self, tmp_path, boxplot_csv):
        report_path = tmp_path / "report.json"
        rc = main([
            "detect", "--method", "fbplot", "--in", boxplot_csv,
            "--report", str(report_path),
        ])
        assert rc == 0
        payload = json.loads(report_path.read_text())
        assert payload["method"] == "fbplot"
        assert payload["outliers"]["all"] == [5]
        assert payload["n"] == 5 and payload["p"] == 4 and payload["d"] == 1
        assert len(payload["diagnostics"]["depth"]) == 5
        assert payload["schema_version"] == 1
        assert payload["warnings"] == []

    def test_detect_tvdmss_report_classes(self, tmp_path, boxplot_csv):
        report_path = tmp_path / "report.json"
        rc = main([
            "detect", "--method", "tvdmss", "--in", boxplot_csv,
            "--report", str(report_path),
        ])
        assert rc == 0
        payload = json.loads(report_path.read_text())
        assert set(payload["outliers"]) == {"all", "shape", "magnitude"}
        assert payload["outliers"]["magnitude"] == [5]
        assert payload["outliers"]["shape"] == []
        assert payload["outliers"]["all"] == [5]

    def test_factor_sets_the_tvdmss_fence(self, tmp_path, capsys):
        # level 7 lies beyond the 1.5 fence of the central levels 1..3, inside the 3 fence
        values = np.repeat(np.array([0.0, 1.0, 2.0, 3.0, 7.0])[:, None], 4, axis=1)
        path = tmp_path / "levels.csv"
        write_curves(str(path), make_sample(values))
        report_path = tmp_path / "report.json"
        argv = ["detect", "--method", "tvdmss", "--in", str(path), "--report", str(report_path)]
        for extra, factor, magnitude in (([], 1.5, [5]), (["--factor", "3"], 3.0, [])):
            assert main(argv + extra) == 0
            payload = json.loads(report_path.read_text())
            assert payload["parameters"]["emp_factor_tvd"] == factor
            assert payload["outliers"]["magnitude"] == magnitude
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--factor-tvd", "2"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --factor-tvd 2" in capsys.readouterr().err

    def test_detect_msplot_matches_library(self, tmp_path):
        out_dir = tmp_path / "sim"
        main([
            "simulate", "--model", "1", "--n", "30", "--p", "20", "--rate", "0.2",
            "--seed", "3", "--deterministic", "--out", str(out_dir),
        ])
        report_path = tmp_path / "report.json"
        rc = main([
            "detect", "--method", "msplot", "--in", str(out_dir / "data.csv"),
            "--report", str(report_path), "--level", "0.01", "--seed", "5",
        ])
        assert rc == 0
        payload = json.loads(report_path.read_text())
        sample = read_curves(str(out_dir / "data.csv"))
        res = msplot(sample, level=0.01, rng=RandomSource(5))
        assert payload["outliers"]["all"] == to_external_indices(res.outliers)
        assert payload["parameters"]["level"] == 0.01
        assert len(payload["diagnostics"]["mo"]) == 30

    def test_detect_seq_stages(self, tmp_path):
        out_dir = tmp_path / "sim"
        main([
            "simulate", "--model", "1", "--n", "25", "--p", "15", "--rate", "0.2",
            "--seed", "11", "--deterministic", "--out", str(out_dir),
        ])
        report_path = tmp_path / "report.json"
        rc = main([
            "detect", "--method", "seq", "--in", str(out_dir / "data.csv"),
            "--report", str(report_path), "--sequence", "T0,T1,T2",
        ])
        assert rc == 0
        payload = json.loads(report_path.read_text())
        labels = [s["label"] for s in payload["diagnostics"]["stages"]]
        assert labels == ["T0", "T1", "T2"]
        union = sorted(set().union(*[s["outliers"] for s in payload["diagnostics"]["stages"]]))
        assert payload["outliers"]["all"] == union
        assert payload["parameters"]["sequence"] == ["T0", "T1", "T2"]

    def test_detect_muod_report(self, tmp_path):
        out_dir = tmp_path / "sim"
        main([
            "simulate", "--model", "1", "--n", "40", "--p", "20", "--rate", "0.1",
            "--seed", "2", "--deterministic", "--out", str(out_dir),
        ])
        report_path = tmp_path / "report.json"
        rc = main([
            "detect", "--method", "muod", "--in", str(out_dir / "data.csv"),
            "--report", str(report_path),
        ])
        assert rc == 0
        payload = json.loads(report_path.read_text())
        assert set(payload["outliers"]) == {"all", "shape", "magnitude", "amplitude"}
        sample = read_curves(str(out_dir / "data.csv"))
        flags, _ = muod(sample)
        assert payload["outliers"]["magnitude"] == to_external_indices(flags.magnitude)

    def test_detect_muod_tangent_on_extreme_magnitudes(self, tmp_path):
        path = tmp_path / "huge.csv"
        values = np.random.default_rng(5).standard_normal((20, 6)) * 1e300
        write_curves(str(path), make_sample(values))
        report_path = tmp_path / "report.json"
        rc = main([
            "detect", "--method", "muod", "--cut", "tangent", "--in", str(path),
            "--report", str(report_path),
        ])
        assert rc == 0
        text = report_path.read_text()
        assert "NaN" not in text
        flags, _ = muod(read_curves(str(path)), cut_method="tangent")
        assert json.loads(text)["outliers"]["shape"] == to_external_indices(flags.shape)

    def test_detect_msplot_on_extreme_magnitudes_in_two_dimensions(self, tmp_path):
        # each pointwise geometric median is solved in units of its cloud's
        # largest |value|, so 1e300 curves flag what the unscaled ones flag
        values = np.random.default_rng(3).standard_normal((20, 6, 2))
        flagged = []
        for scale in (1.0, 1e300):
            paths = [str(tmp_path / f"dim{k}_{scale:g}.csv") for k in range(2)]
            for k, path in enumerate(paths):
                write_curves(path, make_sample(values[:, :, k] * scale))
            report_path = tmp_path / f"report_{scale:g}.json"
            rc = main(["detect", "--method", "msplot", "--in", ",".join(paths),
                       "--report", str(report_path)])
            assert rc == 0
            flagged.append(json.loads(report_path.read_text())["outliers"]["all"])
        assert flagged[1] == flagged[0] == [1]

    def test_depth_subcommand_matches_library(self, tmp_path, boxplot_csv):
        out_path = tmp_path / "depth.csv"
        rc = main([
            "depth", "--method", "mbd", "--in", boxplot_csv, "--out", str(out_path),
        ])
        assert rc == 0
        lines = out_path.read_text().strip().split("\n")
        assert lines[0] == "curve,score"
        assert len(lines) == 6
        sample = read_curves(boxplot_csv)
        expected = depth_by_name(sample, "mbd").scores
        for k, line in enumerate(lines[1:]):
            label, score = line.split(",")
            assert label == str(k + 1)
            assert float(score) == expected[k]

    def test_depth_subcommand_uses_ids(self, tmp_path):
        path = tmp_path / "ids.csv"
        sample = CurveSample(
            np.array([[0.0, 0.0], [1.0, 1.0], [2.0, 2.0]]),
            uniform_grid(2, 0.0, 1.0),
            ids=["low", "mid", "high"],
        )
        write_curves(str(path), sample)
        out_path = tmp_path / "depth.csv"
        rc = main(["depth", "--method", "mbd", "--in", str(path), "--out", str(out_path)])
        assert rc == 0
        labels = [line.split(",")[0] for line in out_path.read_text().strip().split("\n")[1:]]
        assert labels == ["low", "mid", "high"]

    def test_depth_subcommand_quotes_ids_with_commas(self, tmp_path):
        path = tmp_path / "ids.csv"
        ids = ["a,b", 'q"x', "plain"]
        write_curves(str(path), CurveSample(np.arange(6.0).reshape(3, 2),
                                            uniform_grid(2, 0.0, 1.0), ids=ids))
        out_path = tmp_path / "depth.csv"
        rc = main(["depth", "--method", "mbd", "--in", str(path), "--out", str(out_path)])
        assert rc == 0
        with open(out_path, newline="") as handle:
            rows = list(csv.reader(handle))
        assert [len(row) for row in rows] == [2, 2, 2, 2]
        assert [row[0] for row in rows] == ["curve", *ids]
        assert out_path.read_text().splitlines()[3].startswith("plain,")

    def test_erld_type_flag_changes_scores(self, tmp_path, boxplot_csv):
        paths = [tmp_path / "r.csv", tmp_path / "l.csv"]
        for path, kind in zip(paths, ["one_sided_right", "one_sided_left"]):
            rc = main([
                "depth", "--method", "erld", "--erld-type", kind,
                "--in", boxplot_csv, "--out", str(path),
            ])
            assert rc == 0
        assert paths[0].read_text() != paths[1].read_text()

    def test_plot_subcommand_matches_detect_plot(self, tmp_path, boxplot_csv):
        report_path = tmp_path / "report.json"
        via_detect = tmp_path / "a.svg"
        rc = main([
            "detect", "--method", "fbplot", "--in", boxplot_csv,
            "--report", str(report_path), "--plot", str(via_detect),
        ])
        assert rc == 0
        via_plot = tmp_path / "b.svg"
        rc = main([
            "plot", "--in", boxplot_csv, "--report", str(report_path),
            "--out", str(via_plot),
        ])
        assert rc == 0
        assert via_detect.read_bytes() == via_plot.read_bytes()
        text = via_plot.read_text()
        assert text.count("<polyline") == 5
        assert text.count('stroke="#d62728"') == 1

    def test_plot_without_report_highlights_nothing(self, tmp_path, boxplot_csv):
        out = tmp_path / "plain.svg"
        rc = main(["plot", "--in", boxplot_csv, "--out", str(out)])
        assert rc == 0
        assert out.read_text().count('stroke="#d62728"') == 0

    def test_msplot_svg_kind(self, tmp_path):
        out_dir = tmp_path / "sim"
        main([
            "simulate", "--model", "1", "--n", "30", "--p", "20", "--rate", "0.2",
            "--seed", "3", "--deterministic", "--out", str(out_dir),
        ])
        svg_path = tmp_path / "ms.svg"
        rc = main([
            "detect", "--method", "msplot", "--in", str(out_dir / "data.csv"),
            "--report", str(tmp_path / "r.json"), "--level", "0.01",
            "--plot", str(svg_path), "--plot-kind", "msplot",
        ])
        assert rc == 0
        text = svg_path.read_text()
        assert ">MO</text>" in text and ">VO</text>" in text
        assert text.count("<circle") == 30

    def test_rerun_is_byte_identical(self, tmp_path, boxplot_csv):
        reports, svgs = [], []
        for tag in ("one", "two"):
            report_path = tmp_path / f"{tag}.json"
            svg_path = tmp_path / f"{tag}.svg"
            rc = main([
                "detect", "--method", "fbplot", "--in", boxplot_csv,
                "--report", str(report_path), "--plot", str(svg_path),
            ])
            assert rc == 0
            reports.append(report_path.read_bytes())
            svgs.append(svg_path.read_bytes())
        assert reports[0] == reports[1]
        assert svgs[0] == svgs[1]

    def test_non_uniform_grid_warning(self, tmp_path):
        path = tmp_path / "warped.csv"
        _write(path, "0.0,0.1,0.5,1.0\n" + "\n".join(
            ",".join(str(float(v)) for v in row)
            for row in np.repeat(np.arange(5.0)[:, None], 4, axis=1)
        ) + "\n")
        report_path = tmp_path / "report.json"
        rc = main([
            "detect", "--method", "fbplot", "--in", str(path),
            "--report", str(report_path),
        ])
        assert rc == 0
        payload = json.loads(report_path.read_text())
        assert any("non-uniform" in w for w in payload["warnings"])


@pytest.fixture(scope="module")
def sim_csv(tmp_path_factory):
    """Model 1, 30 curves on 20 points, three planted outliers."""
    path = tmp_path_factory.mktemp("sim") / "data.csv"
    out = simulation_model(1, n=30, p=20, outlier_rate=0.1, deterministic=True, seed=3)
    write_curves(str(path), out.data)
    return str(path)


# method -> (resolved parameters at the flag defaults, outlier classes, diagnostics)
DETECT_REPORTS = {
    "msplot": (
        {"level": 0.05, "coverage": None, "seed": 0},
        {"all"},
        {"mo", "vo", "distances", "cutoff_threshold", "cutoff_dof"},
    ),
    "tvdmss": (
        {"emp_factor_mss": 1.5, "emp_factor_tvd": 1.5, "central_region_tvd": 0.5},
        {"all", "shape", "magnitude"},
        {"tvd", "mss"},
    ),
    "seq": (
        {"sequence": ["T0", "T1", "T2"], "depth": "mbd", "erld_type": None,
         "seed": 0, "central_region": 0.5, "factor": 1.5},
        {"all"},
        {"stages", "new_per_stage"},
    ),
    "muod": (
        {"cut": "boxplot"},
        {"all", "shape", "magnitude", "amplitude"},
        {"index_shape", "index_magnitude", "index_amplitude"},
    ),
    "fbplot": (
        {"depth": "mbd", "erld_type": None, "central_region": 0.5, "factor": 1.5},
        {"all"},
        {"depth", "depth_direction", "central", "envelope_lower", "envelope_upper",
         "fence_lower", "fence_upper"},
    ),
}


class TestEveryMethodReport:
    def test_table_covers_every_method(self):
        assert list(DETECT_REPORTS) == list(DETECTORS)

    @pytest.mark.parametrize("method", list(DETECT_REPORTS))
    def test_report_layout(self, tmp_path, sim_csv, method):
        parameters, classes, diagnostics = DETECT_REPORTS[method]
        report_path = tmp_path / "r.json"
        rc = main(["detect", "--method", method, "--in", sim_csv,
                   "--report", str(report_path)])
        assert rc == 0
        payload = json.loads(report_path.read_text())
        assert payload["parameters"] == parameters
        assert set(payload["outliers"]) == classes
        assert set(payload["diagnostics"]) == diagnostics
        assert (payload["n"], payload["p"], payload["d"]) == (30, 20, 1)
        assert payload["error"] is None
        union = set().union(*(payload["outliers"][c] for c in classes))
        assert payload["outliers"]["all"] == sorted(union)

    @pytest.mark.parametrize("method", list(DETECT_REPORTS))
    def test_one_file_per_dimension_input_matches_wide(
        self, tmp_path, sim_csv, method, monkeypatch
    ):
        # the d = 1 MultiCurveSample that one per-dimension file stands for
        # reports exactly as the wide CurveSample read from the file
        wide, per_dimension = tmp_path / "wide.json", tmp_path / "per_dimension.json"
        assert main(["detect", "--method", method, "--in", sim_csv, "--report", str(wide)]) == 0
        read = fdout.cli.read_curves
        monkeypatch.setattr(fdout.cli, "read_curves",
                            lambda *args, **kwargs: as_multivariate(read(*args, **kwargs)))
        assert main(["detect", "--method", method, "--in", sim_csv,
                     "--report", str(per_dimension)]) == 0
        assert wide.read_text() == per_dimension.read_text()

    @pytest.mark.parametrize("method", DEPTH_METHODS)
    def test_depth_subcommand_every_method(self, tmp_path, sim_csv, method):
        out_path = tmp_path / "depth.csv"
        rc = main(["depth", "--method", method, "--in", sim_csv, "--out", str(out_path)])
        assert rc == 0
        lines = out_path.read_text().strip().split("\n")
        assert lines[0] == "curve,score"
        expected = depth_by_name(read_curves(sim_csv), method, rng=RandomSource(0)).scores
        assert [float(line.split(",")[1]) for line in lines[1:]] == expected.tolist()


# runs every fdout.cli.main argv of a JSON list in one process, so that the
# interpreter and import cost is paid once per thread count
_RUN_COMMANDS = """
import json, sys
from fdout.cli import main
for argv in json.loads(sys.argv[1]):
    assert main(argv) == 0, argv
"""


def test_cli_report_is_the_same_at_every_blas_thread_count(tmp_path):
    # the inputs are written once: fdout simulate itself is not thread-invariant
    big, small, second = (str(tmp_path / name) for name in ("big.csv", "small.csv", "second.csv"))
    write_curves(big, simulation_model(3, n=2000, p=200, seed=3).data)
    write_curves(small, simulation_model(6, n=500, p=100, seed=3).data)
    write_curves(second, simulation_model(6, n=500, p=100, seed=4).data)

    def commands(out):
        runs = []
        for name, path in (("big", big), ("small", small)):
            for method in DETECTORS:
                runs.append(["detect", "--method", method, "--in", path,
                             "--report", f"{out}/{name}_{method}.json",
                             "--plot", f"{out}/{name}_{method}.svg",
                             *(["--plot-kind", "msplot"] if method == "msplot" else [])])
            # BD is the one cubic ordering: the smaller sample is enough
            for method in (m for m in DEPTH_METHODS if m != "bd" or path == small):
                runs.append(["depth", "--method", method, "--in", path,
                             "--out", f"{out}/{name}_{method}.csv"])
        runs.append(["plot", "--in", small, "--report", f"{out}/small_fbplot.json",
                     "--out", f"{out}/plot.svg"])
        runs.append(["detect", "--method", "msplot", "--in", f"{small},{second}",
                     "--report", f"{out}/two_files_msplot.json",
                     "--plot", f"{out}/two_files_msplot.svg", "--plot-kind", "msplot"])
        runs.append(["detect", "--method", "seq", "--sequence", "O,T1,D1",
                     "--in", f"{small},{second}", "--report", f"{out}/two_files_seq.json"])
        return runs

    # the two thread counts run side by side, each in its own output directory,
    # so the test takes about as long as one of them
    procs = {}
    for threads in ("1", "2"):
        (tmp_path / threads).mkdir()
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads,
                   MKL_NUM_THREADS=threads)
        with open(tmp_path / f"{threads}.err", "w") as stderr:
            procs[threads] = subprocess.Popen(
                [sys.executable, "-c", _RUN_COMMANDS, json.dumps(commands(tmp_path / threads))],
                env=env, stderr=stderr)
    outputs = {}
    for threads, proc in procs.items():
        assert proc.wait(timeout=300) == 0, (tmp_path / f"{threads}.err").read_text()
        outputs[threads] = {path.name: path.read_bytes() for path in (tmp_path / threads).iterdir()}
    assert len(outputs["1"]) == len(outputs["2"]) == 39
    for name, data in outputs["1"].items():
        assert outputs["2"][name] == data, name


@pytest.fixture(scope="module", params=["nan", "inf"])
def nonfinite_csv(request, tmp_path_factory):
    """The sim_csv data with one non-finite cell: curve 2 (row 1), grid point 4 (col 3)."""
    out = simulation_model(1, n=30, p=20, outlier_rate=0.1, deterministic=True, seed=3)
    path = tmp_path_factory.mktemp("nonfinite") / f"{request.param}.csv"
    write_curves(str(path), out.data)
    lines = path.read_text().split("\n")
    cells = lines[2].split(",")
    cells[3] = request.param
    lines[2] = ",".join(cells)
    path.write_text("\n".join(lines))
    return str(path)


class TestNonFiniteInput:
    @pytest.mark.parametrize("method", list(DETECTORS))
    def test_detect_exits_2_with_error_report(self, tmp_path, nonfinite_csv, method):
        report_path = tmp_path / "r.json"
        rc = main(["detect", "--method", method, "--in", nonfinite_csv,
                   "--report", str(report_path)])
        assert rc == 2
        payload = json.loads(report_path.read_text())
        assert payload["error"] == {"type": "NonFiniteValue",
                                    "message": "non-finite value at (1, 3)"}

    @pytest.mark.parametrize("method", DEPTH_METHODS)
    def test_depth_exits_2(self, tmp_path, nonfinite_csv, method, capsys):
        out_path = tmp_path / "depth.csv"
        rc = main(["depth", "--method", method, "--in", nonfinite_csv,
                   "--out", str(out_path)])
        assert rc == 2
        assert "NonFiniteValue" in capsys.readouterr().err
        assert not out_path.exists()


def _near_largest_double_csv(tmp_path):
    """30 x 8 curves of mixed sign within 1 % of +-1.7e308, written as a CSV."""
    rng = np.random.default_rng(1)
    signs = rng.choice([-1.0, 1.0], size=(30, 8))
    values = signs * rng.uniform(0.99, 1.0, size=(30, 8)) * 1.7e308
    path = tmp_path / "edge.csv"
    write_curves(str(path), make_sample(values))
    return path


def _write_bytes(path, data: bytes) -> str:
    path.write_bytes(data)
    return str(path)


# case -> (error type, argv(tmp_path, data csv) without detect's --report): a
# file that cannot be opened, decoded or split into cells, or an SVG that
# cannot be written, is invalid input
FILE_FAILURES = {
    "missing_in": ("FileNotFoundError", lambda tmp, data: [
        "detect", "--method", "fbplot", "--in", str(tmp / "nope.csv")]),
    "directory_in": ("IsADirectoryError", lambda tmp, data: [
        "detect", "--method", "fbplot", "--in", str(tmp)]),
    "undecodable_csv": ("UnicodeDecodeError", lambda tmp, data: [
        "detect", "--method", "fbplot",
        "--in", _write_bytes(tmp / "bad.csv", b"\xff1,2\n3,4\n")]),
    "overlong_cell": ("ParseError", lambda tmp, data: [
        "detect", "--method", "fbplot", "--in", _write_bytes(
            tmp / "long.csv", b"1,2\n3," + b"4" * (csv.field_size_limit() + 1) + b"\n")]),
    "undecodable_plot_report": ("UnicodeDecodeError", lambda tmp, data: [
        "plot", "--in", data, "--report", _write_bytes(tmp / "bad.json", b"\xff{}"),
        "--out", str(tmp / "x.svg")]),
    "plot_in_missing_directory": ("FileNotFoundError", lambda tmp, data: [
        "detect", "--method", "fbplot", "--in", data,
        "--plot", str(tmp / "nodir" / "x.svg")]),
}


class TestCliErrors:
    @pytest.mark.parametrize("case", FILE_FAILURES)
    def test_file_failure_exits_2_with_one_line_and_error_report(
            self, tmp_path, sim_csv, case, capsys):
        error_type, make_argv = FILE_FAILURES[case]
        argv = make_argv(tmp_path, sim_csv)
        report_path = tmp_path / "r.json"
        if argv[0] == "detect":
            argv += ["--report", str(report_path)]
        reports = []
        for _run in range(2):
            assert main(argv) == 2
            err = capsys.readouterr().err
            assert err.startswith(f"{error_type}: ") and err.count("\n") == 1
            assert ".tmp." not in err  # an atomic write names its target, not its temp file
            if argv[0] == "detect":
                reports.append(report_path.read_bytes())
                report_path.unlink()
        if reports:
            assert reports[0] == reports[1]
            assert json.loads(reports[0])["error"]["type"] == error_type

    def test_malformed_csv_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("1,2,3\n4,BANG,6\n")
        rc = main([
            "detect", "--method", "fbplot", "--in", str(bad),
            "--report", str(tmp_path / "r.json"),
        ])
        assert rc == 2
        assert "ParseError" in capsys.readouterr().err

    def test_bad_parameter_exits_2_with_error_report(self, tmp_path):
        path = tmp_path / "ten.csv"
        rng = np.random.default_rng(3)
        write_curves(str(path), make_sample(rng.normal(size=(10, 6))))
        report_path = tmp_path / "r.json"
        rc = main([
            "detect", "--method", "msplot", "--in", str(path),
            "--report", str(report_path), "--coverage", "1.5",
        ])
        assert rc == 2
        payload = json.loads(report_path.read_text())
        assert payload["error"]["type"] == "BadCoverage"
        assert payload["outliers"] == {}

    def test_numeric_failure_exits_3_with_error_report(self, tmp_path, capsys):
        path = tmp_path / "flat.csv"
        values = np.ones((5, 4))
        write_curves(str(path), make_sample(values))
        report_path = tmp_path / "r.json"
        rc = main([
            "detect", "--method", "muod", "--in", str(path),
            "--report", str(report_path),
        ])
        assert rc == 3
        assert "AllDegenerate" in capsys.readouterr().err
        payload = json.loads(report_path.read_text())
        assert payload["error"]["type"] == "AllDegenerate"

    @pytest.mark.parametrize("cut", MUOD_CUTS)
    def test_muod_index_overflow_exits_3_with_error_report(self, tmp_path, cut, capsys):
        rng = np.random.default_rng(1)
        signs = rng.choice([-1.0, 1.0], size=(20, 6))
        values = signs * rng.uniform(0.99, 1.0, size=(20, 6)) * 1.79e308
        path = tmp_path / "edge.csv"
        write_curves(str(path), make_sample(values))
        report_path = tmp_path / "r.json"
        rc = main(["detect", "--method", "muod", "--cut", cut, "--in", str(path),
                   "--report", str(report_path)])
        assert rc == 3
        assert "NonFiniteIndex" in capsys.readouterr().err
        text = report_path.read_text()
        assert "Infinity" not in text
        assert json.loads(text)["error"]["type"] == "NonFiniteIndex"

    @pytest.mark.parametrize("args", [
        ["--method", "fbplot", "--depth", "mbd"],
        ["--method", "fbplot", "--depth", "dq"],
        ["--method", "seq", "--sequence", "T1"],
    ])
    def test_overflowing_results_exit_3_with_error_report(self, tmp_path, args, capsys):
        # fences, dq scores and T1's centred curves overflow on finite curves
        path = _near_largest_double_csv(tmp_path)
        report_path = tmp_path / "r.json"
        rc = main(["detect", *args, "--in", str(path), "--report", str(report_path)])
        assert rc == 3
        assert "NonFiniteResult" in capsys.readouterr().err
        text = report_path.read_text()
        assert "Infinity" not in text and "NaN" not in text
        assert json.loads(text)["error"]["type"] == "NonFiniteResult"

    @pytest.mark.parametrize("near_largest, factor, cause", [
        (False, "1e308", "factor 1e+308 times the envelope width is not finite"),
        (True, "1.5", "the curves are too large"),
    ])
    def test_fence_overflow_exits_3_naming_its_cause(
            self, tmp_path, capsys, near_largest, factor, cause):
        if near_largest:
            path = _near_largest_double_csv(tmp_path)
        else:
            path = tmp_path / "normal.csv"
            write_curves(str(path), make_sample(np.random.default_rng(15).standard_normal((30, 8))))
        report_path = tmp_path / "r.json"
        rc = main(["detect", "--method", "fbplot", f"--factor={factor}", "--in", str(path),
                   "--report", str(report_path)])
        assert rc == 3
        message = f"NonFiniteResult: functional boxplot fences overflow: {cause}\n"
        assert capsys.readouterr().err == message
        assert json.loads(report_path.read_text())["error"]["message"].endswith(cause)

    def test_t1_on_curves_near_3e307_exits_0(self, tmp_path):
        # the row means are formed after a power-of-two scale, so they stay finite
        values = np.random.default_rng(7).uniform(2.9e307, 3.1e307, size=(30, 8))
        path = tmp_path / "big.csv"
        write_curves(str(path), make_sample(values))
        report_path = tmp_path / "r.json"
        rc = main(["detect", "--method", "seq", "--sequence", "T0,T1", "--in", str(path),
                   "--report", str(report_path)])
        assert rc == 0
        assert json.loads(report_path.read_text())["error"] is None

    @pytest.mark.parametrize("method,error_type", [
        ("fbplot", "NonFiniteResult"),
        ("tvdmss", "NonFiniteResult"),
        ("msplot", "NonFiniteOutlyingness"),
    ])
    def test_failure_near_largest_double_prints_one_stderr_line(
            self, tmp_path, method, error_type, capsys):
        path = _near_largest_double_csv(tmp_path)
        report_path = tmp_path / "r.json"
        with warnings.catch_warnings():
            # a numpy RuntimeWarning would now raise and end in a different error type
            warnings.simplefilter("error")
            rc = main(["detect", "--method", method, "--in", str(path),
                       "--report", str(report_path)])
        assert rc == 3
        err = capsys.readouterr().err
        assert err.startswith(f"{error_type}: ") and err.count("\n") == 1
        assert json.loads(report_path.read_text())["error"]["type"] == error_type

    def test_no_input_path_exits_2(self, tmp_path):
        report_path = tmp_path / "r.json"
        rc = main(["detect", "--method", "fbplot", "--in", ",", "--report", str(report_path)])
        assert rc == 2
        assert json.loads(report_path.read_text())["error"]["type"] == "EmptyInput"

    def test_zero_mad_msplot_exits_3_with_error_report(self, tmp_path, capsys):
        values = np.random.default_rng(210).standard_normal((40, 20))
        values[:25, 0] = 0.0
        path = tmp_path / "zero_mad.csv"
        write_curves(str(path), make_sample(values))
        report_path = tmp_path / "r.json"
        rc = main(["detect", "--method", "msplot", "--in", str(path),
                   "--report", str(report_path)])
        assert rc == 3
        assert "NonFiniteOutlyingness" in capsys.readouterr().err
        payload = json.loads(report_path.read_text())
        assert payload["error"]["type"] == "NonFiniteOutlyingness"
        assert "grid points [0]" in payload["error"]["message"]

    def test_unexpected_exception_exits_3_with_error_report(
        self, tmp_path, sim_csv, monkeypatch
    ):
        def broken(*args, **kwargs):
            raise RuntimeError("internal fault")

        monkeypatch.setattr(fdout.detect, "fast_mcd", broken)
        report_path = tmp_path / "r.json"
        rc = main(["detect", "--method", "msplot", "--in", sim_csv,
                   "--report", str(report_path)])
        assert rc == 3
        payload = json.loads(report_path.read_text())
        assert payload["error"] == {"type": "RuntimeError", "message": "internal fault"}

    def test_zero_mad_seq_o_stage_exits_3(self, tmp_path, capsys):
        values = np.random.default_rng(212).standard_normal((40, 20, 2))
        values[:25, 0] = 0.0
        paths = [str(tmp_path / f"dim{k}.csv") for k in range(2)]
        for k, path in enumerate(paths):
            write_curves(path, make_sample(values[:, :, k]))
        report_path = tmp_path / "r.json"
        rc = main(["detect", "--method", "seq", "--sequence", "O,T0",
                   "--in", ",".join(paths), "--report", str(report_path)])
        assert rc == 3
        assert "NonFiniteOutlyingness" in capsys.readouterr().err
        payload = json.loads(report_path.read_text())
        assert payload["error"]["type"] == "NonFiniteOutlyingness"
        assert "grid points [0]" in payload["error"]["message"]

    def test_fbplot_rejects_multivariate_before_ordering(
        self, tmp_path, sim_csv, monkeypatch
    ):
        def ordering(*args, **kwargs):
            raise AssertionError("fbplot ordered d > 1 curves")

        monkeypatch.setattr(fdout.detect, "depth_by_name", ordering)
        report_path = tmp_path / "r.json"
        rc = main(["detect", "--method", "fbplot", "--depth", "rmd",
                   "--in", f"{sim_csv},{sim_csv}", "--report", str(report_path)])
        assert rc == 2
        error = json.loads(report_path.read_text())["error"]
        assert error["type"] == "ValidationError"
        assert "msplot" in error["message"] and "leading O stage" in error["message"]
        assert "rmd" not in error["message"]

    @pytest.mark.parametrize("flag, error_type", [
        ("--factor=nan", "ValidationError"),
        ("--factor=-1", "ValidationError"),
        ("--central-region=1.5", "BadCentralRegion"),
    ])
    def test_fbplot_rejects_fence_parameters_before_ordering(
        self, tmp_path, sim_csv, monkeypatch, flag, error_type
    ):
        def ordering(*args, **kwargs):
            raise AssertionError("a depth was computed")

        monkeypatch.setattr(fdout.detect, "depth_by_name", ordering)
        report_path = tmp_path / "r.json"
        rc = main(["detect", "--method", "fbplot", flag,
                   "--in", sim_csv, "--report", str(report_path)])
        assert rc == 2
        assert json.loads(report_path.read_text())["error"]["type"] == error_type

    @pytest.mark.parametrize("method, kind, inputs", [
        ("msplot", "curves", 2),
        ("fbplot", "msplot", 1),
        ("tvdmss", "msplot", 1),
    ])
    def test_impossible_plot_rejected_before_detecting(
        self, tmp_path, sim_csv, monkeypatch, method, kind, inputs
    ):
        def detector(*args, **kwargs):
            raise AssertionError("detector ran although the plot cannot be drawn")

        monkeypatch.setitem(DETECTORS, method, detector)
        report_path = tmp_path / "r.json"
        svg_path = tmp_path / "p.svg"
        rc = main(["detect", "--method", method, "--in", ",".join([sim_csv] * inputs),
                   "--report", str(report_path),
                   "--plot", str(svg_path), "--plot-kind", kind])
        assert rc == 2
        assert json.loads(report_path.read_text())["error"]["type"] == "InconsistentReport"
        assert not svg_path.exists()

    def test_simulate_bad_model_exits_2(self, tmp_path):
        rc = main(["simulate", "--model", "12", "--out", str(tmp_path / "sim")])
        assert rc == 2

    @pytest.mark.parametrize("flags, message", [
        # uniform_grid's own p check: np.linspace would raise a plain ValueError
        (["--p", "-1"], "NonIncreasingGrid: grid needs at least 2 points"),
        (["--n", "0"], "TooFewCurves: simulation_model needs at least 1 curve, got 0"),
    ], ids=["p_negative", "n_zero"])
    def test_simulate_bad_size_exits_2_naming_it(self, tmp_path, capsys, flags, message):
        rc = main(["simulate", "--model", "1", *flags, "--out", str(tmp_path / "sim")])
        assert rc == 2
        assert capsys.readouterr().err == message + "\n"
        assert not (tmp_path / "sim").exists()

    def test_unwritable_report_exits_2_with_one_line(self, tmp_path, sim_csv, capsys):
        report_path = tmp_path / "missing" / "r.json"
        rc = main(["detect", "--method", "fbplot", "--in", sim_csv,
                   "--report", str(report_path)])
        assert rc == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert err[0].startswith("FileNotFoundError") and str(report_path) in err[0]
        assert [path.name for path in tmp_path.rglob("*.tmp.*")] == []


class TestCliDefaultsMirrorLibrary:
    def test_detect_flag_defaults(self):
        parser = build_parser()
        args = parser.parse_args(
            ["detect", "--method", "fbplot", "--in", "x.csv", "--report", "r.json"]
        )
        sig = lambda f, name: inspect.signature(f).parameters[name].default
        assert args.level == sig(msplot, "level")
        assert args.factor_mss == sig(tvdmss, "emp_factor_mss")
        assert args.central_region == sig(functional_boxplot, "central_region")
        assert args.factor == sig(functional_boxplot, "factor")
        assert args.cut == sig(muod, "cut_method")
        assert args.depth == sig(seq_transform, "depth_method")
        assert args.coverage == sig(msplot, "coverage")
        assert args.sequence.split(",") == list(sig(seq_transform, "sequence"))
        assert args.erld_type == sig(seq_transform, "erld_type")
        # --central-region and --factor feed fbplot, seq and tvdmss alike
        assert sig(seq_transform, "central_region") == args.central_region
        assert sig(seq_transform, "factor") == args.factor
        assert sig(tvdmss, "central_region_tvd") == args.central_region
        assert sig(tvdmss, "emp_factor_tvd") == args.factor

    def test_depth_flag_defaults(self):
        args = build_parser().parse_args(["depth", "--method", "mbd", "--in", "x.csv",
                                          "--out", "d.csv"])
        assert args.erld_type == inspect.signature(depth_by_name).parameters["erld_type"].default

    def test_choices_are_table_keys(self):
        tables = {
            ("detect", "--method"): DETECTORS,
            ("detect", "--plot-kind"): PLOT_KINDS,
            ("detect", "--depth"): DEPTH_METHODS,
            ("detect", "--erld-type"): ERLD_TYPES,
            ("detect", "--cut"): MUOD_CUTS,
            ("depth", "--method"): DEPTH_METHODS,
            ("depth", "--erld-type"): ERLD_TYPES,
            ("plot", "--kind"): PLOT_KINDS,
        }
        for sub in ("detect", "depth", "plot"):
            tables[sub, "--header"] = tables[sub, "--id-column"] = fdout.cli._TRISTATE
        subparsers = next(
            action for action in build_parser()._actions
            if isinstance(action, argparse._SubParsersAction)
        ).choices
        choices = {
            (sub, action.option_strings[0]): list(action.choices)
            for sub, parser in subparsers.items()
            for action in parser._actions if action.choices is not None
        }
        assert choices == {flag: list(table) for flag, table in tables.items()}

    def test_simulate_flag_defaults(self):
        parser = build_parser()
        args = parser.parse_args(["simulate", "--model", "1", "--out", "d"])
        sig = lambda name: inspect.signature(simulation_model).parameters[name].default
        assert args.n == sig("n")
        assert args.p == sig("p")
        assert args.rate == sig("outlier_rate")
        assert args.seed == sig("seed")
