"""The CSV reader's np.loadtxt path against its csv.reader path.

``read_curves`` parses the numeric block with ``np.loadtxt`` and leaves any
file that path cannot read exactly to the cell-by-cell ``csv.reader`` path,
which stays the reference: on every generated text both give the same
values bit for bit, the same grid and ids, or the same error at the same
line and column.
"""

import csv
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fdout import csvio
from fdout.csvio import read_curves, write_curves
from fdout.errors import FdoutError, ParseError

from .conftest import make_sample

NUMBERS = ["0", "1", "-2.5", "3.25e-3", "0.1", repr(np.pi), "-0.0", "5e-324", "1e400", "nan",
           "-nan", "inf", "-Infinity"]
# cells that np.loadtxt rejects, whether or not float() takes them
ODD = ["1_000", "١٢", "３", "0x10", "1e", "1.2.3", "", "x", "#1", "#", '"2"', '"1,5"', "1 2",
       "\ufeff1"]
PADDING = ["", "", " ", "\t", "\x1c", "\u2003", " \x1f"]
IDS = ["a", " a ", "b\t", "7", "-1.5", "", "id", "x\x00y", "nan", '"g"', '"e""f"']
QUOTED_IDS = ['"c,d"', '"h,1"']
LINE_ENDS = ["\n", "\r\n", "\r"]


def cell(draw, mess):
    if mess and draw(st.integers(0, 3)) == 0:
        return draw(st.sampled_from(ODD))
    number = draw(st.sampled_from(NUMBERS))
    return draw(st.sampled_from(PADDING)) + number + draw(st.sampled_from(PADDING))


@st.composite
def csv_texts(draw):
    """Wide CSV texts with optional header and id column, blank, all-comma
    and '#'-led rows, mixed line ends and now and then a ragged row."""
    width = draw(st.integers(1, 4))
    has_ids = draw(st.booleans())
    # half the texts hold nothing that np.loadtxt rejects
    mess = draw(st.booleans())
    rows = []
    header = draw(st.sampled_from(["none", "grid", "names", "decreasing"]))
    if header != "none":
        points = {"grid": [f"{k / 4!r}" for k in range(width)],
                  "names": [f"t{k}" for k in range(width)],
                  "decreasing": [str(width - k) for k in range(width)]}[header]
        rows.append((["id"] if has_ids else []) + points)
    for _ in range(draw(st.integers(0, 4))):
        ragged = draw(st.sampled_from([0, 0, 0, 0, 1, -1])) if mess else 0
        row = [cell(draw, mess) for _ in range(width + ragged)]
        if has_ids:
            row.insert(0, draw(st.sampled_from(IDS + QUOTED_IDS if mess else IDS)))
        rows.append(row)
    for _ in range(draw(st.integers(0, 2))):
        odd = draw(st.sampled_from(["", ",,", " ", "#1,2", "\x1c"] if mess else [""]))
        rows.insert(draw(st.integers(0, len(rows))), [odd])
    text = "".join(",".join(row) + draw(st.sampled_from(LINE_ENDS)) for row in rows)
    if text and draw(st.booleans()):
        text = text[:-1] if text[-2:] != "\r\n" else text[:-2]
    return text


def outcome(path, header, id_column):
    """What read_curves returns or raises, and what the parse gave before
    the sample checks, so that NaN and infinite cells compare too."""
    try:
        values, grid, ids = csvio._read_wide(path, header, id_column)
        parsed = ("parsed", values.shape, values.tobytes(), grid.points.tobytes(), ids)
        sample = read_curves(path, header=header, id_column=id_column)
    except (FdoutError, ValueError, csv.Error) as exc:
        return ("error", type(exc), str(exc), getattr(exc, "line", None),
                getattr(exc, "column", None))
    return parsed, (sample.values.tobytes(), sample.grid.points.tobytes(), sample.ids)


def csv_outcome(path, header, id_column):
    with mock.patch.object(csvio, "_loadtxt_block", return_value=None):
        return outcome(path, header, id_column)


FLAGS = st.sampled_from([True, False, "auto"])


@pytest.fixture(scope="module")
def csv_path(tmp_path_factory):
    return str(tmp_path_factory.mktemp("oracle") / "a.csv")


@settings(max_examples=400)
@given(csv_texts(), FLAGS, FLAGS)
@example("t0\n", True, False)  # a header and no curves
@example("t0\n\r\n\n", "auto", False)
@example("0,1\n", "auto", "auto")  # one increasing row is a curve
@example("inf,inf\n1,2\n", "auto", "auto")
@example("-inf,1e400,1e400\n1,2,3\n", "auto", "auto")
@example('id,0,1\n"g",1,2\n', "auto", "auto")
@example('"e""f",1,2\r\n', "auto", True)
def test_read_curves_matches_the_csv_reader(csv_path, text, header, id_column):
    with open(csv_path, "w", encoding="utf-8", newline="") as handle:
        handle.write(text)
    assert outcome(csv_path, header, id_column) == csv_outcome(csv_path, header, id_column)


@pytest.mark.parametrize("text", [
    "0,0.5,1\n1,2,3\n4,5,6\n",
    "1,2,3\r\n\r\n4,5,6\r\n",
    "3,1,2\r4,5,6\r",
    "id,0,1\n a ,\x1c1 , 2\t\n7,3,4\n",
    "\n\n0,1\n1e400,nan\n-inf,-0.0",
    "5,4\n",
])
def test_quote_free_files_take_the_loadtxt_path(tmp_path, text):
    path = str(tmp_path / "a.csv")
    with open(path, "w", encoding="utf-8", newline="") as handle:
        handle.write(text)
    with mock.patch.object(csvio, "_csv_block", side_effect=AssertionError("csv path")):
        fast = outcome(path, "auto", "auto")
    assert fast == csv_outcome(path, "auto", "auto")


def test_a_cell_past_the_csv_field_limit_is_refused_on_both_paths(tmp_path):
    path = str(tmp_path / "a.csv")
    long_cell = "1" + "0" * csv.field_size_limit()
    with open(path, "w", encoding="utf-8", newline="") as handle:
        handle.write(f"0,1\n{long_cell},2\n")
    fast = outcome(path, "auto", "auto")
    assert fast[:2] == ("error", csv.Error)
    assert fast == csv_outcome(path, "auto", "auto")


def test_written_files_with_ids_take_the_loadtxt_path(tmp_path):
    path = str(tmp_path / "a.csv")
    sample = make_sample(np.random.default_rng(500).normal(size=(6, 5)),
                         ids=["a", " b ", "3", "-1e5", "nan", "x\ty"])
    write_curves(path, sample)
    with mock.patch.object(csvio, "_csv_block", side_effect=AssertionError("csv path")):
        back = read_curves(path)
    assert back.ids == sample.ids
    assert np.array_equal(back.values, sample.values)


def test_hash_row_is_data_not_a_comment(tmp_path):
    path = tmp_path / "a.csv"
    path.write_text("0,0.5\n#1,2\n3,4\n", encoding="utf-8")
    with pytest.raises(ParseError) as err:
        read_curves(str(path))
    assert (err.value.line, err.value.column) == (2, 1)
