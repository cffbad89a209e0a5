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
from fdout.fdcore import _is_number

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
    except (FdoutError, ValueError) as exc:
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


# the characters of the cells above, with NUL and digits of other scripts
CELL_CHARACTERS = sorted(set("".join(NUMBERS + ODD + PADDING)) | set("\x00٣۴५৬๗１"))


@settings(max_examples=1000)
@given(st.one_of(
    st.builds("{}{}{}".format, st.sampled_from(PADDING), st.sampled_from(NUMBERS + ODD),
              st.sampled_from(PADDING)),
    st.text(st.sampled_from(CELL_CHARACTERS), max_size=8),
))
@example("\x00")
@example("1\x00")
@example("٣.٥")
def test_numpy_refuses_exactly_the_cells_that_float_refuses(cell):
    # so _csv_block's cell scan finds the cell np.array failed on, and the
    # bare raise after it is only a guard
    cell = cell.strip()
    try:
        np.array([[cell]], dtype=float)
    except ValueError:
        assert not _is_number(cell)
    else:
        assert _is_number(cell)


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
    assert fast[:2] == ("error", ParseError)
    assert fast == csv_outcome(path, "auto", "auto")


@pytest.mark.parametrize("text, header, id_column, message", [
    ("0,0.5,1,1.5\n1,2,3\n4,5,6\n", True, False, "line 2, column 4: row has 3 cells, expected 4"),
    ("0,0.5,1,1.5\n1,2,3\n", "auto", "auto", "line 2, column 4: row has 3 cells, expected 4"),
    ("id,t0,t1,t2\na,1,2\nb,3,4\n", "auto", "auto",
     "line 2, column 4: row has 3 cells, expected 4"),
], ids=["grid", "auto_grid", "names_with_ids"])
def test_a_header_wider_than_the_data_is_refused_on_both_paths(tmp_path, text, header,
                                                               id_column, message):
    # so a parsed header always has one point per column
    path = str(tmp_path / "a.csv")
    with open(path, "w", encoding="utf-8", newline="") as handle:
        handle.write(text)
    for result in (outcome(path, header, id_column), csv_outcome(path, header, id_column)):
        assert result[:3] == ("error", ParseError, message)


LONG = "4" * (csv.field_size_limit() + 1)


@pytest.mark.parametrize("text, line, column", [
    (f"0,1\n3,{LONG}\n", 2, 2),
    (f"0,{LONG}\n1,2\n", 1, 2),  # the first row, which the loadtxt path sniffs
    (f"\r\n0,1\r\n3,{LONG}\r\n", 3, 2),
    (f"0,1\r3,{LONG}\r", 2, 2),
    (f'id,0,1\n"a,b",1,2\n\n"c",3,{LONG}\n', 4, 3),  # a quoted comma ends no cell
    ('id,0,1\n"' + "x," * len(LONG) + '",1,2\n', 2, 1),
    # reported on the line where the cell passes the limit, counted from its row's start
    (f'0,1\n5,"two\nlines {LONG}"\n', 3, 2),
], ids=["second_cell", "first_row", "crlf_blank_line", "cr", "quoted_comma", "quoted_long",
        "spans_lines"])
def test_a_cell_past_the_field_limit_is_a_parse_error_at_its_cell(tmp_path, text, line, column):
    path = str(tmp_path / "a.csv")
    with open(path, "w", encoding="utf-8", newline="") as handle:
        handle.write(text)
    for result in (outcome(path, "auto", "auto"), csv_outcome(path, "auto", "auto")):
        assert result[:2] == ("error", ParseError)
        assert result[3:] == (line, column)
        assert result[2].endswith(f"field larger than field limit ({csv.field_size_limit()})")


@pytest.mark.parametrize("ids, expected", [
    (None, "curve,score\n1,0.5\n2,-0.0\n3,1e-300\n4,0.1\n5,2.0\n"),
    (["a", "b,c", 'd"e', " f ", "7"],
     'curve,score\na,0.5\n"b,c",-0.0\n"d""e",1e-300\n f ,0.1\n7,2.0\n'),
], ids=["row_numbers", "ids"])
def test_write_scores_bytes(tmp_path, ids, expected):
    path = tmp_path / "scores.csv"
    csvio.write_scores(str(path), np.array([0.5, -0.0, 1e-300, 0.1, 2.0]), ids)
    assert path.read_bytes() == expected.encode()


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
