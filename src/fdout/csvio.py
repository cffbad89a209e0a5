"""CSV ingestion and serialisation of curve samples.

Wide layout: one CSV, one row per curve, an optional header row holding
the grid points and an optional leading id column. Values are written with
``repr`` so a write/read round trip reproduces every float bit for bit.
Multivariate samples use one wide CSV per dimension with identical shapes
and grids.
"""

from __future__ import annotations

import contextlib
import csv
import itertools
import os
from typing import Iterable, Sequence, Union

import numpy as np

from .errors import EmptyInput, ParseError, ShapeMismatch
from .fdcore import CurveSample, Grid, MultiCurveSample, uniform_grid
from .report import to_external_indices

__all__ = [
    "read_curves",
    "write_curves",
    "read_truth",
    "write_truth",
    "atomic_write_text",
]


def atomic_write_text(path: str, text: Union[str, Iterable[str]]) -> int:
    """Write a string, or the strings of an iterable in order as it yields
    them, via a sibling temp file and rename, so readers never see a partial
    file; a failed write removes the temp file. Returns the number of
    characters written."""
    tmp = f"{path}.tmp.{os.getpid()}"
    try:
        with open(tmp, "w", encoding="utf-8", newline="") as handle:
            written = handle.write(text) if isinstance(text, str) else sum(map(handle.write, text))
    except BaseException:
        with contextlib.suppress(OSError):
            os.remove(tmp)
        raise
    os.replace(tmp, path)
    return written


def _is_float(cell: str) -> bool:
    try:
        float(cell)
        return True
    except ValueError:
        return False


def _header(first: list, header, more_rows: bool):
    """(has_header, grid points or None) for the first row's stripped cells
    past any id cell. Auto takes the row as a header when a cell is not a
    number, or when another row follows and the points strictly increase."""
    numeric = all(_is_float(c) for c in first)
    points = np.array(first, dtype=float) if numeric else None
    if header == "auto":
        with np.errstate(invalid="ignore"):  # inf - inf does not increase
            has_header = points is None or (more_rows and points.size >= 2
                                            and bool(np.all(np.diff(points) > 0)))
    else:
        has_header = bool(header)
    return has_header, points if has_header else None


def _first_row(handle):
    """The stripped cells of the first CSV row with a non-blank cell, or
    None; the handle is left just past that row."""
    for row in csv.reader(iter(handle.readline, "")):
        cells = [c.strip() for c in row]
        if any(cells):
            return cells
    return None


def _data_lines(handle):
    """The handle's non-empty lines. A line with a cell longer than the csv
    field limit raises ValueError, since csv.reader refuses such a cell."""
    limit = csv.field_size_limit()
    for line in handle:
        if len(line) > limit and max(map(len, line.rstrip("\r\n").split(","))) > limit:
            raise ValueError("a cell exceeds the csv field limit")
        if line not in ("\n", "\r\n", "\r"):
            yield line


def _loadtxt_block(handle, header, id_column):
    """(values, grid points, ids) parsed with np.loadtxt, or None where the
    csv reader has to decide.

    The first row is sniffed as ``_csv_block`` sniffs it. Under auto ids, a
    file whose first cell is not ``id`` is read without ids: np.loadtxt then
    parses every first cell as a number, the last row's included, which is
    what auto detection would have found. np.loadtxt strips the same
    whitespace as str.strip, parses with the same function as float(), and
    checks that every row has as many cells as the first; it fails on
    quotes, blank cells, underscores and non-ASCII digits, which are left to
    the csv reader. An id cell reaches the converter as written, and one
    holding a quote goes to the csv reader too.
    """
    try:
        first = _first_row(handle)
    except (ValueError, csv.Error):
        return None
    if first is None:
        return None
    has_ids = first[0] == "id" if id_column == "auto" else bool(id_column)
    shift = 1 if has_ids else 0
    if len(first) <= shift:
        return None
    has_header, grid_points = _header(first[shift:], header, more_rows=True)
    if not has_header:
        handle.seek(0)
    lines = _data_lines(handle)
    ids = []

    def keep_id(cell: str) -> float:
        if '"' in cell:
            raise ValueError("quoted id")
        ids.append(cell)
        return 0.0

    try:
        line = next(lines, None)
        if line is None:  # no curve below the first row: the csv reader decides
            return None
        block = np.loadtxt(itertools.chain([line], lines), delimiter=",", comments=None,
                           quotechar=None, ndmin=2, dtype=float,
                           converters={0: keep_id} if has_ids else None)
    except ValueError:
        return None
    if block.shape[1] != len(first):
        return None
    return (block[:, 1:] if has_ids else block), grid_points, (ids if has_ids else None)


def _csv_block(handle, path: str, header, id_column):
    """(values, grid points, ids) parsed cell by cell with csv.reader: the
    reference for ``_loadtxt_block`` and the reader of every file it leaves."""
    reader = csv.reader(handle)
    # line number -> stripped cells of every row with a non-blank cell;
    # float() ignores padding, such as '\x1c', that numpy rejects, and a
    # tuple per row would pin freed memory in the tuple free list. The
    # first cells are also kept as read: an id keeps its padding.
    numbered, firsts = {}, []
    for row in reader:
        cells = [c.strip() for c in row]
        if any(cells):
            numbered[reader.line_num] = cells
            firsts.append(row[0])
    if not numbered:
        raise EmptyInput(f"{path} holds no data")
    lines, rows = list(numbered), list(numbered.values())
    width = len(rows[0])
    for line, row in zip(lines, rows):
        if len(row) != width:
            raise ParseError(line, len(row) + 1,
                             f"row has {len(row)} cells, expected {width}")

    if id_column == "auto":
        # write_curves heads an id column with "id", whatever the ids look like
        has_ids = rows[0][0] == "id" or not _is_float(rows[-1][0])
    else:
        has_ids = bool(id_column)
    shift = 1 if has_ids else 0
    has_header, grid_points = _header(rows[0][shift:], header, more_rows=len(rows) >= 2)
    offset = 1 if has_header else 0
    data_rows = rows[offset:]
    if not data_rows:
        raise EmptyInput(f"{path} holds a header but no curves")

    ids = None
    if has_ids:
        ids = firsts[offset:]
        # deleted in place, so the numeric block needs no second copy of the rows
        for row in data_rows:
            del row[0]
    try:
        values = np.array(data_rows, dtype=float)
    except ValueError:
        for line, row in zip(lines[offset:], data_rows):
            for c, cell in enumerate(row):
                if not _is_float(cell):
                    raise ParseError(line, c + 1 + shift,
                                     f"could not parse {cell!r} as a number") from None
        raise
    return values, grid_points, ids


def _read_wide(path: str, header, id_column):
    with open(path, "r", encoding="utf-8", newline="") as handle:
        parsed = _loadtxt_block(handle, header, id_column)
        if parsed is None:
            handle.seek(0)
            parsed = _csv_block(handle, path, header, id_column)
    values, grid_points, ids = parsed
    p = values.shape[1]
    if grid_points is not None:
        if grid_points.size != p:
            raise ShapeMismatch(f"grid header has {grid_points.size} points for {p} columns")
        grid = Grid(grid_points)
    else:
        grid = uniform_grid(p, 0.0, 1.0)
    return values, grid, ids


def read_curves(
    paths: Union[str, Sequence[str]],
    header="auto",
    id_column="auto",
) -> Union[CurveSample, MultiCurveSample]:
    """Load one wide CSV as a CurveSample, or several (one per dimension,
    identical shapes and grids) as a MultiCurveSample. Files that both
    carry ids must carry the same ids in the same rows.

    ``header`` and ``id_column`` accept True/False or "auto". Auto header
    detection treats the first row as grid points when it is non-numeric
    or strictly increasing. Auto id detection finds an id column when the
    first row's first cell is ``id`` (as ``write_curves`` writes it) or the
    last row's first cell is not a number. A missing grid defaults to
    uniform [0, 1]. Numeric cells are read with surrounding whitespace
    stripped; id cells are kept exactly as the CSV reader returns them, so
    padded ids round-trip.
    """
    if isinstance(paths, (str, os.PathLike)):
        paths = [paths]
    paths = list(paths)
    if not paths:
        raise EmptyInput("no input file given")

    parsed = [_read_wide(str(path), header, id_column) for path in paths]
    if len(parsed) == 1:
        values, grid, ids = parsed[0]
        return CurveSample(values, grid, ids=ids)

    base_values, base_grid, base_ids = parsed[0]
    for path, (values, grid, ids) in zip(paths[1:], parsed[1:]):
        if values.shape != base_values.shape:
            raise ShapeMismatch(
                f"{path} is {values.shape[0]}x{values.shape[1]}, expected "
                f"{base_values.shape[0]}x{base_values.shape[1]}"
            )
        if not np.array_equal(grid.points, base_grid.points):
            raise ShapeMismatch(f"{path} has a different grid")
        if ids is not None and base_ids is not None and ids != base_ids:
            row = next(i for i, (a, b) in enumerate(zip(ids, base_ids)) if a != b)
            raise ShapeMismatch(
                f"{path} has id {ids[row]!r} on curve row {row + 1}, "
                f"where {paths[0]} has {base_ids[row]!r}"
            )
    stack = np.stack([values for values, _grid, _ids in parsed], axis=2)
    return MultiCurveSample(stack, base_grid, ids=base_ids)


def quote_cell(text: str) -> str:
    """A CSV cell as ``csv.QUOTE_MINIMAL`` writes it: quoted, with inner
    quotes doubled, only when it holds a comma, a quote or a line break."""
    if any(c in text for c in ',"\r\n'):
        return '"' + text.replace('"', '""') + '"'
    return text


def write_curves(path: str, sample: Union[CurveSample, MultiCurveSample]) -> None:
    """Serialise a univariate sample as a wide CSV (repr floats) with a grid
    header, and an id column when the sample has ids."""
    if isinstance(sample, MultiCurveSample):
        raise ShapeMismatch(
            "write_curves takes a univariate sample; write each dimension separately"
        )
    has_ids = sample.ids is not None
    cells = list(map(repr, sample.grid.points.tolist()))
    if has_ids:
        cells.insert(0, "id")
    lines = [",".join(cells)]
    # a row at a time: a whole-matrix tolist() would pin its freed floats' memory
    for i, row in enumerate(sample.values):
        cells = ",".join(map(repr, row.tolist()))
        lines.append(f"{quote_cell(sample.ids[i])},{cells}" if has_ids else cells)
    atomic_write_text(path, "\n".join(lines) + "\n")


def write_truth(path: str, outlier_indices) -> None:
    """One 1-based row index per line (empty file for no outliers)."""
    atomic_write_text(path, "".join(f"{i}\n" for i in to_external_indices(outlier_indices)))


def read_truth(path: str) -> np.ndarray:
    """0-based outlier indices from a truth file."""
    out = []
    with open(path, "r", encoding="utf-8") as handle:
        for k, line in enumerate(handle):
            line = line.strip()
            if not line:
                continue
            try:
                out.append(int(line) - 1)
            except ValueError:
                raise ParseError(k + 1, 1, f"expected an integer row index, got {line!r}") from None
    return np.array(sorted(out), dtype=np.intp)
