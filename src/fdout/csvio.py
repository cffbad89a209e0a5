"""CSV ingestion and serialisation of curve samples.

Wide layout: one CSV, one row per curve, an optional header row holding
the grid points and an optional leading id column. Values are written with
``repr`` so a write/read round trip reproduces every float bit for bit.
Multivariate samples use one wide CSV per dimension with identical shapes
and grids.
"""

from __future__ import annotations

import csv
import os
from typing import Sequence, Union

import numpy as np

from .errors import EmptyInput, ParseError, ShapeMismatch
from .fdcore import CurveSample, Grid, MultiCurveSample, uniform_grid

__all__ = [
    "read_curves",
    "write_curves",
    "read_truth",
    "write_truth",
    "atomic_write_text",
]


def atomic_write_text(path: str, text: str) -> None:
    """Write via a sibling temp file and rename, so readers never see a
    partial file."""
    tmp = f"{path}.tmp.{os.getpid()}"
    with open(tmp, "w", encoding="utf-8", newline="") as handle:
        handle.write(text)
    os.replace(tmp, path)


def _is_float(cell: str) -> bool:
    try:
        float(cell)
        return True
    except ValueError:
        return False


def _read_wide(path: str, header, id_column):
    with open(path, "r", encoding="utf-8", newline="") as handle:
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
    first = rows[0][shift:]
    numeric = all(_is_float(c) for c in first)
    if header == "auto":
        # a header has a cell that is not a number, or strictly increasing
        # grid points above at least one more row
        has_header = not numeric or (len(rows) >= 2 and len(first) >= 2
                                     and bool(np.all(np.diff(np.array(first, dtype=float)) > 0)))
    else:
        has_header = bool(header)
    grid_points = np.array(first, dtype=float) if has_header and numeric else None
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
    identical shapes and grids) as a MultiCurveSample.

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
    for path, (values, grid, _ids) in zip(paths[1:], parsed[1:]):
        if values.shape != base_values.shape:
            raise ShapeMismatch(
                f"{path} is {values.shape[0]}x{values.shape[1]}, expected "
                f"{base_values.shape[0]}x{base_values.shape[1]}"
            )
        if not np.array_equal(grid.points, base_grid.points):
            raise ShapeMismatch(f"{path} has a different grid")
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
    indices = sorted(int(i) + 1 for i in np.asarray(outlier_indices, dtype=int).ravel())
    text = "".join(f"{i}\n" for i in indices)
    atomic_write_text(path, text)


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
