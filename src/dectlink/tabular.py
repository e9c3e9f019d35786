"""The one CSV table reader behind captures, fit points and the bundled fixtures.

A line whose first non-blank character is '#' is a comment and an empty line
is skipped, wherever either sits, so a comment may hold commas. The first
remaining line must be the expected header. The other lines are split with
csv.reader, so quoted cells keep their commas, and come back column by column
together with their line numbers in the file, which error messages cite.
Column parsers check a whole column at once and scan for the first bad cell
only when the check fails.
"""

from __future__ import annotations

import csv
import math
from pathlib import Path

_SKIPPED_STARTS = frozenset(("", "#"))


def read_table(path: str | Path, header: tuple[str, ...]) -> tuple[list[int], list[list[str]]]:
    """Read a CSV table with the given header; returns (body line numbers, columns).

    Cells are stripped of surrounding blanks. Raises ValueError for a missing
    or wrong header and for a row whose cell count differs from the header's.
    """
    path = Path(path)
    lines = path.read_text(encoding="utf-8").splitlines()
    numbers = [n for n, line in enumerate(lines, 1) if line.lstrip()[:1] not in _SKIPPED_STARTS]
    if not numbers:
        raise ValueError(f"{path}: no header row found")
    header_no = numbers.pop(0)
    head = next(csv.reader([lines[header_no - 1]]))
    if tuple(cell.strip() for cell in head) != header:
        raise ValueError(f"line {header_no}: bad header {head!r}; expected {','.join(header)}")

    body = [lines[n - 1] for n in numbers]
    rows = list(csv.reader(body))
    width = len(header)
    if set(map(len, rows)) - {width}:
        i = next(i for i, row in enumerate(rows) if len(row) != width)
        raise ValueError(f"line {numbers[i]}: expected {width} columns, got {len(rows[i])}")
    columns = [[row[j] for row in rows] for j in range(width)]
    joined = "".join(body)
    if " " in joined or "\t" in joined:
        columns = [list(map(str.strip, column)) for column in columns]
    return numbers, columns


def int_column(cells: list[str], numbers: list[int], name: str) -> list[int]:
    """Parse a column of integers; ValueError names the first bad cell's line."""
    try:
        return list(map(int, cells))
    except ValueError:
        return [_int_cell(cell, line_no, name) for line_no, cell in zip(numbers, cells)]


def float_column(
    cells: list[str], numbers: list[int], name: str, optional: bool = False
) -> list[float | None]:
    """Parse a column of finite floats; with optional, an empty cell gives None.

    ValueError names the line of the first cell that is not a number, is not
    finite, or (without optional) is empty.
    """
    try:
        if optional:
            values = [float(cell) if cell else None for cell in cells]
        else:
            values = list(map(float, cells))
        if all(map(math.isfinite, filter(None, values))):
            return values
    except ValueError:
        pass
    return [_float_cell(cell, line_no, name, optional) for line_no, cell in zip(numbers, cells)]


def _int_cell(cell: str, line_no: int, name: str) -> int:
    try:
        return int(cell)
    except ValueError:
        raise ValueError(f"line {line_no}: column {name!r} is not an integer: {cell!r}") from None


def _float_cell(cell: str, line_no: int, name: str, optional: bool) -> float | None:
    if optional and cell == "":
        return None
    try:
        value = float(cell)
    except ValueError:
        raise ValueError(f"line {line_no}: column {name!r} is not a number: {cell!r}") from None
    if not math.isfinite(value):
        raise ValueError(f"line {line_no}: column {name!r} must be finite, got {cell!r}")
    return value
