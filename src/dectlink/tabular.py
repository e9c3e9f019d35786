"""The package's text formats: CSV tables and key=value files.

A line whose first non-blank character is '#' is a comment and an empty line
is skipped, wherever either sits, so a comment may hold commas. In a table
(captures, fit points, the bundled fixtures) the first remaining line must be
the expected header; the others come back column by column with their line
numbers, which error messages cite. A body with no quote, '#' or blank line and
a full row on every line is split at its commas in one pass; any other goes
through csv.reader, so quoted cells keep their commas. Column parsers parse
each distinct cell once and scan for the first bad cell only when that fails.
counted_float_column also returns how many cells hold each distinct text, so
a caller can summarise a column per distinct value, not per row.
Files are UTF-8, a byte-order mark ignored. In a key=value file (run configs,
capture sidecars) a '#' after a blank also starts a comment; a '#' glued to a
value is part of it.
"""

from __future__ import annotations

import csv
import math
import re
from collections import Counter
from itertools import repeat

TYPE_CHECKING = False
if TYPE_CHECKING:
    from collections.abc import Callable, Mapping, Sequence
    from pathlib import Path
    from typing import Any

_SKIPPED_STARTS = frozenset(("", "#"))


def read_table(path: str | Path, header: tuple[str, ...]) -> tuple[Sequence[int], list[list[str]]]:
    """Read a CSV table with the given header; returns (body line numbers, columns).

    Cells are stripped of surrounding blanks. Raises ValueError for a missing
    or wrong header and for a row whose cell count differs from the header's.
    """
    with open(path, encoding="utf-8-sig") as stream:
        lines = stream.read().splitlines()
    starts = (line.lstrip()[:1] for line in lines)
    header_no = next((n for n, start in enumerate(starts, 1) if start not in _SKIPPED_STARTS), 0)
    if not header_no:
        raise ValueError(f"{path}: no header row found")
    head = next(csv.reader([lines[header_no - 1]]))
    if tuple(cell.strip() for cell in head) != header:
        raise ValueError(f"line {header_no}: bad header {head!r}; expected {','.join(header)}")

    body = lines[header_no:]
    width = len(header)
    text = ",".join(body)
    numbers: Sequence[int]
    # A plain body (no quote or '#', width - 1 commas on every line, hence no blank
    # line once width > 1) is split at every comma in one pass.
    if width > 1 and '"' not in text and "#" not in text and (
        set(map(str.count, body, repeat(","))) <= {width - 1}
    ):
        numbers = range(header_no + 1, len(lines) + 1)
        cells = text.split(",") if body else []
        columns = [cells[j::width] for j in range(width)]
    else:
        # `starts` resumes at the line after the header.
        numbers = [n for n, s in enumerate(starts, header_no + 1) if s not in _SKIPPED_STARTS]
        body = [lines[n - 1] for n in numbers]
        rows = list(csv.reader(body))
        if set(map(len, rows)) - {width}:
            i = next(i for i, row in enumerate(rows) if len(row) != width)
            raise ValueError(f"line {numbers[i]}: expected {width} columns, got {len(rows[i])}")
        columns = [[row[j] for row in rows] for j in range(width)]
        text = "".join(body)
    if " " in text or "\t" in text:
        columns = [list(map(str.strip, column)) for column in columns]
    return numbers, columns


def int_column(cells: list[str], numbers: Sequence[int], name: str) -> list[int]:
    """Parse a column of integers; ValueError names the first bad cell's line."""
    try:
        return list(map(int, cells))
    except ValueError:
        return [_cell(_integer, cell, line_no, name) for line_no, cell in zip(numbers, cells)]


def float_column(
    cells: list[str], numbers: Sequence[int], name: str, optional: bool = False
) -> list[float | None]:
    """Parse a column of finite floats; with optional, an empty cell gives None.

    ValueError names the line of the first cell that is not a number, is not
    finite, or (without optional) is empty.
    """
    return counted_float_column(cells, numbers, name, optional)[0]


def counted_float_column(
    cells: list[str], numbers: Sequence[int], name: str, optional: bool = False
) -> tuple[list[float | None], tuple[list[float], list[int]]]:
    """float_column, plus the column's tally: the value and count of each distinct cell.

    The tally lists the non-empty distinct cells in the order they first
    appear. Two spellings of one value (-80, -80.0, -8e1) are two cells, so
    a value may appear more than once, but the tally still holds each cell's
    value as often as the column does.
    """
    try:
        # Measured values repeat, so each distinct text is parsed once.
        counts = Counter(cells)
        empty = optional and counts.pop("", 0)
        parsed = {cell: float(cell) for cell in counts}
        values = list(parsed.values())
        if all(map(math.isfinite, values)):
            if empty:
                parsed[""] = None
            return list(map(parsed.__getitem__, cells)), (values, list(counts.values()))
    except ValueError:
        pass
    # Some cell is bad: parse cell by cell, so the error names the first.
    for line_no, cell in zip(numbers, cells):
        if cell or not optional:
            _cell(_finite_float, cell, line_no, name)
    raise AssertionError(f"column {name!r} failed to parse, yet no cell is bad")


def _cell(parse: Callable[[str], Any], cell: str, line_no: int, name: str) -> Any:
    try:
        return parse(cell)
    except ValueError as exc:
        raise ValueError(f"line {line_no}: column {name!r} {exc}") from None


def _integer(text: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise ValueError(f"is not an integer: {text!r}") from None


def _finite_float(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise ValueError(f"is not a number: {text!r}") from None
    if not math.isfinite(value):
        raise ValueError(f"must be finite, got {text!r}")
    return value


def _none_or_float(text: str) -> float | None:
    return None if text.lower() in ("", "none") else _finite_float(text)


# Value parsers for key=value files, by __init__ parameter annotation. Every module here
# postpones annotations, so a parameter's type is the annotation's source text.
_FIELD_PARSERS = {"str": str, "int": _integer, "float": _finite_float,
                  "float | None": _none_or_float}


def field_parsers(cls: type, skip: tuple[str, ...] = ()) -> dict[str, Callable[[str], Any]]:
    """Value parsers for the fields of `cls` (its __match_args__) not in `skip`, in order.

    Each parser is chosen by the field's `__init__` annotation; `float | None`
    also reads 'none' or an empty value as None.
    """
    kinds = cls.__init__.__annotations__
    return {name: _FIELD_PARSERS[kinds[name]] for name in cls.__match_args__ if name not in skip}


_INLINE_COMMENT = re.compile(r"\s#")


def parse_key_values(text: str, parsers: Mapping[str, Callable[[str], Any]],
                     source: str) -> dict[str, Any]:
    """Parse key=value lines into values typed by `parsers`; errors read '<source> line N: ...'."""
    values: dict[str, Any] = {}
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if line[:1] in _SKIPPED_STARTS:
            continue
        body = _INLINE_COMMENT.split(line, 1)[0] if "#" in line else line
        key, eq, value = body.partition("=")
        key = key.strip()
        if not eq:
            error = f"expected key=value, got {line!r}"
        elif key not in parsers:
            error = f"unknown key {key!r}; expected one of {', '.join(parsers)}"
        elif key in values:
            error = f"duplicate key {key!r}"
        else:
            try:
                values[key] = parsers[key](value.strip())
                continue
            except ValueError as exc:
                error = f"key {key!r} {exc}"
        raise ValueError(f"{source} line {line_no}: {error}")
    return values
