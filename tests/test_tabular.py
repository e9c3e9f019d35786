"""The table reader's split fast path against the csv.reader algorithm it
replaces on plain tables, column parsers, and byte-order marks."""

import csv
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dectlink import tabular
from dectlink.campaign import CAPTURE_HEADER, load_capture
from dectlink.config import load_config
from dectlink.tabular import counted_float_column, float_column, read_table

from conftest import synth_capture_rows, write_capture

_SKIPPED_STARTS = frozenset(("", "#"))


def oracle_read_table(path, header):
    """read_table as it was before the fast path: every body line through csv.reader."""
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


def outcome(read, path, header):
    """(line numbers, columns) from `read`, or the text of the ValueError it raised."""
    try:
        numbers, columns = read(path, header)
    except ValueError as exc:
        return str(exc)
    return list(numbers), columns


# Comment lines (which may hold commas, quotes and '#') and blank lines.
SKIPPED_LINES = st.one_of(
    st.builds(lambda pad, text: f"{pad}#{text}", st.sampled_from(("", " ", "\t")),
              st.text(st.sampled_from('ab ,;"#'), max_size=8)),
    st.sampled_from(("", "  ", "\t")),
)
PAD = st.sampled_from(("", " ", "\t", " \t "))
# Quote-free cell text; a '#' inside a cell is kept by both readers.
CELL = st.text(st.sampled_from("0123456789-.ea#"), max_size=5)


@st.composite
def plain_tables(draw):
    """(header, text): a quote-free table, with padded cells, rows one cell short
    or long now and then, and skipped lines anywhere around and between rows."""
    width = draw(st.integers(1, 6))
    header = tuple(f"c{j}" for j in range(width))
    lines = draw(st.lists(SKIPPED_LINES, max_size=2))
    lines.append(",".join(f"{draw(PAD)}{name}{draw(PAD)}" for name in header))
    for _ in range(draw(st.integers(0, 8))):
        if draw(st.integers(0, 3)) == 0:
            lines.extend(draw(st.lists(SKIPPED_LINES, min_size=1, max_size=2)))
        cells = width + draw(st.sampled_from((0, 0, 0, 0, 0, -1, 1)))
        lines.append(",".join(f"{draw(PAD)}{draw(CELL)}{draw(PAD)}" for _ in range(cells)))
    lines.extend(draw(st.lists(SKIPPED_LINES, max_size=2)))
    newline = draw(st.sampled_from(("\n", "\r\n")))
    return header, newline.join(lines) + draw(st.sampled_from(("", newline)))


@pytest.fixture(scope="module")
def table_path(tmp_path_factory):
    return tmp_path_factory.mktemp("tabular") / "table.csv"


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(plain_tables())
def test_read_table_matches_the_csv_reader_algorithm(table_path, header_and_text):
    header, text = header_and_text
    table_path.write_bytes(text.encode("utf-8"))
    assert outcome(read_table, table_path, header) == outcome(oracle_read_table, table_path, header)


def test_plain_capture_is_split_without_csv_reader_on_its_body(capture_factory, monkeypatch):
    path = capture_factory("plain", n=50)
    parsed = []
    reader = csv.reader

    def counting_reader(lines, *args, **kwargs):
        lines = list(lines)
        parsed.extend(lines)
        return reader(lines, *args, **kwargs)

    monkeypatch.setattr(tabular.csv, "reader", counting_reader)
    numbers, columns = read_table(path, CAPTURE_HEADER)
    assert parsed == [",".join(CAPTURE_HEADER)]
    assert list(numbers) == list(range(2, 52))
    assert [len(column) for column in columns] == [50] * 6


def test_short_row_then_long_row_names_the_short_one(tmp_path):
    # Five cells then seven: seventeen commas in three rows, as in three full rows.
    p = tmp_path / "widths.csv"
    p.write_text(",".join(CAPTURE_HEADER) + "\n0,-80,-80,10,1,1\n1,-80,-80,10,1\n"
                 "2,-80,-80,10,1,1,9\n")
    with pytest.raises(ValueError, match=r"^line 3: expected 6 columns, got 5$"):
        read_table(p, CAPTURE_HEADER)


def test_quoted_cell_holding_a_comma_loads(tmp_path):
    p = tmp_path / "sites.csv"
    p.write_text('site,distance_m\n"hall, east",40\nyard, 55\n')
    numbers, columns = read_table(p, ("site", "distance_m"))
    assert list(numbers) == [2, 3]
    assert columns == [["hall, east", "yard"], ["40", "55"]]


@pytest.mark.parametrize("bad, message", [
    ("abc", "is not a number: 'abc'"),
    ("inf", "must be finite, got 'inf'"),
])
def test_float_column_names_the_first_of_repeated_bad_cells(bad, message):
    cells = ["-80", bad, "-81", bad]
    with pytest.raises(ValueError, match=rf"^line 3: column 'x' {message}$"):
        float_column(cells, range(2, 6), "x")


def test_float_column_gives_each_cell_its_value():
    cells = ["-80", "", "-80.0", "-80", "0", ""]
    assert float_column(cells, range(1, 7), "x", optional=True) == [
        -80.0, None, -80.0, -80.0, 0.0, None]
    with pytest.raises(ValueError, match=r"^line 2: column 'x' is not a number: ''$"):
        float_column(cells, range(1, 7), "x")


def test_counted_float_column_tallies_each_distinct_cell_in_first_appearance_order():
    cells = ["-80", "", "-80.0", "-80", "0", "", "-0.0", "-0.0"]
    values, (distinct, counts) = counted_float_column(cells, range(1, 9), "x", optional=True)
    assert values == float_column(cells, range(1, 9), "x", optional=True)
    # Two spellings of one value are two cells; empty cells are not counted.
    assert list(map(repr, distinct)) == ["-80.0", "-80.0", "0.0", "-0.0"]
    assert counts == [2, 1, 1, 2]


def test_byte_order_marks_are_ignored(tmp_path):
    # Spreadsheet programs on Windows save UTF-8 with a BOM.
    csv_path = write_capture(tmp_path, "bom", synth_capture_rows(seed=3, n=20))
    expected = load_capture(csv_path)
    for path in (csv_path, tmp_path / "bom.meta"):
        path.write_bytes(b"\xef\xbb\xbf" + path.read_bytes())
    assert load_capture(csv_path) == expected

    config = tmp_path / "run.cfg"
    config.write_bytes(b"\xef\xbb\xbftx_power_dbm = 7.5\n")
    assert load_config(config).tx_power_dbm == 7.5
