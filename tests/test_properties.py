"""Property tests: the log-affine model core over random valid models,
capture ingestion over random, oddly formatted capture files, and config
files over random valid configurations."""

import dataclasses
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dectlink.budget import (
    ENVIRONMENTS,
    LinkBudget,
    ReliabilityThresholds,
    ThresholdUnreachable,
    distance_for_path_loss,
    max_link_distance,
)
from dectlink.campaign import CAPTURE_HEADER, load_capture, mean_power_db
from dectlink.config import RunConfig, load_config
from dectlink.propagation import (
    AREA_CLASSES,
    CITY_SIZES,
    COST231_FREQ_RANGE_MHZ,
    HATA_TX_HEIGHT_RANGE_M,
    MODEL_KINDS,
    OKUMURA_HATA_FREQ_RANGE_MHZ,
    AntennaGeometry,
    Frequency,
    HataEnvironment,
    PathLossModel,
    evaluate_sweep,
)

# Derandomized so that the suite gives the same verdict on every run.
PROPERTY = settings(max_examples=300, deadline=None, derandomize=True, database=None)

FREQ_RANGE_MHZ = {
    "okumura-hata": OKUMURA_HATA_FREQ_RANGE_MHZ,
    "cost231-hata": COST231_FREQ_RANGE_MHZ,
}
DISTANCES_M = st.floats(0.1, 1e6)


@st.composite
def models(draw) -> PathLossModel:
    """A model of any kind, with frequency, geometry and environment in its stated domain."""
    kind = draw(st.sampled_from(MODEL_KINDS))
    lo_mhz, hi_mhz = FREQ_RANGE_MHZ.get(kind, (100.0, 6000.0))
    frequency = Frequency.from_mhz(draw(st.floats(lo_mhz, hi_mhz)))
    if kind in FREQ_RANGE_MHZ:
        geometry = AntennaGeometry(draw(st.floats(*HATA_TX_HEIGHT_RANGE_M)),
                                   draw(st.floats(1.0, 10.0)))
    else:
        geometry = AntennaGeometry(draw(st.floats(1.0, 50.0)), draw(st.floats(1.0, 5.0)),
                                   draw(st.floats(0.25, 4.0)))
    environment = HataEnvironment(draw(st.sampled_from(CITY_SIZES)),
                                  draw(st.sampled_from(AREA_CLASSES)))
    return PathLossModel(kind, frequency, geometry, environment)


@PROPERTY
@given(models(), DISTANCES_M)
def test_inverse_round_trips(model, d_m):
    assert distance_for_path_loss(model, model.path_loss(d_m)) == pytest.approx(d_m, rel=1e-9)


@PROPERTY
@given(models(), st.floats(0.1, 1e5), st.floats(1.0 + 1e-9, 10.0))
def test_path_loss_strictly_increases(model, d_m, ratio):
    assert model.path_loss(d_m) < model.path_loss(d_m * ratio)


@PROPERTY
@given(models(), DISTANCES_M, st.floats(1.01, 1e3), st.integers(2, 50),
       st.sampled_from(("log", "linear")))
def test_sweep_matches_scalar_path_loss(model, start_m, span, points, spacing):
    for d_m, pl_db in evaluate_sweep(model, start_m, start_m * span, points, spacing):
        assert pl_db == pytest.approx(model.path_loss(d_m), abs=1e-9)


def _reach_m(model, p_tx_dbm, environment, criterion):
    """The solver's reach at this TX power, or None when unreachable."""
    try:
        return max_link_distance(LinkBudget(p_tx_dbm=p_tx_dbm), model, ReliabilityThresholds(),
                                 environment, criterion)
    except ThresholdUnreachable:
        return None


@PROPERTY
@given(models(), st.floats(-60.0, 40.0), st.floats(0.0, 60.0),
       st.sampled_from(ENVIRONMENTS), st.sampled_from(("rssi", "snr")))
def test_tx_power_scales_reach_by_the_slope(model, p_tx_dbm, delta_db, environment, criterion):
    near = _reach_m(model, p_tx_dbm, environment, criterion)
    far = _reach_m(model, p_tx_dbm + delta_db, environment, criterion)
    if near is None:
        return
    assert far is not None and far >= near
    if 0.1 < near and far < 1e6:
        expected = 10.0 ** (delta_db / model.slope_db_per_decade)
        assert far / near == pytest.approx(expected, rel=1e-9)


# ------------------------------------------------------------------ captures

RSSI_DBM = st.floats(-150.0, 10.0)
SNR_DB = st.floats(-20.0, 40.0)
# Lines the reader must skip: comments (which may hold commas and quotes,
# and may be indented) and empty or blank lines.
SKIPPED_LINES = st.one_of(
    st.builds(lambda pad, text: f"{pad}#{text}", st.sampled_from(("", " ", "\t")),
              st.text(st.sampled_from('ab ,;"#'), max_size=12)),
    st.sampled_from(("", "  ", "\t")),
)
# (left pad, right pad, quoted) of one cell; padding sits inside the quotes.
CELL_STYLES = st.sampled_from(
    [(left, right, quoted) for left in ("", " ", "\t ") for right in ("", " ")
     for quoted in (False, True)]
)
# Each example writes a file; fewer examples keep the suite quick.
CAPTURE_PROPERTY = settings(PROPERTY, max_examples=100)


@st.composite
def capture_rows(draw, min_rows=0):
    """Rows as (seq, pcc, pdc, snr, pcc_ok, pdc_ok); a lost request has no RSSI/SNR and 0 flags."""
    seqs = draw(st.lists(st.integers(0, 10**6), min_size=min_rows, max_size=12, unique=True))
    rows = []
    for seq in seqs:
        if draw(st.integers(0, 3)) == 0:
            rows.append((seq, None, None, None, False, False))
        else:
            rows.append((seq, draw(RSSI_DBM), draw(RSSI_DBM), draw(SNR_DB),
                         draw(st.booleans()), draw(st.booleans())))
    return rows


def _cell_text(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "1" if value else "0"
    return repr(value)


@st.composite
def capture_text(draw, rows):
    """Capture lines for rows: padded and quoted cells, comment and blank lines between.

    Returns (lines, line number of each row), with cells given as text so a
    test can corrupt one before the lines are joined.
    """
    lines = draw(st.lists(SKIPPED_LINES, max_size=3))
    lines.append(",".join(CAPTURE_HEADER))
    cells, line_numbers = [], []
    for row in rows:
        lines.extend(draw(st.lists(SKIPPED_LINES, max_size=2)))
        cells.append([_cell_text(v) for v in row])
        lines.append(None)  # filled in by render_capture
        line_numbers.append(len(lines))
    styles = [[draw(CELL_STYLES) for _ in row] for row in cells]
    return lines, line_numbers, cells, styles


def render_capture(path, lines, line_numbers, cells, styles):
    lines = list(lines)
    for n, row, row_styles in zip(line_numbers, cells, styles):
        out = []
        for cell, (left, right, quoted) in zip(row, row_styles):
            out.append(f'"{left}{cell}{right}"' if quoted else f"{left}{cell}{right}")
        lines[n - 1] = ",".join(out)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    path.with_suffix(".meta").write_text(
        "location_id=prop\ndistance_m=50\nenvironment=los-indoor\np_tx_dbm=0\n"
        f"request_count={max(1, len(cells))}\n"
    )


@pytest.fixture(scope="module")
def capture_path(tmp_path_factory):
    return tmp_path_factory.mktemp("properties") / "capture.csv"


@CAPTURE_PROPERTY
@given(st.data(), capture_rows())
def test_capture_loads_the_values_written(capture_path, data, rows):
    render_capture(capture_path, *data.draw(capture_text(rows)))
    assert list(zip(*load_capture(capture_path).columns)) == rows


@CAPTURE_PROPERTY
@given(st.data(), capture_rows(min_rows=2),
       st.sampled_from(("non-numeric", "flag", "duplicate-seq", "crc-without-rssi")))
def test_one_corrupt_cell_is_reported_at_its_line(capture_path, data, rows, fault):
    lines, line_numbers, cells, styles = data.draw(capture_text(rows))
    target = data.draw(st.integers(1, len(rows) - 1))
    row = cells[target]
    if fault == "non-numeric":
        row[data.draw(st.integers(0, 3))] = data.draw(st.sampled_from(("abc", "1.2.3", "--5")))
    elif fault == "flag":
        row[data.draw(st.integers(4, 5))] = "2"
    elif fault == "duplicate-seq":
        row[0] = cells[data.draw(st.integers(0, target - 1))][0]
    else:
        channel = data.draw(st.integers(1, 2))
        row[channel] = ""
        row[channel + 3] = "1"
    render_capture(capture_path, lines, line_numbers, cells, styles)
    with pytest.raises(ValueError, match=f"^line {line_numbers[target]}: "):
        load_capture(capture_path)



@PROPERTY
@given(st.lists(st.floats(-200.0, 60.0), min_size=1, max_size=50))
def test_mean_power_lies_between_the_db_mean_and_the_maximum(values):
    mean = mean_power_db(values)
    assert min(values) - 1e-9 <= mean <= max(values) + 1e-9
    assert mean >= math.fsum(values) / len(values) - 1e-9


# ------------------------------------------------------------------ config files

FINITE = st.floats(allow_nan=False, allow_infinity=False)
CONFIG_VALUES = {
    f.name: (
        st.sampled_from(CITY_SIZES) if f.name == "city_size"
        else st.sampled_from(AREA_CLASSES) if f.name == "area_class"
        else st.one_of(st.none(), FINITE) if f.default is None
        else FINITE
    )
    for f in dataclasses.fields(RunConfig)
}
COMMENT_TEXT = st.text(st.sampled_from("ab =#,"), max_size=10)


@st.composite
def config_files(draw):
    """(config, text): a random subset of keys set, in random order, with
    blanks around '=', whole-line and inline comments and blank lines."""
    names = draw(st.lists(st.sampled_from(sorted(CONFIG_VALUES)), unique=True))
    values = {name: draw(CONFIG_VALUES[name]) for name in names}
    lines = []
    for name, value in values.items():
        lines.extend(draw(st.lists(SKIPPED_LINES, max_size=2)))
        if value is None:
            text = draw(st.sampled_from(("none", "None", "")))
        else:
            text = repr(value) if isinstance(value, float) else value
        pad = draw(st.sampled_from(("", " ", "\t")))
        comment = draw(st.one_of(st.just(""), st.builds(
            lambda blank, body: f"{blank}#{body}", st.sampled_from((" ", "\t")), COMMENT_TEXT)))
        lines.append(f"{pad}{name}{pad}={pad}{text}{comment}")
    return RunConfig(**values), "\n".join(lines) + "\n"


@pytest.fixture(scope="module")
def config_path(tmp_path_factory):
    return tmp_path_factory.mktemp("properties") / "run.cfg"


@CAPTURE_PROPERTY
@given(config_files())
def test_config_file_loads_the_values_written(config_path, config_and_text):
    config, text = config_and_text
    config_path.write_text(text)
    assert load_config(config_path) == config
