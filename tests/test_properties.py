"""Property tests: the log-affine model core over random valid models,
each model against its free function and stated ranges, every CLI
subcommand (`model eval`, `model sweep`, `plan`, `report`, `analyze` and
`fit`) over extreme flag values and input files, the CLI's CSV cells over
any float, capture ingestion over random, oddly formatted capture files,
config files over random valid configurations, and the two fit engines over
random, often degenerate point sets."""

import dataclasses
import io
import math
import re
from contextlib import redirect_stderr, redirect_stdout

import pytest
from hypothesis import example, given, settings
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
from dectlink.cli import _CONFIG_FLAGS, _write_csv, main
from dectlink.config import RunConfig, load_config
from dectlink.fitting import fit_log_distance, fit_log_distance_iterative
from dectlink.propagation import (
    AREA_CLASSES,
    CITY_SIZES,
    COST231_FREQ_RANGE_MHZ,
    HATA_DISTANCE_RANGE_KM,
    HATA_KINDS,
    HATA_TX_HEIGHT_RANGE_M,
    INDOOR_DISTANCE_RANGE_M,
    MODEL_KINDS,
    OKUMURA_HATA_FREQ_RANGE_MHZ,
    AntennaGeometry,
    Frequency,
    HataEnvironment,
    PathLossModel,
    ValidityFlag,
    cost231_hata,
    evaluate_sweep,
    fspl,
    okumura_hata,
    pl_inf_los,
    pl_inh_los,
    two_ray,
    two_ray_crossover_m,
)

from conftest import write_capture

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


# ------------------------------------------------------------------ exact agreement

# kind -> (model, d_m) -> dB through the kind's textbook free function.
FREE_FUNCTIONS = {
    "fspl": lambda m, d_m: fspl(d_m, m.frequency.hz),
    "inh-los": lambda m, d_m: pl_inh_los(d_m, m.frequency.hz),
    "inf-los": lambda m, d_m: pl_inf_los(d_m, m.frequency.hz),
    "two-ray": lambda m, d_m: two_ray(d_m, m.geometry),
    "okumura-hata": lambda m, d_m: okumura_hata(d_m, m.frequency.hz, m.geometry, m.environment),
    "cost231-hata": lambda m, d_m: cost231_hata(d_m, m.frequency.hz, m.geometry, m.environment),
}


def reference_flags(model, d_m):
    """The stated-ranges table, built and checked in full on every call."""
    if model.kind == "two-ray":
        crossover = two_ray_crossover_m(model.geometry, model.frequency.hz)
        stated = (("near-field", d_m, (crossover, math.inf),
                   "distance {:.2f} m below two-ray crossover {:.2f} m"),)
    elif model.kind in HATA_KINDS:
        f_range_mhz = (OKUMURA_HATA_FREQ_RANGE_MHZ if model.kind == "okumura-hata"
                       else COST231_FREQ_RANGE_MHZ)
        stated = (
            ("frequency-out-of-range", model.frequency.mhz, f_range_mhz,
             "{:.3f} MHz outside {:.0f}-{:.0f} MHz"),
            ("tx-height-out-of-range", model.geometry.h_tx_m, HATA_TX_HEIGHT_RANGE_M,
             "h_tx {:.2f} m outside {:.0f}-{:.0f} m"),
            ("distance-out-of-range", d_m / 1e3, HATA_DISTANCE_RANGE_KM,
             "{:.3f} km outside {:.0f}-{:.0f} km"),
        )
    elif model.kind in INDOOR_DISTANCE_RANGE_M:
        stated = (("distance-out-of-range", d_m, INDOOR_DISTANCE_RANGE_M[model.kind],
                   "{:.2f} m outside {:.0f}-{:.0f} m"),)
    else:
        return ()
    return tuple(ValidityFlag(code, detail.format(value, lo, hi))
                 for code, value, (lo, hi), detail in stated if not lo <= value <= hi)


def log_uniform(lo, hi):
    return st.floats(math.log10(lo), math.log10(hi)).map(lambda e: 10.0**e)


# The edges of the stated Hata frequency ranges (MHz) and of the fixed distance ranges (m).
FREQ_EDGES_MHZ = (*OKUMURA_HATA_FREQ_RANGE_MHZ, *COST231_FREQ_RANGE_MHZ)
DISTANCE_EDGES_M = (*{d for lo_hi in INDOOR_DISTANCE_RANGE_M.values() for d in lo_hi},
                    *(1e3 * km for km in HATA_DISTANCE_RANGE_KM))


@st.composite
def any_models(draw) -> PathLossModel:
    """A model of any kind, with parameters inside and far outside its stated ranges."""
    f_mhz = draw(st.one_of(log_uniform(1.0, 1e5), st.sampled_from(FREQ_EDGES_MHZ)))
    h_tx = draw(st.one_of(log_uniform(1e-2, 1e4), st.sampled_from(HATA_TX_HEIGHT_RANGE_M)))
    geometry = AntennaGeometry(h_tx, draw(log_uniform(1e-2, 1e4)), draw(log_uniform(1e-2, 1e2)))
    environment = HataEnvironment(draw(st.sampled_from(CITY_SIZES)),
                                  draw(st.sampled_from(AREA_CLASSES)))
    return PathLossModel(draw(st.sampled_from(MODEL_KINDS)), Frequency.from_mhz(f_mhz),
                         geometry, environment)


@st.composite
def distances_for(draw, model) -> list[float]:
    """Distances over 1e-3..1e7 m, the exact domain edges, and their float neighbours."""
    edges = [*DISTANCE_EDGES_M, two_ray_crossover_m(model.geometry, model.frequency.hz)]
    out = []
    for d_m in draw(st.lists(st.one_of(log_uniform(1e-3, 1e7), st.floats(1e-3, 1e7),
                                       st.sampled_from(edges)), min_size=1, max_size=10)):
        out.append(draw(st.sampled_from((d_m, math.nextafter(d_m, 0.0),
                                         math.nextafter(d_m, math.inf)))))
    return out


@settings(PROPERTY, max_examples=400)
@given(any_models(), st.data())
def test_model_matches_free_function_and_stated_ranges_exactly(model, data):
    for d_m in data.draw(distances_for(model)):
        assert model.path_loss(d_m) == FREE_FUNCTIONS[model.kind](model, d_m)
        assert model.flags(d_m) == reference_flags(model, d_m)


EXTREME_VALUES = st.sampled_from((0.0, 5e-324, -5e-324, 1e308, -1e308, math.nan, math.inf,
                                  -math.inf))
# Each optional flag of `model eval` with its ordinary values; omitted when None is drawn.
EVAL_FLAGS = {
    "--h-tx": st.floats(1e-3, 1e4),
    "--h-rx": st.floats(1e-3, 1e4),
    "--antenna-gain": st.floats(1e-3, 1e3),
    "--f": st.floats(1e6, 1e11),
}
# A nan or inf printed as a number; a name such as inf-los does not count.
NON_FINITE = re.compile(r"(?<![\w.-])[-+]?(nan|inf)(?![\w-])", re.IGNORECASE)


def exits_0_or_2_with_finite_numbers(argv: list[str]) -> int:
    """Run the CLI in process: it exits 0 or 2, and after exit 0 prints no nan or inf number."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    assert code in (0, 2), (argv, err.getvalue())
    if code == 0:
        assert not NON_FINITE.search(out.getvalue()), (argv, out.getvalue())
    return code


@settings(PROPERTY, max_examples=300)
@given(st.sampled_from(MODEL_KINDS), st.one_of(EXTREME_VALUES, st.floats(1e-3, 1e7)),
       st.fixed_dictionaries({flag: st.one_of(st.none(), EXTREME_VALUES, ordinary)
                              for flag, ordinary in EVAL_FLAGS.items()}))
# Two-ray heights whose squares overflow, and heights whose crossover distance overflows.
@example("two-ray", 100.0, {"--h-tx": 1e308, "--h-rx": 1.5, "--antenna-gain": None, "--f": None})
@example("two-ray", 100.0, {"--h-tx": 1e4, "--h-rx": 1e4, "--antenna-gain": None, "--f": 1e308})
def test_model_eval_exits_0_or_2_and_prints_only_finite_numbers(kind, d_m, values):
    argv = ["model", "eval", "--model", kind, f"--d={d_m!r}"]
    argv += [f"{flag}={value!r}" for flag, value in values.items() if value is not None]
    exits_0_or_2_with_finite_numbers(argv)


# Every config flag of `plan`: ordinary values, with the extreme ones for each numeric flag.
ORDINARY_PLAN_VALUES = {**EVAL_FLAGS, "--bandwidth": st.floats(1e3, 1e8),
                        "--min-sr": st.floats(0.0, 100.0)}
PLAN_FLAGS = {
    flag: st.sampled_from(shape) if isinstance(shape, tuple)
    else st.one_of(EXTREME_VALUES, ORDINARY_PLAN_VALUES.get(flag, st.floats(-200.0, 200.0)))
    for flag, shape, _ in _CONFIG_FLAGS.values()
}
# Model lists as typed: known kinds, repeats, blanks, empty items and unknown names.
MODEL_LISTS = st.one_of(
    st.just("all"),
    st.lists(st.sampled_from((*MODEL_KINDS, " fspl ", "", "bogus")), min_size=1,
             max_size=3).map(",".join),
)


@st.composite
def plan_flags(draw) -> dict:
    """A few config flags, each with an ordinary or an extreme value; heights often set."""
    heights = draw(st.sampled_from(({}, {"--h-tx": 10.0, "--h-rx": 1.5})))
    chosen = draw(st.lists(st.sampled_from(list(PLAN_FLAGS)), unique=True, max_size=5))
    return heights | {flag: draw(PLAN_FLAGS[flag]) for flag in chosen}


@settings(PROPERTY, max_examples=300)
@given(st.sampled_from(ENVIRONMENTS), MODEL_LISTS,
       st.sampled_from((None, "rssi", "snr", "both")), st.sampled_from((None, "table", "csv")),
       plan_flags())
# Corrections whose sum overflows to inf, with every value finite.
@example("outdoor", "fspl", None, None, {"--correction-tx": 1e308, "--correction-rx": 1e308})
def test_plan_exits_0_or_2_and_prints_only_finite_numbers(environment, models, criterion,
                                                          fmt, values):
    argv = ["plan", "--environment", environment, f"--models={models}"]
    argv += [f"--{name}={value}" for name, value in (("criterion", criterion), ("format", fmt))
             if value is not None]
    argv += [f"{flag}={value!r}" if isinstance(value, float) else f"{flag}={value}"
             for flag, value in values.items()]
    exits_0_or_2_with_finite_numbers(argv)


def flag_args(values: dict) -> list[str]:
    """`--flag=value` for each drawn flag that is not None; floats as their repr."""
    return [f"{flag}={value!r}" if isinstance(value, float) else f"{flag}={value}"
            for flag, value in values.items() if value is not None]


# Sweep ends: an ordinary start lies below an ordinary end. With half the draws setting only
# the heights, about 1 sweep in 10 exits 0.
SWEEP_STARTS = st.one_of(EXTREME_VALUES, st.floats(1e-3, 1e3))
SWEEP_ENDS = st.one_of(EXTREME_VALUES, st.floats(1e3, 1e7))


def test_model_sweep_exits_0_or_2_and_prints_only_finite_numbers():
    codes = []

    @settings(PROPERTY, max_examples=300)
    @given(MODEL_LISTS, SWEEP_STARTS, SWEEP_ENDS, st.integers(-1, 6),
           st.sampled_from((None, "log", "linear")),
           st.one_of(st.just({"--h-tx": 10.0, "--h-rx": 1.5}), plan_flags()))
    # Grid points past the largest float: a linear sum that overflows, and a log grid whose
    # powers of ten round above it.
    @example("fspl", 1.0, 1e308, 4, "linear", {})
    @example("fspl", 1.7976931348623155e308, 1.7976931348623157e308, 6, None, {})
    def sweep(models, start, end, points, spacing, values):
        argv = ["model", "sweep", f"--models={models}", f"--points={points}"]
        argv += flag_args({"--start": start, "--end": end, "--spacing": spacing, **values})
        codes.append(exits_0_or_2_with_finite_numbers(argv))

    sweep()
    assert codes.count(0) >= 10, f"{codes.count(0)} of {len(codes)} sweeps exited 0"


@settings(PROPERTY, max_examples=150)
@given(st.one_of(st.none(), EXTREME_VALUES, st.floats(0.0, 100.0)),
       st.sampled_from((None, "table", "csv")), plan_flags())
def test_report_exits_0_or_2_and_prints_only_finite_numbers(tolerance, fmt, values):
    # plan_flags draws the heights: often a fixed pair, else ordinary or extreme values.
    argv = ["report", *flag_args({"--tolerance": tolerance, "--format": fmt, **values})]
    exits_0_or_2_with_finite_numbers(argv)


@pytest.fixture(scope="module")
def run_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("cli-properties")


# Capture powers: ordinary (some above the 10 dBm glitch line), extreme, or an empty cell.
CAPTURE_POWERS = st.one_of(st.floats(-150.0, 30.0), EXTREME_VALUES, st.none())


@st.composite
def extreme_captures(draw) -> dict:
    """write_capture arguments: 1-4 rows, with a CRC flag set only where the RSSI is."""
    rows = []
    for seq in draw(st.lists(st.integers(0, 9), min_size=1, max_size=4, unique=True)):
        pcc, pdc, snr = (draw(CAPTURE_POWERS) for _ in range(3))
        rows.append((seq, pcc, pdc, snr, int(pcc is not None and draw(st.booleans())),
                     int(pdc is not None and draw(st.booleans()))))
    return {
        "rows": rows,
        "distance_m": draw(st.one_of(st.floats(1.0, 1e4), EXTREME_VALUES)),
        "p_tx_dbm": draw(st.one_of(st.floats(-40.0, 40.0), EXTREME_VALUES)),
        "request_count": len(rows) + draw(st.integers(-1, 2)),
    }


ORDINARY_CAPTURE = {"rows": [(0, -80.0, -80.0, 10.0, 1, 1)], "distance_m": 40.0,
                    "p_tx_dbm": 0.0, "request_count": 1}


# Hot RSSI cells raise the glitch warning, which this property does not test.
@pytest.mark.filterwarnings("ignore:.*RSSI value")
def test_analyze_exits_0_or_2_and_prints_only_finite_numbers(run_dir):
    codes = []

    @settings(PROPERTY, max_examples=200)
    @given(extreme_captures(), st.sampled_from((None, "table", "csv")), plan_flags())
    # Finite corrections whose sum overflows, and a finite sum that overflows the path loss.
    @example(ORDINARY_CAPTURE, None, {"--correction-tx": 1e308, "--correction-rx": 1e308})
    @example({**ORDINARY_CAPTURE, "p_tx_dbm": 1.7e308}, "csv", {"--correction-tx": 1e308})
    def analyze(capture, fmt, values):
        path = write_capture(run_dir, "capture", capture["rows"], distance_m=capture["distance_m"],
                             p_tx_dbm=capture["p_tx_dbm"], request_count=capture["request_count"])
        codes.append(exits_0_or_2_with_finite_numbers(
            ["analyze", str(path), *flag_args({"--format": fmt, **values})]))

    analyze()
    assert codes.count(0) >= 20, f"{codes.count(0)} of {len(codes)} analyze runs exited 0"


FIT_DISTANCES, FIT_LOSSES = st.floats(1e-3, 1e6), st.floats(-1200.0, 1200.0)
# Point sets: half of them ordinary throughout, the rest with extreme values in any cell.
FIT_POINTS = st.one_of(
    st.lists(st.tuples(FIT_DISTANCES, FIT_LOSSES), min_size=2, max_size=5),
    st.lists(st.tuples(st.one_of(FIT_DISTANCES, EXTREME_VALUES),
                       st.one_of(FIT_LOSSES, EXTREME_VALUES)), max_size=5),
)


def test_fit_exits_0_or_2_and_prints_only_finite_numbers(run_dir):
    codes = []

    @settings(PROPERTY, max_examples=200)
    @given(FIT_POINTS,
           st.one_of(st.none(), st.floats(1e-3, 1e4), EXTREME_VALUES),
           st.sampled_from((None, "closed-form", "iterative")))
    # Losses beyond the fit's range, log-distances that coincide, and d0 far beyond the points.
    @example([(10.0, 1e200), (100.0, 2e200), (1000.0, 3e200)], None, "iterative")
    @example([(1e300, 60.0), (1.0000000000000002e300, 80.0)], None, "closed-form")
    @example([(1e-300, 60.0), (1.0, 80.0)], 1e300, "iterative")
    def fit(points, d0, engine):
        path = run_dir / "points.csv"
        lines = ["distance_m,pl_db", *(f"{d!r},{pl!r}" for d, pl in points)]
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        codes.append(exits_0_or_2_with_finite_numbers(
            ["fit", "--input", str(path), *flag_args({"--d0": d0, "--engine": engine})]))

    fit()
    assert codes.count(0) >= 20, f"{codes.count(0)} of {len(codes)} fits exited 0"


CSV_FLOATS = st.one_of(
    st.floats(),
    st.sampled_from((-0.0, 5e-324, -5e-324, 1e-320, math.inf, -math.inf, math.nan, 1e16, 1e-5)),
)


@PROPERTY
@given(st.integers(2, 6).flatmap(
    lambda width: st.lists(st.lists(st.one_of(CSV_FLOATS, st.none()), min_size=width,
                                    max_size=width), max_size=5)))
def test_csv_cells_are_the_repr_of_each_float_and_empty_for_none(rows):
    # The CLI hands csv.writer its floats and Nones as they are; these are the bytes it relies on.
    out = io.StringIO()
    with redirect_stdout(out):
        _write_csv(None, ["a", "b"], rows)
    expected = ["a,b", *(",".join("" if v is None else repr(v) for v in row) for row in rows)]
    assert out.getvalue() == "\n".join(expected) + "\n"


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
POSITIVE = st.floats(min_value=0.0, exclude_min=True, allow_infinity=False)
NOT_POSITIVE = st.floats(max_value=0.0, allow_infinity=False)
POSITIVE_KEYS = ("frequency_hz", "bandwidth_hz", "antenna_gain")
# Only values each component accepts: RunConfig checks every value when it is built.
CONFIG_VALUES = {
    f.name: (
        st.sampled_from(CITY_SIZES) if f.name == "city_size"
        else st.sampled_from(AREA_CLASSES) if f.name == "area_class"
        else st.floats(0.0, 100.0) if f.name == "min_success_rate"
        else st.one_of(st.none(), POSITIVE) if f.default is None
        else POSITIVE if f.name in POSITIVE_KEYS
        else FINITE
    )
    for f in dataclasses.fields(RunConfig)
}
UNKNOWN_NAME = st.from_regex(r"[a-z][a-z-]{0,11}", fullmatch=True).filter(
    lambda name: name not in CITY_SIZES + AREA_CLASSES)
# Values a config file can hold but a component refuses, with the component's wording.
OUT_OF_RULE = {
    "frequency_hz": (NOT_POSITIVE, "frequency must be a positive finite number"),
    "bandwidth_hz": (NOT_POSITIVE, "bandwidth_hz must be a positive finite number"),
    "min_success_rate": (
        st.one_of(st.floats(max_value=0.0, exclude_max=True, allow_infinity=False),
                  st.floats(min_value=100.0, exclude_min=True, allow_infinity=False)),
        "min_success_rate must be in [0, 100]",
    ),
    "h_tx_m": (NOT_POSITIVE, "h_tx_m must be a positive finite number"),
    "h_rx_m": (NOT_POSITIVE, "h_rx_m must be a positive finite number"),
    "antenna_gain": (NOT_POSITIVE, "antenna_gain must be a positive finite number"),
    "city_size": (UNKNOWN_NAME, f"city_size must be one of {CITY_SIZES}"),
    "area_class": (UNKNOWN_NAME, f"area_class must be one of {AREA_CLASSES}"),
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


@CAPTURE_PROPERTY
@given(config_files(), st.sampled_from(sorted(OUT_OF_RULE)), st.data())
def test_one_out_of_rule_value_fails_to_load(config_path, config_and_text, name, data):
    _, text = config_and_text
    values, wording = OUT_OF_RULE[name]
    value = data.draw(values)
    lines = [line for line in text.splitlines() if line.partition("=")[0].strip() != name]
    at = data.draw(st.integers(0, len(lines)))
    lines.insert(at, f"{name} = {value!r}" if isinstance(value, float) else f"{name}={value}")
    config_path.write_text("\n".join(lines) + "\n")
    message = f"{config_path.name}: {wording}, got {value!r}"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        load_config(config_path)


# ------------------------------------------------------------------ fitting


@st.composite
def fit_inputs(draw) -> tuple[list[tuple[float, float]], float]:
    """Points and d0_m, some distances repeated exactly or as their float neighbours."""
    distances = draw(st.lists(st.floats(-300.0, 300.0).map(lambda e: 10.0**e),
                              min_size=1, max_size=8))
    for d in draw(st.lists(st.sampled_from(distances), max_size=4)):
        distances.append(draw(st.sampled_from((d, math.nextafter(d, 0.0),
                                               math.nextafter(d, math.inf)))))
    losses = draw(st.lists(st.floats(-1200.0, 1200.0), min_size=len(distances),
                           max_size=len(distances)))
    return list(zip(distances, losses)), 10.0 ** draw(st.floats(-300.0, 300.0))


@st.composite
def narrow_fit_inputs(draw) -> tuple[list[tuple[float, float]], float]:
    """2-50 points whose log-distances span 1e-6 to 1e2 dB, anywhere in 1e-300..1e300 m."""
    count = draw(st.integers(2, 50))
    start_db, spread_db = draw(st.floats(-3000.0, 3000.0)), 10.0 ** draw(st.floats(-6.0, 2.0))
    offsets = [0.0, 1.0, *draw(st.lists(st.floats(0.0, 1.0), min_size=count - 2,
                                        max_size=count - 2))]
    distances = [10.0 ** ((start_db + spread_db * t) / 10.0) for t in offsets]
    loss = st.floats(-1000.0, 1000.0)
    # Equal losses, a zero slope, are the set where rounding in the residuals shows most.
    losses = draw(st.one_of(st.lists(loss, min_size=count, max_size=count),
                            loss.map(lambda v: [v] * count)))
    return list(zip(distances, losses)), 1.0


@PROPERTY
@given(st.one_of(fit_inputs(), narrow_fit_inputs()))
def test_both_fit_engines_accept_the_same_inputs(inputs):
    outcomes = []
    for fit in (fit_log_distance, fit_log_distance_iterative):
        try:
            outcomes.append(fit(*inputs).params)
        except ValueError as error:
            outcomes.append(str(error))
    closed, iterative = outcomes
    if isinstance(closed, str) or isinstance(iterative, str):
        assert closed == iterative
    else:
        for a, b in zip(closed, iterative):
            assert math.isfinite(a) and math.isfinite(b)
            assert abs(a - b) <= 1e-9 * max(1.0, abs(a))
