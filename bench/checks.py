"""Reference math and per-op output checkers for the benchmark.

Plan and campaign results are compared, within tolerances, with the
textbook formulas and with statistics computed from the values the input
generators wrote, never with the code path that produced them, so the
checks keep working when the solver, the model core or capture ingestion
is rewritten. CLI output is parsed and cross-checked against in-process
library calls. Each checker returns None when the output is correct and a
one-line reason otherwise; known defects the benchmark keeps visible are
counted in the tally instead of failing the op.
"""

from __future__ import annotations

import csv
import io
import math
import re
from types import SimpleNamespace

SPEED_OF_LIGHT = 299_792_458.0
KINDS = ("fspl", "inh-los", "inf-los", "two-ray", "okumura-hata", "cost231-hata")
GEOMETRY_KINDS = ("two-ray", "okumura-hata", "cost231-hata")
CRITERIA = ("rssi", "snr")

# Documented RunConfig defaults (README "Command line").
DEFAULT_FREQ_HZ = 1899e6
CORRECTIONS_DB = 2.0
BANDWIDTH_HZ = 1.728e6
NOISE_FIGURE_DB = 10.0
MIN_SUCCESS_RATE = 90.0
RSSI_FLOOR_DBM = {"indoor": -90.0, "outdoor": -95.0}
SNR_FLOOR_DB = {"indoor": 11.5, "outdoor": 13.5}
NOISE_FLOOR_DBM = -174.0 + 10.0 * math.log10(BANDWIDTH_HZ) + NOISE_FIGURE_DB

# Solver bracket: below SOLVE_MIN_M nothing is reachable, SOLVE_CAP_M is the
# largest distance the solver returns.
SOLVE_MIN_M = 0.1
SOLVE_CAP_M = 1.0e6

PL_TOL_DB = 1e-3
STAT_TOL_DB = 1e-9
FIT_TOL = 1e-6


# ---------------------------------------------------------------- reference math


def ref_path_loss(kind: str, f_hz: float, d_m: float, geo: dict) -> float:
    """Textbook path loss in dB; geo holds h_tx_m, h_rx_m, gain, city_size, area_class."""
    lg = math.log10
    if kind == "fspl":
        return 20 * lg(4 * math.pi * d_m * f_hz / SPEED_OF_LIGHT)
    if kind == "inh-los":
        return 32.4 + 17.3 * lg(d_m) + 20 * lg(f_hz / 1e9)
    if kind == "inf-los":
        return 31.84 + 21.5 * lg(d_m) + 19 * lg(f_hz / 1e9)
    h_b, h_m = geo["h_tx_m"], geo["h_rx_m"]
    if kind == "two-ray":
        return 40 * lg(d_m) - 20 * lg(h_b * h_m) - 10 * lg(geo.get("gain", 1.0))
    f = f_hz / 1e6
    if geo.get("city_size", "small-medium") == "large":
        a_hm = 3.2 * lg(11.75 * h_m) ** 2 - 4.97
    else:
        a_hm = (1.1 * lg(f) - 0.7) * h_m - (1.56 * lg(f) - 0.8)
    slope = (44.9 - 6.55 * lg(h_b)) * lg(d_m / 1e3)
    if kind == "okumura-hata":
        return 69.55 + 26.16 * lg(f) - 13.82 * lg(h_b) - a_hm + slope
    area = 3.0 if geo.get("area_class", "urban") == "urban" else 0.0
    return 46.3 + 33.9 * lg(f) - 13.82 * lg(h_b) - a_hm + slope + area


def ref_flags(kind: str, f_hz: float, d_m: float, geo: dict) -> set[str] | None:
    """Validity flag codes the model must report at d_m, or None near a range edge."""
    edges: list[tuple[float, float]] = []
    found = set()
    if kind == "two-ray":
        crossover = 4 * math.pi * geo["h_tx_m"] * geo["h_rx_m"] * f_hz / SPEED_OF_LIGHT
        edges.append((d_m, crossover))
        if d_m < crossover:
            found.add("near-field")
    elif kind in ("okumura-hata", "cost231-hata"):
        lo_f, hi_f = (150.0, 1500.0) if kind == "okumura-hata" else (500.0, 2000.0)
        f = f_hz / 1e6
        edges += [(f, lo_f), (f, hi_f), (geo["h_tx_m"], 30.0), (geo["h_tx_m"], 200.0),
                  (d_m / 1e3, 1.0), (d_m / 1e3, 20.0)]
        if not lo_f <= f <= hi_f:
            found.add("frequency-out-of-range")
        if not 30.0 <= geo["h_tx_m"] <= 200.0:
            found.add("tx-height-out-of-range")
        if not 1.0 <= d_m / 1e3 <= 20.0:
            found.add("distance-out-of-range")
    if any(abs(v - edge) <= 1e-9 * edge for v, edge in edges):
        return None
    return found


def allowed_pl_db(tx_power_dbm: float, environment: str, criterion: str) -> float:
    """Largest path loss that still meets the criterion's floor, from the defaults."""
    budget = tx_power_dbm + CORRECTIONS_DB
    if criterion == "rssi":
        return budget - RSSI_FLOOR_DBM[environment]
    return budget - (NOISE_FLOOR_DBM + SNR_FLOOR_DB[environment])


def ref_mean_power_db(values: list[float]) -> float | None:
    if not values:
        return None
    return 10 * math.log10(math.fsum(10 ** (v / 10) for v in values) / len(values))


def ref_std_db(values: list[float]) -> float:
    n = len(values)
    if n < 2:
        return 0.0
    mean = math.fsum(values) / n
    return math.sqrt(math.fsum((v - mean) ** 2 for v in values) / (n - 1))


def ref_log_fit(points: list[tuple[float, float]]) -> tuple[float, float]:
    """Least-squares (pl0_db, exponent) of PL = pl0 + 10 n log10(d), d0 = 1 m."""
    xs = [10 * math.log10(d) for d, _ in points]
    ys = [pl for _, pl in points]
    x_bar = math.fsum(xs) / len(xs)
    y_bar = math.fsum(ys) / len(ys)
    sxy = math.fsum((x - x_bar) * (y - y_bar) for x, y in zip(xs, ys))
    sxx = math.fsum((x - x_bar) ** 2 for x in xs)
    slope = sxy / sxx
    return y_bar - slope * x_bar, slope


def _close(a: float | None, b: float | None, tol: float) -> bool:
    if a is None or b is None:
        return a is None and b is None
    return abs(a - b) <= tol


def geometry_of(overrides: dict) -> dict:
    return {
        "h_tx_m": overrides.get("h_tx_m"),
        "h_rx_m": overrides.get("h_rx_m"),
        "gain": overrides.get("antenna_gain", 1.0),
        "city_size": overrides.get("city_size", "small-medium"),
        "area_class": overrides.get("area_class", "urban"),
    }


# ---------------------------------------------------------------- plan


def check_solve(kind, criterion, overrides, environment, d_m, tally) -> str | None:
    """Check one max-distance answer; d_m None means the solver said unreachable."""
    f_hz = overrides.get("frequency_hz", DEFAULT_FREQ_HZ)
    geo = geometry_of(overrides)
    allowed = allowed_pl_db(overrides.get("tx_power_dbm", 0.0), environment, criterion)
    where = f"{kind}/{criterion}"
    if d_m is None:
        if ref_path_loss(kind, f_hz, SOLVE_MIN_M, geo) <= allowed - PL_TOL_DB:
            return f"{where}: unreachable, but PL({SOLVE_MIN_M} m) is below {allowed:.4f} dB"
        tally["budget.solve_unreachable"] += 1
        return None
    if not (math.isfinite(d_m) and d_m > 0):
        return f"{where}: distance {d_m!r} is not a positive finite number"
    if d_m >= SOLVE_CAP_M * (1 - 1e-12):
        # Known defect: the bracket cap is returned as if it were an answer.
        if ref_path_loss(kind, f_hz, SOLVE_CAP_M, geo) > allowed + PL_TOL_DB:
            return f"{where}: capped at {d_m} m but the cap does not meet the budget"
        tally["budget.solve_capped"] += 1
        return None
    pl = ref_path_loss(kind, f_hz, d_m, geo)
    if abs(pl - allowed) > PL_TOL_DB:
        return f"{where}: PL({d_m} m) = {pl:.6f} dB, allowed {allowed:.6f} dB"
    tally["budget.solve_reached"] += 1
    return None


def check_plan(request: dict, entries, tally) -> str | None:
    """Check one planning request: (kind, criterion, d, flag codes, rx dBm, snr dB) per pair."""
    if isinstance(entries, BaseException):
        return f"plan request raised {type(entries).__name__}: {entries}"
    overrides, environment = request["overrides"], request["environment"]
    seen = {(e[0], e[1]) for e in entries}
    if len(entries) != len(KINDS) * len(CRITERIA) or len(seen) != len(entries):
        return f"expected one answer per model and criterion, got {sorted(seen)}"
    f_hz = overrides.get("frequency_hz", DEFAULT_FREQ_HZ)
    geo = geometry_of(overrides)
    p_budget = overrides.get("tx_power_dbm", 0.0) + CORRECTIONS_DB
    for kind, criterion, d_m, codes, rx, snr in entries:
        problem = check_solve(kind, criterion, overrides, environment, d_m, tally)
        if problem:
            return problem
        if d_m is None:
            continue
        rx_ref = p_budget - ref_path_loss(kind, f_hz, d_m, geo)
        floor = RSSI_FLOOR_DBM[environment] if criterion == "rssi" else SNR_FLOOR_DB[environment]
        got = rx if criterion == "rssi" else snr
        if not (_close(rx, rx_ref, 1e-6) and _close(snr, rx_ref - NOISE_FLOOR_DBM, 1e-6)):
            return f"{kind}/{criterion}: predicted rx {rx} / snr {snr} at {d_m} m, want {rx_ref}"
        if d_m < SOLVE_CAP_M * (1 - 1e-12) and got < floor - PL_TOL_DB:
            return f"{kind}/{criterion}: floor {floor} not met at {d_m} m ({got})"
        want = ref_flags(kind, f_hz, d_m, geo)
        if want is not None and not want <= set(codes):
            return f"{kind}/{criterion}: flags {sorted(codes)} miss {sorted(want)}"
    return None


# ---------------------------------------------------------------- campaign


def ref_success_rate(ref: dict, channel: str) -> float:
    """Percent of requests sent whose CRC passed on channel "pcc" or "pdc"."""
    return 100.0 * ref[f"ok_{channel}"] / ref["request_count"]


def ref_empirical_pl(ref: dict) -> float | None:
    if ref["mean_pcc"] is None:
        return None
    return ref["p_tx_dbm"] - ref["mean_pcc"] + CORRECTIONS_DB


def ref_reliable(ref: dict) -> bool:
    return all(ref_success_rate(ref, ch) > MIN_SUCCESS_RATE for ch in ("pcc", "pdc"))


def check_record(ref: dict, rec) -> str | None:
    """Compare a CampaignRecord-like object with the generator's reference stats."""
    where = ref["location_id"]
    if rec.location_id != where:
        return f"{where}: record is for {rec.location_id!r}"
    n_req = ref["request_count"]
    if int(rec.request_count) != n_req:
        return f"{where}: request_count {rec.request_count}, want {n_req}"
    for channel in ("pcc", "pdc"):
        got = getattr(rec, f"sr_{channel}_pct")
        if not _close(got, ref_success_rate(ref, channel), 1e-9):
            return f"{where}: sr_{channel}_pct {got}, want {ref[f'ok_{channel}']}/{n_req} requests"
    expected = (
        ("distance_m", ref["distance_m"]),
        ("mean_pcc_rssi_dbm", ref["mean_pcc"]),
        ("mean_pdc_rssi_dbm", ref["mean_pdc"]),
        ("mean_snr_db", ref["mean_snr"]),
        ("std_pcc_rssi_db", ref["std_pcc"]),
        ("min_pcc_rssi_dbm", ref["min_pcc"]),
        ("max_pcc_rssi_dbm", ref["max_pcc"]),
        ("empirical_pl_pcc_db", ref_empirical_pl(ref)),
    )
    for field, want in expected:
        got = getattr(rec, field)
        if not _close(got, want, STAT_TOL_DB):
            return f"{where}: {field} {got}, want {want}"
    reliable = ref_reliable(ref)
    if bool(rec.reliable) != reliable:
        return f"{where}: reliable {rec.reliable}, want {reliable}"
    return None


def check_capture(ref: dict, outcome, tally) -> str | None:
    """outcome is (record, warning count) or the exception load/summarize raised."""
    if isinstance(outcome, BaseException):
        if isinstance(outcome, ValueError) and ref["comma"]:
            # Known defect: a comment line holding a comma is taken for the header.
            tally["campaign.rejected"] += 1
            return None
        return f"{ref['location_id']}: raised {type(outcome).__name__}: {outcome}"
    record, n_warnings = outcome
    problem = check_record(ref, record)
    if problem:
        return problem
    glitches = ref["glitch_values"]
    if not (n_warnings == 0 if glitches == 0 else 1 <= n_warnings <= glitches):
        return f"{ref['location_id']}: {n_warnings} warnings for {glitches} glitch values"
    tally["campaign.warnings"] += n_warnings
    return None


def check_batch(refs: list[dict], outcome) -> str | None:
    """outcome is (best record or exception, fit result or exception) over refs."""
    best, fit = outcome
    reliable = [r for r in refs if ref_reliable(r)]
    if reliable:
        want = max(r["distance_m"] for r in reliable)
        if isinstance(best, BaseException) or best.distance_m != want:
            return f"batch: max reliable distance {best}, want {want}"
    elif not isinstance(best, ValueError):
        return f"batch: no reliable record, but max_reliable_distance gave {best}"
    points = [(r["distance_m"], ref_empirical_pl(r)) for r in refs if r["mean_pcc"] is not None]
    if len({d for d, _ in points}) < 2:
        return None if isinstance(fit, ValueError) else f"batch: fit of <2 distances gave {fit}"
    if isinstance(fit, BaseException):
        return f"batch: fit raised {type(fit).__name__}: {fit}"
    pl0, n = ref_log_fit(points)
    if not (_close(fit.params[0], pl0, FIT_TOL) and _close(fit.params[1], n, FIT_TOL)):
        return f"batch: fit {fit.params}, want ({pl0}, {n})"
    return None


# ---------------------------------------------------------------- cli


def _csv_rows(text: str) -> list[list[str]]:
    return list(csv.reader(io.StringIO(text)))


def _opt_float(cell: str) -> float | None:
    return None if cell == "" else float(cell)


def check_cli(op: dict, result, lib, refs: dict, tally) -> str | None:
    """Check one CLI run; result has rc, stdout, stderr, warnings; lib is the dectlink package.

    refs maps capture location ids and fit input names to generator references.
    """
    sub = op["sub"]
    if isinstance(result, BaseException):
        return f"{sub}: raised {type(result).__name__}: {result}"
    if sub == "usage":
        if result.rc != 2 or "error" not in result.stderr:
            return f"usage error exited {result.rc} with stderr {result.stderr[-200:]!r}"
        tally["cli.expected_exit2"] += 1
        return None
    if result.rc != 0:
        return f"{sub}: exit {result.rc}: {result.stderr[-300:]!r}"
    tally["cli.stdout_bytes"] += len(result.stdout.encode())
    return _CLI_CHECKS[sub](op, result, lib, refs, tally)


def _lib_config(lib, op):
    return lib.load_config(None, op.get("overrides", {}))


def _check_model_eval(op, result, lib, refs, tally):
    model = _lib_config(lib, op).model(op["kind"])
    lines = result.stdout.splitlines()
    m = re.fullmatch(r"(-?[0-9.]+) dB", lines[0]) if lines else None
    want = model.path_loss(op["d"])
    if not m or abs(float(m.group(1)) - want) > 0.005 + 1e-9:
        return f"model eval {op['kind']}: printed {lines[:1]}, library {want:.4f} dB"
    flags = {line.split()[1].rstrip(":") for line in lines[1:] if line.startswith("flag ")}
    want_flags = {f.code for f in model.flags(op["d"])}
    if flags != want_flags:
        return f"model eval {op['kind']}: flags {sorted(flags)}, library {sorted(want_flags)}"
    return None


def _check_model_sweep(op, result, lib, refs, tally):
    if result.stdout:
        return "model sweep --out wrote to stdout"
    with open(op["out"], newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    if rows[0] != ["distance_m"] + [f"{k}_db" for k in KINDS]:
        return f"model sweep: header {rows[0]}"
    body = rows[1:]
    if len(body) != op["points"]:
        return f"model sweep: {len(body)} rows, want {op['points']}"
    if float(body[0][0]) != op["start"] or float(body[-1][0]) != op["end"]:
        return f"model sweep: grid {body[0][0]}..{body[-1][0]}, want {op['start']}..{op['end']}"
    cfg = _lib_config(lib, op)
    models = [cfg.model(k) for k in KINDS]
    step = max(1, len(body) // 25)
    for row in body[::step] + [body[-1]]:
        d = float(row[0])
        for model, cell in zip(models, row[1:]):
            if abs(float(cell) - model.path_loss(d)) > STAT_TOL_DB:
                return f"model sweep: {model.kind} at {d} m is {cell}, library {model.path_loss(d)}"
    return None


def _lib_plan(lib, op):
    """Library answers per (kind, criterion): (allowed dB, distance or None)."""
    cfg = _lib_config(lib, op)
    budget, thresholds = cfg.budget(), cfg.thresholds()
    out = {}
    for kind in KINDS:
        model = cfg.model(kind)
        for criterion in CRITERIA:
            allowed = lib.allowed_path_loss_db(budget, thresholds, op["environment"], criterion)
            try:
                d = lib.max_link_distance(budget, model, thresholds, op["environment"], criterion)
            except lib.ThresholdUnreachable:
                d = None
            out[kind, criterion] = (allowed, d)
    return out


_PLAN_LINE = re.compile(r"  (rssi|snr): allowed PL (-?[0-9.]+) dB -> (?:(unreachable)|([0-9.]+) m)")


def _check_plan_cli(op, result, lib, refs, tally):
    want = _lib_plan(lib, op)
    got = {}
    if op["format"] == "csv":
        rows = _csv_rows(result.stdout)
        if rows[0] != ["model", "criterion", "allowed_pl_db", "max_distance_m", "binding"]:
            return f"plan csv: header {rows[0]}"
        for kind, criterion, allowed, dist, _ in rows[1:]:
            got[kind, criterion] = (float(allowed), None if dist == "unreachable" else float(dist))
    else:
        kind = None
        for line in result.stdout.splitlines():
            if line.startswith("model "):
                kind = line[len("model "):].rstrip(":")
            elif (m := _PLAN_LINE.match(line)):
                d = None if m.group(3) else float(m.group(4))
                got[kind, m.group(1)] = (float(m.group(2)), d)

    def close(printed: float, library: float) -> bool:
        if op["format"] == "table":  # two decimals
            return abs(printed - library) <= 0.005 + 1e-9
        return abs(printed - library) <= 1e-9 * max(1.0, abs(library))

    if set(got) != set(want):
        return f"plan {op['format']}: answers for {sorted(got)}"
    for key, (allowed, d) in got.items():
        w_allowed, w_d = want[key]
        if not close(allowed, w_allowed) or (d is None) != (w_d is None) or (d is not None and not close(d, w_d)):
            return f"plan {key}: printed {allowed} dB / {d} m, library {w_allowed} dB / {w_d} m"
        problem = check_solve(*key, op["overrides"], op["environment"], w_d, tally)
        if problem:
            return f"plan: {problem}"
    return None


_ANALYZE_NUMERIC = (
    "distance_m", "p_tx_dbm", "sr_pcc_pct", "sr_pdc_pct", "mean_pcc_rssi_dbm",
    "mean_pdc_rssi_dbm", "std_pcc_rssi_db", "min_pcc_rssi_dbm", "max_pcc_rssi_dbm",
    "mean_snr_db", "empirical_pl_pcc_db", "empirical_pl_pdc_db",
)


def _check_analyze(op, result, lib, refs, tally):
    want_ids = [refs[c]["location_id"] for c in op["captures"]]
    glitches = sum(refs[c]["glitch_values"] for c in op["captures"])
    if not (result.warnings == 0 if glitches == 0 else 1 <= result.warnings <= glitches):
        return f"analyze: {result.warnings} warnings for {glitches} glitch values"
    tally["campaign.warnings"] += result.warnings
    by_id = {refs[c]["location_id"]: refs[c] for c in op["captures"]}
    if op["format"] == "csv":
        rows = _csv_rows(result.stdout)
        header, body = rows[0], rows[1:]
        if sorted(r[0] for r in body) != sorted(want_ids):
            return f"analyze csv: locations {[r[0] for r in body]}, want {want_ids}"
        for row in body:
            cells = dict(zip(header, row))
            rec = SimpleNamespace(
                location_id=cells["location_id"],
                request_count=int(cells["request_count"]),
                reliable=cells["reliable"] == "1",
                **{k: _opt_float(cells[k]) for k in _ANALYZE_NUMERIC},
            )
            problem = check_record(by_id[rec.location_id], rec)
            if problem:
                return f"analyze csv: {problem}"
        return None
    lines = result.stdout.splitlines()
    for loc in want_ids:
        row = next((line for line in lines if line.split()[:1] == [loc]), None)
        if row is None:
            return f"analyze table: no row for {loc}"
        ref = by_id[loc]
        sr_pcc = float(row.split()[2])
        if abs(sr_pcc - ref_success_rate(ref, "pcc")) > 0.005 + 1e-9:
            return f"analyze table: {loc} SR pcc {sr_pcc}"
    if not lines or not lines[-1].startswith("max reliable distance:"):
        return "analyze table: no max reliable distance line"
    return None


def _check_fit(op, result, lib, refs, tally):
    fields = dict(line.split(": ", 1) for line in result.stdout.splitlines() if ": " in line)
    ref = refs[op["input"]]
    try:
        pl0, n = float(fields["pl0_db"]), float(fields["exponent"])
        points = int(fields["points"])
    except (KeyError, ValueError):
        return f"fit: unparsable output {result.stdout[:200]!r}"
    if points != ref["points"] or fields.get("engine") != op["engine"]:
        return f"fit: {points} points with {fields.get('engine')}, want {ref['points']}"
    if abs(pl0 - ref["pl0_db"]) > 0.005 + FIT_TOL or abs(n - ref["exponent"]) > 5e-5 + FIT_TOL:
        return f"fit {op['engine']}: ({pl0}, {n}), reference ({ref['pl0_db']}, {ref['exponent']})"
    return None


def _check_report(op, result, lib, refs, tally):
    published = lib.fixtures.load_pathloss_comparison()
    overrides = op.get("overrides", {})
    has_geometry = "h_tx_m" in overrides
    if op["format"] == "table":
        missing = [r.scenario for r in published if f"{r.scenario} at " not in result.stdout]
        return f"report table: no block for {missing}" if missing else None
    rows = _csv_rows(result.stdout)
    header, body = rows[0], rows[1:]
    if [r[0] for r in body] != [r.scenario for r in published]:
        return f"report csv: scenarios {[r[0] for r in body]}"
    f_hz = overrides.get("frequency_hz", DEFAULT_FREQ_HZ)
    for pub, row in zip(published, body):
        cells = dict(zip(header, row))
        if _opt_float(cells["fspl_published_db"]) != pub.fspl_db:
            return f"report csv: {pub.scenario} published fspl {cells['fspl_published_db']}"
        want = ref_path_loss("fspl", f_hz, pub.distance_m, {})
        if not _close(_opt_float(cells["fspl_computed_db"]), want, 1e-9):
            return f"report csv: {pub.scenario} fspl {cells['fspl_computed_db']}, want {want}"
        if (cells["two_ray_computed_db"] != "") != has_geometry:
            return f"report csv: {pub.scenario} two-ray computed {cells['two_ray_computed_db']!r}"
    return None


_CLI_CHECKS = {
    "model-eval": _check_model_eval,
    "model-sweep": _check_model_sweep,
    "analyze": _check_analyze,
    "fit": _check_fit,
    "plan": _check_plan_cli,
    "report": _check_report,
}
CLI_SUBS = tuple(_CLI_CHECKS)
