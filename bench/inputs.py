"""Seeded input generators for the plan, campaign and cli workloads.

Each generator draws from random.Random seeded with the workload name and
the seed, so the same seed gives byte-identical inputs. The sizes that set
an op's cost (capture rows, sweep points, fit points) are the n quantile
midpoints of their log-uniform law, handed out in seeded order; other
continuous inputs are stratified (one draw per equal slice of the range).
The seed thus changes every value an op sees, while a pool's total work
and its latency quantiles stay put, which keeps run-to-run spread low.
"""

from __future__ import annotations

import math
import random
from pathlib import Path

from checks import (
    CORRECTIONS_DB,
    DEFAULT_FREQ_HZ,
    GEOMETRY_KINDS,
    KINDS,
    NOISE_FLOOR_DBM,
    ref_log_fit,
    ref_mean_power_db,
    ref_std_db,
)

TX_POWERS_DBM = (-20.0, -8.0, 0.0, 16.0, 19.0)
CITY_SIZES = ("small-medium", "large")
AREA_CLASSES = ("urban", "suburban-open")
ENVIRONMENTS = ("indoor", "outdoor")
CAPTURE_ENVIRONMENTS = ("los-indoor", "nlos-indoor", "los-outdoor", "nlos-outdoor")

PLAN_REQUESTS = 1000
# Assumed, not taken from recorded use: the carrier is "mostly" the
# campaign's 1899 MHz, read here as four requests in five; the rest are
# drawn log-uniform over 450 MHz-5.9 GHz. Applies to plan and cli alike.
OFF_CARRIER_SHARE = 0.2

# 86 captures plus a batch op after every 6 make 101 ops per pass, so that
# op_p90_ms over distinct ops has at least 10 ops beyond it.
CAMPAIGN_CAPTURES = 82
CAMPAIGN_COMMA_CAPTURES = 4  # about 1 capture in 20 carries a comment with a comma
CAMPAIGN_BATCH = 6
# Rows per capture span two decades, so per-capture and per-row costs both
# show; a pass stays near a second, which leaves room for the repeats that
# fastest-repeat timing needs (1e5-row captures allowed only 3 or 4 passes
# in a run and left the run-to-run spread above 15 %).
CAMPAIGN_ROWS = (1e2, 1e4)

# Synthetic link: log-distance law with shadowing; rows below the
# sensitivity are heard-nothing rows.
LAW_PL0_DB = 38.0
LAW_EXPONENT = 2.8
SHADOWING_DB = 4.0
SENSITIVITY_DBM = -100.0
ERASURE_SHARE = 0.02
MARGIN_RANGE_DBM = (-96.0, -60.0)

# Assumed, not taken from recorded use: no weights are known for the six
# subcommands, so each gets an equal share; usage errors are "a small
# share", read here as one op in ten. 100 ops per pass.
CLI_MIX = (
    ("model-eval", 15),
    ("model-sweep", 15),
    ("plan", 15),
    ("analyze", 15),
    ("fit", 15),
    ("report", 15),
    ("usage", 10),
)
CLI_CAPTURES = 6
CLI_CAPTURE_ROWS = (1e2, 2e3)
CLI_SWEEP_POINTS = (1e3, 5e4)
CLI_FIT_POINTS = (1e2, 1e3)


def rng_for(workload: str, seed: int) -> random.Random:
    return random.Random(f"{workload}:{seed}")


def stratified(rng: random.Random, n: int, lo: float, hi: float) -> list[float]:
    """n draws from [lo, hi), one per equal stratum, in random order."""
    values = [lo + (hi - lo) * (i + rng.random()) / n for i in range(n)]
    rng.shuffle(values)
    return values


def log_stratified(rng: random.Random, n: int, lo: float, hi: float) -> list[float]:
    return [10**v for v in stratified(rng, n, math.log10(lo), math.log10(hi))]


def log_grid(rng: random.Random, n: int, lo: float, hi: float) -> list[int]:
    """The n quantile midpoints of log-uniform [lo, hi], rounded, in random order."""
    values = [round(lo * (hi / lo) ** ((i + 0.5) / n)) for i in range(n)]
    rng.shuffle(values)
    return values


def _overrides(rng: random.Random, frequency_hz: float | None = None) -> dict:
    out = {
        "tx_power_dbm": rng.choice(TX_POWERS_DBM),
        "h_tx_m": rng.uniform(1.5, 60.0),
        "h_rx_m": rng.uniform(1.0, 3.0),
        "city_size": rng.choice(CITY_SIZES),
        "area_class": rng.choice(AREA_CLASSES),
    }
    if frequency_hz is not None:
        out["frequency_hz"] = frequency_hz
    return out


# ---------------------------------------------------------------- plan


def plan_inputs(seed: int, n: int = PLAN_REQUESTS) -> dict:
    """Planning requests: OFF_CARRIER_SHARE over 450 MHz-5.9 GHz, the rest at 1899 MHz."""
    rng = rng_for("plan", seed)
    n_off = round(n * OFF_CARRIER_SHARE)
    freqs = [DEFAULT_FREQ_HZ] * (n - n_off) + log_stratified(rng, n_off, 450e6, 5.9e9)
    rng.shuffle(freqs)
    return {
        "ops": [
            {"overrides": _overrides(rng, f), "environment": rng.choice(ENVIRONMENTS)}
            for f in freqs
        ]
    }


# ---------------------------------------------------------------- captures


def _p_crc_ok(rssi_dbm: float) -> float:
    return 1.0 / (1.0 + math.exp(-(rssi_dbm + 95.0) / 1.5))


def write_capture(
    directory: Path,
    rng: random.Random,
    location_id: str,
    n_rows: int,
    margin_dbm: float,
    comma_comment: bool,
) -> dict:
    """Write location_id.csv + .meta and return reference stats from the written values."""
    p_tx = rng.choice(TX_POWERS_DBM)
    distance = 10 ** ((p_tx + CORRECTIONS_DB - margin_dbm - LAW_PL0_DB) / (10 * LAW_EXPONENT))
    request_count = n_rows + int(n_rows * rng.uniform(0.0, 0.08))  # lost requests log no row
    seqs = sorted(rng.sample(range(request_count), n_rows))
    glitches = set(rng.sample(range(n_rows), rng.choice((0, 0, 1, 2, 3))))

    sep = ", " if comma_comment else " "
    lines = [f"# site {location_id}{sep}run {rng.randint(1, 9)}", "seq,pcc_rssi_dbm,pdc_rssi_dbm,snr_db,pcc_crc_ok,pdc_crc_ok"]
    pcc_vals: list[float] = []
    pdc_vals: list[float] = []
    snr_vals: list[float] = []
    ok_pcc = ok_pdc = 0
    gauss, rand = rng.gauss, rng.random
    for i, seq in enumerate(seqs):
        pcc = round(margin_dbm + gauss(0.0, SHADOWING_DB), 1)
        if i in glitches:
            pcc = pdc = round(rng.uniform(12.0, 25.0), 1)
            snr = round(pcc - NOISE_FLOOR_DBM, 1)
            crc = (1, 1)
        elif pcc < SENSITIVITY_DBM or rand() < ERASURE_SHARE:
            lines.append(f"{seq},,,,0,0")
            continue
        else:
            pdc = round(pcc + gauss(0.0, 0.5), 1)
            snr = round(pcc - NOISE_FLOOR_DBM + gauss(0.0, 0.3), 1)
            crc = (int(rand() < _p_crc_ok(pcc)), int(rand() < _p_crc_ok(pdc)))
        pcc_vals.append(pcc)
        pdc_vals.append(pdc)
        snr_vals.append(snr)
        ok_pcc += crc[0]
        ok_pdc += crc[1]
        lines.append(f"{seq},{pcc!r},{pdc!r},{snr!r},{crc[0]},{crc[1]}")

    environment = rng.choice(CAPTURE_ENVIRONMENTS)
    csv_path = directory / f"{location_id}.csv"
    csv_path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    csv_path.with_suffix(".meta").write_text(
        f"location_id={location_id}\ndistance_m={distance!r}\nenvironment={environment}\n"
        f"p_tx_dbm={p_tx!r}\nrequest_count={request_count}\n",
        encoding="utf-8",
    )
    return {
        "csv": str(csv_path),
        "location_id": location_id,
        "rows": n_rows,
        "request_count": request_count,
        "distance_m": distance,
        "p_tx_dbm": p_tx,
        "ok_pcc": ok_pcc,
        "ok_pdc": ok_pdc,
        "mean_pcc": ref_mean_power_db(pcc_vals),
        "mean_pdc": ref_mean_power_db(pdc_vals),
        "mean_snr": ref_mean_power_db(snr_vals),
        "std_pcc": ref_std_db(pcc_vals),
        "min_pcc": min(pcc_vals, default=None),
        "max_pcc": max(pcc_vals, default=None),
        "glitch_values": 2 * len(glitches),  # PCC and PDC RSSI both above 10 dBm
        "comma": comma_comment,
    }


def campaign_inputs(seed: int, directory: Path) -> dict:
    """Capture pool in pass order; a batch op follows every CAMPAIGN_BATCH captures."""
    rng = rng_for("campaign", seed)
    n = CAMPAIGN_CAPTURES + CAMPAIGN_COMMA_CAPTURES
    rows = log_grid(rng, CAMPAIGN_CAPTURES, *CAMPAIGN_ROWS)
    rows += log_grid(rng, CAMPAIGN_COMMA_CAPTURES, *CAMPAIGN_ROWS)
    comma = [False] * CAMPAIGN_CAPTURES + [True] * CAMPAIGN_COMMA_CAPTURES
    margins = stratified(rng, n, *MARGIN_RANGE_DBM)
    order = list(range(n))
    rng.shuffle(order)
    captures = [
        write_capture(directory, rng, f"loc{k:03d}", rows[i], margins[k], comma[i])
        for k, i in enumerate(order)
    ]
    ops: list[dict] = []
    for start in range(0, n, CAMPAIGN_BATCH):
        members = list(range(start, min(start + CAMPAIGN_BATCH, n)))
        ops += [{"capture": k} for k in members]
        ops.append({"batch": members})
    return {"captures": captures, "ops": ops}


# ---------------------------------------------------------------- cli


def _flags(overrides: dict) -> list[str]:
    names = {
        "frequency_hz": "--f",
        "tx_power_dbm": "--tx-power",
        "h_tx_m": "--h-tx",
        "h_rx_m": "--h-rx",
        "city_size": "--city-size",
        "area_class": "--area-class",
    }
    out: list[str] = []
    for key, value in overrides.items():
        out += [names[key], value if isinstance(value, str) else repr(value)]
    return out


def _cli_overrides(rng: random.Random) -> dict:
    if rng.random() >= OFF_CARRIER_SHARE:
        return _overrides(rng, DEFAULT_FREQ_HZ)
    freq = 10 ** rng.uniform(math.log10(450e6), math.log10(5.9e9))
    return _overrides(rng, freq)


def _write_points(directory: Path, rng: random.Random, name: str, n: int) -> dict:
    pl0, exponent, sigma = rng.uniform(30, 50), rng.uniform(1.8, 4.0), rng.uniform(2, 8)
    points = []
    for _ in range(n):
        d = 10 ** rng.uniform(0.0, math.log10(2000.0))
        points.append((d, pl0 + 10 * exponent * math.log10(d) + rng.gauss(0.0, sigma)))
    path = directory / f"{name}.csv"
    path.write_text(
        "distance_m,pl_db\n" + "".join(f"{d!r},{pl!r}\n" for d, pl in points), encoding="utf-8"
    )
    fit_pl0, fit_n = ref_log_fit(points)
    return {"path": str(path), "points": n, "pl0_db": fit_pl0, "exponent": fit_n}


def cli_inputs(seed: int, directory: Path) -> dict:
    """A pool of CLI invocations covering all six subcommands plus usage errors."""
    rng = rng_for("cli", seed)
    refs: dict[str, dict] = {}
    capture_ids = []
    rows = log_grid(rng, CLI_CAPTURES, *CLI_CAPTURE_ROWS)
    margins = stratified(rng, CLI_CAPTURES, *MARGIN_RANGE_DBM)
    for k in range(CLI_CAPTURES):
        ref = write_capture(directory, rng, f"cli{k:02d}", rows[k], margins[k], False)
        refs[ref["location_id"]] = ref
        capture_ids.append(ref["location_id"])

    subs = [sub for sub, count in CLI_MIX for _ in range(count)]
    sweep_points = iter(log_grid(rng, dict(CLI_MIX)["model-sweep"], *CLI_SWEEP_POINTS))
    fit_points = iter(log_grid(rng, dict(CLI_MIX)["fit"], *CLI_FIT_POINTS))
    ops = []
    for i, sub in enumerate(subs):
        op: dict = {"sub": sub}
        if sub == "model-eval":
            op.update(kind=rng.choice(KINDS), d=10 ** rng.uniform(0.0, 4.0), overrides=_cli_overrides(rng))
            args = ["model", "eval", "--model", op["kind"], "--d", repr(op["d"])]
        elif sub == "usage":
            args = ["model", "eval", "--model", rng.choice(GEOMETRY_KINDS), "--d", "100"]
        elif sub == "model-sweep":
            op.update(
                points=next(sweep_points),
                start=rng.uniform(1.0, 50.0),
                end=rng.uniform(1e3, 2e4),
                spacing=rng.choice(("log", "linear")),
                overrides=_cli_overrides(rng),
                out=str(directory / f"sweep{i:03d}.csv"),
            )
            args = [
                "model", "sweep", "--models", "all", "--start", repr(op["start"]),
                "--end", repr(op["end"]), "--points", str(op["points"]),
                "--spacing", op["spacing"], "--out", op["out"],
            ]
        elif sub == "plan":
            op.update(
                environment=rng.choice(ENVIRONMENTS),
                format=("table", "csv")[i % 2],
                overrides=_cli_overrides(rng),
            )
            args = ["plan", "--models", "all", "--criterion", "both",
                    "--environment", op["environment"], "--format", op["format"]]
        elif sub == "analyze":
            op.update(captures=rng.sample(capture_ids, rng.randint(2, 4)), format=("table", "csv")[i % 2])
            args = ["analyze", *(refs[c]["csv"] for c in op["captures"]), "--format", op["format"]]
        elif sub == "fit":
            name = f"points{i:03d}"
            refs[name] = _write_points(directory, rng, name, next(fit_points))
            op.update(input=name, engine=("closed-form", "iterative")[i % 2])
            args = ["fit", "--input", refs[name]["path"], "--engine", op["engine"]]
        else:  # report
            op.update(format=("table", "csv")[i % 2])
            if rng.random() < 0.5:
                op["overrides"] = {"h_tx_m": rng.uniform(1.5, 60.0), "h_rx_m": rng.uniform(1.0, 3.0)}
            args = ["report", "--format", op["format"]]
        op["args"] = args + _flags(op.get("overrides", {}))
        ops.append(op)
    rng.shuffle(ops)
    return {"ops": ops, "refs": refs}
