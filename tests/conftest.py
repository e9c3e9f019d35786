"""Shared helpers: deterministic synthetic captures written to tmp dirs."""

from __future__ import annotations

import math
import random
from pathlib import Path

import pytest

Row = tuple[int, float | None, float | None, float | None, int, int]


def synth_capture_rows(
    seed: int,
    n: int = 300,
    mean_pcc: float = -80.0,
    sigma: float = 1.5,
    pdc_offset: float = -0.4,
    mean_snr: float = 13.0,
    snr_sigma: float = 1.0,
    p_crc: float = 0.97,
    p_lost: float = 0.02,
) -> list[Row]:
    """One row per request; lost requests keep their row with empty fields."""
    rng = random.Random(seed)
    rows: list[Row] = []
    for seq in range(n):
        if rng.random() < p_lost:
            rows.append((seq, None, None, None, 0, 0))
            continue
        pcc = round(rng.gauss(mean_pcc, sigma), 2)
        pdc = round(pcc + pdc_offset + rng.gauss(0.0, 0.2), 2)
        snr = round(rng.gauss(mean_snr, snr_sigma), 2)
        ok_pcc = 1 if rng.random() < p_crc else 0
        ok_pdc = 1 if ok_pcc and rng.random() < p_crc else 0
        rows.append((seq, pcc, pdc, snr, ok_pcc, ok_pdc))
    return rows


def write_capture(
    directory: Path,
    name: str,
    rows: list[Row],
    location_id: str | None = None,
    distance_m: float = 40.0,
    environment: str = "los-indoor",
    p_tx_dbm: float = 0.0,
    request_count: int | None = None,
) -> Path:
    csv_path = directory / f"{name}.csv"
    lines = ["seq,pcc_rssi_dbm,pdc_rssi_dbm,snr_db,pcc_crc_ok,pdc_crc_ok"]
    for seq, pcc, pdc, snr, ok_pcc, ok_pdc in rows:
        cell = lambda v: "" if v is None else str(v)
        lines.append(f"{seq},{cell(pcc)},{cell(pdc)},{cell(snr)},{ok_pcc},{ok_pdc}")
    csv_path.write_text("\n".join(lines) + "\n")
    meta = [
        f"location_id={location_id or name}",
        f"distance_m={distance_m}",
        f"environment={environment}",
        f"p_tx_dbm={p_tx_dbm}",
        f"request_count={request_count if request_count is not None else len(rows)}",
    ]
    (directory / f"{name}.meta").write_text("\n".join(meta) + "\n")
    return csv_path


def write_fit_points(directory: Path, name: str, seed: int, n: int = 40) -> Path:
    """n points of PL = 38 + 27 log10(d) + N(0, 4 dB), log-spaced over 1..1000 m, as a table."""
    rng = random.Random(seed)
    lines = ["distance_m,pl_db"]
    for i in range(n):
        d = round(10 ** (3 * i / (n - 1)), 3)
        pl = 38.0 + 27.0 * math.log10(d) + rng.gauss(0.0, 4.0)
        lines.append(f"{d},{round(pl, 2)}")
    path = directory / f"{name}.csv"
    path.write_text("\n".join(lines) + "\n")
    return path


@pytest.fixture
def capture_factory(tmp_path):
    """Writes a synthetic capture (CSV + sidecar) into tmp_path, returns the CSV path."""

    def make(name: str = "cap", seed: int = 1, rows: list[Row] | None = None, **kwargs) -> Path:
        gen_keys = {
            "n", "mean_pcc", "sigma", "pdc_offset", "mean_snr",
            "snr_sigma", "p_crc", "p_lost",
        }
        gen_kwargs = {k: kwargs.pop(k) for k in list(kwargs) if k in gen_keys}
        if rows is None:
            rows = synth_capture_rows(seed, **gen_kwargs)
        return write_capture(tmp_path, name, rows, **kwargs)

    return make
