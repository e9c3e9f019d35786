"""Pinned CLI runs: each run's exit code, stdout, stderr and --out file, byte for byte.

Each run is a fresh `python -m dectlink.cli` process in a scratch directory
that holds the inputs `prepare` writes, given relative paths, with
DECTLINK_CONFIG and PYTHONWARNINGS unset. Its transcript is compared with
tests/golden/runs/<name>.txt by test_cli.py. To rewrite every transcript
after an intended output change, run from the repository root:

    python tests/golden_runs.py
"""

from __future__ import annotations

import os
import shlex
import subprocess
import sys
import tempfile
from pathlib import Path

from conftest import synth_capture_rows, write_capture, write_fit_points

SRC = Path(__file__).resolve().parents[1] / "src"
GOLDEN_RUNS_DIR = Path(__file__).resolve().parent / "golden" / "runs"

HEIGHTS = ("--h-tx", "10", "--h-rx", "1.5")
PLAN_INDOOR = ("plan", "--environment", "indoor", "--models", "all", *HEIGHTS)
PLAN_OUTDOOR = ("plan", "--environment", "outdoor", "--models", "all", *HEIGHTS)
FSPL_EVAL = ("model", "eval", "--model", "fspl", "--d", "10")

RUNS = {
    "eval_two_ray_near_field": ("model", "eval", "--model", "two-ray", "--d", "50", *HEIGHTS),
    "eval_okumura_hata_three_flags": (
        "model", "eval", "--model", "okumura-hata", "--d", "500", *HEIGHTS),
    "eval_inh_los_200m": ("model", "eval", "--model", "inh-los", "--d", "200"),
    # Distances exactly on a stated distance range's edge: in range, so no distance flag.
    "eval_inh_los_150m_edge": ("model", "eval", "--model", "inh-los", "--d", "150"),
    "eval_inf_los_600m_edge": ("model", "eval", "--model", "inf-los", "--d", "600"),
    **{f"eval_okumura_hata_{d}m_edge": ("model", "eval", "--model", "okumura-hata", "--d", d,
                                        "--h-tx", "30", "--h-rx", "1.5")
       for d in ("1000", "20000")},
    "sweep_all_to_file": ("model", "sweep", "--models", "all", "--start", "1", "--end", "1000",
                          "--points", "7", *HEIGHTS, "--out", "sweep.csv"),
    "sweep_two_models_to_stdout": ("model", "sweep", "--models", "fspl,inh-los", "--start", "1",
                                   "--end", "1000", "--points", "9", "--spacing", "linear"),
    "plan_indoor_table": PLAN_INDOOR,
    "plan_indoor_csv": (*PLAN_INDOOR, "--format", "csv"),
    # Unreachable, binding and capped outdoor plan rows, and the report.
    **{f"plan_outdoor_{tx}dbm_{fmt}": (*PLAN_OUTDOOR, "--tx-power", tx, "--format", fmt)
       for tx in ("-100", "19", "200") for fmt in ("table", "csv")},
    **{f"report_{fmt}": ("report", *HEIGHTS, "--format", fmt) for fmt in ("table", "csv")},
    "analyze_table": ("analyze", "near.csv", "far.csv"),
    "analyze_csv": ("analyze", "near.csv", "far.csv", "--format", "csv"),
    "analyze_glitch_warning": ("analyze", "hot.csv"),
    # Empty CSV cells: a capture with no signal at all, and the report without heights.
    "analyze_silent_csv": ("analyze", "silent.csv", "--format", "csv"),
    "report_csv_without_heights": ("report", "--format", "csv"),
    "fit_closed_form": ("fit", "--input", "points.csv", "--engine", "closed-form"),
    "fit_iterative": ("fit", "--input", "noisy.csv", "--engine", "iterative"),
    "fit_d0_far_beyond_the_points": ("fit", "--input", "tiny.csv", "--d0", "1e300"),
    # Usage and domain errors (exit 2); none of them comes from argparse.
    "eval_two_ray_without_heights": ("model", "eval", "--model", "two-ray", "--d", "100"),
    "eval_two_ray_negative_h_tx": (
        "model", "eval", "--model", "two-ray", "--d", "100", "--h-tx", "-10"),
    "eval_fspl_zero_h_rx": (*FSPL_EVAL, "--h-rx", "0"),
    "eval_fspl_min_sr_150": (*FSPL_EVAL, "--min-sr", "150"),
    "eval_fspl_zero_bandwidth": (*FSPL_EVAL, "--bandwidth", "0"),
    "eval_fspl_infinite_noise_figure": (*FSPL_EVAL, "--noise-figure", "inf"),
    "sweep_nan_tx_power": ("model", "sweep", "--models", "fspl", "--start", "1", "--end", "10",
                           "--points", "3", "--tx-power", "nan"),
    "plan_negative_h_tx": ("plan", "--environment", "outdoor", "--h-tx", "-1"),
    "plan_bogus_config": ("plan", "--environment", "outdoor", "--config", "bogus.cfg"),
    "report_negative_antenna_gain": ("report", "--antenna-gain", "-5", "--format", "csv"),
    "report_min_sr_150": ("report", "--min-sr", "150"),
    "analyze_negative_frequency": ("analyze", "near.csv", "--f", "-5"),
    "analyze_zero_h_tx": ("analyze", "near.csv", "--h-tx", "0"),
    "analyze_absurd_rssi": ("analyze", "absurd.csv"),
    # Finite corrections whose sum overflows.
    "analyze_overflowing_corrections": (
        "analyze", "near.csv", "--correction-tx", "1e308", "--correction-rx", "1e308"),
    "eval_two_ray_overflowing_heights": (
        "model", "eval", "--model", "two-ray", "--d", "100", "--h-tx", "1e200", "--h-rx", "1e-200"),
    # Heights whose squares stay finite, but whose crossover distance overflows.
    "eval_two_ray_infinite_crossover": (
        "model", "eval", "--model", "two-ray", "--d", "100", "--h-tx", "1e10", "--h-rx", "1e10",
        "--f", "1e300"),
    # Subnormal frequencies, which are positive but round to 0 in GHz or MHz.
    "eval_inh_los_subnormal_frequency": (
        "model", "eval", "--model", "inh-los", "--d", "100", "--f", "1e-320"),
    "eval_okumura_hata_subnormal_frequency": (
        "model", "eval", "--model", "okumura-hata", "--d", "1000", "--h-tx", "30", "--h-rx", "1.5",
        "--f", "5e-324"),
    "fit_overflowing_losses": ("fit", "--input", "big.csv"),
    "fit_one_log_distance_closed_form": ("fit", "--input", "close.csv"),
    "fit_one_log_distance_iterative": ("fit", "--input", "close.csv", "--engine", "iterative"),
}


def prepare(workdir: Path) -> None:
    """Write every input file the runs name into workdir."""
    write_capture(workdir, "near", synth_capture_rows(1), distance_m=12.0)
    write_capture(workdir, "far", synth_capture_rows(2, mean_pcc=-93.0, p_crc=0.85),
                  distance_m=85.0)
    hot = synth_capture_rows(3, n=50)
    hot[7] = (7, 14.0, 14.0, 12.0, 1, 1)
    write_capture(workdir, "hot", hot)
    write_capture(workdir, "silent", [(seq, None, None, None, 0, 0) for seq in range(4)])
    # A finite RSSI whose squared deviation from the mean overflows.
    write_capture(workdir, "absurd", [(0, -80, -80, 10, 1, 1), (1, -1e200, -80, 10, 1, 1)])
    (workdir / "points.csv").write_text("distance_m,pl_db\n10,60\n100,81\n1000,99\n")
    write_fit_points(workdir, "noisy", 4)
    (workdir / "big.csv").write_text("distance_m,pl_db\n10,1e200\n100,2e200\n1000,3e200\n")
    # Two distances whose log-distances coincide, and two far below d0 = 1e300 m.
    (workdir / "close.csv").write_text("distance_m,pl_db\n1e300,60\n1.0000000000000002e300,80\n")
    (workdir / "tiny.csv").write_text("distance_m,pl_db\n1e-300,60\n1,80\n")
    (workdir / "bogus.cfg").write_text("city_size = bogus\n")


def _section(title: str, data: bytes) -> bytes:
    if data and not data.endswith(b"\n"):
        data += b"\n\\ no newline at end\n"
    return f"--- {title}\n".encode() + data


def transcript(name: str, workdir: Path) -> bytes:
    """Run RUNS[name] in workdir (already prepared) and render what it did."""
    argv = RUNS[name]
    env = {k: v for k, v in os.environ.items()
           if k not in ("DECTLINK_CONFIG", "PYTHONWARNINGS", "PYTHONDEVMODE")}
    env["PYTHONPATH"] = str(SRC)
    proc = subprocess.run([sys.executable, "-m", "dectlink.cli", *argv], cwd=workdir, env=env,
                          capture_output=True, timeout=60)
    parts = [f"$ dectlink {shlex.join(argv)}\nexit {proc.returncode}\n".encode(),
             _section("stdout", proc.stdout), _section("stderr", proc.stderr)]
    if "--out" in argv:
        out = argv[argv.index("--out") + 1]
        parts.append(_section(out, (workdir / out).read_bytes()))
    return b"".join(parts)


def main() -> None:
    GOLDEN_RUNS_DIR.mkdir(parents=True, exist_ok=True)
    for name in RUNS:
        with tempfile.TemporaryDirectory() as tmp:
            prepare(Path(tmp))
            (GOLDEN_RUNS_DIR / f"{name}.txt").write_bytes(transcript(name, Path(tmp)))
        print(f"wrote {name}.txt")


if __name__ == "__main__":
    main()
