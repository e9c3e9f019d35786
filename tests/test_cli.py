"""End-to-end CLI behavior: output contracts and exit codes."""

import csv
import dataclasses
import io
import math
import os
import select
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import pytest

import dectlink
from dectlink.cli import _CONFIG_FLAGS, main
from dectlink.config import CONFIG_ENV_VAR, RunConfig

import golden_runs
from conftest import synth_capture_rows, write_capture


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_csv(text):
    rows = list(csv.reader(io.StringIO(text)))
    header, body = rows[0], rows[1:]
    return header, body


HEIGHTS = ("--h-tx", "10", "--h-rx", "1.5")
PLAN_ALL = ("plan", "--environment", "outdoor", "--models", "all", *HEIGHTS)


class TestModelEval:
    def test_fspl_reference_point(self, capsys):
        code, out, err = run_cli(capsys, "model", "eval", "--model", "fspl",
                                 "--d", "2294", "--f", "1.899e9")
        assert code == 0
        assert out == "105.23 dB\n"

    def test_okumura_hata_flags_out_of_range_use(self, capsys):
        code, out, _ = run_cli(capsys, "model", "eval", "--model", "okumura-hata",
                               "--d", "2470", "--h-tx", "10", "--h-rx", "1.5")
        assert code == 0
        assert out.startswith("156.51 dB\n")
        assert "flag frequency-out-of-range" in out
        assert "flag tx-height-out-of-range" in out

    def test_two_ray_without_geometry_is_usage_error(self, capsys):
        code, out, err = run_cli(capsys, "model", "eval", "--model", "two-ray", "--d", "650")
        assert code == 2
        assert out == ""
        assert "antenna heights" in err

    def test_unknown_model_rejected_by_parser(self, capsys):
        code, _, err = run_cli(capsys, "model", "eval", "--model", "ray-tracing", "--d", "1")
        assert code == 2

    def test_config_file_and_flag_precedence(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("frequency_hz=0.9495e9\n")  # half the default
        _, out, _ = run_cli(capsys, "model", "eval", "--model", "fspl", "--d", "2294",
                            "--config", str(cfg))
        assert out == "99.21 dB\n"  # 105.23 - 20*log10(2)
        _, out, _ = run_cli(capsys, "model", "eval", "--model", "fspl", "--d", "2294",
                            "--config", str(cfg), "--f", "1.899e9")
        assert out == "105.23 dB\n"

    def test_env_var_names_config_file(self, capsys, tmp_path, monkeypatch):
        cfg = tmp_path / "env.cfg"
        cfg.write_text("frequency_hz=0.9495e9\n")
        monkeypatch.setenv(CONFIG_ENV_VAR, str(cfg))
        _, out, _ = run_cli(capsys, "model", "eval", "--model", "fspl", "--d", "2294")
        assert out == "99.21 dB\n"
        # an explicit --config outranks the environment
        other = tmp_path / "other.cfg"
        other.write_text("frequency_hz=1.899e9\n")
        _, out, _ = run_cli(capsys, "model", "eval", "--model", "fspl", "--d", "2294",
                            "--config", str(other))
        assert out == "105.23 dB\n"


class TestModelSweep:
    def test_one_decade_of_fspl(self, capsys):
        code, out, _ = run_cli(capsys, "model", "sweep", "--models", "fspl",
                               "--start", "1", "--end", "10", "--points", "2")
        assert code == 0
        header, body = parse_csv(out)
        assert header == ["distance_m", "fspl_db"]
        assert float(body[1][1]) - float(body[0][1]) == pytest.approx(20.0, abs=1e-9)

    def test_all_models_give_seven_columns(self, capsys):
        code, out, _ = run_cli(capsys, "model", "sweep", "--models", "all",
                               "--start", "10", "--end", "100", "--points", "3",
                               "--h-tx", "10", "--h-rx", "1.5")
        assert code == 0
        header, body = parse_csv(out)
        assert len(header) == 7
        assert all(len(row) == 7 for row in body)

    def test_indoor_models_hit_hand_computed_endpoints(self, capsys):
        _, out, _ = run_cli(capsys, "model", "sweep", "--models", "inh-los,inf-los",
                            "--start", "10", "--end", "200", "--points", "5")
        header, body = parse_csv(out)
        assert header == ["distance_m", "inh-los_db", "inf-los_db"]
        assert float(body[0][1]) == pytest.approx(55.270499294740354, abs=1e-9)
        assert float(body[-1][1]) == pytest.approx(77.77831821972723, abs=1e-9)
        assert float(body[0][2]) == pytest.approx(58.63197433000334, abs=1e-9)
        assert float(body[-1][2]) == pytest.approx(86.60411923677893, abs=1e-9)

    def test_invalid_range_is_usage_error(self, capsys):
        code, _, err = run_cli(capsys, "model", "sweep", "--models", "fspl",
                               "--start", "100", "--end", "10", "--points", "5")
        assert code == 2
        assert "d_start" in err

    def test_unknown_model_in_list(self, capsys):
        code, _, err = run_cli(capsys, "model", "sweep", "--models", "fspl,psychic",
                               "--start", "1", "--end", "10", "--points", "2")
        assert code == 2
        assert "psychic" in err

    def test_repeated_models_give_one_column(self, capsys):
        code, out, _ = run_cli(capsys, "model", "sweep", "--models", "fspl,inh-los,fspl",
                               "--start", "1", "--end", "10", "--points", "2")
        assert code == 0
        header, body = parse_csv(out)
        assert header == ["distance_m", "fspl_db", "inh-los_db"]
        assert all(len(row) == 3 for row in body)

    def test_out_file(self, capsys, tmp_path):
        dest = tmp_path / "sweep.csv"
        code, out, _ = run_cli(capsys, "model", "sweep", "--models", "fspl",
                               "--start", "1", "--end", "10", "--points", "4",
                               "--out", str(dest))
        assert code == 0
        assert out == ""
        assert dest.read_text().startswith("distance_m,fspl_db\n")

    @pytest.mark.parametrize("argv,out", [
        (("--start", "10", "--end", "10"), "s.csv"),
        (("--start", "1", "--end", "10"), "missing/s.csv"),
    ])
    def test_failed_sweep_leaves_no_out_file(self, capsys, tmp_path, argv, out):
        code, stdout, err = run_cli(capsys, "model", "sweep", "--models", "fspl", *argv,
                                    "--points", "4", "--out", str(tmp_path / out))
        assert code == 2 and stdout == "" and err.startswith("error: ")
        assert list(tmp_path.iterdir()) == []

    def test_traced_memory_stays_near_flat_in_points(self, tmp_path):
        """Columns of doubles, rows formatted as written: a few hundred bytes per grid point."""
        argv = ["model", "sweep", "--models", "all", "--start", "1", "--end", "5000", *HEIGHTS,
                "--out", str(tmp_path / "sweep.csv"), "--points"]
        assert main([*argv, "100"]) == 0
        tracemalloc.start()
        try:
            assert main([*argv, "20000"]) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak / 20000 < 400

    @pytest.mark.parametrize("lines_read", [0, 1])
    def test_closed_stdout_pipe_ends_the_run_quietly(self, lines_read):
        """As `| true` and `| head -n 1` do: exit 0 and print nothing to stderr."""
        env = {k: v for k, v in os.environ.items() if k != CONFIG_ENV_VAR}
        env["PYTHONPATH"] = str(Path(dectlink.__file__).resolve().parent.parent)
        argv = [sys.executable, "-X", "dev", "-m", "dectlink.cli", "model", "sweep",
                "--models", "fspl", "--start", "1", "--end", "1000", "--points", "200000"]
        with subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                              env=env) as proc:
            if lines_read:
                assert proc.stdout.readline() == b"distance_m,fspl_db\n"
            proc.stdout.close()
            err = proc.stderr.read()
            assert proc.wait(timeout=60) == 0
        assert err == b""

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
    def test_out_pipe_reader_going_away_ends_the_run_quietly(self, tmp_path):
        """An --out pipe whose reader leaves after one line ends the run as a closed stdout does."""
        fifo = tmp_path / "sweep.csv"
        os.mkfifo(fifo)
        # Opened without waiting for a writer; select then waits for the sweep's first bytes.
        reader = os.open(fifo, os.O_RDONLY | os.O_NONBLOCK)
        env = {k: v for k, v in os.environ.items() if k != CONFIG_ENV_VAR}
        env["PYTHONPATH"] = str(Path(dectlink.__file__).resolve().parent.parent)
        argv = [sys.executable, "-X", "dev", "-m", "dectlink.cli", "model", "sweep",
                "--models", "fspl", "--start", "1", "--end", "1000", "--points", "100000",
                "--out", str(fifo)]
        with subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                              env=env) as proc:
            try:
                read = b""
                while b"\n" not in read:
                    assert select.select([reader], [], [], 60)[0], "no line within 60 s"
                    chunk = os.read(reader, 64)
                    assert chunk, read
                    read += chunk
            finally:
                os.close(reader)
            out, err = proc.communicate(timeout=60)
        assert read.startswith(b"distance_m,fspl_db\n")
        assert (proc.returncode, out, err) == (0, b"", b"")


class TestAnalyze:
    def test_constant_capture_statistics(self, capsys, tmp_path):
        rows = [(i, -80.0, -80.0, 10.0, 1, 1) for i in range(300)]
        path = write_capture(tmp_path, "flat", rows)
        code, out, _ = run_cli(capsys, "analyze", str(path), "--format", "csv")
        assert code == 0
        header, body = parse_csv(out)
        record = dict(zip(header, body[0]))
        assert float(record["sr_pcc_pct"]) == 100.0
        assert float(record["std_pcc_rssi_db"]) == 0.0
        assert float(record["mean_pcc_rssi_dbm"]) == pytest.approx(-80.0, abs=1e-9)
        assert float(record["empirical_pl_pcc_db"]) == pytest.approx(82.0, abs=1e-9)
        assert record["reliable"] == "1"

    def test_lost_rows_count_against_success_rate(self, capsys, tmp_path):
        rows = [(i, -80.0, -80.0, 10.0, 1, 1) for i in range(7)]
        rows += [(7 + i, None, None, None, 0, 0) for i in range(3)]
        path = write_capture(tmp_path, "lossy", rows)
        _, out, _ = run_cli(capsys, "analyze", str(path), "--format", "csv")
        header, body = parse_csv(out)
        record = dict(zip(header, body[0]))
        assert float(record["sr_pcc_pct"]) == pytest.approx(70.0, abs=1e-12)

    def test_rows_sorted_by_distance(self, capsys, tmp_path):
        far = write_capture(tmp_path, "far", synth_capture_rows(1, n=30), distance_m=650.0)
        near = write_capture(tmp_path, "near", synth_capture_rows(2, n=30), distance_m=40.0)
        _, out, _ = run_cli(capsys, "analyze", str(far), str(near), "--format", "csv")
        _, body = parse_csv(out)
        assert [row[0] for row in body] == ["near", "far"]

    def test_matches_library_statistics(self, capsys, tmp_path):
        """The CSV carries full precision, so values equal the library's output."""
        from dectlink.budget import LinkBudget, ReliabilityThresholds
        from dectlink.campaign import load_capture, summarize

        path = write_capture(tmp_path, "rand", synth_capture_rows(99, n=200),
                             distance_m=120.0, p_tx_dbm=0.0)
        _, out, _ = run_cli(capsys, "analyze", str(path), "--format", "csv")
        header, body = parse_csv(out)
        record = dict(zip(header, body[0]))
        expected = summarize(load_capture(path), LinkBudget(), ReliabilityThresholds())
        assert float(record["mean_pcc_rssi_dbm"]) == expected.mean_pcc_rssi_dbm
        assert float(record["std_pcc_rssi_db"]) == expected.std_pcc_rssi_db
        assert float(record["mean_snr_db"]) == expected.mean_snr_db
        assert float(record["empirical_pl_pcc_db"]) == expected.empirical_pl_pcc_db

    def test_malformed_capture_reports_line(self, capsys, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_text(
            "seq,pcc_rssi_dbm,pdc_rssi_dbm,snr_db,pcc_crc_ok,pdc_crc_ok\n"
            "0,-80,-80,10,1,1\n"
            "1,,-81,9,1,0\n"
        )
        (tmp_path / "bad.meta").write_text(
            "location_id=bad\ndistance_m=40\nenvironment=los-indoor\n"
            "p_tx_dbm=0\nrequest_count=2\n"
        )
        code, _, err = run_cli(capsys, "analyze", str(p))
        assert code == 2
        assert "line 3" in err

    def test_error_names_the_failing_capture(self, capsys, tmp_path):
        good = write_capture(tmp_path, "a", [(i, -80.0, -80.0, 10.0, 1, 1) for i in range(5)])
        bad = write_capture(tmp_path, "b", [(0, -80.0, -80.0, 10.0, 1, 1),
                                            (1, None, -81.0, 9.0, 1, 0)])
        code, out, err = run_cli(capsys, "analyze", str(good), str(bad))
        assert code == 2 and out == ""
        assert err == f"error: {bad}: line 3: pcc_crc_ok=1 but pcc_rssi_dbm is empty\n"

    def test_table_reports_max_reliable_distance(self, capsys, tmp_path):
        path = write_capture(tmp_path, "good", [(i, -80.0, -80.0, 10.0, 1, 1) for i in range(50)],
                             distance_m=61.0)
        code, out, _ = run_cli(capsys, "analyze", str(path))
        assert code == 0
        assert "max reliable distance: 61.00 m (good)" in out

    def test_table_says_when_no_location_is_reliable(self, capsys, tmp_path):
        path = write_capture(tmp_path, "weak", [(i, -99.0, -99.0, 3.0, 1, 0) for i in range(50)])
        code, out, _ = run_cli(capsys, "analyze", str(path))
        assert code == 0
        assert out.endswith("max reliable distance: none (no location clears the threshold)\n")

    def test_request_count_below_crc_ok_rows_is_usage_error(self, capsys, tmp_path):
        path = write_capture(tmp_path, "short", [(i, -80.0, -80.0, 10.0, 1, 1) for i in range(5)],
                             request_count=1)
        code, out, err = run_cli(capsys, "analyze", str(path))
        assert code == 2 and out == ""
        assert err == f"error: {path}: request_count 1 is below the number of CRC-ok rows (5)\n"

    def test_each_glitchy_capture_warns_under_default_filters(self, capsys, tmp_path):
        # Same glitch in two captures: Python's "default" action shows a given text
        # from one source line once, so the texts must differ by capture.
        rows = [(0, -80.0, -80.0, 10.0, 1, 1), (1, 14.0, 14.0, 10.0, 1, 1)]
        paths = [write_capture(tmp_path, name, rows) for name in ("a", "b")]
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("default")
            code, _, _ = run_cli(capsys, "analyze", *map(str, paths))
        assert code == 0
        assert [str(w.message) for w in caught] == [
            f"{name}: 2 RSSI value(s) above 10 dBm, the first at seq=1; check the capture"
            for name in ("a", "b")
        ]


    @pytest.mark.parametrize("rssi, text", [
        (4000.0, "mean_power_db: 4000.0 dB overflows the linear domain"),
        (-4000.0, "mean_power_db: every value underflows to 0 in the linear domain, "
                  "the largest being -4000.0 dB"),
    ], ids=("overflow", "underflow"))
    def test_power_mean_out_of_range_is_usage_error(self, capsys, tmp_path, rssi, text):
        rows = [(i, rssi, -80.0, 10.0, 1, 1) for i in range(3)]
        path = write_capture(tmp_path, "far", rows)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # 4000 dBm is also a glitch
            code, out, err = run_cli(capsys, "analyze", str(path))
        assert code == 2 and out == ""
        assert err == f"error: {path}: {text}\n"

    def test_short_row_is_usage_error(self, capsys, tmp_path):
        path = write_capture(tmp_path, "short", [(0, -80.0, -80.0, 10.0, 1, 1)])
        path.write_text(path.read_text() + "1,-81,9,1\n")
        code, out, err = run_cli(capsys, "analyze", str(path))
        assert code == 2 and out == ""
        assert err == f"error: {path}: line 3: expected 6 columns, got 4\n"


class TestFit:
    def _write_points(self, tmp_path, sigma=0.0):
        lines = ["distance_m,pl_db"]
        for i in range(20):
            d = 10 ** (2.5 * i / 19)
            lines.append(f"{d},{38.0 + 27.0 * math.log10(d)}")
        p = tmp_path / "points.csv"
        p.write_text("\n".join(lines) + "\n")
        return p

    def test_closed_form_output(self, capsys, tmp_path):
        p = self._write_points(tmp_path)
        code, out, _ = run_cli(capsys, "fit", "--input", str(p))
        assert code == 0
        assert "pl0_db: 38.00" in out
        assert "exponent: 2.7000" in out
        assert "iterations: 0" in out
        assert "converged: yes" in out

    def test_iterative_engine(self, capsys, tmp_path):
        p = self._write_points(tmp_path)
        code, out, _ = run_cli(capsys, "fit", "--input", str(p), "--engine", "iterative")
        assert code == 0
        assert "engine: iterative" in out
        assert "exponent: 2.7000" in out

    def test_comment_holding_a_comma_is_skipped(self, capsys, tmp_path):
        p = self._write_points(tmp_path)
        p.write_text("# a, b\n" + p.read_text())
        code, out, err = run_cli(capsys, "fit", "--input", str(p))
        assert code == 0, err
        assert "points: 20" in out

    def test_bad_header_is_usage_error(self, capsys, tmp_path):
        p = tmp_path / "pts.csv"
        p.write_text("d,pl\n10,60\n")
        code, _, err = run_cli(capsys, "fit", "--input", str(p))
        assert code == 2
        assert "distance_m,pl_db" in err

    def test_missing_file_is_usage_error(self, capsys, tmp_path):
        code, _, err = run_cli(capsys, "fit", "--input", str(tmp_path / "absent.csv"))
        assert code == 2


class TestPlan:
    def test_reference_outdoor_case(self, capsys):
        code, out, _ = run_cli(capsys, "plan", "--environment", "outdoor",
                               "--tx-power", "19", "--criterion", "rssi")
        assert code == 0
        assert "allowed PL 116.00 dB -> 7926.58 m" in out

    def test_csv_rows_and_binding_marker(self, capsys):
        code, out, _ = run_cli(capsys, "plan", "--environment", "outdoor",
                               "--tx-power", "19", "--format", "csv")
        assert code == 0
        header, body = parse_csv(out)
        assert header == ["model", "criterion", "allowed_pl_db", "max_distance_m", "binding"]
        by_criterion = {row[1]: row for row in body}
        assert float(by_criterion["rssi"][3]) == pytest.approx(7926.58, abs=0.01)
        # default noise budget makes snr the stricter criterion here
        assert by_criterion["snr"][4] == "1"
        assert by_criterion["rssi"][4] == "0"

    def test_twenty_db_per_decade_scaling(self, capsys):
        def d_star(tx):
            _, out, _ = run_cli(capsys, "plan", "--environment", "outdoor",
                                "--tx-power", str(tx), "--criterion", "rssi",
                                "--format", "csv")
            _, body = parse_csv(out)
            return float(body[0][3])

        assert d_star(-20.0) / d_star(19.0) == pytest.approx(10 ** (-39 / 20), rel=1e-5)

    def test_two_ray_scaling_is_half_the_decade_exponent(self, capsys):
        def d_star(tx):
            _, out, _ = run_cli(capsys, "plan", "--environment", "outdoor",
                                "--tx-power", str(tx), "--criterion", "rssi",
                                "--models", "two-ray", "--h-tx", "10", "--h-rx", "1.5",
                                "--format", "csv")
            _, body = parse_csv(out)
            return float(body[0][3])

        assert d_star(39.0) / d_star(19.0) == pytest.approx(10 ** 0.5, rel=1e-5)

    def test_unreachable_is_structured_success(self, capsys):
        code, out, _ = run_cli(capsys, "plan", "--environment", "outdoor",
                               "--tx-power", "-100", "--criterion", "rssi")
        assert code == 0
        assert "unreachable" in out
        code, out, _ = run_cli(capsys, "plan", "--environment", "outdoor",
                               "--tx-power", "-100", "--criterion", "rssi",
                               "--format", "csv")
        assert code == 0
        _, body = parse_csv(out)
        assert body[0][3] == "unreachable"

    def test_reach_beyond_the_solver_cap_is_marked_capped(self, capsys):
        argv = ("plan", "--environment", "outdoor", "--tx-power", "200", "--criterion", "rssi")
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0
        assert "-> capped (beyond the solver's 1000000 m limit)" in out
        assert "1000000.00" not in out
        code, out, _ = run_cli(capsys, *argv, "--format", "csv")
        assert code == 0
        _, body = parse_csv(out)
        assert body == [["fspl", "rssi", "297.0", "capped", "0"]]


    def test_an_unreachable_criterion_binds(self, capsys):
        code, out, _ = run_cli(capsys, *PLAN_ALL, "--tx-power", "-100", "--format", "csv")
        assert code == 0
        _, body = parse_csv(out)
        binding = {(row[0], row[1]): (row[3], row[4]) for row in body}
        assert binding["cost231-hata", "rssi"] == ("0.12580240462714082", "0")
        assert binding["cost231-hata", "snr"] == ("unreachable", "1")
        # with every criterion unreachable, none binds
        assert binding["fspl", "rssi"] == binding["fspl", "snr"] == ("unreachable", "0")

    def test_an_unreachable_criterion_binds_over_a_capped_one(self, capsys):
        code, out, _ = run_cli(capsys, "plan", "--environment", "outdoor", "--tx-power", "200",
                               "--snr-floor-outdoor", "400", "--format", "csv")
        assert code == 0
        _, body = parse_csv(out)
        assert [row[3:] for row in body] == [["capped", "0"], ["unreachable", "1"]]
        code, out, _ = run_cli(capsys, "plan", "--environment", "outdoor", "--tx-power", "200",
                               "--snr-floor-outdoor", "400")
        assert out.endswith("-> unreachable (loss already above budget at minimum range)"
                            "  (binding)\n")

    def test_one_criterion_never_binds(self, capsys):
        code, out, _ = run_cli(capsys, "plan", "--environment", "outdoor", "--tx-power", "-100",
                               "--criterion", "snr", "--format", "csv")
        assert code == 0
        assert parse_csv(out)[1] == [["fspl", "snr", "-9.875437381428753", "unreachable", "0"]]

    def test_empty_model_list_is_usage_error(self, capsys):
        code, out, err = run_cli(capsys, "plan", "--environment", "outdoor", "--models", ",")
        assert code == 2 and out == ""
        assert err == "error: no models given\n"

    def test_negative_corrections_print_one_sign(self, capsys):
        code, out, _ = run_cli(capsys, "plan", "--environment", "indoor",
                               "--correction-tx", "-3", "--correction-rx", "0")
        assert code == 0
        assert "   corrections: -3.00 dB   " in out.splitlines()[0]

    def test_repeated_models_are_planned_once(self, capsys):
        code, out, _ = run_cli(capsys, "plan", "--environment", "indoor",
                               "--models", "fspl,inh-los,fspl")
        assert code == 0
        assert [line for line in out.splitlines() if line.startswith("model ")] == [
            "model fspl:", "model inh-los:"
        ]
        assert len(out.splitlines()) == 7


class TestReport:
    def test_fspl_regression_and_flagging(self, capsys):
        code, out, _ = run_cli(capsys, "report", "--format", "csv")
        assert code == 0
        header, body = parse_csv(out)
        rows = {row[0]: dict(zip(header, row)) for row in body}
        assert rows["Kaukajarvi Lake"]["fspl_status"] == "ok"
        assert abs(float(rows["Kaukajarvi Lake"]["fspl_delta_db"])) <= 0.25
        assert rows["Kangasala Tower"]["fspl_status"] == "ok"
        assert rows["Hallila Power Line"]["fspl_status"] == "inconsistent"
        assert float(rows["Hallila Power Line"]["fspl_delta_db"]) == pytest.approx(
            -5.27, abs=0.01
        )

    def test_geometry_models_need_heights(self, capsys):
        _, out, _ = run_cli(capsys, "report", "--format", "csv")
        header, body = parse_csv(out)
        rows = {row[0]: dict(zip(header, row)) for row in body}
        assert rows["Hallila Power Line"]["two_ray_computed_db"] == ""
        _, out, _ = run_cli(capsys, "report", "--format", "csv", "--h-tx", "10",
                            "--h-rx", "1.5")
        header, body = parse_csv(out)
        rows = {row[0]: dict(zip(header, row)) for row in body}
        assert float(rows["Hallila Power Line"]["two_ray_computed_db"]) == pytest.approx(
            88.99, abs=0.01
        )

    @pytest.mark.parametrize("tolerance, message", [
        ("-1", "tolerance must be >= 0, got -1.0"),
        ("nan", "tolerance must be finite, got nan"),
        ("inf", "tolerance must be finite, got inf"),
    ], ids=("negative", "nan", "inf"))
    def test_tolerance_must_be_finite_and_not_negative(self, capsys, tolerance, message):
        code, out, err = run_cli(capsys, "report", "--tolerance", tolerance, "--format", "csv")
        assert code == 2 and out == ""
        assert err == f"error: {message}\n"

    def test_zero_tolerance_is_accepted(self, capsys):
        code, out, _ = run_cli(capsys, "report", "--tolerance", "0", "--format", "csv")
        assert code == 0
        header, body = parse_csv(out)
        rows = {row[0]: dict(zip(header, row)) for row in body}
        assert rows["Kaukajarvi Lake"]["fspl_status"] == "inconsistent"

    def test_human_format_marks_inconsistencies(self, capsys):
        code, out, _ = run_cli(capsys, "report")
        assert code == 0
        assert "INCONSISTENT" in out
        assert "Hallila Power Line" in out


def test_config_flags_are_one_per_runconfig_field_in_order():
    assert list(_CONFIG_FLAGS) == [f.name for f in dataclasses.fields(RunConfig)]


def test_warning_format_is_restored_after_a_run(capsys, tmp_path):
    rows = [(0, -80.0, -80.0, 10.0, 1, 1), (1, 14.0, 14.0, 10.0, 1, 1)]
    path = write_capture(tmp_path, "hot", rows)
    formatwarning = warnings.formatwarning
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(["analyze", str(path)]) == 0
        assert main(["plan", "--environment", "outdoor", "--h-tx", "-1"]) == 2
    assert len(caught) == 1
    assert warnings.formatwarning is formatwarning


@pytest.mark.parametrize("name", golden_runs.RUNS)
def test_run_matches_golden_transcript(tmp_path, name):
    """Exit code, stdout, stderr and --out file of a fresh CLI process, byte for byte."""
    golden_runs.prepare(tmp_path)
    expected = (golden_runs.GOLDEN_RUNS_DIR / f"{name}.txt").read_bytes()
    assert golden_runs.transcript(name, tmp_path).decode() == expected.decode()


def test_import_and_plan_leave_numpy_unloaded():
    """Only fitting needs numpy, so importing dectlink and planning must not load it."""
    script = (
        "import sys\n"
        "import dectlink, dectlink.cli\n"
        "rc = dectlink.cli.main(['plan', '--environment', 'indoor', '--models', 'fspl'])\n"
        "print('exit', rc, 'numpy', 'numpy' in sys.modules)\n"
    )
    src = str(Path(dectlink.__file__).resolve().parent.parent)
    env = {k: v for k, v in os.environ.items() if k not in ("PYTHONPATH", CONFIG_ENV_VAR)}
    env["PYTHONPATH"] = src
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "exit 0 numpy False"


def test_capture_analysis_and_closed_form_fit_leave_numpy_unloaded(tmp_path):
    """Loading, summarising and both fit engines, in the library and the CLI, need no numpy."""
    capture = write_capture(tmp_path, "site", synth_capture_rows(5, n=50))
    points = tmp_path / "points.csv"
    points.write_text("distance_m,pl_db\n10,60\n100,81\n1000,99\n")
    script = (
        "import sys\n"
        "from dectlink import (LinkBudget, fit_log_distance, fit_log_distance_iterative,\n"
        "                      load_capture, summarize)\n"
        "from dectlink.cli import main\n"
        f"record = summarize(load_capture({str(capture)!r}), LinkBudget())\n"
        "pts = [(10.0, 60.0), (record.distance_m, record.empirical_pl_pcc_db)]\n"
        "fit_log_distance(pts)\n"
        "fit_log_distance_iterative(pts)\n"
        f"rc = main(['fit', '--input', {str(points)!r}])\n"
        f"rc += main(['fit', '--input', {str(points)!r}, '--engine', 'iterative'])\n"
        "print('exit', rc, 'numpy', 'numpy' in sys.modules)\n"
    )
    src = str(Path(dectlink.__file__).resolve().parent.parent)
    env = {k: v for k, v in os.environ.items() if k not in ("PYTHONPATH", CONFIG_ENV_VAR)}
    env["PYTHONPATH"] = src
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "exit 0 numpy False"
