"""Capture parsing, linear-domain statistics, and per-location summaries."""

import dataclasses
import math
import random
import re
import warnings

import pytest

from dectlink.budget import LinkBudget, ReliabilityThresholds
from dectlink.campaign import (
    CaptureColumns,
    LocationCapture,
    load_capture,
    max_reliable_distance,
    mean_power_db,
    read_capture_meta,
    sample_std_db,
    success_rate_pcc,
    success_rate_pdc,
    summarize,
)

from conftest import synth_capture_rows, write_capture

BUDGET = LinkBudget()
THRESHOLDS = ReliabilityThresholds()


def make_sample(seq=0, pcc=-80.0, pdc=-80.5, snr=13.0, ok_pcc=True, ok_pdc=True):
    """One capture row as a tuple, in CaptureColumns field order."""
    return (seq, pcc, pdc, snr, ok_pcc, ok_pdc)


def make_capture(samples, request_count=None, distance_m=40.0, environment="los-indoor",
                 p_tx_dbm=0.0, location_id="loc"):
    return LocationCapture(
        location_id=location_id,
        distance_m=distance_m,
        environment=environment,
        p_tx_dbm=p_tx_dbm,
        request_count=request_count if request_count is not None else len(samples),
        columns=CaptureColumns(*zip(*samples)),
    )


class TestMeanPowerDb:
    def test_constant_input_is_identity(self):
        assert mean_power_db([-90.0, -90.0, -90.0]) == pytest.approx(-90.0, abs=1e-12)

    def test_two_value_reference(self):
        # mean(1e-9 mW, 1e-10 mW) = 5.5e-10 mW
        assert mean_power_db([-90.0, -100.0]) == pytest.approx(-92.59637310505755, abs=1e-9)

    def test_errors(self):
        with pytest.raises(ValueError):
            mean_power_db([])
        with pytest.raises(ValueError):
            mean_power_db([-80.0, float("nan")])
        with pytest.raises(ValueError):
            mean_power_db([float("-inf")])

    def test_values_out_of_range_in_the_linear_domain_are_named(self):
        with pytest.raises(ValueError, match=r"^mean_power_db: 4000.0 dB overflows"):
            mean_power_db([-80.0, 4000.0])
        # each term is finite, their sum is not
        with pytest.raises(ValueError, match=r"^mean_power_db: 3080.0 dB overflows"):
            mean_power_db([3080.0, 3080.0])
        with pytest.raises(ValueError, match=r"underflows to 0 .* the largest being -3300.0 dB$"):
            mean_power_db([-4000.0, -3300.0])
        # the smallest mean that does not underflow keeps today's arithmetic
        assert mean_power_db([-3230.0]) == 10.0 * math.log10(10.0 ** -323.0)

    def test_jensen_and_bounds_on_random_lists(self):
        """Linear-domain mean sits at or above the dB mean, inside [min, max]."""
        rng = random.Random(5)
        for _ in range(300):
            values = [rng.uniform(-120.0, -40.0) for _ in range(rng.randint(1, 60))]
            m = mean_power_db(values)
            assert min(values) - 1e-12 <= m <= max(values) + 1e-12
            assert m >= sum(values) / len(values) - 1e-12

    def test_permutation_invariant_and_shift_consistent(self):
        rng = random.Random(6)
        values = [rng.uniform(-110.0, -50.0) for _ in range(25)]
        shuffled = values[:]
        rng.shuffle(shuffled)
        assert mean_power_db(shuffled) == pytest.approx(mean_power_db(values), abs=1e-12)
        k = 7.25
        assert mean_power_db([v + k for v in values]) == pytest.approx(
            mean_power_db(values) + k, abs=1e-9
        )


class TestSampleStd:
    def test_degenerate_inputs_give_zero(self):
        assert sample_std_db([]) == 0.0
        assert sample_std_db([-80.0]) == 0.0
        assert sample_std_db([-80.0, -80.0, -80.0]) == 0.0

    def test_matches_textbook_formula(self):
        values = [-81.0, -80.0, -79.0, -78.0]
        mean = sum(values) / 4
        expected = math.sqrt(sum((v - mean) ** 2 for v in values) / 3)
        assert sample_std_db(values) == pytest.approx(expected, abs=1e-12)

    @pytest.mark.parametrize("values", [[-80.0, -1e200], [-1e308, -1e308, -80.0]])
    def test_overflowing_spread_is_an_error(self, values):
        message = f"sample_std_db: {values[1]!r} dB overflows the squared deviations"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            sample_std_db(values)


class TestSuccessRates:
    def test_reference_ratios(self):
        full = make_capture([make_sample(seq=i) for i in range(300)])
        assert success_rate_pcc(full) == 100.0
        assert success_rate_pdc(full) == 100.0

        mixed = make_capture(
            [make_sample(seq=i, ok_pcc=i < 270, ok_pdc=i < 270) for i in range(300)]
        )
        assert success_rate_pcc(mixed) == 90.0

        none_ok = make_capture(
            [make_sample(seq=i, ok_pcc=False, ok_pdc=False) for i in range(300)]
        )
        assert success_rate_pcc(none_ok) == 0.0

    def test_lost_requests_stay_in_denominator(self):
        # 299 rows received out of 300 requests; one request left no row
        samples = [make_sample(seq=i) for i in range(299)]
        capture = make_capture(samples, request_count=300)
        assert success_rate_pcc(capture) == pytest.approx(100.0 * 299 / 300, abs=1e-12)

    def test_flipping_one_failure_adds_exact_increment(self):
        rng = random.Random(8)
        for _ in range(50):
            n = rng.randint(2, 400)
            ok = [rng.random() < 0.8 for _ in range(n)]
            fails = [i for i, v in enumerate(ok) if not v]
            if not fails:
                continue
            cap = make_capture(
                [make_sample(seq=i, ok_pcc=v, ok_pdc=v) for i, v in enumerate(ok)]
            )
            flip = rng.choice(fails)
            ok[flip] = True
            cap2 = make_capture(
                [make_sample(seq=i, ok_pcc=v, ok_pdc=v) for i, v in enumerate(ok)]
            )
            gain = success_rate_pcc(cap2) - success_rate_pcc(cap)
            assert gain == pytest.approx(100.0 / n, abs=1e-9)


class TestCaptureValidation:
    def test_environment_shape(self):
        with pytest.raises(ValueError):
            make_capture([make_sample()], environment="indoor-los")
        with pytest.raises(ValueError):
            make_capture([make_sample()], environment="los")
        make_capture([make_sample()], environment="nlos-outdoor")

    def test_request_count_floor(self):
        samples = [make_sample(seq=i) for i in range(10)]
        with pytest.raises(ValueError):
            make_capture(samples, request_count=9)

    def test_positive_distance_required(self):
        with pytest.raises(ValueError):
            make_capture([make_sample()], distance_m=0.0)

    def test_hot_rssi_warns(self):
        with pytest.warns(UserWarning):
            make_capture([make_sample(pcc=12.5)])

    def test_hot_rssi_gives_one_warning_per_capture(self):
        samples = [make_sample(seq=i) for i in range(10)]
        samples[4] = make_sample(seq=4, pcc=14.0)
        samples[7] = make_sample(seq=7, pcc=20.0, pdc=19.5)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            make_capture(samples)
        assert len(caught) == 1
        assert issubclass(caught[0].category, UserWarning)
        assert caught[0].filename == __file__  # the warning points at the constructor's caller
        text = str(caught[0].message)
        assert text.startswith("loc: 3 RSSI value(s) above 10 dBm")
        assert "seq=4" in text

    def test_hot_rssi_first_in_pdc_names_its_row(self):
        samples = [make_sample(seq=10 + i) for i in range(8)]
        samples[2] = make_sample(seq=12, pdc=11.0)
        samples[5] = make_sample(seq=15, pcc=14.0, pdc=11.0)
        samples[6] = make_sample(seq=16, pcc=30.0)
        with pytest.warns(UserWarning) as caught:
            make_capture(samples)
        assert [str(w.message) for w in caught] == [
            "loc: 4 RSSI value(s) above 10 dBm, the first at seq=12; check the capture"
        ]

    def test_samples_follow_the_file_row_rules(self):
        # Duplicate seq and CRC ok without RSSI: the rows a capture file may not hold.
        with pytest.raises(ValueError, match=r"^row 1: duplicate seq 0"):
            make_capture([
                make_sample(0, None, None, None, True, True),
                make_sample(0, -80.0, -80.0, 10.0, True, True),
            ], request_count=2, location_id="x")
        with pytest.raises(ValueError, match=r"^row 0: pcc_crc_ok=1"):
            make_capture([make_sample(pcc=None), make_sample(seq=1)])
        with pytest.raises(ValueError, match=r"^row 0: column 'seq' must be >= 0"):
            make_capture([make_sample(seq=-1)])

    def test_columns_follow_the_file_row_rules(self):
        # Two rows with seq 0 and CRC ok but no RSSI, given column by column.
        columns = CaptureColumns((0, 0), (None, None), (None, None), (None, None),
                                 (True, True), (True, True))
        with pytest.raises(ValueError, match=r"^row 1: duplicate seq 0"):
            LocationCapture("x", 40.0, "los-indoor", 0.0, 2, columns=columns)

    def test_ragged_columns_are_rejected_before_the_row_rules(self):
        rows = [make_sample(seq=0), make_sample(seq=1)]
        columns = CaptureColumns(*zip(*rows))._replace(seq=(0, 1, 1))
        with pytest.raises(ValueError, match="^capture columns must all have the same length$"):
            dataclasses.replace(make_capture(rows), columns=columns)

    def test_setting_and_propagation_split(self):
        cap = make_capture([make_sample()], environment="nlos-outdoor")
        assert cap.propagation == "nlos"
        assert cap.setting == "outdoor"


class TestSummarize:
    def test_constant_capture(self):
        samples = [make_sample(seq=i, pcc=-80.0, pdc=-80.0, snr=10.0) for i in range(300)]
        record = summarize(make_capture(samples), BUDGET, THRESHOLDS)
        assert record.mean_pcc_rssi_dbm == pytest.approx(-80.0, abs=1e-12)
        assert record.std_pcc_rssi_db == 0.0
        assert record.empirical_pl_pcc_db == pytest.approx(82.0, abs=1e-9)
        assert record.sr_pcc_pct == 100.0
        assert record.reliable

    def test_uses_capture_tx_power_not_budget(self):
        samples = [make_sample(seq=i, pcc=-80.0) for i in range(10)]
        record = summarize(make_capture(samples, p_tx_dbm=19.0), BUDGET, THRESHOLDS)
        assert record.empirical_pl_pcc_db == pytest.approx(101.0, abs=1e-9)

    def test_no_received_samples_leaves_stats_unset(self):
        samples = [make_sample(i, None, None, None, False, False) for i in range(5)]
        record = summarize(make_capture(samples), BUDGET, THRESHOLDS)
        assert record.mean_pcc_rssi_dbm is None
        assert record.empirical_pl_pcc_db is None
        assert record.min_pcc_rssi_dbm is None
        assert record.sr_pcc_pct == 0.0
        assert not record.reliable

    def test_matches_brute_force_oracle(self):
        """Spreadsheet-style recomputation over a random capture agrees to 1e-9."""
        rng = random.Random(123)
        samples = []
        for i in range(500):
            received = rng.random() < 0.9
            pcc = rng.uniform(-100.0, -60.0) if received else None
            pdc = rng.uniform(-100.0, -60.0) if received else None
            snr = rng.uniform(2.0, 20.0) if received else None
            samples.append(
                make_sample(
                    i, pcc, pdc, snr,
                    received and rng.random() < 0.95,
                    received and rng.random() < 0.93,
                )
            )
        capture = make_capture(samples, request_count=520, p_tx_dbm=19.0)
        record = summarize(capture, BUDGET, THRESHOLDS)

        pcc = [s[1] for s in samples if s[1] is not None]
        lin_mean = 10.0 * math.log10(sum(10 ** (v / 10.0) for v in pcc) / len(pcc))
        assert record.mean_pcc_rssi_dbm == pytest.approx(lin_mean, abs=1e-9)
        mu = sum(pcc) / len(pcc)
        assert record.std_pcc_rssi_db == pytest.approx(
            math.sqrt(sum((v - mu) ** 2 for v in pcc) / (len(pcc) - 1)), abs=1e-9
        )
        assert record.min_pcc_rssi_dbm == min(pcc)
        assert record.max_pcc_rssi_dbm == max(pcc)
        assert record.sr_pcc_pct == pytest.approx(
            100.0 * sum(1 for s in samples if s[4]) / 520, abs=1e-12
        )
        assert record.empirical_pl_pcc_db == pytest.approx(19.0 - lin_mean + 2.0, abs=1e-9)
        snrs = [s[3] for s in samples if s[3] is not None]
        assert record.mean_snr_db == pytest.approx(
            10.0 * math.log10(sum(10 ** (v / 10.0) for v in snrs) / len(snrs)), abs=1e-9
        )

    def test_min_mean_max_ordering(self):
        rng = random.Random(21)
        samples = [make_sample(seq=i, pcc=rng.uniform(-99, -61)) for i in range(40)]
        record = summarize(make_capture(samples), BUDGET, THRESHOLDS)
        assert record.min_pcc_rssi_dbm <= record.mean_pcc_rssi_dbm <= record.max_pcc_rssi_dbm


class TestMaxReliableDistance:
    def _record(self, distance, sr):
        samples = [
            make_sample(seq=i, ok_pcc=i < sr * 3, ok_pdc=i < sr * 3) for i in range(300)
        ]
        return summarize(
            make_capture(samples, distance_m=distance, location_id=f"d{distance}"),
            BUDGET,
            THRESHOLDS,
        )

    def test_returns_farthest_reliable(self):
        records = [self._record(40, 100), self._record(650, 99), self._record(2294, 97)]
        assert max_reliable_distance(records, THRESHOLDS).distance_m == 2294

    def test_single_point_series(self):
        record = self._record(61, 95)
        assert max_reliable_distance([record], THRESHOLDS).distance_m == 61

    def test_exact_boundary_is_not_reliable(self):
        records = [self._record(40, 90), self._record(120, 90)]
        with pytest.raises(ValueError):
            max_reliable_distance(records, THRESHOLDS)

    def test_both_channels_must_clear(self):
        samples = [make_sample(seq=i, ok_pcc=True, ok_pdc=i < 150) for i in range(300)]
        record = summarize(make_capture(samples), BUDGET, THRESHOLDS)
        with pytest.raises(ValueError):
            max_reliable_distance([record], THRESHOLDS)


def with_sidecar(csv_path):
    """csv_path, given a valid sidecar for a hand-written capture of at most 10 rows."""
    csv_path.with_suffix(".meta").write_text(
        "location_id=hand\ndistance_m=40\nenvironment=los-indoor\np_tx_dbm=0\nrequest_count=10\n"
    )
    return csv_path


class TestCaptureCsv:
    def test_round_trip(self, tmp_path):
        rows = synth_capture_rows(seed=4, n=50)
        path = write_capture(tmp_path, "roundtrip", rows, distance_m=120.0,
                             environment="los-indoor", p_tx_dbm=0.0)
        capture = load_capture(path)
        assert len(capture.columns.seq) == 50
        assert capture.distance_m == 120.0
        assert capture.location_id == "roundtrip"
        columns = capture.columns
        lost = [i for i, rssi in enumerate(columns.pcc_rssi_dbm) if rssi is None]
        for i in lost:
            assert not columns.pcc_crc_ok[i] and not columns.pdc_crc_ok[i]

    def test_bad_header(self, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_text("seq,rssi,snr\n0,-80,10\n")
        with pytest.raises(ValueError, match="header"):
            load_capture(with_sidecar(p))

    def test_error_messages_carry_line_numbers(self, tmp_path):
        header = "seq,pcc_rssi_dbm,pdc_rssi_dbm,snr_db,pcc_crc_ok,pdc_crc_ok\n"
        cases = [
            ("0,-80,-80,10,1\n", "line 2"),                 # short row
            ("0,-80,-80,10,1,2\n", "line 2"),               # bad flag
            ("0,abc,-80,10,1,1\n", "line 2"),               # non-numeric
            ("0,-80,-80,10,1,1\n1,,-81,9,1,0\n", "line 3"),  # ok flag with empty rssi
            ("0,-80,-80,10,1,1\n0,-81,-81,9,1,1\n", "line 3"),  # duplicate seq
            ("-1,-80,-80,10,1,1\n", "line 2"),              # negative seq
        ]
        for body, fragment in cases:
            p = tmp_path / "case.csv"
            p.write_text(header + body)
            with pytest.raises(ValueError, match=fragment):
                load_capture(with_sidecar(p))

    def test_pdc_flag_with_empty_rssi_rejected(self, tmp_path):
        p = tmp_path / "pdc.csv"
        p.write_text(
            "seq,pcc_rssi_dbm,pdc_rssi_dbm,snr_db,pcc_crc_ok,pdc_crc_ok\n0,-80,,10,1,1\n"
        )
        with pytest.raises(ValueError, match="pdc_crc_ok=1"):
            load_capture(with_sidecar(p))

    def test_comment_lines_skipped(self, tmp_path):
        p = tmp_path / "comments.csv"
        p.write_text(
            "# capture notes\nseq,pcc_rssi_dbm,pdc_rssi_dbm,snr_db,pcc_crc_ok,pdc_crc_ok\n"
            "0,-80,-80.5,10,1,1\n"
        )
        assert len(load_capture(with_sidecar(p)).columns.seq) == 1

    def test_comment_holding_a_comma_is_skipped(self, capture_factory):
        path = capture_factory("commas", n=20)
        path.write_text("# site a, run 2\n" + path.read_text())
        capture = load_capture(path)
        assert len(capture.columns.seq) == 20

    def test_comment_between_rows_keeps_line_numbers(self, tmp_path):
        p = tmp_path / "mid.csv"
        p.write_text(
            "seq,pcc_rssi_dbm,pdc_rssi_dbm,snr_db,pcc_crc_ok,pdc_crc_ok\n"
            "0,-80,-80,10,1,1\n"
            "  # antenna moved, run 2\n"
            "\n"
            "1,-81,-81,9,1,1\n"
            "2,,-81,9,1,0\n"
        )
        with pytest.raises(ValueError, match="^line 6: pcc_crc_ok=1"):
            load_capture(with_sidecar(p))
        p.write_text(p.read_text().replace("2,,-81,9,1,0", "2,-82,-82,8,0,0"))
        assert load_capture(p).columns.seq == (0, 1, 2)

    def test_loaded_capture_equals_one_built_from_its_samples(self, capture_factory):
        loaded = load_capture(capture_factory("eq", seed=3, n=40))
        rows = list(zip(*loaded.columns))
        rebuilt = make_capture(rows, request_count=loaded.request_count, location_id="eq")
        assert loaded == rebuilt and hash(loaded) == hash(rebuilt)
        assert loaded != make_capture(rows[1:], request_count=40, location_id="eq")
        with pytest.raises(dataclasses.FrozenInstanceError):
            loaded.request_count = 1

    def test_empty_file_rejected(self, tmp_path):
        p = tmp_path / "empty.csv"
        p.write_text("")
        with pytest.raises(ValueError, match="no header"):
            load_capture(with_sidecar(p))


class TestSidecar:
    def test_missing_key(self, tmp_path):
        p = tmp_path / "m.meta"
        p.write_text("location_id=x\ndistance_m=40\nenvironment=los-indoor\np_tx_dbm=0\n")
        with pytest.raises(ValueError, match="request_count"):
            read_capture_meta(p)

    def test_unknown_and_duplicate_keys(self, tmp_path):
        p = tmp_path / "u.meta"
        p.write_text("location_id=x\ncolor=blue\n")
        with pytest.raises(ValueError, match="unknown key"):
            read_capture_meta(p)
        p.write_text("location_id=x\nlocation_id=y\n")
        with pytest.raises(ValueError, match="duplicate"):
            read_capture_meta(p)

    def test_non_numeric_meta_value(self, tmp_path):
        rows = synth_capture_rows(seed=1, n=5)
        csv_path = write_capture(tmp_path, "v", rows)
        (tmp_path / "v.meta").write_text(
            "location_id=v\ndistance_m=forty\nenvironment=los-indoor\n"
            "p_tx_dbm=0\nrequest_count=5\n"
        )
        with pytest.raises(ValueError, match=r"^v\.meta line 2: key 'distance_m'"):
            load_capture(csv_path)

    def test_a_hash_starts_a_comment_only_after_a_blank(self, tmp_path):
        csv_path = write_capture(tmp_path, "h", synth_capture_rows(seed=2, n=5))
        meta = (tmp_path / "h.meta").read_text().replace("location_id=h", "location_id=hall#2")
        (tmp_path / "h.meta").write_text(meta)
        assert load_capture(csv_path).location_id == "hall#2"
        (tmp_path / "h.meta").write_text(meta.replace("hall#2", "hall #2"))
        assert load_capture(csv_path).location_id == "hall"

    def test_sidecar_found_by_convention(self, tmp_path):
        rows = synth_capture_rows(seed=2, n=5)
        csv_path = write_capture(tmp_path, "conv", rows)
        capture = load_capture(csv_path)  # no explicit meta path
        assert capture.location_id == "conv"
