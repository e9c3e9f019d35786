"""Link-budget arithmetic and the maximum-distance solver."""

import math
import random

import pytest

from dectlink.budget import (
    LinkBudget,
    ReliabilityThresholds,
    ThresholdUnreachable,
    allowed_path_loss_db,
    distance_for_path_loss,
    empirical_pl,
    is_reliable,
    max_link_distance,
    predict_rx_power_dbm,
    predict_snr_db,
)
from dectlink.propagation import AntennaGeometry, Frequency, PathLossModel

from test_propagation import random_model

F_CAMPAIGN = 1.899e9
FSPL_MODEL = PathLossModel("fspl", Frequency(F_CAMPAIGN))
THRESHOLDS = ReliabilityThresholds()

# FSPL expressed in km/MHz units has this additive constant.
FSPL_KM_MHZ_CONST = 32.44778322188338


class TestNoiseFloor:
    def test_one_hertz_is_thermal_density(self):
        assert LinkBudget(bandwidth_hz=1.0, noise_figure_db=0.0).noise_floor_dbm == -174.0

    def test_campaign_bandwidth(self):
        nf0 = LinkBudget(noise_figure_db=0.0).noise_floor_dbm
        assert nf0 == pytest.approx(-111.62456261857125, abs=1e-9)
        nf10 = LinkBudget(noise_figure_db=10.0).noise_floor_dbm
        assert nf10 == pytest.approx(-101.62456261857125, abs=1e-9)

    def test_derived_once_and_kept_out_of_equality(self):
        budget = LinkBudget(side_correction_tx_db=2.5, side_correction_rx_db=-0.5,
                            bandwidth_hz=1e6, noise_figure_db=7.0)
        assert budget.total_correction_db == 2.0
        assert budget.noise_floor_dbm == -174.0 + 60.0 + 7.0
        assert "noise_floor" not in repr(budget) and "total_correction" not in repr(budget)
        twin = LinkBudget(side_correction_tx_db=2.5, side_correction_rx_db=-0.5,
                          bandwidth_hz=1e6, noise_figure_db=7.0)
        assert twin == budget and hash(twin) == hash(budget)
        assert LinkBudget(side_correction_tx_db=2.5, side_correction_rx_db=-0.5, bandwidth_hz=1e6,
                          noise_figure_db=3.0).noise_floor_dbm == -111.0

    def test_rejects_non_positive_bandwidth(self):
        with pytest.raises(ValueError):
            LinkBudget(bandwidth_hz=0.0)
        with pytest.raises(ValueError):
            LinkBudget(bandwidth_hz=-5.0)

    def test_rejects_corrections_whose_sum_overflows(self):
        with pytest.raises(ValueError, match=r"^side_correction_tx_db \+ side_correction_rx_db "
                                             r"must be finite, got inf$"):
            LinkBudget(side_correction_tx_db=1e308, side_correction_rx_db=1e308)
        assert LinkBudget(side_correction_tx_db=1e308,
                          side_correction_rx_db=-1e308).total_correction_db == 0.0


class TestEmpiricalPl:
    def test_campaign_style_inputs(self):
        budget = LinkBudget()
        assert empirical_pl(19.0, -89.56, budget) == pytest.approx(110.56, abs=1e-12)

    def test_zero_cases(self):
        flat = LinkBudget(side_correction_tx_db=0.0, side_correction_rx_db=0.0)
        assert empirical_pl(0.0, 0.0, flat) == 0.0
        assert empirical_pl(0.0, -80.0, LinkBudget()) == pytest.approx(82.0, abs=1e-12)

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            empirical_pl(float("nan"), -80.0, LinkBudget())

    def test_rejects_a_result_that_overflows(self):
        # Each term is finite, and so is the budget's total correction.
        budget = LinkBudget(side_correction_tx_db=1e308, side_correction_rx_db=0.0)
        with pytest.raises(ValueError, match=r"^p_tx_dbm - p_rx_dbm \+ total_correction_db "
                                             r"must be finite, got inf$"):
            empirical_pl(1.7e308, -80.0, budget)
        with pytest.raises(ValueError, match="must be finite, got -inf"):
            empirical_pl(-1.7e308, 1.7e308, LinkBudget())


class TestPrediction:
    def test_rx_power_at_campaign_distance(self):
        budget = LinkBudget(p_tx_dbm=19.0)
        assert predict_rx_power_dbm(budget, FSPL_MODEL, 2294.0) == pytest.approx(
            -84.2301507879287, abs=1e-9
        )

    def test_doubling_distance_costs_six_db(self):
        budget = LinkBudget()
        drop = predict_rx_power_dbm(budget, FSPL_MODEL, 100.0) - predict_rx_power_dbm(
            budget, FSPL_MODEL, 200.0
        )
        assert drop == pytest.approx(6.020599913279625, abs=1e-12)

    def test_snr_is_rx_minus_noise(self):
        budget = LinkBudget(p_tx_dbm=19.0)
        rx = predict_rx_power_dbm(budget, FSPL_MODEL, 500.0)
        assert predict_snr_db(budget, FSPL_MODEL, 500.0) == pytest.approx(
            rx - budget.noise_floor_dbm, abs=1e-12
        )

    def test_noise_figure_trades_one_for_one(self):
        lo = LinkBudget(noise_figure_db=10.0)
        hi = LinkBudget(noise_figure_db=11.0)
        delta = predict_snr_db(lo, FSPL_MODEL, 500.0) - predict_snr_db(hi, FSPL_MODEL, 500.0)
        assert delta == pytest.approx(1.0, abs=1e-12)

    def test_round_trip_recovers_model_pl(self):
        """empirical_pl(p_tx, predict_rx_power(d)) equals PL(d) for random setups."""
        rng = random.Random(77)
        for _ in range(300):
            model = random_model(rng, rng.choice(
                ("fspl", "inh-los", "inf-los", "two-ray", "okumura-hata", "cost231-hata")
            ))
            budget = LinkBudget(
                p_tx_dbm=rng.uniform(-20.0, 19.0),
                side_correction_tx_db=rng.uniform(-3.0, 3.0),
                side_correction_rx_db=rng.uniform(-3.0, 3.0),
            )
            d = rng.uniform(1.0, 1e4)
            rx = predict_rx_power_dbm(budget, model, d)
            assert empirical_pl(budget.p_tx_dbm, rx, budget) == pytest.approx(
                model.path_loss(d), abs=1e-9
            )


class TestReliability:
    def test_boundary_is_strict(self):
        assert is_reliable(100.0, THRESHOLDS)
        assert not is_reliable(90.0, THRESHOLDS)
        assert is_reliable(90.01, THRESHOLDS)

    def test_domain_checks(self):
        with pytest.raises(ValueError):
            is_reliable(-0.5, THRESHOLDS)
        with pytest.raises(ValueError):
            is_reliable(100.5, THRESHOLDS)
        with pytest.raises(ValueError):
            ReliabilityThresholds(min_success_rate=120.0)

    def test_floor_lookup_by_environment(self):
        assert THRESHOLDS.rssi_floor_dbm("indoor") == -90.0
        assert THRESHOLDS.rssi_floor_dbm("outdoor") == -95.0
        assert THRESHOLDS.snr_floor_db("indoor") == 11.5
        assert THRESHOLDS.snr_floor_db("outdoor") == 13.5
        with pytest.raises(ValueError):
            THRESHOLDS.rssi_floor_dbm("underwater")


class TestDistanceSolver:
    def test_round_trips_on_all_models(self):
        rng = random.Random(3)
        for _ in range(60):
            kind = rng.choice(
                ("fspl", "inh-los", "inf-los", "two-ray", "okumura-hata", "cost231-hata")
            )
            model = random_model(rng, kind)
            d0 = rng.uniform(1.0, 1e5)
            solved = distance_for_path_loss(model, model.path_loss(d0))
            assert solved == pytest.approx(d0, rel=1e-4), kind

    def test_planning_case_matches_closed_form(self):
        budget = LinkBudget(p_tx_dbm=19.0)
        d_star = max_link_distance(budget, FSPL_MODEL, THRESHOLDS, "outdoor", "rssi")
        closed_km = 10.0 ** ((116.0 - FSPL_KM_MHZ_CONST - 20.0 * math.log10(1899.0)) / 20.0)
        assert d_star / 1000.0 == pytest.approx(closed_km, rel=1e-4)
        assert round(d_star / 1000.0, 2) == 7.93

    def test_solution_sits_on_the_floor(self):
        budget = LinkBudget(p_tx_dbm=19.0)
        d_star = max_link_distance(budget, FSPL_MODEL, THRESHOLDS, "outdoor", "rssi")
        rx = predict_rx_power_dbm(budget, FSPL_MODEL, d_star)
        assert abs(rx - (-95.0)) <= 0.01
        # any shorter distance keeps the link above the floor
        assert predict_rx_power_dbm(budget, FSPL_MODEL, d_star * 0.99) > -95.0

    def test_twenty_db_buys_a_decade_under_fspl(self):
        lo = max_link_distance(LinkBudget(p_tx_dbm=-1.0), FSPL_MODEL, THRESHOLDS, "outdoor")
        hi = max_link_distance(LinkBudget(p_tx_dbm=19.0), FSPL_MODEL, THRESHOLDS, "outdoor")
        assert hi / lo == pytest.approx(10.0, rel=1e-5)

    def test_monotone_in_power_and_floor(self):
        rng = random.Random(11)
        for _ in range(40):
            p = rng.uniform(-20.0, 10.0)
            bump = rng.uniform(0.1, 9.0)
            d1 = max_link_distance(LinkBudget(p_tx_dbm=p), FSPL_MODEL, THRESHOLDS, "outdoor")
            d2 = max_link_distance(LinkBudget(p_tx_dbm=p + bump), FSPL_MODEL, THRESHOLDS, "outdoor")
            assert d2 >= d1
            relaxed = ReliabilityThresholds(rssi_floor_outdoor_dbm=-95.0 - bump)
            d3 = max_link_distance(LinkBudget(p_tx_dbm=p), FSPL_MODEL, relaxed, "outdoor")
            assert d3 >= d1

    def test_criteria_agree_when_noise_floor_aligns(self):
        # rssi and snr budgets coincide when noise floor = rssi floor - snr floor
        target_noise = -95.0 - 13.5
        nf = target_noise + 174.0 - 10.0 * math.log10(1.728e6)
        budget = LinkBudget(p_tx_dbm=19.0, noise_figure_db=nf)
        d_rssi = max_link_distance(budget, FSPL_MODEL, THRESHOLDS, "outdoor", "rssi")
        d_snr = max_link_distance(budget, FSPL_MODEL, THRESHOLDS, "outdoor", "snr")
        assert d_rssi == pytest.approx(d_snr, rel=1e-5)

    def test_unreachable_threshold(self):
        # -100 dBm TX cannot reach a -95 dBm floor even at 0.1 m
        budget = LinkBudget(p_tx_dbm=-100.0)
        with pytest.raises(ThresholdUnreachable):
            max_link_distance(budget, FSPL_MODEL, THRESHOLDS, "outdoor", "rssi")

    def test_unreachable_below_the_loss_at_a_tenth_of_a_meter(self):
        pl_min = FSPL_MODEL.path_loss(0.1)
        assert distance_for_path_loss(FSPL_MODEL, pl_min) == pytest.approx(0.1, rel=1e-12)
        with pytest.raises(ThresholdUnreachable, match=r"path loss at 0\.1 m already"):
            distance_for_path_loss(FSPL_MODEL, pl_min - 1e-6)

    def test_answers_beyond_the_range_are_capped_exactly(self):
        budget = LinkBudget(p_tx_dbm=200.0)
        assert max_link_distance(budget, FSPL_MODEL, THRESHOLDS, "outdoor") == 1e6
        assert distance_for_path_loss(FSPL_MODEL, 1e300) == 1e6

    def test_invalid_criterion_and_environment(self):
        with pytest.raises(ValueError):
            max_link_distance(LinkBudget(), FSPL_MODEL, THRESHOLDS, "outdoor", "ber")
        with pytest.raises(ValueError):
            allowed_path_loss_db(LinkBudget(), THRESHOLDS, "space", "rssi")

    def test_rejects_a_budget_whose_tx_side_overflows(self):
        # TX power and corrections are each finite, and so is their sum over both sides.
        budget = LinkBudget(p_tx_dbm=1e308, side_correction_tx_db=1e308)
        for criterion, floor in (("rssi", "rssi_floor_outdoor_dbm"),
                                 ("snr", "(noise_floor_dbm + snr_floor_outdoor_db)")):
            with pytest.raises(ValueError) as info:
                allowed_path_loss_db(budget, THRESHOLDS, "outdoor", criterion)
            assert str(info.value) == (
                f"p_tx_dbm + total_correction_db - {floor} must be finite, got inf")

    def test_rejects_a_budget_whose_floor_side_overflows(self):
        budget = LinkBudget(p_tx_dbm=1e308)
        low_floors = ReliabilityThresholds(rssi_floor_indoor_dbm=-1e308)
        with pytest.raises(ValueError) as info:
            max_link_distance(budget, FSPL_MODEL, low_floors, "indoor", "rssi")
        assert str(info.value) == (
            "p_tx_dbm + total_correction_db - rssi_floor_indoor_dbm must be finite, got inf")
        # An SNR floor that overflows the noise floor leaves no finite budget either.
        high_floors = ReliabilityThresholds(snr_floor_indoor_db=1e308)
        with pytest.raises(ValueError, match=r"snr_floor_indoor_db\) must be finite, got -inf$"):
            allowed_path_loss_db(LinkBudget(noise_figure_db=1e308), high_floors, "indoor", "snr")

    def test_fspl_and_two_ray_intersect_once(self):
        """Both models solved at the intersection PL land on the same distance."""
        geo = AntennaGeometry(10.0, 1.5)
        two_ray_model = PathLossModel("two-ray", Frequency(F_CAMPAIGN), geo)
        # with unity gain the curves cross exactly at the two-ray crossover distance
        d_x = 1194.002909005873
        pl_gap = FSPL_MODEL.path_loss(d_x) - two_ray_model.path_loss(d_x)
        assert pl_gap == pytest.approx(0.0, abs=1e-9)
        target = FSPL_MODEL.path_loss(d_x)
        assert distance_for_path_loss(FSPL_MODEL, target) == pytest.approx(d_x, rel=1e-5)
        assert distance_for_path_loss(two_ray_model, target) == pytest.approx(d_x, rel=1e-5)
