"""Path-loss model unit values, slopes, flags, and sweep behavior."""

import math
import random
import sys

import pytest

from dectlink.budget import ENVIRONMENTS, max_link_distance
from dectlink.config import RunConfig
from dectlink.propagation import (
    GEOMETRY_KINDS,
    HATA_KINDS,
    MODEL_KINDS,
    SPEED_OF_LIGHT,
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

F_CAMPAIGN = 1.899e9
GEO = AntennaGeometry(h_tx_m=10.0, h_rx_m=1.5)
URBAN = HataEnvironment("small-medium", "urban")


def random_model(rng: random.Random, kind: str) -> PathLossModel:
    """A model of the given kind with parameters drawn inside its validity range."""
    if kind in ("okumura-hata", "cost231-hata"):
        f = rng.uniform(500e6, 1500e6)
        geo = AntennaGeometry(rng.uniform(30.0, 200.0), rng.uniform(1.0, 10.0))
        env = HataEnvironment(
            rng.choice(("small-medium", "large")), rng.choice(("urban", "suburban-open"))
        )
        return PathLossModel(kind, Frequency(f), geo, env)
    if kind == "two-ray":
        geo = AntennaGeometry(rng.uniform(1.0, 50.0), rng.uniform(1.0, 5.0),
                              rng.uniform(0.25, 4.0))
        return PathLossModel(kind, Frequency(rng.uniform(100e6, 6e9)), geo)
    return PathLossModel(kind, Frequency(rng.uniform(100e6, 6e9)))


class TestFrequencyDistance:
    def test_conversions_are_exact(self):
        assert Frequency.from_mhz(1899.0).hz == 1899e6
        assert Frequency.from_mhz(1899.0).mhz == 1899.0

    def test_round_trips_over_random_values(self):
        rng = random.Random(42)
        for _ in range(200):
            f = rng.uniform(1e5, 1e11)
            assert Frequency(f).hz == f
            assert Frequency.from_mhz(Frequency(f).mhz).hz == pytest.approx(f, rel=1e-15)

    @pytest.mark.parametrize("bad", [0.0, -1.0, float("nan"), float("inf")])
    def test_rejects_non_positive(self, bad):
        with pytest.raises(ValueError):
            Frequency(bad)


class TestFspl:
    def test_campaign_distances(self):
        # values cross-checked by hand from the definition
        assert fspl(2294.0, F_CAMPAIGN) == pytest.approx(105.2301507879287, abs=1e-9)
        assert fspl(2470.0, F_CAMPAIGN) == pytest.approx(105.87222158181703, abs=1e-9)
        assert fspl(650.0, F_CAMPAIGN) == pytest.approx(94.27654964948084, abs=1e-9)

    def test_reference_form_at_unit_inputs(self):
        assert fspl(1.0, 1.0) == pytest.approx(20.0 * math.log10(4.0 * math.pi / SPEED_OF_LIGHT))

    def test_doubling_distance_adds_six_db(self):
        delta = fspl(2.0, F_CAMPAIGN) - fspl(1.0, F_CAMPAIGN)
        assert delta == pytest.approx(6.020599913279625, abs=1e-12)

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            fspl(0.0, F_CAMPAIGN)
        with pytest.raises(ValueError):
            fspl(100.0, -1.0)


class TestIndoorModels:
    def test_inh_los_values(self):
        assert pl_inh_los(1.0, 1e9) == pytest.approx(32.4, abs=1e-12)
        assert pl_inh_los(40.0, F_CAMPAIGN) == pytest.approx(65.68613714471411, abs=1e-9)

    def test_inf_los_values(self):
        assert pl_inf_los(1.0, 1e9) == pytest.approx(31.84, abs=1e-12)
        assert pl_inf_los(190.0, F_CAMPAIGN) == pytest.approx(86.12517675048915, abs=1e-9)

    def test_inf_steeper_than_inh(self):
        # 21.5 vs 17.3 dB/decade: the factory model must fall off faster
        for d in (10.0, 50.0, 150.0):
            slope_h = pl_inh_los(10 * d, F_CAMPAIGN) - pl_inh_los(d, F_CAMPAIGN)
            slope_f = pl_inf_los(10 * d, F_CAMPAIGN) - pl_inf_los(d, F_CAMPAIGN)
            assert slope_h == pytest.approx(17.3, abs=1e-9)
            assert slope_f == pytest.approx(21.5, abs=1e-9)


class TestTwoRay:
    def test_reference_value(self):
        assert two_ray(650.0, GEO) == pytest.approx(88.9947090846006, abs=1e-9)

    def test_forty_db_per_decade(self):
        assert two_ray(1000.0, GEO) - two_ray(100.0, GEO) == pytest.approx(40.0, abs=1e-12)

    def test_gain_enters_linearly(self):
        high = AntennaGeometry(GEO.h_tx_m, GEO.h_rx_m, combined_gain=2.0)
        delta = two_ray(650.0, GEO) - two_ray(650.0, high)
        assert delta == pytest.approx(10.0 * math.log10(2.0), abs=1e-12)

    def test_crossover_distance(self):
        d_c = two_ray_crossover_m(GEO, F_CAMPAIGN)
        assert d_c == pytest.approx(1194.002909005873, abs=1e-6)
        wavelength = SPEED_OF_LIGHT / F_CAMPAIGN
        assert d_c == pytest.approx(4.0 * math.pi * 10.0 * 1.5 / wavelength)

    def test_frequency_independent_beyond_crossover(self):
        assert two_ray(2000.0, GEO) == two_ray(2000.0, GEO)
        model_a = PathLossModel("two-ray", Frequency(1e9), GEO)
        model_b = PathLossModel("two-ray", Frequency(2e9), GEO)
        assert model_a.path_loss(2000.0) == model_b.path_loss(2000.0)


class TestHataFamily:
    def test_mobile_height_corrections(self):
        small = HataEnvironment("small-medium", "urban")
        large = HataEnvironment("large", "urban")
        assert small.mobile_height_correction_db(1899.0, 1.5) == pytest.approx(
            0.04506724682633134, abs=1e-12
        )
        assert large.mobile_height_correction_db(1899.0, 1.5) == pytest.approx(
            -0.0009190469544941848, abs=1e-12
        )

    def test_okumura_hata_campaign_point(self):
        assert okumura_hata(2470.0, F_CAMPAIGN, GEO, URBAN) == pytest.approx(
            156.51107398820224, abs=1e-9
        )

    def test_cost231_campaign_point(self):
        assert cost231_hata(650.0, F_CAMPAIGN, GEO, URBAN) == pytest.approx(
            139.40215628501207, abs=1e-9
        )

    def test_distance_slope_depends_on_base_height(self):
        # 44.9 - 6.55*log10(h_b) dB per decade
        for h_b in (10.0, 30.0, 100.0, 200.0):
            geo = AntennaGeometry(h_b, 1.5)
            slope = okumura_hata(20000.0, 1.2e9, geo, URBAN) - okumura_hata(
                2000.0, 1.2e9, geo, URBAN
            )
            assert slope == pytest.approx(44.9 - 6.55 * math.log10(h_b), abs=1e-9)

    def test_urban_suburban_gap_is_three_db(self):
        suburban = HataEnvironment("small-medium", "suburban-open")
        u = cost231_hata(650.0, F_CAMPAIGN, GEO, URBAN)
        s = cost231_hata(650.0, F_CAMPAIGN, GEO, suburban)
        assert u - s == 3.0

    def test_environment_validation(self):
        with pytest.raises(ValueError):
            HataEnvironment("huge", "urban")
        with pytest.raises(ValueError):
            HataEnvironment("large", "rural")


class TestPathLossModel:
    def test_dispatch_matches_free_functions(self):
        model = PathLossModel("okumura-hata", Frequency(F_CAMPAIGN), GEO, URBAN)
        assert model.path_loss(2470.0) == okumura_hata(2470.0, F_CAMPAIGN, GEO, URBAN)
        model = PathLossModel("fspl", Frequency(F_CAMPAIGN))
        assert model.path_loss(2294.0) == fspl(2294.0, F_CAMPAIGN)

    @pytest.mark.parametrize("kind", MODEL_KINDS)
    def test_kind_lists_agree(self, kind):
        def rejected(**parts):
            try:
                PathLossModel(kind, Frequency(F_CAMPAIGN), **parts)
            except ValueError:
                return True
            return False

        assert rejected(environment=URBAN) == (kind in GEOMETRY_KINDS)
        assert rejected(geometry=GEO) == (kind in HATA_KINDS)
        model = RunConfig(h_tx_m=10, h_rx_m=1.5).model(kind)
        assert (model.environment is not None) == (kind in HATA_KINDS)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            PathLossModel("log-normal", Frequency(1e9))

    @pytest.mark.parametrize(
        "kind, slope",
        [
            ("fspl", 20.0),
            ("inh-los", 17.3),
            ("inf-los", 21.5),
            ("two-ray", 40.0),
            ("okumura-hata", 44.9 - 6.55),
            ("cost231-hata", 44.9 - 6.55),
        ],
    )
    def test_log_affine_coefficients(self, kind, slope):
        model = PathLossModel(kind, Frequency(F_CAMPAIGN), GEO, URBAN)
        assert model.intercept_db == model.path_loss(1.0)
        assert model.slope_db_per_decade == pytest.approx(slope, abs=1e-12)
        # derived values stay out of equality, hashing and repr
        assert "intercept" not in repr(model) and "slope" not in repr(model)
        twin = PathLossModel(kind, Frequency(F_CAMPAIGN), GEO, URBAN)
        assert twin == model and hash(twin) == hash(model)

    @pytest.mark.parametrize("kind", ["okumura-hata", "cost231-hata"])
    def test_hata_slope_must_stay_positive(self, kind):
        # 44.9 - 6.55 log10(h_tx) reaches zero near h_tx = 7.2e6 m
        PathLossModel(kind, Frequency(900e6), AntennaGeometry(7e6, 1.5), URBAN)
        with pytest.raises(ValueError, match="slope"):
            PathLossModel(kind, Frequency(900e6), AntennaGeometry(7.5e6, 1.5), URBAN)

    def test_two_ray_crossover_must_be_finite(self):
        # The squared heights stay finite; 4 pi h_tx h_rx / lambda does not.
        with pytest.raises(ValueError, match="^two-ray crossover distance must be finite"):
            PathLossModel("two-ray", Frequency(1e300), AntennaGeometry(1e10, 1e10))
        assert PathLossModel("fspl", Frequency(1e300), AntennaGeometry(1e10, 1e10)).flags(1.0) == ()

    def test_geometry_required_for_two_ray_and_hata(self):
        for kind in ("two-ray", "okumura-hata", "cost231-hata"):
            with pytest.raises(ValueError):
                PathLossModel(kind, Frequency(1e9))
        with pytest.raises(ValueError):
            PathLossModel("okumura-hata", Frequency(1e9), GEO, environment=None)

    def test_monotone_in_distance_for_all_kinds(self):
        """Randomized draws: d1 < d2 implies PL(d1) < PL(d2) for every model."""
        rng = random.Random(2026)
        for kind in MODEL_KINDS:
            for _ in range(50):
                model = random_model(rng, kind)
                d1 = rng.uniform(1.0, 1e4)
                d2 = d1 * rng.uniform(1.001, 100.0)
                assert model.path_loss(d1) < model.path_loss(d2), kind

    def test_near_field_flag(self):
        model = PathLossModel("two-ray", Frequency(F_CAMPAIGN), GEO)
        crossover = two_ray_crossover_m(GEO, F_CAMPAIGN)
        assert model.flags(crossover * 0.5) == (
            ValidityFlag(
                "near-field",
                f"distance {crossover * 0.5:.2f} m below two-ray crossover {crossover:.2f} m",
            ),
        )
        assert model.flags(crossover * 1.01) == ()

    def test_hata_range_flags(self):
        model = PathLossModel("okumura-hata", Frequency(F_CAMPAIGN), GEO, URBAN)
        codes = {f.code for f in model.flags(650.0)}
        assert codes == {
            "frequency-out-of-range",
            "tx-height-out-of-range",
            "distance-out-of-range",
        }
        ok = PathLossModel(
            "okumura-hata", Frequency(900e6), AntennaGeometry(50.0, 1.5), URBAN
        )
        assert ok.flags(5000.0) == ()

    def test_hata_range_flag_details(self):
        model = PathLossModel("okumura-hata", Frequency(F_CAMPAIGN), GEO, URBAN)
        assert model.flags(650.0) == (
            ValidityFlag("frequency-out-of-range", "1899.000 MHz outside 150-1500 MHz"),
            ValidityFlag("tx-height-out-of-range", "h_tx 10.00 m outside 30-200 m"),
            ValidityFlag("distance-out-of-range", "0.650 km outside 1-20 km"),
        )
        high = PathLossModel("cost231-hata", Frequency(5.9e9), AntennaGeometry(250.0, 1.5), URBAN)
        assert [str(f) for f in high.flags(30000.0)] == [
            "frequency-out-of-range: 5900.000 MHz outside 500-2000 MHz",
            "tx-height-out-of-range: h_tx 250.00 m outside 30-200 m",
            "distance-out-of-range: 30.000 km outside 1-20 km",
        ]

    @pytest.mark.parametrize("kind, below, above, inside", [
        ("inh-los", (0.5, "0.50 m outside 1-150 m"), (150.5, "150.50 m outside 1-150 m"),
         (1.0, 40.0, 150.0)),
        ("inf-los", (0.99, "0.99 m outside 1-600 m"), (612.25, "612.25 m outside 1-600 m"),
         (1.0, 250.0, 600.0)),
    ])
    def test_indoor_distance_range_flags(self, kind, below, above, inside):
        model = PathLossModel(kind, Frequency(F_CAMPAIGN))
        for d_m, detail in (below, above):
            assert model.flags(d_m) == (ValidityFlag("distance-out-of-range", detail),)
        for d_m in inside:
            assert model.flags(d_m) == ()

    def test_cost231_frequency_window_differs(self):
        model = PathLossModel("cost231-hata", Frequency(F_CAMPAIGN), AntennaGeometry(50.0, 1.5), URBAN)
        assert {f.code for f in model.flags(5000.0)} == set()
        low = PathLossModel("cost231-hata", Frequency(450e6), AntennaGeometry(50.0, 1.5), URBAN)
        assert {f.code for f in low.flags(5000.0)} == {"frequency-out-of-range"}

    def test_planning_formats_no_flag_text_until_a_detail_is_read(self):
        formats = []

        def count_str_format(frame, event, arg):
            if event == "c_call" and arg.__name__ == "format" and isinstance(arg.__self__, str):
                formats.append(arg.__self__)

        def profiled(work):
            formats.clear()
            before = sys.getprofile()
            sys.setprofile(count_str_format)
            try:
                return work()
            finally:
                sys.setprofile(before)

        def plan():
            # 1899 MHz and a 10 m mast are outside the Okumura-Hata ranges, 0.5 m is below
            # every distance range and 100 km above the bounded ones: every flag code is made.
            cfg = RunConfig(frequency_hz=F_CAMPAIGN, h_tx_m=10.0, h_rx_m=1.5)
            flags = []
            for kind in MODEL_KINDS:
                model = cfg.model(kind)
                for environment in ENVIRONMENTS:
                    for criterion in ("rssi", "snr"):
                        max_link_distance(cfg.budget(), model, cfg.thresholds(), environment,
                                          criterion)
                flags += (*model.flags(0.5), *model.flags(1e5))
            return flags

        flags = profiled(plan)
        assert formats == []
        assert {flag.code for flag in flags} == {
            "near-field", "frequency-out-of-range", "tx-height-out-of-range",
            "distance-out-of-range",
        }
        details = profiled(lambda: [flag.detail for flag in flags])
        assert len(formats) >= 1
        assert "1899.000 MHz outside 150-1500 MHz" in details


class TestEvaluateSweep:
    def test_two_point_log_sweep_spans_one_decade(self):
        model = PathLossModel("fspl", Frequency(F_CAMPAIGN))
        pairs = evaluate_sweep(model, 1.0, 10.0, 2, "log")
        assert pairs[0][0] == 1.0 and pairs[1][0] == 10.0
        assert pairs[1][1] - pairs[0][1] == pytest.approx(20.0, abs=1e-9)

    def test_endpoints_exact_for_linear_spacing(self):
        model = PathLossModel("inh-los", Frequency(F_CAMPAIGN))
        for spacing in ("linear", "log"):
            pairs = evaluate_sweep(model, 3.7, 191.3, 7, spacing)
            assert pairs[0][0] == 3.7
            assert pairs[-1][0] == 191.3

    def test_inh_decade_between_first_and_last(self):
        model = PathLossModel("inh-los", Frequency(F_CAMPAIGN))
        pairs = evaluate_sweep(model, 10.0, 100.0, 10, "log")
        assert pairs[-1][1] - pairs[0][1] == pytest.approx(17.3, abs=1e-9)
        assert pairs[0][1] == pytest.approx(55.270499294740354, abs=1e-9)

    def test_distances_and_losses_increase(self):
        rng = random.Random(9)
        for kind in MODEL_KINDS:
            model = random_model(rng, kind)
            pairs = evaluate_sweep(model, 5.0, 5000.0, 40, rng.choice(("log", "linear")))
            distances = [d for d, _ in pairs]
            losses = [pl for _, pl in pairs]
            assert distances == sorted(distances)
            assert all(a < b for a, b in zip(losses, losses[1:])), kind

    def test_invalid_ranges_rejected(self):
        model = PathLossModel("fspl", Frequency(F_CAMPAIGN))
        with pytest.raises(ValueError):
            evaluate_sweep(model, 10.0, 10.0, 5)
        with pytest.raises(ValueError):
            evaluate_sweep(model, 100.0, 10.0, 5)
        with pytest.raises(ValueError):
            evaluate_sweep(model, 1.0, 10.0, 1)
        with pytest.raises(ValueError):
            evaluate_sweep(model, 1.0, 10.0, 5, "geometric")
