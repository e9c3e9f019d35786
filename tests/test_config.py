"""RunConfig defaults, file parsing, and precedence."""

import math
import sys
import threading

import pytest

from dectlink import config
from dectlink.budget import LinkBudget
from dectlink.config import CONFIG_ENV_VAR, RunConfig, load_config, parse_config_text
from dectlink.propagation import Frequency, PathLossModel

# (field, built-in default, file value, override value)
PRECEDENCE_CASES = [
    ("frequency_hz", 1899e6, 9.0e8, 2.4e9),
    ("bandwidth_hz", 1.728e6, 2.0e6, 5.0e6),
    ("tx_power_dbm", 0.0, -8.0, 19.0),
    ("correction_tx_db", 1.0, 0.5, 2.5),
    ("correction_rx_db", 1.0, 0.5, 2.5),
    ("noise_figure_db", 10.0, 7.0, 4.0),
    ("min_success_rate", 90.0, 95.0, 99.0),
    ("rssi_floor_indoor_dbm", -90.0, -88.0, -85.0),
    ("rssi_floor_outdoor_dbm", -95.0, -93.0, -91.0),
    ("snr_floor_indoor_db", 11.5, 11.0, 12.0),
    ("snr_floor_outdoor_db", 13.5, 12.0, 15.0),
    ("h_tx_m", None, 10.0, 30.0),
    ("h_rx_m", None, 1.5, 2.0),
    ("antenna_gain", 1.0, 1.29, 2.0),
    ("city_size", "small-medium", "large", "small-medium"),
    ("area_class", "urban", "suburban-open", "urban"),
]


def test_every_field_has_a_precedence_case():
    assert {c[0] for c in PRECEDENCE_CASES} == set(RunConfig.__match_args__)


@pytest.mark.parametrize("field,default,file_value,override", PRECEDENCE_CASES)
def test_precedence_override_beats_file_beats_default(
    tmp_path, field, default, file_value, override
):
    assert getattr(RunConfig(), field) == default

    cfg_file = tmp_path / "run.cfg"
    cfg_file.write_text(f"{field}={file_value}\n")
    assert getattr(load_config(cfg_file), field) == file_value
    assert getattr(load_config(cfg_file, {field: override}), field) == override
    assert getattr(load_config(None, {field: override}), field) == override


class TestParsing:
    def test_comments_blanks_and_inline_comments(self):
        text = "\n# full comment\n tx_power_dbm = 19 # inline\n\nnoise_figure_db=7\n"
        values = parse_config_text(text)
        assert values == {"tx_power_dbm": 19.0, "noise_figure_db": 7.0}

    def test_unknown_key(self):
        with pytest.raises(ValueError, match="unknown key"):
            parse_config_text("velocity=3\n")

    def test_duplicate_key(self):
        with pytest.raises(ValueError, match="duplicate"):
            parse_config_text("tx_power_dbm=1\ntx_power_dbm=2\n")

    def test_missing_equals(self):
        with pytest.raises(ValueError, match="key=value"):
            parse_config_text("just a line\n")

    def test_bad_number_carries_location(self):
        with pytest.raises(ValueError, match="line 1"):
            parse_config_text("tx_power_dbm=loud\n")
        # A '#' glued to a value is part of it, not a comment.
        with pytest.raises(ValueError, match="^<config> line 1: key 'tx_power_dbm'"):
            parse_config_text("tx_power_dbm=19#x\n")

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError, match="finite"):
            parse_config_text("tx_power_dbm=inf\n")

    def test_height_accepts_none(self):
        assert parse_config_text("h_tx_m=none\n") == {"h_tx_m": None}

    def test_string_keys_pass_through(self):
        assert parse_config_text("city_size=large\n") == {"city_size": "large"}


class TestLoadConfig:
    def test_unknown_override_key(self):
        with pytest.raises(ValueError, match="unknown config key"):
            load_config(None, {"tx": 19.0})

    def test_none_overrides_ignored(self):
        cfg = load_config(None, {"tx_power_dbm": None})
        assert cfg.tx_power_dbm == 0.0

    def test_invalid_choice_surfaces_from_runconfig_helpers(self):
        # Every value is checked when the config is built, not when a helper needs it.
        with pytest.raises(ValueError, match="city_size must be one of"):
            load_config(None, {"city_size": "gigantic"})

    def test_first_bad_field_in_declaration_order_is_reported(self):
        with pytest.raises(ValueError, match="^frequency must"):
            load_config(None, {"area_class": "nowhere", "h_tx_m": -1.0, "frequency_hz": -5.0})
        with pytest.raises(ValueError, match="^bandwidth_hz must"):
            load_config(None, {"tx_power_dbm": math.nan, "bandwidth_hz": 0.0})

    def test_bad_file_value_names_the_file_unless_an_override_replaces_it(self, tmp_path):
        cfg_file = tmp_path / "site.cfg"
        cfg_file.write_text("city_size = bogus\nh_tx_m = 10\n")
        with pytest.raises(ValueError, match="^site.cfg: city_size must be one of"):
            load_config(cfg_file)
        assert load_config(cfg_file, {"city_size": "large"}).city_size == "large"
        # A bad override is the caller's, so its error names no file.
        with pytest.raises(ValueError, match="^h_rx_m must"):
            load_config(cfg_file, {"city_size": "large", "h_rx_m": -1.0})


class TestHelpers:
    def test_budget_mirror(self):
        cfg = RunConfig(tx_power_dbm=19.0, noise_figure_db=6.0)
        assert cfg.budget() == LinkBudget(
            p_tx_dbm=19.0,
            side_correction_tx_db=1.0,
            side_correction_rx_db=1.0,
            bandwidth_hz=1.728e6,
            noise_figure_db=6.0,
        )

    def test_thresholds_mirror(self):
        thr = RunConfig(min_success_rate=95.0).thresholds()
        assert thr.min_success_rate == 95.0
        assert thr.rssi_floor_outdoor_dbm == -95.0

    def test_geometry_requires_both_heights(self):
        assert RunConfig().geometry() is None
        assert RunConfig(h_tx_m=10.0).geometry() is None
        geo = RunConfig(h_tx_m=10.0, h_rx_m=1.5, antenna_gain=2.0).geometry()
        assert geo is not None and geo.combined_gain == 2.0

    def test_model_factory(self):
        cfg = RunConfig()
        assert cfg.model("fspl").path_loss(2294.0) == pytest.approx(105.23, abs=0.005)
        with pytest.raises(ValueError, match="antenna heights"):
            cfg.model("two-ray")
        full = RunConfig(h_tx_m=10.0, h_rx_m=1.5, city_size="large")
        model = full.model("cost231-hata")
        assert model.environment.city_size == "large"
        assert model.geometry.h_tx_m == 10.0

    def test_components_are_built_once_and_shared(self):
        cfg = RunConfig(h_tx_m=10.0, h_rx_m=1.5)
        assert cfg.budget() is cfg.budget()
        assert cfg.thresholds() is cfg.thresholds()
        first, second = cfg.model("okumura-hata"), cfg.model("cost231-hata")
        assert first.frequency is second.frequency is cfg.model("fspl").frequency
        assert first.geometry is second.geometry is cfg.geometry()
        assert first.environment is second.environment is cfg._environment
        assert cfg.model("fspl").environment is None

    def test_env_var_name_is_stable(self):
        assert CONFIG_ENV_VAR == "DECTLINK_CONFIG"


def carrier_cache_size():
    return config._carrier.cache_info().currsize


class TestSharedComponents:
    CARRIER_KINDS = ("fspl", "inh-los", "inf-los")

    def test_configs_on_one_carrier_share_its_frequency_and_models(self):
        first = RunConfig(frequency_hz=1.8815e9, tx_power_dbm=19.0)
        second = RunConfig(frequency_hz=1.8815e9, h_tx_m=10.0, h_rx_m=1.5, city_size="large")
        other = RunConfig(frequency_hz=1.8835e9)
        for kind in self.CARRIER_KINDS:
            model = first.model(kind)
            assert second.model(kind) is model
            assert model.frequency is second.model("okumura-hata").frequency
            # A carrier-only model carries neither the config's geometry nor its environment.
            assert model.geometry is None and model.environment is None
            assert other.model(kind) is not model and other.model(kind) == PathLossModel(
                kind, Frequency(1.8835e9))
        assert second.model("two-ray") is not second.model("two-ray")

    def test_type_and_zero_sign_survive_a_warm_table(self):
        RunConfig(frequency_hz=1899e6, tx_power_dbm=0.0, min_success_rate=0.0)
        cfg = RunConfig(frequency_hz=1899000000, tx_power_dbm=-0.0, min_success_rate=-0.0)
        assert type(cfg.model("fspl").frequency.hz) is float
        assert repr(cfg.budget().p_tx_dbm) == "-0.0"
        assert repr(cfg.thresholds().min_success_rate) == "-0.0"
        again = RunConfig(frequency_hz=1899e6, tx_power_dbm=0.0)
        assert type(again.model("fspl").frequency.hz) is float
        assert repr(again.budget().p_tx_dbm) == "0.0"

    def test_an_int_and_a_float_carrier_share_what_a_fresh_build_gives(self):
        as_int = RunConfig(frequency_hz=1884000000, tx_power_dbm=19, correction_tx_db=2)
        as_float = RunConfig(frequency_hz=1884e6, tx_power_dbm=19.0, correction_tx_db=2.0)
        # Only the carrier is shared; each config builds its own budget.
        assert as_float.budget() is not as_int.budget()
        for kind in self.CARRIER_KINDS:
            model = as_int.model(kind)
            assert as_float.model(kind) is model
            fresh = PathLossModel(kind, Frequency(1884e6))
            assert repr(model) == repr(fresh)
            assert repr((model.intercept_db, model.slope_db_per_decade)) == repr(
                (fresh.intercept_db, fresh.slope_db_per_decade))
        fresh = LinkBudget(19.0, 2.0)
        assert repr(as_int.budget()) == repr(fresh)
        assert repr(as_int.budget().total_correction_db) == repr(fresh.total_correction_db)

    @pytest.mark.parametrize("overrides, message", [
        ({"frequency_hz": math.nan}, "^frequency must"),
        ({"frequency_hz": math.inf}, "^frequency must"),
        ({"frequency_hz": -1899e6}, "^frequency must"),
        ({"bandwidth_hz": math.nan}, "^bandwidth_hz must"),
        ({"tx_power_dbm": math.inf}, "^p_tx_dbm must"),
        ({"noise_figure_db": -math.inf}, "^noise_figure_db must"),
        ({"min_success_rate": -1.0}, "^min_success_rate must"),
        ({"snr_floor_outdoor_db": math.nan}, "^snr_floor_outdoor_db must"),
        ({"area_class": "rural"}, "^area_class must"),
    ])
    def test_a_bad_value_raises_on_every_call_and_is_never_stored(self, overrides, message):
        config._carrier.cache_clear()  # room to store a carrier, so a stored one would show
        RunConfig()
        before = carrier_cache_size()
        for _ in range(2):
            with pytest.raises(ValueError, match=message):
                RunConfig(**overrides)
        assert carrier_cache_size() == before

    def test_a_kind_that_fails_raises_on_every_call_and_is_never_stored(self):
        config._carrier.cache_clear()
        cfg, subnormal = RunConfig(), RunConfig(frequency_hz=1e-320)
        before = carrier_cache_size()
        for _ in range(2):
            with pytest.raises(ValueError, match="model kind must be one of"):
                cfg.model("ray-tracing")
            with pytest.raises(ValueError, match="underflows to 0 GHz"):
                subnormal.model("inh-los")
        assert carrier_cache_size() == before
        assert cfg._carrier_models == subnormal._carrier_models == {}

    def test_the_carrier_cache_holds_at_most_its_maxsize(self):
        for i in range(10_000):
            RunConfig(frequency_hz=1e9 + i)
        info = config._carrier.cache_info()
        assert info.maxsize == 16 and info.currsize <= info.maxsize

    def test_threads_sharing_the_tables_each_get_their_own_carrier(self):
        def plan(offset, found):
            for i in range(200):
                hz = 1e9 + (i + offset) % 40
                model = RunConfig(frequency_hz=hz, tx_power_dbm=float(i % 3)).model("fspl")
                found.append(model == PathLossModel("fspl", Frequency(hz)))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            found = [[] for _ in range(4)]
            threads = [threading.Thread(target=plan, args=(7 * n, found[n])) for n in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert all(len(each) == 200 and all(each) for each in found)
