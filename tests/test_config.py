"""RunConfig defaults, file parsing, and precedence."""

import dataclasses

import pytest

from dectlink.budget import LinkBudget
from dectlink.config import CONFIG_ENV_VAR, RunConfig, load_config, parse_config_text

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
    assert {c[0] for c in PRECEDENCE_CASES} == {
        f.name for f in dataclasses.fields(RunConfig)
    }


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
        cfg = load_config(None, {"city_size": "gigantic"})
        with pytest.raises(ValueError):
            cfg.hata_environment()


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

    def test_env_var_name_is_stable(self):
        assert CONFIG_ENV_VAR == "DECTLINK_CONFIG"
