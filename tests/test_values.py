"""The package's value classes: immutable, compared over their fields, stored as checked.

Each class names its fields in __match_args__ and may carry derived values
beside them (a law, flags, a noise floor, shared components, a capture's
tallies), which stay out of equality, hashing and repr, and survive a copy
or a pickle round trip.
"""

import copy
import pickle

import pytest

from dectlink.budget import (
    ENVIRONMENTS, LinkBudget, ReliabilityThresholds, ThresholdUnreachable, max_link_distance,
)
from dectlink.campaign import CaptureColumns, LocationCapture
from dectlink.config import RunConfig
from dectlink.fixtures import load_indoor_locations, load_pathloss_comparison
from dectlink.propagation import (
    MODEL_KINDS, AntennaGeometry, Frequency, HataEnvironment, PathLossModel, ValidityFlag,
)


def hata_frequency_flag() -> ValidityFlag:
    """The first of a Hata model's fixed flags, which formats its detail when it is read."""
    model = PathLossModel("okumura-hata", Frequency(1899e6), AntennaGeometry(10.0, 1.5),
                          HataEnvironment())
    return model.flags(5000.0)[0]


# Class name, then what sets the value apart when a class has two ->
# (a builder of one value, the derived attributes it stores beside its fields).
VALUES = {
    "Frequency": (lambda: Frequency(1899e6), ()),
    "AntennaGeometry": (lambda: AntennaGeometry(30.0, 1.5, 2.0), ()),
    "HataEnvironment": (lambda: HataEnvironment("large", "suburban-open"), ()),
    "ValidityFlag": (lambda: ValidityFlag("near-field", "distance 1.00 m below 2.00 m"), ()),
    "ValidityFlag of a Hata model": (hata_frequency_flag, ()),
    "PathLossModel": (
        lambda: PathLossModel("okumura-hata", Frequency(1899e6), AntennaGeometry(10.0, 1.5),
                              HataEnvironment()),
        ("intercept_db", "slope_db_per_decade", "_distance_rule", "_fixed_flags"),
    ),
    "LinkBudget": (lambda: LinkBudget(19.0, 2.5, -0.5, 1e6, 7.0),
                   ("total_correction_db", "noise_floor_dbm")),
    "ReliabilityThresholds": (lambda: ReliabilityThresholds(95.0, -88.0, -93.0, 11.0, 12.0), ()),
    "RunConfig": (
        lambda: RunConfig(tx_power_dbm=19.0, h_tx_m=10.0, h_rx_m=1.5, city_size="large"),
        ("_frequency", "_carrier_models", "_budget", "_thresholds", "_geometry", "_environment"),
    ),
    "LocationCapture": (
        lambda: LocationCapture("loc", 40.0, "los-indoor", 0.0, 3, CaptureColumns(
            (0, 1), (-80.0, -81.5), (-80.5, None), (13.0, 12.0), (True, True), (True, False))),
        ("_tallies",),
    ),
    "ReferenceLocation": (lambda: load_indoor_locations()[0], ()),
    "PathLossComparisonRow": (lambda: load_pathloss_comparison()[-1], ()),
}
CLASSES = pytest.mark.parametrize("name", sorted(VALUES))


def fields_of(value) -> tuple:
    return tuple(getattr(value, name) for name in type(value).__match_args__)


def planned(cfg: RunConfig) -> list[str]:
    """Each kind's model and law, then its reach and flags per environment and criterion."""
    shown = []
    for kind in MODEL_KINDS:
        model = cfg.model(kind)
        shown.append(repr((model, model.intercept_db, model.slope_db_per_decade)))
        for environment in ENVIRONMENTS:
            for criterion in ("rssi", "snr"):
                try:
                    reach = max_link_distance(cfg.budget(), model, cfg.thresholds(), environment,
                                              criterion)
                except ThresholdUnreachable:
                    shown.append("unreachable")
                    continue
                shown.append(repr((reach, model.flags(reach))))
    return shown


@CLASSES
def test_fields_and_derived_values_can_be_neither_assigned_nor_deleted(name):
    build, derived = VALUES[name]
    value = build()
    for attr in (*type(value).__match_args__, *derived, "unknown"):
        with pytest.raises(AttributeError):
            setattr(value, attr, 1.0)
        with pytest.raises(AttributeError):
            delattr(value, attr)
    assert fields_of(value) == fields_of(build())


@CLASSES
def test_equal_inputs_give_equal_values_with_equal_hashes(name):
    build, _ = VALUES[name]
    first, second = build(), build()
    assert first is not second
    assert first == second and not first != second
    assert hash(first) == hash(second)
    assert len({first, second}) == 1


@CLASSES
def test_repr_names_the_fields_alone_in_order(name):
    build, _ = VALUES[name]
    value = build()
    shown = ", ".join(f"{field}={getattr(value, field)!r}" for field in type(value).__match_args__)
    assert repr(value) == f"{name.split()[0]}({shown})"


@CLASSES
def test_derived_values_stay_out_of_equality_hash_and_repr(name):
    build, derived = VALUES[name]
    for attr in derived:
        value, twin = build(), build()
        object.__setattr__(twin, attr, "a derived value changed")
        assert twin == value and hash(twin) == hash(value)
        assert repr(twin) == repr(value) and "a derived value changed" not in repr(twin)


@CLASSES
def test_a_value_is_never_its_fields_as_a_tuple(name):
    build, _ = VALUES[name]
    value = build()
    fields = fields_of(value)
    assert value != fields and fields != value
    assert value != list(fields)
    with pytest.raises(TypeError):
        value[0]  # noqa: B018


@CLASSES
@pytest.mark.parametrize("duplicate", [
    copy.copy, copy.deepcopy, lambda value: pickle.loads(pickle.dumps(value)),
], ids=["copy", "deepcopy", "pickle"])
def test_copies_and_pickles_are_equal_with_the_same_derived_values(name, duplicate):
    build, derived = VALUES[name]
    value = build()
    twin = duplicate(value)
    assert type(twin) is type(value)
    assert twin == value and hash(twin) == hash(value)
    assert repr(fields_of(twin)) == repr(fields_of(value))
    for attr in derived:
        assert repr(getattr(twin, attr)) == repr(getattr(value, attr)), attr


def test_a_model_flag_is_the_flag_built_from_its_text():
    flag = hata_frequency_flag()
    text = ValidityFlag("frequency-out-of-range", "1899.000 MHz outside 150-1500 MHz")
    for twin in (flag, copy.deepcopy(flag), pickle.loads(pickle.dumps(flag))):
        assert twin == text and text == twin and not twin != text
        assert hash(twin) == hash(text)
        assert repr(twin) == repr(text)
        assert str(twin) == str(text) == "frequency-out-of-range: " + text.detail
        assert twin.detail == text.detail


class TestStorage:
    """Each value stores the float its check returned, not the input as given."""

    def test_heights_and_gain_are_stored_as_floats(self):
        geometry = AntennaGeometry("30", "1.5")
        assert fields_of(geometry) == (30.0, 1.5, 1.0)
        assert all(type(v) is float for v in fields_of(geometry))
        assert geometry == AntennaGeometry(30, 1.5)

    def test_numbers_of_other_types_are_stored_as_floats(self):
        assert type(Frequency(1899000000).hz) is float
        assert type(Frequency("1899e6").hz) is float
        budget = LinkBudget(19, 1, "1", 1728000, 10)
        assert all(type(v) is float for v in fields_of(budget))
        assert budget == LinkBudget(19.0, 1.0, 1.0, 1.728e6, 10.0)
        assert budget.total_correction_db == 2.0
        assert all(type(v) is float for v in fields_of(ReliabilityThresholds(90, -90, -95, 11, 13)))

    def test_a_carrier_given_as_text_plans_every_kind_as_the_float_does(self):
        heights = {"h_tx_m": 30.0, "h_rx_m": 1.5}
        text, number = RunConfig(frequency_hz="1899e6", **heights), RunConfig(1899e6, **heights)
        assert text == number and type(text.frequency_hz) is float
        assert planned(text) == planned(number)

    def test_every_config_field_is_the_value_its_component_stored(self):
        cfg = RunConfig(frequency_hz=2400000000, tx_power_dbm=19, correction_rx_db="0.5",
                        min_success_rate=95, h_tx_m=10, h_rx_m="1.5", antenna_gain=2)
        assert all(type(getattr(cfg, name)) is float for name in RunConfig.__match_args__
                   if name not in ("city_size", "area_class"))
        assert cfg.frequency_hz == cfg.model("fspl").frequency.hz == 2.4e9
        assert cfg.budget().side_correction_rx_db == cfg.correction_rx_db == 0.5
        assert cfg.geometry() == AntennaGeometry(10.0, 1.5, 2.0)
