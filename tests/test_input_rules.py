"""One wording per shared input rule, pinned at the call sites that use it."""

import pytest

from dectlink.budget import LinkBudget, ReliabilityThresholds
from dectlink.campaign import CaptureColumns, LocationCapture
from dectlink.config import RunConfig
from dectlink.fitting import fit_log_distance
from dectlink.propagation import (
    MODEL_KINDS,
    AntennaGeometry,
    Frequency,
    HataEnvironment,
    PathLossModel,
    evaluate_sweep,
    pl_inf_los,
)

F = Frequency(1.899e9)
POINTS = [(10.0, 60.0), (100.0, 81.0), (1000.0, 99.0)]
ROW = CaptureColumns((0,), (-80.0,), (-80.5,), (13.0,), (True,), (True,))
NO_HEIGHTS = "model 'two-ray' needs antenna heights; set h_tx_m and h_rx_m"

CASES = {
    "budget-bandwidth": (lambda: LinkBudget(bandwidth_hz=0),
                         "bandwidth_hz must be a positive finite number, got 0.0"),
    "fit-d0": (lambda: fit_log_distance(POINTS, d0_m=0),
               "d0_m must be a positive finite number, got 0.0"),
    "capture-distance": (lambda: LocationCapture("loc", -4, "los-indoor", 0.0, 1, ROW),
                         "distance_m must be a positive finite number, got -4.0"),
    "hata-city-size": (lambda: HataEnvironment("x"),
                       "city_size must be one of ('small-medium', 'large'), got 'x'"),
    "sweep-spacing": (lambda: evaluate_sweep(PathLossModel("fspl", F), 1, 10, 3, spacing="x"),
                      "spacing must be one of ('linear', 'log'), got 'x'"),
    "sweep-points": (lambda: evaluate_sweep(PathLossModel("fspl", F), 1, 10, 3.0),
                     "points must be an integer, got 3.0"),
    "model-kind": (lambda: PathLossModel("x", F),
                   f"model kind must be one of {MODEL_KINDS}, got 'x'"),
    "model-heights": (lambda: PathLossModel("two-ray", F), NO_HEIGHTS),
    "two-ray-height-product": (
        lambda: PathLossModel("two-ray", F, AntennaGeometry(1e200, 1e-200)),
        "combined_gain * h_tx_m**2 * h_rx_m**2 must be a positive finite number, got inf"),
    "config-heights": (lambda: RunConfig().model("two-ray"), NO_HEIGHTS),
    # Positive frequencies too small to survive the model's conversion to GHz or MHz.
    "frequency-in-ghz": (lambda: pl_inf_los(100.0, 2e-315),
                         "frequency 2e-315 Hz underflows to 0 GHz"),
    "frequency-in-mhz": (
        lambda: PathLossModel("cost231-hata", Frequency(5e-324), AntennaGeometry(30.0, 1.5),
                              HataEnvironment()),
        "frequency 5e-324 Hz underflows to 0 MHz"),
    # Values that float() refuses, by overflow or by type.
    "finite-beyond-float-range": (lambda: LinkBudget(p_tx_dbm=10**400),
                                  "p_tx_dbm must be finite, got a value beyond the float range"),
    "positive-beyond-float-range": (
        lambda: RunConfig(frequency_hz=10**400),
        "frequency must be a positive finite number, got a value beyond the float range"),
    "positive-none": (lambda: RunConfig(antenna_gain=None),
                      "antenna_gain must be a positive finite number, got None"),
    "percent-none": (lambda: ReliabilityThresholds(min_success_rate=None),
                     "min_success_rate must be in [0, 100], got None"),
    "mhz-none": (lambda: Frequency.from_mhz(None),
                 "mhz must be a positive finite number, got None"),
    "mhz-beyond-float-range": (
        lambda: Frequency.from_mhz(10**400),
        "mhz must be a positive finite number, got a value beyond the float range"),
    "mhz-text": (lambda: Frequency.from_mhz("x"), "mhz must be a positive finite number, got 'x'"),
    # A finite number of MHz whose Hz value is beyond the float range.
    "mhz-overflowing-hz": (lambda: Frequency.from_mhz(1e305), "mhz 1e+305 MHz overflows to inf Hz"),
}


@pytest.mark.parametrize("build, message", CASES.values(), ids=CASES.keys())
def test_each_rule_has_one_wording(build, message):
    with pytest.raises(ValueError) as info:
        build()
    assert str(info.value) == message
