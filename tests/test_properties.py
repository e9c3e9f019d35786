"""Property tests of the log-affine model core over random valid models."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dectlink.budget import distance_for_path_loss
from dectlink.propagation import (
    AREA_CLASSES,
    CITY_SIZES,
    COST231_FREQ_RANGE_MHZ,
    HATA_TX_HEIGHT_RANGE_M,
    MODEL_KINDS,
    OKUMURA_HATA_FREQ_RANGE_MHZ,
    AntennaGeometry,
    Frequency,
    HataEnvironment,
    PathLossModel,
    evaluate_sweep,
)

# Derandomized so that the suite gives the same verdict on every run.
PROPERTY = settings(max_examples=300, deadline=None, derandomize=True, database=None)

FREQ_RANGE_MHZ = {
    "okumura-hata": OKUMURA_HATA_FREQ_RANGE_MHZ,
    "cost231-hata": COST231_FREQ_RANGE_MHZ,
}
DISTANCES_M = st.floats(0.1, 1e6)


@st.composite
def models(draw) -> PathLossModel:
    """A model of any kind, with frequency, geometry and environment in its stated domain."""
    kind = draw(st.sampled_from(MODEL_KINDS))
    lo_mhz, hi_mhz = FREQ_RANGE_MHZ.get(kind, (100.0, 6000.0))
    frequency = Frequency.from_mhz(draw(st.floats(lo_mhz, hi_mhz)))
    if kind in FREQ_RANGE_MHZ:
        geometry = AntennaGeometry(draw(st.floats(*HATA_TX_HEIGHT_RANGE_M)),
                                   draw(st.floats(1.0, 10.0)))
    else:
        geometry = AntennaGeometry(draw(st.floats(1.0, 50.0)), draw(st.floats(1.0, 5.0)),
                                   draw(st.floats(0.25, 4.0)))
    environment = HataEnvironment(draw(st.sampled_from(CITY_SIZES)),
                                  draw(st.sampled_from(AREA_CLASSES)))
    return PathLossModel(kind, frequency, geometry, environment)


@PROPERTY
@given(models(), DISTANCES_M)
def test_inverse_round_trips(model, d_m):
    assert distance_for_path_loss(model, model.path_loss(d_m)) == pytest.approx(d_m, rel=1e-9)


@PROPERTY
@given(models(), st.floats(0.1, 1e5), st.floats(1.0 + 1e-9, 10.0))
def test_path_loss_strictly_increases(model, d_m, ratio):
    assert model.path_loss(d_m) < model.path_loss(d_m * ratio)


@PROPERTY
@given(models(), DISTANCES_M, st.floats(1.01, 1e3), st.integers(2, 50),
       st.sampled_from(("log", "linear")))
def test_sweep_matches_scalar_path_loss(model, start_m, span, points, spacing):
    for d_m, pl_db in evaluate_sweep(model, start_m, start_m * span, points, spacing):
        assert pl_db == pytest.approx(model.path_loss(d_m), abs=1e-9)
