"""Run configuration: defaults, config files, and override precedence.

A run is parameterized by one flat RunConfig. Values resolve in strict
precedence order: explicit overrides (CLI flags) beat the config file,
which beats the built-in defaults. The config file is plain key=value
lines, one per RunConfig field, with '#' comments as `dectlink.tabular`
reads them; DECTLINK_CONFIG names a default file path.
"""

from __future__ import annotations

import functools
import os

from .budget import LinkBudget, ReliabilityThresholds
from .propagation import (
    GEOMETRY_KINDS, HATA_KINDS, MODEL_KINDS, AntennaGeometry, Frequency, HataEnvironment,
    PathLossModel, _require_positive, _setattr, _Value,
)
from .tabular import field_parsers, parse_key_values

TYPE_CHECKING = False
if TYPE_CHECKING:
    from collections.abc import Mapping
    from pathlib import Path
    from typing import Any

CONFIG_ENV_VAR = "DECTLINK_CONFIG"

# Models that need nothing but the carrier, so every config on one carrier can share them.
_CARRIER_KINDS = tuple(kind for kind in MODEL_KINDS if kind not in GEOMETRY_KINDS)


@functools.lru_cache(maxsize=16)
def _carrier(frequency_hz: float) -> tuple[Frequency, dict[str, PathLossModel]]:
    """A carrier's Frequency and its carrier-only models by kind, filled in as asked for.

    Shared by every RunConfig on the carrier. The key is the float the frequency's check
    returns, so 1899e6 and 1899000000 share, and it is positive, so it has no zero sign.
    Concurrent misses may build a carrier twice; each build equals a fresh one.
    """
    return Frequency(frequency_hz), {}


def _defaults(cls: type) -> dict[str, Any]:
    """The defaults of cls's __init__ by field name; the fields that have one come last."""
    defaults = cls.__init__.__defaults__
    return dict(zip(cls.__match_args__[-len(defaults):], defaults))


_BUDGET, _THRESHOLDS = _defaults(LinkBudget), _defaults(ReliabilityThresholds)
_GEOMETRY, _ENVIRONMENT = _defaults(AntennaGeometry), _defaults(HataEnvironment)


class RunConfig(_Value):
    """Everything a planning or analysis run needs, in one flat record.

    Antenna heights default to None: models that need geometry must be
    given it explicitly rather than silently assuming heights. Every other
    default but the carrier is the default of the component it feeds.
    Construction checks every value, stores the float each check returns
    and builds each component once.

    Only the carrier is shared: every RunConfig on one frequency gets the
    same Frequency and carrier-only models from a cache of the 16 carriers
    used last. The LinkBudget, ReliabilityThresholds, HataEnvironment and
    antenna geometry are each config's own, as are the models built on the
    geometry (see model).
    """

    __match_args__ = (
        "frequency_hz", "bandwidth_hz", "tx_power_dbm", "correction_tx_db", "correction_rx_db",
        "noise_figure_db", "min_success_rate", "rssi_floor_indoor_dbm", "rssi_floor_outdoor_dbm",
        "snr_floor_indoor_db", "snr_floor_outdoor_db", "h_tx_m", "h_rx_m", "antenna_gain",
        "city_size", "area_class",
    )
    __slots__ = (*__match_args__, "_frequency", "_carrier_models", "_budget", "_thresholds",
                 "_geometry", "_environment")

    def __init__(
        self,
        frequency_hz: float = 1899e6,
        bandwidth_hz: float = _BUDGET["bandwidth_hz"],
        tx_power_dbm: float = _BUDGET["p_tx_dbm"],
        correction_tx_db: float = _BUDGET["side_correction_tx_db"],
        correction_rx_db: float = _BUDGET["side_correction_rx_db"],
        noise_figure_db: float = _BUDGET["noise_figure_db"],
        min_success_rate: float = _THRESHOLDS["min_success_rate"],
        rssi_floor_indoor_dbm: float = _THRESHOLDS["rssi_floor_indoor_dbm"],
        rssi_floor_outdoor_dbm: float = _THRESHOLDS["rssi_floor_outdoor_dbm"],
        snr_floor_indoor_db: float = _THRESHOLDS["snr_floor_indoor_db"],
        snr_floor_outdoor_db: float = _THRESHOLDS["snr_floor_outdoor_db"],
        h_tx_m: float | None = None,
        h_rx_m: float | None = None,
        antenna_gain: float = _GEOMETRY["combined_gain"],
        city_size: str = _ENVIRONMENT["city_size"],
        area_class: str = _ENVIRONMENT["area_class"],
    ) -> None:
        # Each component is built once, in field order, so the first bad field is reported;
        # each height is checked when set, the gain always.
        frequency, carrier_models = _carrier(_require_positive("frequency", frequency_hz))
        budget = LinkBudget(tx_power_dbm, correction_tx_db, correction_rx_db, bandwidth_hz,
                            noise_figure_db)
        thresholds = ReliabilityThresholds(min_success_rate, rssi_floor_indoor_dbm,
                                           rssi_floor_outdoor_dbm, snr_floor_indoor_db,
                                           snr_floor_outdoor_db)
        if h_tx_m is not None:
            h_tx_m = _require_positive("h_tx_m", h_tx_m)
        if h_rx_m is not None:
            h_rx_m = _require_positive("h_rx_m", h_rx_m)
        gain = _require_positive("antenna_gain", antenna_gain)
        geometry = (None if h_tx_m is None or h_rx_m is None
                    else AntennaGeometry(h_tx_m, h_rx_m, gain))
        environment = HataEnvironment(city_size, area_class)
        # In __slots__ order: each field as its component stored it, then the components.
        values = (
            frequency.hz, budget.bandwidth_hz, budget.p_tx_dbm, budget.side_correction_tx_db,
            budget.side_correction_rx_db, budget.noise_figure_db, *thresholds._values(),
            h_tx_m, h_rx_m, gain, environment.city_size, environment.area_class,
            frequency, carrier_models, budget, thresholds, geometry, environment,
        )
        for name, value in zip(self.__slots__, values):
            _setattr(self, name, value)

    def budget(self) -> LinkBudget:
        return self._budget

    def thresholds(self) -> ReliabilityThresholds:
        return self._thresholds

    def geometry(self) -> AntennaGeometry | None:
        """Antenna geometry, or None when either height is unset."""
        return self._geometry

    def model(self, kind: str) -> PathLossModel:
        """A PathLossModel of the given kind from this configuration's components.

        A carrier-only kind (fspl, inh-los, inf-los) carries the Frequency
        alone, no geometry or environment, and is built once per carrier
        and shared by every config on that carrier. The geometry kinds are
        built on each call from this config's heights. Raises ValueError
        when the kind needs geometry and no heights are configured.
        """
        if kind in _CARRIER_KINDS:
            models = self._carrier_models
            model = models.get(kind)
            if model is None:
                model = models[kind] = PathLossModel(kind, self._frequency)
            return model
        environment = self._environment if kind in HATA_KINDS else None
        return PathLossModel(kind, self._frequency, self._geometry, environment)


_PARSERS = field_parsers(RunConfig)


def parse_config_text(text: str, source: str = "<config>") -> dict[str, Any]:
    """Parse key=value config lines into typed values (format: `dectlink.tabular`)."""
    return parse_key_values(text, _PARSERS, source)


def load_config(
    path: str | Path | None = None,
    overrides: Mapping[str, Any] | None = None,
) -> RunConfig:
    """Resolve a RunConfig: overrides > config file > defaults.

    Override values of None are treated as "not given" so callers can pass
    argparse results straight through. A bad value in the file that no
    override replaces is reported with the file's name.
    """
    given: dict[str, Any] = {}
    for key, value in (overrides or {}).items():
        if key not in _PARSERS:
            raise ValueError(f"unknown config key {key!r}")
        if value is not None:
            given[key] = value
    if path is None:
        return RunConfig(**given)
    name = os.path.basename(path)
    with open(path, encoding="utf-8-sig") as stream:
        from_file = parse_config_text(stream.read(), source=name)
    # Every RunConfig check is on one field, so an error here names a value from the file.
    try:
        RunConfig(**{k: v for k, v in from_file.items() if k not in given})
    except ValueError as exc:
        raise ValueError(f"{name}: {exc}") from None
    return RunConfig(**(from_file | given))
