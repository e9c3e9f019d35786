"""Run configuration: defaults, config files, and override precedence.

A run is parameterized by one flat RunConfig. Values resolve in strict
precedence order: explicit overrides (CLI flags) beat the config file,
which beats the built-in defaults. The config file is plain key=value
lines, one per RunConfig field, with '#' comments as `dectlink.tabular`
reads them; DECTLINK_CONFIG names a default file path.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, fields

from .budget import LinkBudget, ReliabilityThresholds
from .propagation import (
    HATA_KINDS, AntennaGeometry, Frequency, HataEnvironment, PathLossModel, _require_positive,
)
from .tabular import field_parsers, parse_key_values

TYPE_CHECKING = False
if TYPE_CHECKING:
    from collections.abc import Mapping
    from pathlib import Path
    from typing import Any

CONFIG_ENV_VAR = "DECTLINK_CONFIG"


@dataclass(frozen=True)
class RunConfig:
    """Everything a planning or analysis run needs, in one flat record.

    Antenna heights default to None: models that need geometry must be
    given it explicitly rather than silently assuming heights. Every other
    default but the carrier is the default of the component it feeds.
    Construction checks every value and builds each component once.
    """

    frequency_hz: float = 1899e6
    bandwidth_hz: float = LinkBudget.bandwidth_hz
    tx_power_dbm: float = LinkBudget.p_tx_dbm
    correction_tx_db: float = LinkBudget.side_correction_tx_db
    correction_rx_db: float = LinkBudget.side_correction_rx_db
    noise_figure_db: float = LinkBudget.noise_figure_db
    min_success_rate: float = ReliabilityThresholds.min_success_rate
    rssi_floor_indoor_dbm: float = ReliabilityThresholds.rssi_floor_indoor_dbm
    rssi_floor_outdoor_dbm: float = ReliabilityThresholds.rssi_floor_outdoor_dbm
    snr_floor_indoor_db: float = ReliabilityThresholds.snr_floor_indoor_db
    snr_floor_outdoor_db: float = ReliabilityThresholds.snr_floor_outdoor_db
    h_tx_m: float | None = None
    h_rx_m: float | None = None
    antenna_gain: float = AntennaGeometry.combined_gain
    city_size: str = HataEnvironment.city_size
    area_class: str = HataEnvironment.area_class

    def __post_init__(self) -> None:
        # Each component is built once, in field order, so the first bad field is reported; each
        # height is checked when set, the gain always. Thresholds fields are RunConfig fields.
        built = {
            "_frequency": Frequency(self.frequency_hz),
            "_budget": LinkBudget(
                p_tx_dbm=self.tx_power_dbm, side_correction_tx_db=self.correction_tx_db,
                side_correction_rx_db=self.correction_rx_db, bandwidth_hz=self.bandwidth_hz,
                noise_figure_db=self.noise_figure_db,
            ),
            "_thresholds": ReliabilityThresholds(
                **{f.name: getattr(self, f.name) for f in fields(ReliabilityThresholds)}
            ),
        }
        heights = (self.h_tx_m, self.h_rx_m)
        for name, height in zip(("h_tx_m", "h_rx_m"), heights):
            if height is not None:
                _require_positive(name, height)
        gain = _require_positive("antenna_gain", self.antenna_gain)
        built["_geometry"] = None if None in heights else AntennaGeometry(*heights, gain)
        built["_environment"] = HataEnvironment(self.city_size, self.area_class)
        for name, value in built.items():
            object.__setattr__(self, name, value)

    def budget(self) -> LinkBudget:
        return self._budget

    def thresholds(self) -> ReliabilityThresholds:
        return self._thresholds

    def geometry(self) -> AntennaGeometry | None:
        """Antenna geometry, or None when either height is unset."""
        return self._geometry

    def model(self, kind: str) -> PathLossModel:
        """Build a PathLossModel of the given kind from this configuration's components.

        Raises ValueError when the kind needs geometry and no heights are configured.
        """
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
