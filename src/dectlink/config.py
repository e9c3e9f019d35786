"""Run configuration: defaults, config files, and override precedence.

A run is parameterized by one flat RunConfig. Values resolve in strict
precedence order: explicit overrides (CLI flags) beat the config file,
which beats the built-in defaults. The config file is plain key=value
lines, one per RunConfig field, with '#' comments as `dectlink.tabular`
reads them; DECTLINK_CONFIG names a default file path.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Any, Mapping

from .budget import LinkBudget, ReliabilityThresholds
from .propagation import (
    GEOMETRY_KINDS,
    HATA_KINDS,
    AntennaGeometry,
    Frequency,
    HataEnvironment,
    PathLossModel,
)
from .tabular import field_parsers, parse_key_values

CONFIG_ENV_VAR = "DECTLINK_CONFIG"


@dataclass(frozen=True)
class RunConfig:
    """Everything a planning or analysis run needs, in one flat record.

    Antenna heights default to None: models that need geometry must be
    given it explicitly rather than silently assuming heights.
    """

    frequency_hz: float = 1899e6
    bandwidth_hz: float = 1.728e6
    tx_power_dbm: float = 0.0
    correction_tx_db: float = 1.0
    correction_rx_db: float = 1.0
    noise_figure_db: float = 10.0
    min_success_rate: float = 90.0
    rssi_floor_indoor_dbm: float = -90.0
    rssi_floor_outdoor_dbm: float = -95.0
    snr_floor_indoor_db: float = 11.5
    snr_floor_outdoor_db: float = 13.5
    h_tx_m: float | None = None
    h_rx_m: float | None = None
    antenna_gain: float = 1.0
    city_size: str = "small-medium"
    area_class: str = "urban"

    def budget(self) -> LinkBudget:
        return LinkBudget(
            p_tx_dbm=self.tx_power_dbm,
            side_correction_tx_db=self.correction_tx_db,
            side_correction_rx_db=self.correction_rx_db,
            bandwidth_hz=self.bandwidth_hz,
            noise_figure_db=self.noise_figure_db,
        )

    def thresholds(self) -> ReliabilityThresholds:
        return ReliabilityThresholds(
            min_success_rate=self.min_success_rate,
            rssi_floor_indoor_dbm=self.rssi_floor_indoor_dbm,
            rssi_floor_outdoor_dbm=self.rssi_floor_outdoor_dbm,
            snr_floor_indoor_db=self.snr_floor_indoor_db,
            snr_floor_outdoor_db=self.snr_floor_outdoor_db,
        )

    def geometry(self) -> AntennaGeometry | None:
        """Antenna geometry, or None when either height is unset."""
        if self.h_tx_m is None or self.h_rx_m is None:
            return None
        return AntennaGeometry(self.h_tx_m, self.h_rx_m, self.antenna_gain)

    def hata_environment(self) -> HataEnvironment:
        return HataEnvironment(city_size=self.city_size, area_class=self.area_class)

    def model(self, kind: str) -> PathLossModel:
        """Build a PathLossModel of the given kind from this configuration.

        Raises ValueError when the kind needs geometry and no heights are
        configured.
        """
        geometry = self.geometry()
        if kind in GEOMETRY_KINDS and geometry is None:
            raise ValueError(
                f"model {kind!r} needs antenna heights; set h_tx_m and h_rx_m"
            )
        return PathLossModel(
            kind=kind,
            frequency=Frequency(self.frequency_hz),
            geometry=geometry,
            environment=self.hata_environment() if kind in HATA_KINDS else None,
        )


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
    argparse results straight through.
    """
    merged: dict[str, Any] = {}
    if path is not None:
        path = Path(path)
        merged.update(parse_config_text(path.read_text(encoding="utf-8-sig"), source=path.name))
    if overrides:
        for key, value in overrides.items():
            if key not in _PARSERS:
                raise ValueError(f"unknown config key {key!r}")
            if value is not None:
                merged[key] = value
    return RunConfig(**merged)
