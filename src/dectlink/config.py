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
from .propagation import HATA_KINDS, AntennaGeometry, Frequency, HataEnvironment, PathLossModel
from .tabular import field_parsers, parse_key_values

CONFIG_ENV_VAR = "DECTLINK_CONFIG"


@dataclass(frozen=True)
class RunConfig:
    """Everything a planning or analysis run needs, in one flat record.

    Antenna heights default to None: models that need geometry must be
    given it explicitly rather than silently assuming heights. Every other
    default but the carrier is the default of the component it feeds.
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
        return PathLossModel(
            kind=kind,
            frequency=Frequency(self.frequency_hz),
            geometry=self.geometry(),
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
