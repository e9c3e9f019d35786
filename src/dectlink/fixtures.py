"""Bundled reference data from a DECT-2020 NR measurement campaign.

Four small CSVs ship with the package: per-site maximum reliable distances
(indoor and outdoor), a published path-loss comparison for the longest
outdoor links, and the radio configuration the campaign used. Loaders
return typed rows; the comparison table keeps its published values
verbatim, inconsistencies included, so analysis code can decide what to
trust. The rows are immutable values on `propagation._Value`, compared,
hashed and shown over the fields their `__match_args__` name.
"""

from __future__ import annotations

from itertools import repeat
from pathlib import Path

from .propagation import _setattr, _Value
from .tabular import float_column, read_table

FIXTURE_FILES = (
    "indoor_locations.csv",
    "outdoor_locations.csv",
    "pathloss_comparison.csv",
    "system_parameters.csv",
)


def fixture_path(name: str) -> Path:
    """Filesystem path of a bundled fixture; raises ValueError for unknown names."""
    if name not in FIXTURE_FILES:
        raise ValueError(f"unknown fixture {name!r}; expected one of {FIXTURE_FILES}")
    return Path(__file__).with_name("data") / name


class ReferenceLocation(_Value):
    """One measured site: how far the link reached and the TX power it took."""

    __slots__ = __match_args__ = ("site", "setting", "propagation", "surroundings", "distance_m",
                                  "p_tx_dbm")

    def __init__(self, site: str, setting: str, propagation: str, surroundings: str,
                 distance_m: float, p_tx_dbm: float) -> None:
        for name, value in zip(self.__slots__, (site, setting, propagation, surroundings,
                                                distance_m, p_tx_dbm)):
            _setattr(self, name, value)


class PathLossComparisonRow(_Value):
    """Published per-site path loss next to four model predictions.

    Model columns are None where the campaign reported nothing. Values are
    as published; they do not always agree with the models evaluated at the
    stated distance.
    """

    __slots__ = __match_args__ = ("scenario", "distance_m", "height_diff_m", "emp_pcc_db",
                                  "emp_pdc_db", "fspl_db", "two_ray_db", "okumura_hata_db",
                                  "cost231_db")

    def __init__(self, scenario: str, distance_m: float, height_diff_m: float, emp_pcc_db: float,
                 emp_pdc_db: float, fspl_db: float | None, two_ray_db: float | None,
                 okumura_hata_db: float | None, cost231_db: float | None) -> None:
        for name, value in zip(self.__slots__, (scenario, distance_m, height_diff_m, emp_pcc_db,
                                                emp_pdc_db, fspl_db, two_ray_db, okumura_hata_db,
                                                cost231_db)):
            _setattr(self, name, value)


# The files carry every field but the setting, which each loader supplies.
_LOCATION_HEADER = tuple(name for name in ReferenceLocation.__match_args__ if name != "setting")


def _locations(name: str, setting: str) -> tuple[ReferenceLocation, ...]:
    numbers, (site, propagation, surroundings, distance, p_tx) = read_table(
        fixture_path(name), _LOCATION_HEADER
    )
    return tuple(
        map(
            ReferenceLocation,
            site,
            repeat(setting),
            propagation,
            surroundings,
            float_column(distance, numbers, "distance_m"),
            float_column(p_tx, numbers, "p_tx_dbm"),
        )
    )


def load_indoor_locations() -> tuple[ReferenceLocation, ...]:
    """Indoor sites: max reliable distance and minimum TX power per site."""
    return _locations("indoor_locations.csv", "indoor")


def load_outdoor_locations() -> tuple[ReferenceLocation, ...]:
    """Outdoor sites: max reliable distance and minimum TX power per site."""
    return _locations("outdoor_locations.csv", "outdoor")


def load_pathloss_comparison() -> tuple[PathLossComparisonRow, ...]:
    """The published long-range path-loss comparison, verbatim."""
    header = PathLossComparisonRow.__match_args__
    numbers, (scenario, *cells) = read_table(fixture_path("pathloss_comparison.csv"), header)
    # The four model columns, after the two empirical ones, may be unreported.
    values = [
        float_column(column, numbers, name, optional=i >= 4)
        for i, (name, column) in enumerate(zip(header[1:], cells))
    ]
    return tuple(map(PathLossComparisonRow, scenario, *values))


def load_system_parameters() -> dict[str, str]:
    """Campaign radio configuration as raw strings keyed by parameter name."""
    _, (keys, values) = read_table(fixture_path("system_parameters.csv"), ("key", "value"))
    return dict(zip(keys, values))
