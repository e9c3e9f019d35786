"""Path-loss models for DECT-2020 NR class link planning.

Implements the classic free-space, 3GPP indoor (InH-LOS / InF-LOS),
two-ray ground-reflection, Okumura-Hata and COST-231 Hata models behind a
single SI-unit surface: distances in meters, frequencies in Hz. Each model
converts internally to its native units (GHz, MHz, km) so callers never
have to.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

SPEED_OF_LIGHT = 299_792_458.0  # m/s

CITY_SIZES = ("small-medium", "large")
AREA_CLASSES = ("urban", "suburban-open")

# Canonical applicability ranges; evaluation outside them succeeds but is
# flagged (see PathLossModel.flags).
OKUMURA_HATA_FREQ_RANGE_MHZ = (150.0, 1500.0)
COST231_FREQ_RANGE_MHZ = (500.0, 2000.0)
HATA_TX_HEIGHT_RANGE_M = (30.0, 200.0)
HATA_DISTANCE_RANGE_KM = (1.0, 20.0)
# 3GPP TR 38.901 Table 7.4.1-1, LOS distance ranges of the indoor models.
INDOOR_DISTANCE_RANGE_M = {"inh-los": (1.0, 150.0), "inf-los": (1.0, 600.0)}


# The package's input rules, one helper each; every module checks its inputs with these.
def _require_finite(name: str, value: float) -> float:
    value = float(value)
    if not math.isfinite(value):
        raise ValueError(f"{name} must be finite, got {value!r}")
    return value


def _require_positive(name: str, value: float) -> float:
    value = float(value)
    if not math.isfinite(value) or value <= 0.0:
        raise ValueError(f"{name} must be a positive finite number, got {value!r}")
    return value


def _require_choice(name: str, value: str, choices: tuple[str, ...]) -> str:
    if value not in choices:
        raise ValueError(f"{name} must be one of {choices}, got {value!r}")
    return value


@dataclass(frozen=True)
class Frequency:
    """Carrier frequency stored canonically in Hz."""

    hz: float

    def __post_init__(self) -> None:
        _require_positive("frequency", self.hz)

    @classmethod
    def from_mhz(cls, mhz: float) -> "Frequency":
        return cls(float(mhz) * 1e6)

    @property
    def mhz(self) -> float:
        return self.hz / 1e6


@dataclass(frozen=True)
class AntennaGeometry:
    """TX/RX antenna heights and combined linear antenna gain.

    The gain is dimensionless (linear, not dB); 1.0 means unity combined
    TX-RX gain.
    """

    h_tx_m: float
    h_rx_m: float
    combined_gain: float = 1.0

    def __post_init__(self) -> None:
        _require_positive("h_tx_m", self.h_tx_m)
        _require_positive("h_rx_m", self.h_rx_m)
        _require_positive("combined_gain", self.combined_gain)


@dataclass(frozen=True)
class HataEnvironment:
    """Environment selectors for the Hata model family.

    city_size picks the mobile-antenna height correction formula,
    area_class picks the COST-231 area term (3 dB urban, 0 dB
    suburban/open).
    """

    city_size: str = "small-medium"
    area_class: str = "urban"

    def __post_init__(self) -> None:
        _require_choice("city_size", self.city_size, CITY_SIZES)
        _require_choice("area_class", self.area_class, AREA_CLASSES)

    @property
    def area_correction_db(self) -> float:
        return 3.0 if self.area_class == "urban" else 0.0

    def mobile_height_correction_db(self, f_mhz: float, h_rx_m: float) -> float:
        """Standard Hata mobile antenna height correction.

        Small/medium city: 0.8 + (1.1 log10 f - 0.7) h - 1.56 log10 f.
        Large city (f >= 400 MHz): 3.2 (log10(11.75 h))^2 - 4.97.
        """
        if self.city_size == "large":
            return 3.2 * math.log10(11.75 * h_rx_m) ** 2 - 4.97
        logf = math.log10(f_mhz)
        return 0.8 + (1.1 * logf - 0.7) * h_rx_m - 1.56 * logf


@dataclass(frozen=True)
class ValidityFlag:
    """Structured note that an evaluation sits outside a model's stated domain."""

    code: str
    detail: str

    def __str__(self) -> str:
        return f"{self.code}: {self.detail}"


# Distance-free terms (p, s, div, q1, q2) of one model: its loss at d m is
# ((p + s log10(d / div)) + q1) + q2, summed in that order so that every model
# rounds as its textbook formula does. div is 1e3 (d in km) only for Hata.
_Terms = tuple[float, float, float, float, float]


def _log_affine(d_m: float, terms: _Terms) -> float:
    """Path loss in dB at d_m (a checked distance) from a model's terms."""
    p, s, div, q1, q2 = terms
    return p + s * math.log10(d_m / div) + q1 + q2


def _frequency_in(f_hz: float, unit_hz: float, unit: str) -> float:
    """A checked frequency in a model's native unit, which must not round to 0 there."""
    value = _require_positive("frequency", f_hz) / unit_hz
    if value == 0.0:
        raise ValueError(f"frequency {float(f_hz)!r} Hz underflows to 0 {unit}")
    return value


def _fspl_terms(f_hz: float) -> _Terms:
    f_term = 20.0 * math.log10(_require_positive("frequency", f_hz))
    return 0.0, 20.0, 1.0, f_term, 20.0 * math.log10(4.0 * math.pi / SPEED_OF_LIGHT)


def _inh_los_terms(f_hz: float) -> _Terms:
    return 32.4, 17.3, 1.0, 20.0 * math.log10(_frequency_in(f_hz, 1e9, "GHz")), 0.0


def _inf_los_terms(f_hz: float) -> _Terms:
    return 31.84, 21.50, 1.0, 19.0 * math.log10(_frequency_in(f_hz, 1e9, "GHz")), 0.0


def _two_ray_terms(geometry: AntennaGeometry) -> _Terms:
    g = geometry
    try:
        heights = g.combined_gain * g.h_tx_m**2 * g.h_rx_m**2
    except OverflowError:  # float ** raises where float * would give inf
        heights = math.inf
    heights = _require_positive("combined_gain * h_tx_m**2 * h_rx_m**2", heights)
    return 0.0, 40.0, 1.0, -10.0 * math.log10(heights), 0.0


def _hata_terms(
    f_hz: float, geometry: AntennaGeometry, environment: HataEnvironment,
    base_db: float, freq_db_per_decade: float, area_db: float,
) -> _Terms:
    """The Hata-family terms shared by okumura_hata and cost231_hata."""
    f_mhz = _frequency_in(f_hz, 1e6, "MHz")
    h_b = geometry.h_tx_m
    c_h = environment.mobile_height_correction_db(f_mhz, geometry.h_rx_m)
    p = base_db + freq_db_per_decade * math.log10(f_mhz) - 13.82 * math.log10(h_b) - c_h
    return p, 44.9 - 6.55 * math.log10(h_b), 1e3, area_db, 0.0


def _okumura_hata_terms(f_hz: float, geometry: AntennaGeometry,
                        environment: HataEnvironment) -> _Terms:
    return _hata_terms(f_hz, geometry, environment, 69.55, 26.16, 0.0)


def _cost231_hata_terms(f_hz: float, geometry: AntennaGeometry,
                        environment: HataEnvironment) -> _Terms:
    return _hata_terms(f_hz, geometry, environment, 46.3, 33.9, environment.area_correction_db)


def fspl(d_m: float, f_hz: float) -> float:
    """Free-space path loss in dB.

    20 log10(d) + 20 log10(f) + 20 log10(4 pi / c), d in m, f in Hz.
    """
    return _log_affine(_require_positive("distance", d_m), _fspl_terms(f_hz))


def pl_inh_los(d_m: float, f_hz: float) -> float:
    """3GPP indoor-hotspot LOS path loss in dB: 32.4 + 17.3 log10(d) + 20 log10(f_GHz)."""
    return _log_affine(_require_positive("distance", d_m), _inh_los_terms(f_hz))


def pl_inf_los(d_m: float, f_hz: float) -> float:
    """3GPP indoor-factory LOS path loss in dB: 31.84 + 21.5 log10(d) + 19 log10(f_GHz)."""
    return _log_affine(_require_positive("distance", d_m), _inf_los_terms(f_hz))


def two_ray(d_m: float, geometry: AntennaGeometry) -> float:
    """Two-ray ground-reflection path loss (asymptotic far-field form) in dB.

    40 log10(d) - 10 log10(G h_tx^2 h_rx^2). Only physically meaningful
    beyond the crossover distance 4 pi h_tx h_rx / lambda; use
    two_ray_crossover_m / PathLossModel.flags to detect near-field use.
    """
    return _log_affine(_require_positive("distance", d_m), _two_ray_terms(geometry))


def two_ray_crossover_m(geometry: AntennaGeometry, f_hz: float) -> float:
    """Distance below which the asymptotic two-ray form is invalid."""
    wavelength_m = SPEED_OF_LIGHT / _require_positive("frequency", f_hz)
    return 4.0 * math.pi * geometry.h_tx_m * geometry.h_rx_m / wavelength_m


def okumura_hata(
    d_m: float,
    f_hz: float,
    geometry: AntennaGeometry,
    environment: HataEnvironment,
) -> float:
    """Okumura-Hata urban path loss in dB (f in MHz, d in km internally).

    69.55 + 26.16 log10(f) - 13.82 log10(h_b) - C_h
    + [44.9 - 6.55 log10(h_b)] log10(d_km)
    with C_h the mobile height correction selected by environment.city_size.
    """
    return _log_affine(_require_positive("distance", d_m),
                       _okumura_hata_terms(f_hz, geometry, environment))


def cost231_hata(
    d_m: float,
    f_hz: float,
    geometry: AntennaGeometry,
    environment: HataEnvironment,
) -> float:
    """COST-231 Hata path loss in dB (f in MHz, d in km internally).

    46.3 + 33.9 log10(f) - 13.82 log10(h_b) - a(h_m)
    + [44.9 - 6.55 log10(h_b)] log10(d_km) + C_m
    with C_m = 3 dB urban, 0 dB suburban/open.
    """
    return _log_affine(_require_positive("distance", d_m),
                       _cost231_hata_terms(f_hz, geometry, environment))


GEOMETRY_KINDS = ("two-ray", "okumura-hata", "cost231-hata")
HATA_KINDS = ("okumura-hata", "cost231-hata")

# kind -> model -> its terms, from the builder behind the kind's free function.
_TERM_BUILDERS = {
    "fspl": lambda m: _fspl_terms(m.frequency.hz),
    "inh-los": lambda m: _inh_los_terms(m.frequency.hz),
    "inf-los": lambda m: _inf_los_terms(m.frequency.hz),
    "two-ray": lambda m: _two_ray_terms(m.geometry),
    "okumura-hata": lambda m: _okumura_hata_terms(m.frequency.hz, m.geometry, m.environment),
    "cost231-hata": lambda m: _cost231_hata_terms(m.frequency.hz, m.geometry, m.environment),
}
MODEL_KINDS = tuple(_TERM_BUILDERS)

# kind -> (flag code, low, high, unit in m, detail given the value) of its stated distance
# range, bounds in the unit; a two-ray model's range starts at its crossover, FSPL has none.
_DISTANCE_RULES = {
    **{kind: ("distance-out-of-range", lo, hi, 1.0,
              "{{:.2f}} m outside {:.0f}-{:.0f} m".format(lo, hi))
       for kind, (lo, hi) in INDOOR_DISTANCE_RANGE_M.items()},
    **dict.fromkeys(HATA_KINDS, (
        "distance-out-of-range", *HATA_DISTANCE_RANGE_KM, 1e3,
        "{{:.3f}} km outside {:.0f}-{:.0f} km".format(*HATA_DISTANCE_RANGE_KM))),
}


@dataclass(frozen=True)
class PathLossModel:
    """One parameterized path-loss model, evaluable at any positive distance.

    Every supported model is affine in log10(distance):
    PL(d) = intercept_db + slope_db_per_decade * log10(d / 1 m). Construction
    resolves everything that does not depend on distance once: the terms the
    free function would build, both coefficients, the stated ranges that do
    not depend on distance, and the distance range. It fails unless the slope
    is positive, so PL strictly increases with distance, and unless a two-ray
    crossover distance is finite.

    Values are immutable after construction; evaluation is a pure function
    of (model, distance), safe for concurrent use.
    """

    kind: str
    frequency: Frequency
    geometry: AntennaGeometry | None = None
    environment: HataEnvironment | None = None
    intercept_db: float = field(init=False, compare=False, repr=False)
    slope_db_per_decade: float = field(init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        _require_choice("model kind", self.kind, MODEL_KINDS)
        if self.kind in GEOMETRY_KINDS and self.geometry is None:
            raise ValueError(f"model {self.kind!r} needs antenna heights; set h_tx_m and h_rx_m")
        if self.kind in HATA_KINDS and self.environment is None:
            raise ValueError(f"model {self.kind!r} requires a Hata environment")
        terms = _TERM_BUILDERS[self.kind](self)
        intercept = _log_affine(1.0, terms)
        slope = _log_affine(10.0, terms) - intercept
        if not slope > 0.0:
            raise ValueError(
                f"model {self.kind!r} must lose more with distance; got a slope of "
                f"{slope!r} dB per decade"
            )
        distance_rule, fixed_flags = _DISTANCE_RULES.get(self.kind), ()
        if self.kind == "two-ray":
            crossover = _require_finite(
                "two-ray crossover distance", two_ray_crossover_m(self.geometry, self.frequency.hz))
            detail = "distance {{:.2f}} m below two-ray crossover {:.2f} m".format(crossover)
            distance_rule = ("near-field", crossover, math.inf, 1.0, detail)
        elif self.kind in HATA_KINDS:
            f_range_mhz = (OKUMURA_HATA_FREQ_RANGE_MHZ if self.kind == "okumura-hata"
                           else COST231_FREQ_RANGE_MHZ)
            # (flag code, value, (low, high), detail given value, low, high)
            fixed = (
                ("frequency-out-of-range", self.frequency.mhz, f_range_mhz,
                 "{:.3f} MHz outside {:.0f}-{:.0f} MHz"),
                ("tx-height-out-of-range", self.geometry.h_tx_m, HATA_TX_HEIGHT_RANGE_M,
                 "h_tx {:.2f} m outside {:.0f}-{:.0f} m"),
            )
            fixed_flags = tuple(ValidityFlag(code, detail.format(value, lo, hi))
                                for code, value, (lo, hi), detail in fixed
                                if not lo <= value <= hi)
        object.__setattr__(self, "intercept_db", intercept)
        object.__setattr__(self, "slope_db_per_decade", slope)
        object.__setattr__(self, "_terms", terms)
        object.__setattr__(self, "_distance_rule", distance_rule)
        object.__setattr__(self, "_fixed_flags", fixed_flags)

    def path_loss(self, d_m: float) -> float:
        """Path loss in dB at distance d_m (meters), equal to the model's free function."""
        return _log_affine(_require_positive("distance", d_m), self._terms)

    def flags(self, d_m: float) -> tuple[ValidityFlag, ...]:
        """Out-of-domain notes for evaluating this model at d_m; empty if none.

        The stated ranges that do not depend on distance were checked at
        construction; this adds the one distance range, if the model has one.
        """
        d_m = _require_positive("distance", d_m)
        if self._distance_rule is None:
            return ()
        code, lo, hi, unit_m, detail = self._distance_rule
        value = d_m / unit_m
        if lo <= value <= hi:
            return self._fixed_flags
        return (*self._fixed_flags, ValidityFlag(code, detail.format(value)))


def evaluate_sweep(
    model: PathLossModel,
    d_start_m: float,
    d_end_m: float,
    points: int,
    spacing: str = "log",
) -> list[tuple[float, float]]:
    """Evaluate a model over a distance grid; returns (distance_m, pl_db) pairs.

    spacing is "linear" or "log"; endpoints are hit exactly, and a grid
    point that would overflow the float range is a ValueError. Losses come
    from the model's log-affine coefficients, so each agrees with
    model.path_loss(d) to rounding (well under 1e-9 dB).
    """
    d_start_m = _require_positive("d_start", d_start_m)
    d_end_m = _require_positive("d_end", d_end_m)
    if d_start_m >= d_end_m:
        raise ValueError(f"d_start ({d_start_m}) must be below d_end ({d_end_m})")
    if points < 2:
        raise ValueError(f"points must be >= 2, got {points}")
    _require_choice("spacing", spacing, ("linear", "log"))

    last = points - 1
    try:
        if spacing == "linear":
            span = d_end_m - d_start_m
            if math.isinf(span * (last - 1)):  # span * i is largest at i = last - 1
                raise OverflowError
            inner = [d_start_m + span * i / last for i in range(1, last)]
        else:
            lo, hi = math.log10(d_start_m), math.log10(d_end_m)
            inner = [10.0 ** (lo + (hi - lo) * i / last) for i in range(1, last)]
    except OverflowError:
        raise ValueError(
            f"a {spacing} sweep from {d_start_m!r} m to {d_end_m!r} m in {points} points "
            "overflows the float range"
        ) from None
    distances = [d_start_m, *inner, d_end_m]
    a, b = model.intercept_db, model.slope_db_per_decade
    return [(d, a + b * math.log10(d)) for d in distances]
