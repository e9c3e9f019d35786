"""Path-loss models for DECT-2020 NR class link planning.

Implements the classic free-space, 3GPP indoor (InH-LOS / InF-LOS),
two-ray ground-reflection, Okumura-Hata and COST-231 Hata models behind a
single SI-unit surface: distances in meters, frequencies in Hz. Each model
converts internally to its native units (GHz, MHz, km) so callers never
have to.
"""

from __future__ import annotations

import math
import operator

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
def _refused(name: str, rule: str, value: object, exc: Exception) -> ValueError:
    """The error for a value that float() refused, in the wording of the rule it fails."""
    # An int or Fraction beyond the float range has a repr hundreds of digits long, or none.
    got = "a value beyond the float range" if isinstance(exc, OverflowError) else repr(value)
    return ValueError(f"{name} must be {rule}, got {got}")


def _require_finite(name: str, value: float) -> float:
    try:
        value = float(value)
    except (TypeError, ValueError, OverflowError) as exc:
        raise _refused(name, "finite", value, exc) from None
    if not math.isfinite(value):
        raise ValueError(f"{name} must be finite, got {value!r}")
    return value


def _require_positive(name: str, value: float) -> float:
    try:
        value = float(value)
    except (TypeError, ValueError, OverflowError) as exc:
        raise _refused(name, "a positive finite number", value, exc) from None
    if not math.isfinite(value) or value <= 0.0:
        raise ValueError(f"{name} must be a positive finite number, got {value!r}")
    return value


def _require_choice(name: str, value: str, choices: tuple[str, ...]) -> str:
    if value not in choices:
        raise ValueError(f"{name} must be one of {choices}, got {value!r}")
    return value


# Stores a field or derived value of a _Value, whose own __setattr__ refuses every name.
_setattr = object.__setattr__


class _Value:
    """Base of the package's value classes: immutable, with slots, and built in one __init__.

    A subclass names its fields, in order, in __match_args__, as a dataclass
    does, and stores each with _setattr, together with any value it derives
    from them. Values compare, hash, repr, copy and pickle over the fields
    alone. A value equals only a value of its own class, never a tuple, and
    cannot be indexed: that is why these are not named tuples.
    """

    __slots__ = ()
    __match_args__: tuple[str, ...] = ()

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self.__match_args__])

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        shown = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__match_args__)
        return f"{type(self).__qualname__}({shown})"

    def __reduce__(self) -> tuple:
        # Rebuilt through __init__, which checks the fields again and derives the rest.
        return type(self), self._values()

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")


class Frequency(_Value):
    """Carrier frequency stored canonically in Hz, as a float."""

    __slots__ = __match_args__ = ("hz",)

    def __init__(self, hz: float) -> None:
        _setattr(self, "hz", _require_positive("frequency", hz))

    @classmethod
    def from_mhz(cls, mhz: float) -> "Frequency":
        mhz = _require_positive("mhz", mhz)
        hz = mhz * 1e6
        if hz == math.inf:
            raise ValueError(f"mhz {mhz!r} MHz overflows to inf Hz")
        return cls(hz)

    @property
    def mhz(self) -> float:
        return self.hz / 1e6


class AntennaGeometry(_Value):
    """TX/RX antenna heights and combined linear antenna gain.

    The gain is dimensionless (linear, not dB); 1.0 means unity combined
    TX-RX gain.
    """

    __slots__ = __match_args__ = ("h_tx_m", "h_rx_m", "combined_gain")

    def __init__(self, h_tx_m: float, h_rx_m: float, combined_gain: float = 1.0) -> None:
        _setattr(self, "h_tx_m", _require_positive("h_tx_m", h_tx_m))
        _setattr(self, "h_rx_m", _require_positive("h_rx_m", h_rx_m))
        _setattr(self, "combined_gain", _require_positive("combined_gain", combined_gain))


class HataEnvironment(_Value):
    """Environment selectors for the Hata model family.

    city_size picks the mobile-antenna height correction formula,
    area_class picks the COST-231 area term (3 dB urban, 0 dB
    suburban/open).
    """

    __slots__ = __match_args__ = ("city_size", "area_class")

    def __init__(self, city_size: str = "small-medium", area_class: str = "urban") -> None:
        _setattr(self, "city_size", _require_choice("city_size", city_size, CITY_SIZES))
        _setattr(self, "area_class", _require_choice("area_class", area_class, AREA_CLASSES))

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


class ValidityFlag(_Value):
    """Structured note that an evaluation sits outside a model's stated domain.

    ValidityFlag(code, detail) stores the detail text as given. The models
    build their flags another way, keeping a format template and the values
    that fill it, so detail is formatted only when it is read: evaluating
    and planning format no text. Both forms compare, hash, repr, copy and
    pickle over the same (code, detail) and equal each other when their
    texts do; a copy or pickle of a model's flag holds its text.
    """

    __match_args__ = ("code", "detail")
    # _args is None when _detail is the text; otherwise _detail is the template they fill.
    __slots__ = ("code", "_detail", "_args")

    def __init__(self, code: str, detail: str) -> None:
        _setattr(self, "code", code)
        _setattr(self, "_detail", detail)
        _setattr(self, "_args", None)

    @classmethod
    def _deferred(cls, code: str, template: str, args: tuple) -> "ValidityFlag":
        """The flag whose detail is template.format(*args), formatted when it is read."""
        flag = object.__new__(cls)
        _setattr(flag, "code", code)
        _setattr(flag, "_detail", template)
        _setattr(flag, "_args", args)
        return flag

    @property
    def detail(self) -> str:
        args = self._args
        return self._detail if args is None else self._detail.format(*args)

    def __str__(self) -> str:
        return f"{self.code}: {self.detail}"


# The law (a, b) of one model: its loss at d m is a + b log10(d), with a the loss
# at 1 m and b the dB per decade. Each model's builder below returns it.
def _loss_at(d_m: float, law: tuple[float, float]) -> float:
    """Path loss in dB at d_m (a checked distance) on a model's law."""
    a, b = law
    return a + b * math.log10(d_m)


def _frequency_in(f_hz: float, unit_hz: float, unit: str) -> float:
    """A checked frequency in a model's native unit, which must not round to 0 there."""
    value = _require_positive("frequency", f_hz) / unit_hz
    if value == 0.0:
        raise ValueError(f"frequency {float(f_hz)!r} Hz underflows to 0 {unit}")
    return value


def _fspl_law(f_hz: float) -> tuple[float, float]:
    f_term = 20.0 * math.log10(_require_positive("frequency", f_hz))
    return f_term + 20.0 * math.log10(4.0 * math.pi / SPEED_OF_LIGHT), 20.0


def _inh_los_law(f_hz: float) -> tuple[float, float]:
    return 32.4 + 20.0 * math.log10(_frequency_in(f_hz, 1e9, "GHz")), 17.3


def _inf_los_law(f_hz: float) -> tuple[float, float]:
    return 31.84 + 19.0 * math.log10(_frequency_in(f_hz, 1e9, "GHz")), 21.5


def _two_ray_law(geometry: AntennaGeometry) -> tuple[float, float]:
    g = geometry
    try:
        heights = g.combined_gain * g.h_tx_m**2 * g.h_rx_m**2
    except OverflowError:  # float ** raises where float * would give inf
        heights = math.inf
    heights = _require_positive("combined_gain * h_tx_m**2 * h_rx_m**2", heights)
    return -10.0 * math.log10(heights), 40.0


def _hata_law(
    f_hz: float, geometry: AntennaGeometry, environment: HataEnvironment,
    base_db: float, freq_db_per_decade: float, area_db: float,
) -> tuple[float, float]:
    """The Hata-family law shared by okumura_hata and cost231_hata.

    The textbook distance term b log10(d_km) is b log10(d) - 3 b, so -3 b
    joins the intercept.
    """
    f_mhz = _frequency_in(f_hz, 1e6, "MHz")
    h_b = geometry.h_tx_m
    c_h = environment.mobile_height_correction_db(f_mhz, geometry.h_rx_m)
    slope = 44.9 - 6.55 * math.log10(h_b)
    intercept = (base_db + freq_db_per_decade * math.log10(f_mhz) - 13.82 * math.log10(h_b)
                 - c_h + area_db - 3.0 * slope)
    return intercept, slope


def _okumura_hata_law(f_hz: float, geometry: AntennaGeometry,
                      environment: HataEnvironment) -> tuple[float, float]:
    return _hata_law(f_hz, geometry, environment, 69.55, 26.16, 0.0)


def _cost231_hata_law(f_hz: float, geometry: AntennaGeometry,
                      environment: HataEnvironment) -> tuple[float, float]:
    return _hata_law(f_hz, geometry, environment, 46.3, 33.9, environment.area_correction_db)


def fspl(d_m: float, f_hz: float) -> float:
    """Free-space path loss in dB.

    20 log10(d) + 20 log10(f) + 20 log10(4 pi / c), d in m, f in Hz.
    """
    return _loss_at(_require_positive("distance", d_m), _fspl_law(f_hz))


def pl_inh_los(d_m: float, f_hz: float) -> float:
    """3GPP indoor-hotspot LOS path loss in dB: 32.4 + 17.3 log10(d) + 20 log10(f_GHz)."""
    return _loss_at(_require_positive("distance", d_m), _inh_los_law(f_hz))


def pl_inf_los(d_m: float, f_hz: float) -> float:
    """3GPP indoor-factory LOS path loss in dB: 31.84 + 21.5 log10(d) + 19 log10(f_GHz)."""
    return _loss_at(_require_positive("distance", d_m), _inf_los_law(f_hz))


def two_ray(d_m: float, geometry: AntennaGeometry) -> float:
    """Two-ray ground-reflection path loss (asymptotic far-field form) in dB.

    40 log10(d) - 10 log10(G h_tx^2 h_rx^2). Only physically meaningful
    beyond the crossover distance 4 pi h_tx h_rx / lambda; use
    two_ray_crossover_m / PathLossModel.flags to detect near-field use.
    """
    return _loss_at(_require_positive("distance", d_m), _two_ray_law(geometry))


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
    return _loss_at(_require_positive("distance", d_m),
                    _okumura_hata_law(f_hz, geometry, environment))


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
    return _loss_at(_require_positive("distance", d_m),
                    _cost231_hata_law(f_hz, geometry, environment))


GEOMETRY_KINDS = ("two-ray", "okumura-hata", "cost231-hata")
HATA_KINDS = ("okumura-hata", "cost231-hata")

# kind -> model -> its law, from the builder behind the kind's free function.
_LAW_BUILDERS = {
    "fspl": lambda m: _fspl_law(m.frequency.hz),
    "inh-los": lambda m: _inh_los_law(m.frequency.hz),
    "inf-los": lambda m: _inf_los_law(m.frequency.hz),
    "two-ray": lambda m: _two_ray_law(m.geometry),
    "okumura-hata": lambda m: _okumura_hata_law(m.frequency.hz, m.geometry, m.environment),
    "cost231-hata": lambda m: _cost231_hata_law(m.frequency.hz, m.geometry, m.environment),
}
MODEL_KINDS = tuple(_LAW_BUILDERS)

# kind -> (flag code, low, high, unit in m, detail template) of its stated distance range,
# bounds in the unit; a two-ray model's range starts at its crossover, FSPL has none. Each
# template is filled with (distance in the unit, low, high) when a flag's detail is read.
_DISTANCE_RULES = {
    **{kind: ("distance-out-of-range", lo, hi, 1.0, "{:.2f} m outside {:.0f}-{:.0f} m")
       for kind, (lo, hi) in INDOOR_DISTANCE_RANGE_M.items()},
    **dict.fromkeys(HATA_KINDS, ("distance-out-of-range", *HATA_DISTANCE_RANGE_KM, 1e3,
                                 "{:.3f} km outside {:.0f}-{:.0f} km")),
}


class PathLossModel(_Value):
    """One parameterized path-loss model, evaluable at any positive distance.

    Every supported model is one law, PL(d) = a + b log10(d / 1 m), stored as
    intercept_db (a, the loss at 1 m) and slope_db_per_decade (b). The law
    comes from the builder behind the kind's free function, so path_loss,
    that function and evaluate_sweep give the same loss bit for bit, and
    distance_for_path_loss inverts the same law. Construction also resolves
    the stated ranges that do not depend on distance and the distance range.
    It fails unless the slope is positive, so PL strictly increases with
    distance, and unless a two-ray crossover distance is finite.

    Neither construction nor flags formats text: each flag keeps its detail
    template and the values that fill it (the value found outside its range
    and the range's bounds), and formats the detail only when it is read.

    Values are immutable after construction; evaluation is a pure function
    of (model, distance), safe for concurrent use.
    """

    __match_args__ = ("kind", "frequency", "geometry", "environment")
    __slots__ = (*__match_args__, "intercept_db", "slope_db_per_decade", "_distance_rule",
                 "_fixed_flags")

    def __init__(
        self,
        kind: str,
        frequency: Frequency,
        geometry: AntennaGeometry | None = None,
        environment: HataEnvironment | None = None,
    ) -> None:
        _require_choice("model kind", kind, MODEL_KINDS)
        if kind in GEOMETRY_KINDS and geometry is None:
            raise ValueError(f"model {kind!r} needs antenna heights; set h_tx_m and h_rx_m")
        if kind in HATA_KINDS and environment is None:
            raise ValueError(f"model {kind!r} requires a Hata environment")
        _setattr(self, "kind", kind)
        _setattr(self, "frequency", frequency)
        _setattr(self, "geometry", geometry)
        _setattr(self, "environment", environment)
        intercept, slope = _LAW_BUILDERS[kind](self)
        if not slope > 0.0:
            raise ValueError(
                f"model {kind!r} must lose more with distance; got a slope of "
                f"{slope!r} dB per decade"
            )
        distance_rule, fixed_flags = _DISTANCE_RULES.get(kind), ()
        if kind == "two-ray":
            crossover = _require_finite(
                "two-ray crossover distance", two_ray_crossover_m(geometry, frequency.hz))
            distance_rule = ("near-field", crossover, math.inf, 1.0,
                             "distance {:.2f} m below two-ray crossover {:.2f} m")
        elif kind in HATA_KINDS:
            f_mhz, h_tx = frequency.mhz, geometry.h_tx_m
            lo, hi = (OKUMURA_HATA_FREQ_RANGE_MHZ if kind == "okumura-hata"
                      else COST231_FREQ_RANGE_MHZ)
            if not lo <= f_mhz <= hi:
                fixed_flags = (ValidityFlag._deferred(
                    "frequency-out-of-range", "{:.3f} MHz outside {:.0f}-{:.0f} MHz",
                    (f_mhz, lo, hi)),)
            lo, hi = HATA_TX_HEIGHT_RANGE_M
            if not lo <= h_tx <= hi:
                fixed_flags += (ValidityFlag._deferred(
                    "tx-height-out-of-range", "h_tx {:.2f} m outside {:.0f}-{:.0f} m",
                    (h_tx, lo, hi)),)
        _setattr(self, "intercept_db", intercept)
        _setattr(self, "slope_db_per_decade", slope)
        _setattr(self, "_distance_rule", distance_rule)
        _setattr(self, "_fixed_flags", fixed_flags)

    def path_loss(self, d_m: float) -> float:
        """Path loss in dB at distance d_m (meters), equal to the model's free function."""
        d_m = _require_positive("distance", d_m)
        return self.intercept_db + self.slope_db_per_decade * math.log10(d_m)

    def flags(self, d_m: float) -> tuple[ValidityFlag, ...]:
        """Out-of-domain notes for evaluating this model at d_m; empty if none.

        The stated ranges that do not depend on distance were checked at
        construction; this adds the one distance range, if the model has one.
        """
        d_m = _require_positive("distance", d_m)
        if self._distance_rule is None:
            return ()
        code, lo, hi, unit_m, template = self._distance_rule
        value = d_m / unit_m
        if lo <= value <= hi:
            return self._fixed_flags
        return (*self._fixed_flags, ValidityFlag._deferred(code, template, (value, lo, hi)))


def evaluate_sweep(
    model: PathLossModel,
    d_start_m: float,
    d_end_m: float,
    points: int,
    spacing: str = "log",
) -> list[tuple[float, float]]:
    """Evaluate a model over a distance grid; returns (distance_m, pl_db) pairs.

    spacing is "linear" or "log"; endpoints are hit exactly, and a grid
    point that would overflow the float range is a ValueError. Each loss is
    a + b log10(d) on the model's law, equal to model.path_loss(d) bit for bit.
    """
    d_start_m = _require_positive("d_start", d_start_m)
    d_end_m = _require_positive("d_end", d_end_m)
    if d_start_m >= d_end_m:
        raise ValueError(f"d_start ({d_start_m}) must be below d_end ({d_end_m})")
    try:
        last = operator.index(points) - 1
    except TypeError:
        raise ValueError(f"points must be an integer, got {points!r}") from None
    if last < 1:
        raise ValueError(f"points must be >= 2, got {points}")
    _require_choice("spacing", spacing, ("linear", "log"))

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
