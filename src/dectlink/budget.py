"""Link-budget arithmetic and reachable-distance solving.

Ties a transmit-side power budget to a path-loss model and a set of
reliability thresholds, answering two questions: what RX power / SNR do we
predict at a given distance, and how far can the link stretch before a
threshold is violated. The second is answered in closed form by inverting
the model's log-affine law, clamped to 0.1 m - 1e6 m. A LinkBudget and a
PathLossModel each derive what does not depend on distance when they are
built, so a prediction evaluates the model once and adds a few terms.
"""

from __future__ import annotations

import math

from .propagation import (
    PathLossModel, _refused, _require_choice, _require_finite, _require_positive, _setattr,
    _Value,
)

ENVIRONMENTS = ("indoor", "outdoor")

# Thermal noise density at 290 K, dBm/Hz.
THERMAL_NOISE_DBM_HZ = -174.0


class ThresholdUnreachable(Exception):
    """No positive distance satisfies the requested threshold."""


def _require_percent(name: str, value: float) -> float:
    try:
        value = float(value)
    except (TypeError, ValueError, OverflowError) as exc:
        raise _refused(name, "in [0, 100]", value, exc) from None
    if not 0.0 <= value <= 100.0:  # NaN fails this too
        raise ValueError(f"{name} must be in [0, 100], got {value!r}")
    return value


class LinkBudget(_Value):
    """Transmit power plus per-side correction terms and receiver noise profile.

    Corrections fold antenna gain and cable loss into one signed dB term per
    side (gain minus loss); the default +1 dB per side models a small
    monopole with negligible feed loss. Construction derives their sum,
    total_correction_db, which must not overflow, and the receiver noise floor,
    -174 + 10 log10(BW) + NF in dBm, once.
    """

    __match_args__ = ("p_tx_dbm", "side_correction_tx_db", "side_correction_rx_db",
                      "bandwidth_hz", "noise_figure_db")
    __slots__ = (*__match_args__, "total_correction_db", "noise_floor_dbm")

    def __init__(
        self,
        p_tx_dbm: float = 0.0,
        side_correction_tx_db: float = 1.0,
        side_correction_rx_db: float = 1.0,
        bandwidth_hz: float = 1.728e6,
        noise_figure_db: float = 10.0,
    ) -> None:
        bandwidth_hz = _require_positive("bandwidth_hz", bandwidth_hz)
        p_tx_dbm = _require_finite("p_tx_dbm", p_tx_dbm)
        side_correction_tx_db = _require_finite("side_correction_tx_db", side_correction_tx_db)
        side_correction_rx_db = _require_finite("side_correction_rx_db", side_correction_rx_db)
        noise_figure_db = _require_finite("noise_figure_db", noise_figure_db)
        total = _require_finite("side_correction_tx_db + side_correction_rx_db",
                                side_correction_tx_db + side_correction_rx_db)
        _setattr(self, "p_tx_dbm", p_tx_dbm)
        _setattr(self, "side_correction_tx_db", side_correction_tx_db)
        _setattr(self, "side_correction_rx_db", side_correction_rx_db)
        _setattr(self, "bandwidth_hz", bandwidth_hz)
        _setattr(self, "noise_figure_db", noise_figure_db)
        _setattr(self, "total_correction_db", total)
        _setattr(self, "noise_floor_dbm",
                 THERMAL_NOISE_DBM_HZ + 10.0 * math.log10(bandwidth_hz) + noise_figure_db)


class ReliabilityThresholds(_Value):
    """Floors a link must clear to count as reliable.

    Success rate is compared strictly: sr must exceed min_success_rate, so a
    link sitting exactly on the floor does not qualify.
    """

    __slots__ = __match_args__ = ("min_success_rate", "rssi_floor_indoor_dbm",
                                  "rssi_floor_outdoor_dbm", "snr_floor_indoor_db",
                                  "snr_floor_outdoor_db")

    def __init__(
        self,
        min_success_rate: float = 90.0,
        rssi_floor_indoor_dbm: float = -90.0,
        rssi_floor_outdoor_dbm: float = -95.0,
        snr_floor_indoor_db: float = 11.5,
        snr_floor_outdoor_db: float = 13.5,
    ) -> None:
        _setattr(self, "min_success_rate", _require_percent("min_success_rate", min_success_rate))
        floors = (rssi_floor_indoor_dbm, rssi_floor_outdoor_dbm, snr_floor_indoor_db,
                  snr_floor_outdoor_db)
        for name, value in zip(self.__match_args__[1:], floors):
            _setattr(self, name, _require_finite(name, value))

    def rssi_floor_dbm(self, environment: str) -> float:
        _require_choice("environment", environment, ENVIRONMENTS)
        return self.rssi_floor_indoor_dbm if environment == "indoor" else self.rssi_floor_outdoor_dbm

    def snr_floor_db(self, environment: str) -> float:
        _require_choice("environment", environment, ENVIRONMENTS)
        return self.snr_floor_indoor_db if environment == "indoor" else self.snr_floor_outdoor_db


def is_reliable(success_rate_pct: float, thresholds: ReliabilityThresholds) -> bool:
    """True iff the success rate strictly exceeds the configured minimum."""
    return _require_percent("success_rate_pct", success_rate_pct) > thresholds.min_success_rate


def empirical_pl(p_tx_dbm: float, p_rx_dbm: float, budget: LinkBudget) -> float:
    """Measured path loss from TX and RX powers plus both side corrections."""
    _require_finite("p_tx_dbm", p_tx_dbm)
    _require_finite("p_rx_dbm", p_rx_dbm)
    pl = p_tx_dbm - p_rx_dbm + budget.total_correction_db
    return _require_finite("p_tx_dbm - p_rx_dbm + total_correction_db", pl)


def predict_rx_power_dbm(budget: LinkBudget, model: PathLossModel, d_m: float) -> float:
    """Predicted RX power at d_m: p_tx + corrections - model path loss."""
    return budget.p_tx_dbm + budget.total_correction_db - model.path_loss(d_m)


def predict_snr_db(budget: LinkBudget, model: PathLossModel, d_m: float) -> float:
    """Predicted SNR at d_m: predicted RX power minus the noise floor."""
    return predict_rx_power_dbm(budget, model, d_m) - budget.noise_floor_dbm


# The solver's explicit clamps: a threshold whose loss is already exceeded
# at 0.1 m is unreachable, and answers beyond SOLVE_CAP_M are capped at
# exactly SOLVE_CAP_M.
_SOLVE_D_MIN_M = 0.1
SOLVE_CAP_M = 1.0e6
_SOLVE_LOG_D_MIN = math.log10(_SOLVE_D_MIN_M)  # exactly -1.0
_SOLVE_LOG_D_MAX = math.log10(SOLVE_CAP_M)  # exactly 6.0


def distance_for_path_loss(model: PathLossModel, target_pl_db: float) -> float:
    """Largest distance (m) where model path loss stays <= target_pl_db.

    Every model is PL(d) = a + b log10(d) with slope b > 0, so this is the
    unique crossing point d = 10**((target - a) / b), in closed form.
    Raises ThresholdUnreachable exactly when the loss at 0.1 m,
    a - b == model.path_loss(0.1), exceeds the target; answers beyond 1e6 m
    are capped at exactly 1e6 m.
    """
    return _distance_for(model, _require_finite("target_pl_db", target_pl_db))


def _distance_for(model: PathLossModel, target_pl_db: float) -> float:
    """distance_for_path_loss on a target already proved finite."""
    a, b = model.intercept_db, model.slope_db_per_decade
    pl_min = a + b * _SOLVE_LOG_D_MIN  # a - b, bit for bit path_loss(0.1)
    if pl_min > target_pl_db:
        raise ThresholdUnreachable(
            f"path loss at {_SOLVE_D_MIN_M} m already {pl_min:.2f} dB, "
            f"above the allowed {target_pl_db:.2f} dB"
        )
    log_d = (target_pl_db - a) / b
    return 10.0 ** min(max(log_d, _SOLVE_LOG_D_MIN), _SOLVE_LOG_D_MAX)


def allowed_path_loss_db(
    budget: LinkBudget,
    thresholds: ReliabilityThresholds,
    environment: str,
    criterion: str = "rssi",
) -> float:
    """Largest tolerable path loss before the given criterion's floor is hit.

    criterion "rssi" budgets against the environment's RSSI floor, "snr"
    against the SNR floor sitting on top of the receiver noise floor. Raises
    ValueError, naming the terms, when the result overflows.
    """
    if criterion == "rssi":
        floor = thresholds.rssi_floor_dbm(environment)
    elif criterion == "snr":
        floor = budget.noise_floor_dbm + thresholds.snr_floor_db(environment)
    else:
        raise ValueError(f"criterion must be 'rssi' or 'snr', got {criterion!r}")
    allowed = budget.p_tx_dbm + budget.total_correction_db - floor
    if math.isfinite(allowed):
        return allowed
    # The message is built only on failure: planning calls this once per reach.
    terms = (f"rssi_floor_{environment}_dbm" if criterion == "rssi"
             else f"(noise_floor_dbm + snr_floor_{environment}_db)")
    raise ValueError(f"p_tx_dbm + total_correction_db - {terms} must be finite, got {allowed!r}")


def max_link_distance(
    budget: LinkBudget,
    model: PathLossModel,
    thresholds: ReliabilityThresholds,
    environment: str,
    criterion: str = "rssi",
) -> float:
    """Max distance (m) keeping predicted RX power / SNR at or above its floor.

    Raises ThresholdUnreachable when no distance qualifies.
    """
    # allowed_path_loss_db returns only a finite loss, so the target is not checked again.
    return _distance_for(model, allowed_path_loss_db(budget, thresholds, environment, criterion))
