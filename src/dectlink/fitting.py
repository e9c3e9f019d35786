"""Fitting measured path loss to the log-distance law.

Two independent routes to the same answer: a closed-form linear
least-squares fit (the law is linear in its parameters once distance is
log-transformed) and a damped Gauss-Newton iteration from a fixed start.
Keeping both lets each check the other. Both are plain Python.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field
from typing import Sequence

from .propagation import _require_finite, _require_positive

_OVERFLOW = "the squared residuals overflow; the path-loss values are too large to fit"


@dataclass(frozen=True)
class LogDistanceModel:
    """PL(d) = pl0 + 10 n log10(d / d0), the standard log-distance law."""

    pl0_db: float
    exponent: float
    d0_m: float = 1.0

    def __post_init__(self) -> None:
        _require_finite("pl0_db", self.pl0_db)
        _require_finite("exponent", self.exponent)
        _require_positive("d0_m", self.d0_m)

    def path_loss(self, d_m: float) -> float:
        d_m = _require_positive("distance", d_m)
        return self.pl0_db + 10.0 * self.exponent * math.log10(d_m / self.d0_m)


@dataclass(frozen=True)
class FitResult:
    """Outcome of a fit: parameters plus residual diagnostics.

    iterations is 0 for the closed-form route. cost_history holds the
    accepted sum-of-squares trajectory for iterative fits (starting cost
    first) and is empty for closed-form fits.
    """

    params: tuple[float, ...]
    rmse_db: float
    residuals_db: tuple[float, ...]
    iterations: int
    converged: bool
    model: LogDistanceModel | None = None
    cost_history: tuple[float, ...] = field(default=())


def _validated_points(
    points: Sequence[tuple[float, float]], d0_m: float
) -> tuple[list[float], list[float]]:
    """(10 log10(d / d0) per point, path losses); at least two distances must differ."""
    _require_positive("d0_m", d0_m)
    if len(points) < 2:
        raise ValueError(f"need at least 2 points to fit, got {len(points)}")
    d = [float(p[0]) for p in points]
    y = [float(p[1]) for p in points]
    if not all(math.isfinite(v) and v > 0.0 for v in d):
        raise ValueError("all distances must be positive and finite")
    if not all(map(math.isfinite, y)):
        raise ValueError("all path-loss values must be finite")
    if len(set(d)) < 2:
        raise ValueError("need at least 2 distinct distances to determine the exponent")
    return [10.0 * math.log10(v / d0_m) for v in d], y


def fit_log_distance(points: Sequence[tuple[float, float]], d0_m: float = 1.0) -> FitResult:
    """Closed-form least-squares fit of (distance_m, pl_db) points.

    Solves the linear problem directly from centred sums: no iteration and
    no starting guess. Requires at least two distinct distances, otherwise
    the slope is undetermined.
    """
    x, y = _validated_points(points, d0_m)
    n = len(x)
    try:
        x_mean = math.fsum(x) / n
        y_mean = math.fsum(y) / n
        dx = [v - x_mean for v in x]
        exponent = math.fsum([a * (b - y_mean) for a, b in zip(dx, y)]) / math.fsum(
            [a * a for a in dx]
        )
        pl0 = y_mean - exponent * x_mean
        residuals = [b - (pl0 + exponent * a) for a, b in zip(x, y)]
        cost = math.fsum([r * r for r in residuals])
    except (OverflowError, ValueError):  # a sum overflows, or adds inf to -inf
        cost = math.inf
    if not math.isfinite(cost):
        raise ValueError(_OVERFLOW)
    return FitResult(
        params=(pl0, exponent),
        rmse_db=math.sqrt(cost / n),
        residuals_db=tuple(residuals),
        iterations=0,
        converged=True,
        model=LogDistanceModel(pl0, exponent, d0_m),
    )


_MAX_ITER = 200
_COST_TOL = 1e-10
_DAMPING_START = 1e-3
_DAMPING_MIN = 1e-12
_DAMPING_MAX = 1e12


def fit_log_distance_iterative(
    points: Sequence[tuple[float, float]],
    d0_m: float = 1.0,
    initial: Sequence[float] = (40.0, 2.0),
) -> FitResult:
    """Damped Gauss-Newton fit of the log-distance law; must agree with the closed form.

    The Jacobian row of each point is (1, 10 log10(d / d0)), so J'J is the
    constant [[N, sum x], [sum x, sum x^2]]. Each iteration solves
    (J'J + lambda I) delta = J'r by Cramer's rule and only accepts steps that
    do not increase the sum of squared residuals; the damping factor shrinks
    tenfold on acceptance and grows tenfold on rejection or a singular
    system. Stops when the relative cost improvement drops below _COST_TOL.
    """
    x, y = _validated_points(points, d0_m)
    if len(initial) != 2:
        raise ValueError(f"initial must hold 2 values (pl0_db, exponent), got {len(initial)}")
    pl0 = _require_finite("initial pl0_db", initial[0])
    n = _require_finite("initial exponent", initial[1])
    count, sx, sxx = len(x), math.fsum(x), math.fsum([a * a for a in x])

    def residuals_at(pl0: float, n: float) -> list[float]:
        return [b - (pl0 + n * a) for a, b in zip(x, y)]

    residuals = residuals_at(pl0, n)
    cost = sum(r * r for r in residuals)  # inf, not an exception, when it overflows
    if not math.isfinite(cost):
        raise ValueError(_OVERFLOW)
    history = [cost]
    damping = _DAMPING_START
    converged = False
    iterations = 0

    for iterations in range(1, _MAX_ITER + 1):
        g0 = math.fsum(residuals)
        g1 = math.fsum([a * r for a, r in zip(x, residuals)])

        while damping <= _DAMPING_MAX:
            h00, h11 = count + damping, sxx + damping
            det = h00 * h11 - sx * sx
            if det <= 0.0:
                damping *= 10.0
                continue
            candidate = (pl0 + (g0 * h11 - sx * g1) / det, n + (h00 * g1 - sx * g0) / det)
            new_residuals = residuals_at(*candidate)
            new_cost = sum(r * r for r in new_residuals)
            if new_cost <= cost:
                break
            damping *= 10.0
        else:  # no damping up to _DAMPING_MAX gave a step that does not raise the cost
            break

        improvement = (cost - new_cost) / max(cost, sys.float_info.min)
        (pl0, n), cost, residuals = candidate, new_cost, new_residuals
        history.append(cost)
        damping = max(damping / 10.0, _DAMPING_MIN)
        if improvement < _COST_TOL:
            converged = True
            break

    return FitResult(params=(pl0, n), rmse_db=math.sqrt(cost / count),
                     residuals_db=tuple(residuals), iterations=iterations, converged=converged,
                     model=LogDistanceModel(pl0, n, d0_m), cost_history=tuple(history))
