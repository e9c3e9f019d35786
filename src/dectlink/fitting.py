"""Fitting measured path loss to the log-distance law PL(d) = pl0 + 10 n log10(d / d0).

A closed-form linear least-squares fit and a damped Gauss-Newton iteration
reach the same answer by independent routes, so each checks the other. Both
take their points through one check: losses within +-1000 dB, where no sum
overflows, and log-distances 10 log10(d / d0) that span at least 1e-6 dB.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field
from typing import Sequence

from .propagation import _require_finite, _require_positive

# Far beyond any real link: the bundled campaign's largest loss is 120.61 dB.
_MAX_ABS_PL_DB = 1000.0
# Log-distances closer than this leave the exponent to the rounding of the losses.
_MIN_SPREAD_DB = 1e-6


@dataclass(frozen=True)
class FitResult:
    """Outcome of a fit: parameters (pl0_db, exponent) plus residual diagnostics.

    iterations is 0 for the closed-form route. cost_history holds the
    accepted sum-of-squares trajectory for iterative fits (starting cost
    first) and is empty for closed-form fits.
    """

    params: tuple[float, ...]
    rmse_db: float
    residuals_db: tuple[float, ...]
    iterations: int
    converged: bool
    cost_history: tuple[float, ...] = field(default=())


def _validated_points(
    points: Sequence[tuple[float, float]], d0_m: float
) -> tuple[list[float], list[float]]:
    """(10 (log10 d - log10 d0) per point, path losses): the one check for both engines."""
    log_d0 = math.log10(_require_positive("d0_m", d0_m))
    if len(points) < 2:
        raise ValueError(f"need at least 2 points to fit, got {len(points)}")
    d = [float(p[0]) for p in points]
    y = [float(p[1]) for p in points]
    if not all(math.isfinite(v) and v > 0.0 for v in d):
        raise ValueError("all distances must be positive and finite")
    if not all(abs(v) <= _MAX_ABS_PL_DB for v in y):  # also false for nan
        raise ValueError(f"all path-loss values must be at most {_MAX_ABS_PL_DB:g} dB in magnitude")
    x = [10.0 * (math.log10(v) - log_d0) for v in d]
    if max(x) - min(x) < _MIN_SPREAD_DB:
        raise ValueError("need at least 2 distinct distances to determine the exponent")
    return x, y


def fit_log_distance(points: Sequence[tuple[float, float]], d0_m: float = 1.0) -> FitResult:
    """Closed-form least-squares fit of (distance_m, pl_db) points.

    Solves the linear problem directly from centred sums: no iteration and
    no starting guess.
    """
    x, y = _validated_points(points, d0_m)
    n = len(x)
    x_mean = math.fsum(x) / n
    y_mean = math.fsum(y) / n
    dx = [v - x_mean for v in x]
    exponent = math.fsum([a * (b - y_mean) for a, b in zip(dx, y)]) / math.fsum(
        [a * a for a in dx]
    )
    pl0 = y_mean - exponent * x_mean
    residuals = [b - (pl0 + exponent * a) for a, b in zip(x, y)]
    return FitResult(
        params=(pl0, exponent),
        rmse_db=math.sqrt(math.fsum([r * r for r in residuals]) / n),
        residuals_db=tuple(residuals),
        iterations=0,
        converged=True,
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

    Iterates on (c, n), c being the loss at the mean log-distance, so each
    point's Jacobian row (1, u) holds its centred log-distance u. Each iteration
    solves (J'J + lambda diag(J'J)) delta = J'r by Cramer's rule and accepts only
    steps that do not raise the sum of squared residuals; lambda shrinks tenfold
    on acceptance and grows tenfold on rejection or a singular system. Centring
    and scaling keep the steps independent of where the log-distances lie and
    how far apart. Stops when the relative cost improvement drops below _COST_TOL.
    """
    x, y = _validated_points(points, d0_m)
    if len(initial) != 2:
        raise ValueError(f"initial must hold 2 values (pl0_db, exponent), got {len(initial)}")
    pl0 = _require_finite("initial pl0_db", initial[0])
    n = _require_finite("initial exponent", initial[1])
    count, x_mean = len(x), math.fsum(x) / len(x)
    u = [v - x_mean for v in x]
    su, suu = math.fsum(u), math.fsum([a * a for a in u])
    c = pl0 + n * x_mean

    def residuals_at(c: float, n: float) -> list[float]:
        return [b - (c + n * a) for a, b in zip(u, y)]

    residuals = residuals_at(c, n)
    cost = math.fsum([r * r for r in residuals])
    history = [cost]
    damping = _DAMPING_START
    converged = False
    iterations = 0

    for iterations in range(1, _MAX_ITER + 1):
        g0 = math.fsum(residuals)
        g1 = math.fsum([a * r for a, r in zip(u, residuals)])

        while damping <= _DAMPING_MAX:
            h00, h11 = count * (1.0 + damping), suu * (1.0 + damping)
            det = h00 * h11 - su * su
            if det <= 0.0:
                damping *= 10.0
                continue
            candidate = (c + (g0 * h11 - su * g1) / det, n + (h00 * g1 - su * g0) / det)
            new_residuals = residuals_at(*candidate)
            new_cost = math.fsum([r * r for r in new_residuals])
            if new_cost <= cost:
                break
            damping *= 10.0
        else:  # no damping up to _DAMPING_MAX gave a step that does not raise the cost
            break

        improvement = (cost - new_cost) / max(cost, sys.float_info.min)
        (c, n), cost, residuals = candidate, new_cost, new_residuals
        history.append(cost)
        damping = max(damping / 10.0, _DAMPING_MIN)
        if improvement < _COST_TOL:
            converged = True
            break

    return FitResult(params=(c - n * x_mean, n), rmse_db=math.sqrt(cost / count),
                     residuals_db=tuple(residuals), iterations=iterations, converged=converged,
                     cost_history=tuple(history))
