"""Fitting measured path loss to the log-distance law PL(d) = pl0 + 10 n log10(d / d0).

A closed-form linear least-squares fit and a plain Gauss-Newton iteration
from (40 dB, 2) reach the same answer by independent routes, so each checks
the other. Both take their points through one check: losses within +-1000 dB,
where no sum overflows, and log-distances 10 log10(d / d0) that span at least
1e-6 dB.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field
from typing import Sequence

from .propagation import _require_positive

# Far beyond any real link: the bundled campaign's largest loss is 120.61 dB.
_MAX_ABS_PL_DB = 1000.0
# Log-distances closer than this leave the exponent to the rounding of the losses.
_MIN_SPREAD_DB = 1e-6


@dataclass(frozen=True)
class FitResult:
    """Outcome of a fit: parameters (pl0_db, exponent) plus residual diagnostics.

    iterations is 0 for the closed-form route. cost_history holds the
    sum-of-squares cost of an iterative fit at its start and after each
    iteration, and is empty for closed-form fits.
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


def fit_log_distance_iterative(
    points: Sequence[tuple[float, float]], d0_m: float = 1.0
) -> FitResult:
    """Gauss-Newton fit of the log-distance law from (40 dB, 2); must agree with the closed form.

    Iterates on (c, n), c being the loss at the mean log-distance, so each
    point's Jacobian row (1, u) holds its centred log-distance u. Each step
    solves J'J delta = J'r by Cramer's rule; det(J'J) = N sum(u^2) - (sum u)^2
    is positive because the log-distances differ. The law is linear in (c, n),
    so the first full step lands on the least-squares answer and no step is
    shortened; later steps only shed rounding. The fit stops at the first step
    that lowers the cost by at most _COST_TOL relative, and a step that raises
    it, which only rounding can do, is not taken.
    """
    x, y = _validated_points(points, d0_m)
    count, x_mean = len(x), math.fsum(x) / len(x)
    u = [v - x_mean for v in x]
    su, suu = math.fsum(u), math.fsum([a * a for a in u])
    det = count * suu - su * su
    c, n = 40.0 + 2.0 * x_mean, 2.0

    def residuals_at(c: float, n: float) -> list[float]:
        # y - c first keeps the rounding on the scale of the residual, not of c.
        return [(b - c) - n * a for a, b in zip(u, y)]

    residuals = residuals_at(c, n)
    cost = math.fsum([r * r for r in residuals])
    history = [cost]
    converged = False

    for iterations in range(1, _MAX_ITER + 1):
        g0 = math.fsum(residuals)
        g1 = math.fsum([a * r for a, r in zip(u, residuals)])
        candidate = (c + (g0 * suu - su * g1) / det, n + (count * g1 - su * g0) / det)
        new_residuals = residuals_at(*candidate)
        new_cost = math.fsum([r * r for r in new_residuals])
        improvement = (cost - new_cost) / max(cost, sys.float_info.min)
        if improvement >= 0.0:
            (c, n), cost, residuals = candidate, new_cost, new_residuals
        history.append(cost)
        if improvement <= _COST_TOL:
            converged = True
            break

    return FitResult(params=(c - n * x_mean, n), rmse_db=math.sqrt(cost / count),
                     residuals_db=tuple(residuals), iterations=iterations, converged=converged,
                     cost_history=tuple(history))
