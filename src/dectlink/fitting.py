"""Fitting measured path loss to parametric distance models.

Two independent routes to the same log-distance answer: a closed-form
linear least-squares fit (the model is linear in its parameters once
distance is log-transformed) and a general damped Gauss-Newton engine for
arbitrary nonlinear predictors. Keeping both lets each check the other.

The closed form is plain Python. numpy is imported inside the functions of
the iterative route that use it, so importing dectlink, the closed-form fit
and every CLI command but `fit --engine iterative` never load it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING, Any, Callable, Sequence

from .propagation import _require_finite, _require_positive

if TYPE_CHECKING:
    import numpy as np

# (params, distances) -> predicted path loss, all numpy float arrays.
Predictor = Callable[[Any, Any], Any]


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
    points: Sequence[tuple[float, float]], distinct: bool = False
) -> tuple[list[float], list[float]]:
    """(distances, path losses) as floats; with distinct, at least two distances must differ."""
    if len(points) < 2:
        raise ValueError(f"need at least 2 points to fit, got {len(points)}")
    d = [float(p[0]) for p in points]
    y = [float(p[1]) for p in points]
    if not all(math.isfinite(v) and v > 0.0 for v in d):
        raise ValueError("all distances must be positive and finite")
    if not all(map(math.isfinite, y)):
        raise ValueError("all path-loss values must be finite")
    if distinct and len(set(d)) < 2:
        raise ValueError("need at least 2 distinct distances to determine the exponent")
    return d, y


def log_distance_curve(params: Sequence[float], d_m: np.ndarray, d0_m: float = 1.0) -> np.ndarray:
    """Vectorized log-distance predictor; params = (pl0_db, exponent)."""
    import numpy as np

    pl0, n = params
    return pl0 + 10.0 * n * np.log10(np.asarray(d_m, dtype=float) / d0_m)


def fit_log_distance(points: Sequence[tuple[float, float]], d0_m: float = 1.0) -> FitResult:
    """Closed-form least-squares fit of (distance_m, pl_db) points.

    Solves the linear problem directly from centred sums, in plain Python:
    no iteration, no starting guess, no numpy. Requires at least two
    distinct distances, otherwise the slope is undetermined.
    """
    _require_positive("d0_m", d0_m)
    d, y = _validated_points(points, distinct=True)

    x = [10.0 * math.log10(v / d0_m) for v in d]
    n = len(x)
    x_mean = math.fsum(x) / n
    y_mean = math.fsum(y) / n
    dx = [v - x_mean for v in x]
    exponent = math.fsum([a * (b - y_mean) for a, b in zip(dx, y)]) / math.fsum(
        [a * a for a in dx]
    )
    pl0 = y_mean - exponent * x_mean

    residuals = [b - (pl0 + exponent * a) for a, b in zip(x, y)]
    rmse = math.sqrt(math.fsum([r * r for r in residuals]) / n)
    return FitResult(
        params=(pl0, exponent),
        rmse_db=rmse,
        residuals_db=tuple(residuals),
        iterations=0,
        converged=True,
        model=LogDistanceModel(pl0, exponent, d0_m),
    )


def finite_difference_jacobian(
    predict: Predictor, params: np.ndarray, d_m: np.ndarray
) -> np.ndarray:
    """Central-difference Jacobian of predict w.r.t. params, shape (n_points, n_params)."""
    import numpy as np

    params = np.asarray(params, dtype=float)
    jac = np.empty((d_m.size, params.size))
    for i in range(params.size):
        step = max(1e-6, 1e-6 * abs(params[i]))
        plus = params.copy()
        minus = params.copy()
        plus[i] += step
        minus[i] -= step
        jac[:, i] = (predict(plus, d_m) - predict(minus, d_m)) / (2.0 * step)
    return jac


_DAMPING_START = 1e-3
_DAMPING_MIN = 1e-12
_DAMPING_MAX = 1e12


def fit_general(
    predict: Predictor,
    initial: Sequence[float],
    points: Sequence[tuple[float, float]],
    max_iter: int = 200,
    cost_tol: float = 1e-10,
) -> FitResult:
    """Damped Gauss-Newton least squares for an arbitrary predictor.

    Each iteration solves (J'J + lambda I) delta = J'r and only accepts
    steps that do not increase the sum of squared residuals; the damping
    factor shrinks tenfold on acceptance and grows tenfold on rejection.
    Stops when the relative cost improvement drops below cost_tol.
    """
    import numpy as np

    if max_iter < 1:
        raise ValueError(f"max_iter must be >= 1, got {max_iter}")
    d, y = (np.asarray(v) for v in _validated_points(points))
    theta = np.asarray(initial, dtype=float).copy()
    if theta.ndim != 1 or theta.size == 0:
        raise ValueError("initial must be a non-empty 1-D parameter vector")

    def cost_of(t: np.ndarray) -> tuple[float, np.ndarray]:
        r = y - predict(t, d)
        if not np.all(np.isfinite(r)):
            return math.inf, r
        return float(r @ r), r

    cost, residuals = cost_of(theta)
    if not math.isfinite(cost):
        raise ValueError("predictor is non-finite at the initial parameters")
    history = [cost]
    damping = _DAMPING_START
    converged = False
    iterations = 0

    for iterations in range(1, max_iter + 1):
        jac = finite_difference_jacobian(predict, theta, d)
        grad = jac.T @ residuals
        hess = jac.T @ jac

        accepted = False
        while damping <= _DAMPING_MAX:
            try:
                delta = np.linalg.solve(hess + damping * np.eye(theta.size), grad)
            except np.linalg.LinAlgError:
                damping *= 10.0
                continue
            candidate = theta + delta
            new_cost, new_residuals = cost_of(candidate)
            if new_cost <= cost:
                accepted = True
                break
            damping *= 10.0
        if not accepted:
            break

        improvement = (cost - new_cost) / max(cost, np.finfo(float).tiny)
        theta, cost, residuals = candidate, new_cost, new_residuals
        history.append(cost)
        damping = max(damping / 10.0, _DAMPING_MIN)
        if improvement < cost_tol:
            converged = True
            break

    rmse = float(np.sqrt(cost / d.size))
    return FitResult(
        params=tuple(float(t) for t in theta),
        rmse_db=rmse,
        residuals_db=tuple(float(r) for r in residuals),
        iterations=iterations,
        converged=converged,
        cost_history=tuple(history),
    )


def fit_log_distance_iterative(
    points: Sequence[tuple[float, float]],
    d0_m: float = 1.0,
    initial: Sequence[float] = (40.0, 2.0),
) -> FitResult:
    """Log-distance fit through the general engine; must agree with the closed form."""
    _require_positive("d0_m", d0_m)
    _validated_points(points, distinct=True)

    result = fit_general(
        lambda params, dist: log_distance_curve(params, dist, d0_m), initial, points
    )
    return replace(result, model=LogDistanceModel(*result.params, d0_m))
