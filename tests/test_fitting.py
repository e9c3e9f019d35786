"""Log-distance fitting: closed form, iterative engine, and their agreement."""

import math
import random

import numpy as np
import pytest

from dectlink.fitting import (
    FitResult,
    LogDistanceModel,
    finite_difference_jacobian,
    fit_general,
    fit_log_distance,
    fit_log_distance_iterative,
    log_distance_curve,
)


def synth_points(pl0=38.0, n=2.7, count=50, sigma=0.0, seed=0):
    """Log-spaced distances over 1..1000 m with optional Gaussian noise."""
    rng = random.Random(seed)
    d = [10 ** (3 * i / (count - 1)) for i in range(count)]
    return [
        (di, pl0 + 10.0 * n * math.log10(di) + (rng.gauss(0.0, sigma) if sigma else 0.0))
        for di in d
    ]


def cramer_fit(points, d0=1.0):
    """Independent normal-equation solution of the same linear problem."""
    n = len(points)
    xs = [10.0 * math.log10(d / d0) for d, _ in points]
    ys = [pl for _, pl in points]
    sx, sy = sum(xs), sum(ys)
    sxx = sum(x * x for x in xs)
    sxy = sum(x * y for x, y in zip(xs, ys))
    det = n * sxx - sx * sx
    return (sy * sxx - sx * sxy) / det, (n * sxy - sx * sy) / det


class TestLogDistanceModel:
    def test_prediction(self):
        model = LogDistanceModel(38.0, 2.7)
        assert model.path_loss(1.0) == 38.0
        assert model.path_loss(10.0) == pytest.approx(65.0, abs=1e-12)

    def test_reference_distance_shifts_intercept(self):
        base = LogDistanceModel(38.0, 2.0, d0_m=1.0)
        shifted = LogDistanceModel(38.0 + 20.0, 2.0, d0_m=10.0)
        assert base.path_loss(500.0) == pytest.approx(shifted.path_loss(500.0), abs=1e-9)

    def test_validation(self):
        with pytest.raises(ValueError):
            LogDistanceModel(float("nan"), 2.0)
        with pytest.raises(ValueError):
            LogDistanceModel(38.0, 2.0, d0_m=0.0)
        with pytest.raises(ValueError):
            LogDistanceModel(38.0, 2.0).path_loss(-5.0)

    def test_exponent_must_be_finite(self):
        with pytest.raises(ValueError, match="^exponent must be finite, got nan$"):
            LogDistanceModel(38.0, float("nan"))


class TestClosedForm:
    def test_two_point_interpolation(self):
        result = fit_log_distance([(10.0, 60.0), (100.0, 80.0)])
        assert result.params[0] == pytest.approx(40.0, abs=1e-9)
        assert result.params[1] == pytest.approx(2.0, abs=1e-9)
        assert result.rmse_db == pytest.approx(0.0, abs=1e-9)
        assert result.iterations == 0
        assert result.converged
        assert isinstance(result.model, LogDistanceModel)

    def test_noiseless_recovery(self):
        result = fit_log_distance(synth_points())
        assert result.params[0] == pytest.approx(38.0, abs=1e-6)
        assert result.params[1] == pytest.approx(2.7, abs=1e-6)

    def test_agrees_with_cramer_oracle(self):
        rng = random.Random(31)
        for _ in range(25):
            pts = synth_points(
                pl0=rng.uniform(20, 60),
                n=rng.uniform(1.5, 4.0),
                count=rng.randint(3, 80),
                sigma=rng.uniform(0.0, 2.0),
                seed=rng.randint(0, 10**6),
            )
            pl0, slope = cramer_fit(pts)
            result = fit_log_distance(pts)
            assert result.params[0] == pytest.approx(pl0, abs=1e-8)
            assert result.params[1] == pytest.approx(slope, abs=1e-8)

    def test_noisy_seeded_regression(self):
        result = fit_log_distance(synth_points(sigma=1.0, seed=1234))
        assert abs(result.params[1] - 2.7) < 0.05
        # pinned so numerical drift is caught
        assert result.params[1] == pytest.approx(2.6986711289488095, abs=1e-9)
        assert result.params[0] == pytest.approx(38.17919580070625, abs=1e-9)
        assert result.rmse_db == pytest.approx(0.9395289267520066, abs=1e-9)

    def test_rmse_matches_residuals(self):
        result = fit_log_distance(synth_points(sigma=2.0, seed=9))
        rms = math.sqrt(sum(r * r for r in result.residuals_db) / len(result.residuals_db))
        assert result.rmse_db == pytest.approx(rms, abs=1e-12)

    def test_degenerate_inputs(self):
        with pytest.raises(ValueError):
            fit_log_distance([(10.0, 60.0)])
        with pytest.raises(ValueError):
            fit_log_distance([(10.0, 60.0), (10.0, 61.0)])
        with pytest.raises(ValueError):
            fit_log_distance([(10.0, 60.0), (-5.0, 80.0)])
        with pytest.raises(ValueError):
            fit_log_distance([(10.0, float("nan")), (100.0, 80.0)])
        with pytest.raises(ValueError):
            fit_log_distance(synth_points(), d0_m=0.0)

    def test_order_and_duplication_invariance(self):
        pts = synth_points(sigma=1.5, seed=77, count=30)
        baseline = fit_log_distance(pts)
        shuffled = pts[:]
        random.Random(3).shuffle(shuffled)
        assert fit_log_distance(shuffled).params == pytest.approx(baseline.params, abs=1e-9)
        assert fit_log_distance(pts + pts).params == pytest.approx(baseline.params, abs=1e-9)

    def test_constant_shift_moves_intercept_only(self):
        pts = synth_points(sigma=1.0, seed=13)
        base = fit_log_distance(pts)
        shifted = fit_log_distance([(d, pl + 9.5) for d, pl in pts])
        assert shifted.params[0] == pytest.approx(base.params[0] + 9.5, abs=1e-9)
        assert shifted.params[1] == pytest.approx(base.params[1], abs=1e-9)


class TestGeneralEngine:
    def test_matches_closed_form_on_log_distance(self):
        pts = synth_points(sigma=1.0, seed=1234)
        closed = fit_log_distance(pts)
        iterative = fit_log_distance_iterative(pts)
        assert iterative.params[0] == pytest.approx(closed.params[0], abs=1e-6)
        assert iterative.params[1] == pytest.approx(closed.params[1], abs=1e-6)
        assert iterative.converged
        assert iterative.iterations >= 1
        assert iterative.model is not None

    def test_interpolable_data_leaves_zero_residuals(self):
        result = fit_log_distance_iterative([(10.0, 60.0), (100.0, 80.0)])
        assert max(abs(r) for r in result.residuals_db) < 1e-6

    def test_cost_history_never_increases(self):
        pts = synth_points(sigma=3.0, seed=5, count=40)
        result = fit_general(
            log_distance_curve, np.array([100.0, 9.0]), pts
        )
        assert result.converged
        for earlier, later in zip(result.cost_history, result.cost_history[1:]):
            assert later <= earlier + 1e-12

    def test_fits_a_genuinely_nonlinear_model(self):
        # dual-slope style curve, nonlinear in its break parameter
        def predict(theta, d):
            pl0, n, brk = theta
            return pl0 + 10.0 * n * np.log10(d) + 3.0 * np.log1p(d / abs(brk))

        rng = random.Random(17)
        d = np.array([10 ** (2.5 * i / 39) for i in range(40)])
        truth = np.array([40.0, 2.2, 150.0])
        y = predict(truth, d) + np.array([rng.gauss(0, 0.05) for _ in range(40)])
        result = fit_general(predict, np.array([35.0, 2.0, 80.0]), list(zip(d, y)))
        assert result.converged
        assert result.params[1] == pytest.approx(2.2, abs=0.1)

    def test_validation(self):
        pts = synth_points()
        with pytest.raises(ValueError):
            fit_general(log_distance_curve, np.array([38.0, 2.7]), pts, max_iter=0)
        with pytest.raises(ValueError):
            fit_general(log_distance_curve, np.array([[38.0], [2.7]]), pts)
        with pytest.raises(ValueError):
            fit_general(lambda t, d: np.full_like(d, np.nan), np.array([1.0]), pts)

    def test_reference_distance_must_be_positive(self):
        with pytest.raises(ValueError, match="^d0_m must be a positive finite number, got 0.0$"):
            fit_log_distance_iterative(synth_points(), d0_m=0)

    def test_result_shape(self):
        result = fit_log_distance_iterative(synth_points(sigma=0.5, seed=2))
        assert isinstance(result, FitResult)
        assert len(result.residuals_db) == 50
        assert len(result.cost_history) == result.iterations + 1


class TestJacobian:
    def test_matches_analytic_log_distance_jacobian(self):
        d = np.array([1.0, 10.0, 250.0, 4000.0])
        theta = np.array([38.0, 2.7])
        numeric = finite_difference_jacobian(log_distance_curve, theta, d)
        analytic = np.column_stack([np.ones_like(d), 10.0 * np.log10(d)])
        assert np.allclose(numeric, analytic, rtol=1e-5, atol=1e-7)
