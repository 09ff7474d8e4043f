"""Adam update arithmetic and convergence behavior."""

import numpy as np
import pytest

from vesselflow.optim import AdamState, GradientError


class TestStep:
    def test_zero_gradient_leaves_params_unchanged(self):
        state = AdamState(3)
        params = np.array([1.0, -2.0, 0.5])
        before = params.copy()
        state.step(params, np.zeros(3))
        assert np.array_equal(params, before)

    def test_first_step_bias_corrected_magnitude(self):
        # t=1, g=1: m_hat = 1, v_hat = 1, so the step is lr / (1 + eps).
        state = AdamState(1)
        params = np.array([0.0])
        state.step(params, np.array([1.0]))
        assert params[0] == pytest.approx(-1e-3 / (1.0 + 1e-8), rel=1e-12)

    def test_constant_gradient_decreases_monotonically(self):
        state = AdamState(1)
        params = np.array([0.0])
        prev = params[0]
        for _ in range(5):
            state.step(params, np.array([1.0]))
            assert params[0] < prev
            prev = params[0]

    def test_length_mismatch_rejected(self):
        state = AdamState(2)
        with pytest.raises(GradientError, match="length mismatch"):
            state.step(np.zeros(3), np.zeros(3))

    def test_non_finite_gradient_names_index(self):
        state = AdamState(3)
        with pytest.raises(GradientError, match="index 1"):
            state.step(np.zeros(3), np.array([0.0, np.nan, 0.0]))


class TestConvergence:
    def test_quadratic_reaches_small_value_within_2000_steps(self):
        # The moment-ratio damping makes the default 1e-3 rate need ~2200
        # iterations for this target; 2e-3 lands comfortably inside 2000.
        state = AdamState(1, learning_rate=2e-3)
        theta = np.array([1.0])
        for i in range(2000):
            state.step(theta, 2.0 * theta)
            if abs(theta[0]) < 1e-2:
                break
        assert abs(theta[0]) < 1e-2

    def test_quadratic_default_rate_progress(self):
        # Regression lock for the default rate: same target, slightly
        # longer horizon.
        state = AdamState(1)
        theta = np.array([1.0])
        for i in range(2250):
            state.step(theta, 2.0 * theta)
            if abs(theta[0]) < 1e-2:
                break
        assert abs(theta[0]) < 1e-2

    def test_determinism(self):
        def run():
            rng = np.random.default_rng(11)
            state = AdamState(4, learning_rate=3e-3)
            theta = np.ones(4)
            for _ in range(50):
                state.step(theta, rng.normal(size=4))
            return theta.copy()

        assert np.array_equal(run(), run())
