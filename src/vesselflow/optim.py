"""Adam optimizer, one instance per network parameter vector."""

from __future__ import annotations

import numpy as np

# Adam's moment decay rates and denominator guard, the same for every network.
BETA1 = 0.9
BETA2 = 0.999
EPS = 1e-8


class GradientError(ValueError):
    """A gradient entry was not finite or the shapes disagreed."""


class AdamState:
    """First/second moment estimates with bias correction.

    theta <- theta - lr * m_hat / (sqrt(v_hat) + EPS), with
    m_hat = m / (1 - BETA1^t) and v_hat = v / (1 - BETA2^t).
    """

    def __init__(self, size: int, learning_rate: float = 1e-3):
        self.step_count = 0
        self.m = np.zeros(size)
        self.v = np.zeros(size)
        self.learning_rate = learning_rate

    def step(self, params: np.ndarray, grads: np.ndarray) -> np.ndarray:
        """Update `params` in place from `grads`; returns `params`."""
        if params.shape != self.m.shape or grads.shape != self.m.shape:
            raise GradientError(
                f"length mismatch: state {self.m.shape[0]}, params {params.shape[0]}, "
                f"grads {grads.shape[0]}"
            )
        bad = np.flatnonzero(~np.isfinite(grads))
        if bad.size:
            raise GradientError(f"non-finite gradient at parameter index {bad[0]}")
        self.step_count += 1
        t = self.step_count
        self.m = BETA1 * self.m + (1.0 - BETA1) * grads
        self.v = BETA2 * self.v + (1.0 - BETA2) * grads * grads
        m_hat = self.m / (1.0 - BETA1 ** t)
        v_hat = self.v / (1.0 - BETA2 ** t)
        params -= self.learning_rate * m_hat / (np.sqrt(v_hat) + EPS)
        return params
