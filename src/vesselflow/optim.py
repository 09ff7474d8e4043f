"""Adam optimizer, one instance per network parameter vector."""

from __future__ import annotations

import numpy as np


class GradientError(ValueError):
    """A gradient entry was not finite or the shapes disagreed."""


class AdamState:
    """First/second moment estimates with bias correction.

    theta <- theta - lr * m_hat / (sqrt(v_hat) + eps), with
    m_hat = m / (1 - beta1^t) and v_hat = v / (1 - beta2^t).
    """

    def __init__(self, size: int, learning_rate: float = 1e-3,
                 beta1: float = 0.9, beta2: float = 0.999, eps: float = 1e-8):
        self.step_count = 0
        self.m = np.zeros(size)
        self.v = np.zeros(size)
        self.learning_rate = learning_rate
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps

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
        self.m = self.beta1 * self.m + (1.0 - self.beta1) * grads
        self.v = self.beta2 * self.v + (1.0 - self.beta2) * grads * grads
        m_hat = self.m / (1.0 - self.beta1 ** t)
        v_hat = self.v / (1.0 - self.beta2 ** t)
        params -= self.learning_rate * m_hat / (np.sqrt(v_hat) + self.eps)
        return params
