"""Central finite-difference gradient checker for the gradient tests."""

from typing import Callable

import numpy as np

from fedmm.errors import DimensionError, NumericError, ValidationError
from fedmm.nncore import Array, as_tensor


def grad_check(f: Callable[[Array], tuple], theta: Array, h: float = 1e-5) -> float:
    """Max relative error between central differences and an analytic gradient.

    ``f(theta)`` must deterministically return ``(value, gradient)`` where
    the gradient has one entry per element of ``theta``. The relative error
    per component uses denominator max(|numeric|, |analytic|, 1e-8).
    """
    if h <= 0.0:
        raise ValidationError("step size h must be positive")
    theta = as_tensor(theta).copy()
    _, analytic = f(theta)
    analytic = np.asarray(analytic, dtype=np.float64).ravel()
    flat = theta.ravel()
    if analytic.shape != flat.shape:
        raise DimensionError(
            f"analytic gradient {analytic.shape} does not match theta {flat.shape}"
        )
    worst = 0.0
    for j in range(flat.size):
        orig = flat[j]
        flat[j] = orig + h
        f_plus = float(f(theta)[0])
        flat[j] = orig - h
        f_minus = float(f(theta)[0])
        flat[j] = orig
        if not (np.isfinite(f_plus) and np.isfinite(f_minus)):
            raise NumericError("objective returned a non-finite value")
        numeric = (f_plus - f_minus) / (2.0 * h)
        err = abs(numeric - analytic[j]) / max(abs(numeric), abs(analytic[j]), 1e-8)
        worst = max(worst, err)
    return worst
