"""Minimal float64 numeric kernel: dense and batch-whitening layers with
hand-coded gradients, Adam, and a central finite-difference gradient checker.

Everything works on C-contiguous float64 numpy arrays. Layers cache what
their backward pass needs on the instance that ran the forward pass, so an
instance serves one forward/backward pair at a time; parallel client
updates run in forked worker processes, each with its own copy of every
instance (see :mod:`fedmm.engine`). Arrays that a step writes (Adam's
moments, the whitening running statistics) are written in place, so they
may live in memory a worker shares with its parent.

The whitening backward deliberately treats the batch statistics (mean and
whitening matrix) as constants: gradients flow through the affine transform
only. The finite-difference oracles in the test suite freeze the statistics
the same way, which keeps the two sides of every gradient check consistent.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import (
    BatchSizeError,
    ConfigError,
    DimensionError,
    NumericError,
    StateError,
    ValidationError,
)

Array = np.ndarray

ACTIVATION_KINDS = ("relu", "sigmoid", "softmax-rows")


def as_tensor(values, shape=None) -> Array:
    """Coerce ``values`` to a C-contiguous float64 array, rejecting NaN/Inf."""
    arr = np.ascontiguousarray(values, dtype=np.float64)
    if shape is not None:
        arr = arr.reshape(shape)
    if not np.all(np.isfinite(arr)):
        raise NumericError("tensor contains non-finite entries")
    return arr


# ---------------------------------------------------------------------------
# dense layer
# ---------------------------------------------------------------------------


@dataclass
class DenseLayer:
    """Affine map y = x @ weight + bias with weight [in, out] and bias [out]."""

    weight: Array
    bias: Array

    def __post_init__(self):
        self.weight = as_tensor(self.weight)
        self.bias = as_tensor(self.bias)
        if self.weight.ndim != 2 or self.bias.ndim != 1:
            raise DimensionError(
                f"dense layer needs 2-D weight and 1-D bias, got "
                f"{self.weight.shape} and {self.bias.shape}"
            )
        if self.weight.shape[1] != self.bias.shape[0]:
            raise DimensionError(
                f"weight {self.weight.shape} incompatible with bias {self.bias.shape}"
            )

    @property
    def in_dim(self) -> int:
        return self.weight.shape[0]

    @property
    def out_dim(self) -> int:
        return self.weight.shape[1]


def dense_forward(layer: DenseLayer, x: Array) -> Array:
    if x.ndim != 2 or x.shape[1] != layer.in_dim:
        raise DimensionError(
            f"input {x.shape} does not match weight {layer.weight.shape}"
        )
    return x @ layer.weight + layer.bias


def dense_backward(layer: DenseLayer, x: Array, grad_out: Array, input_grad: bool = True):
    """Gradients of an upstream scalar wrt (input, weight, bias).

    ``x`` must be the array passed to the matching forward call. With
    ``input_grad=False`` the input gradient, a (B x out) @ (out x in)
    product, is skipped and returned as None.
    """
    if x.ndim != 2 or x.shape[1] != layer.in_dim:
        raise DimensionError(
            f"input {x.shape} does not match weight {layer.weight.shape}"
        )
    if grad_out.shape != (x.shape[0], layer.out_dim):
        raise DimensionError(
            f"grad_out {grad_out.shape} does not match output "
            f"({x.shape[0]}, {layer.out_dim})"
        )
    grad_x = grad_out @ layer.weight.T if input_grad else None
    grad_w = x.T @ grad_out
    grad_b = grad_out.sum(axis=0)
    return grad_x, grad_w, grad_b


# ---------------------------------------------------------------------------
# activations
# ---------------------------------------------------------------------------


def _sigmoid(x: Array) -> Array:
    # exp(-|x|) never overflows; each side of the where is the branch the
    # two-branch form (1 / (1 + exp(-x)) for x >= 0, exp(x) / (1 + exp(x))
    # otherwise) computes, with the same operands, so the bits are equal
    ex = np.exp(-np.abs(x))
    return np.where(x >= 0, 1.0 / (1.0 + ex), ex / (1.0 + ex))


def _softmax_rows(x: Array) -> Array:
    if x.ndim != 2:
        raise DimensionError(f"softmax-rows needs a 2-D input, got shape {x.shape}")
    shifted = x - x.max(axis=1, keepdims=True)
    ex = np.exp(shifted)
    return ex / ex.sum(axis=1, keepdims=True)


def activation_forward(x: Array, kind: str) -> Array:
    if kind == "relu":
        return np.maximum(x, 0.0)
    if kind == "sigmoid":
        return _sigmoid(x)
    if kind == "softmax-rows":
        return _softmax_rows(x)
    raise ConfigError(f"unknown activation kind {kind!r}")


def activation_backward(x: Array, kind: str, grad_out: Array) -> Array:
    """Jacobian-vector product of the activation at input ``x``."""
    if grad_out.shape != x.shape:
        raise DimensionError(
            f"grad_out {grad_out.shape} does not match input {x.shape}"
        )
    if kind == "relu":
        return grad_out * (x > 0.0)
    if kind == "sigmoid":
        s = _sigmoid(x)
        return grad_out * s * (1.0 - s)
    if kind == "softmax-rows":
        y = _softmax_rows(x)
        return y * (grad_out - (grad_out * y).sum(axis=1, keepdims=True))
    raise ConfigError(f"unknown activation kind {kind!r}")


# ---------------------------------------------------------------------------
# batch whitening
# ---------------------------------------------------------------------------


def is_symmetric(matrix: Array, atol: float) -> bool:
    """True when ``matrix`` equals its transpose within ``atol``.

    One subtraction and one comparison; a NaN anywhere makes it False.
    """
    return bool((np.abs(matrix - matrix.T) <= atol).all())


def whitening_matrix(cov: Array, eps: float) -> Array:
    """ZCA whitening matrix W = U diag((lambda + eps)^-1/2) U^T.

    ``cov`` must be symmetric within 1e-9. Rank deficiency is absorbed by
    ``eps``; a singular covariance with eps == 0 raises NumericError.
    """
    cov = np.asarray(cov, dtype=np.float64)
    if cov.ndim != 2 or cov.shape[0] != cov.shape[1]:
        raise DimensionError(f"covariance must be square, got {cov.shape}")
    if not is_symmetric(cov, 1e-9):
        raise ValidationError("covariance matrix is not symmetric within 1e-9")
    try:
        lam, u = np.linalg.eigh(cov)
    except np.linalg.LinAlgError as exc:
        raise NumericError(f"eigendecomposition failed: {exc}") from None
    lam = np.maximum(lam, 0.0)  # eigh noise can push PSD eigenvalues below zero
    scaled = lam + eps
    if np.any(scaled <= 0.0):
        raise NumericError(
            "covariance is singular and eps does not regularize it"
        )
    return (u * scaled**-0.5) @ u.T


def _batch_whiten_core(x: Array, gamma: Array, beta: Array, eps: float):
    """Whiten ``x`` with its own batch statistics (covariance divisor B)."""
    mu = x.mean(axis=0)
    centered = x - mu
    cov = centered.T @ centered / x.shape[0]
    w = whitening_matrix(cov, eps)
    xhat = centered @ w  # w is symmetric, so this is W(x - mu) row-wise
    return gamma * xhat + beta, mu, cov, w, xhat


def whiten_batch(x: Array, gamma: Array, beta: Array, eps: float) -> Array:
    """Stateless batch whitening; reads and writes no running statistics."""
    out, _, _, _, _ = _batch_whiten_core(x, gamma, beta, eps)
    return out


@dataclass
class WhiteningState:
    """Learnable scale/shift plus running statistics for a whitening layer.

    ``cache_*`` fields hold the batch artifacts from the last train-mode
    forward (batch mean, whitening matrix, whitened activations) and feed
    the stop-gradient backward pass.
    """

    gamma: Array
    beta: Array
    running_mean: Array
    running_cov: Array
    eps: float = 1e-5
    momentum: float = 0.1
    stats_ready: bool = False
    cache_mean: Array | None = field(default=None, repr=False)
    cache_w: Array | None = field(default=None, repr=False)
    cache_xhat: Array | None = field(default=None, repr=False)

    def __post_init__(self):
        self.gamma = as_tensor(self.gamma)
        self.beta = as_tensor(self.beta)
        self.running_mean = as_tensor(self.running_mean)
        self.running_cov = as_tensor(self.running_cov)
        d = self.gamma.shape[0]
        if self.beta.shape != (d,) or self.running_mean.shape != (d,):
            raise DimensionError("gamma, beta and running_mean lengths differ")
        if self.running_cov.shape != (d, d):
            raise DimensionError(
                f"running covariance must be ({d}, {d}), got {self.running_cov.shape}"
            )
        if not is_symmetric(self.running_cov, 1e-12):
            raise ValidationError("running covariance is not symmetric within 1e-12")
        if self.eps < 0.0:
            raise ValidationError("eps must be non-negative")
        if not 0.0 < self.momentum <= 1.0:
            raise ValidationError("momentum must lie in (0, 1]")

    @classmethod
    def create(cls, dim: int, eps: float = 1e-5, momentum: float = 0.1) -> "WhiteningState":
        return cls(
            gamma=np.ones(dim),
            beta=np.zeros(dim),
            running_mean=np.zeros(dim),
            running_cov=np.eye(dim),
            eps=eps,
            momentum=momentum,
        )

    @property
    def dim(self) -> int:
        return self.gamma.shape[0]

    def drop_cache(self) -> None:
        """Release the last train-mode forward's artifacts."""
        self.cache_mean = self.cache_w = self.cache_xhat = None


def batch_whitening_forward(x: Array, state: WhiteningState, mode: str) -> Array:
    """Apply gamma * W(x - mu) + beta.

    Train mode computes mu and the whitening matrix from the batch, caches
    them for backward, and folds them into the running estimates by EMA.
    Eval mode recomputes the whitening matrix from the running covariance
    on every call and never mutates the state.
    """
    if x.ndim != 2 or x.shape[1] != state.dim:
        raise DimensionError(f"input {x.shape} does not match layer dim {state.dim}")
    if mode == "train":
        if x.shape[0] < 2:
            raise BatchSizeError(
                f"train-mode whitening needs at least 2 rows, got {x.shape[0]}"
            )
        out, mu, cov, w, xhat = _batch_whiten_core(x, state.gamma, state.beta, state.eps)
        m = state.momentum
        # written into the arrays the state holds, which may live in memory
        # a worker process shares with its parent (see fedmm.engine)
        state.running_mean[...] = (1.0 - m) * state.running_mean + m * mu
        state.running_cov[...] = (1.0 - m) * state.running_cov + m * cov
        state.stats_ready = True
        state.cache_mean = mu
        state.cache_w = w
        state.cache_xhat = xhat
        return out
    if mode == "eval":
        if not state.stats_ready:
            raise StateError("eval-mode whitening called before any train step")
        w = whitening_matrix(state.running_cov, state.eps)
        return state.gamma * ((x - state.running_mean) @ w) + state.beta
    raise ConfigError(f"unknown whitening mode {mode!r}")


def batch_whitening_backward(state: WhiteningState, grad_out: Array):
    """Gradients wrt (input, gamma, beta) with frozen batch statistics."""
    if state.cache_w is None or state.cache_xhat is None:
        raise StateError("whitening backward called without a cached forward")
    if grad_out.shape != state.cache_xhat.shape:
        raise DimensionError(
            f"grad_out {grad_out.shape} does not match cached activations "
            f"{state.cache_xhat.shape}"
        )
    grad_x = (grad_out * state.gamma) @ state.cache_w
    grad_gamma = (grad_out * state.cache_xhat).sum(axis=0)
    grad_beta = grad_out.sum(axis=0)
    return grad_x, grad_gamma, grad_beta


# ---------------------------------------------------------------------------
# Adam
# ---------------------------------------------------------------------------


@dataclass
class AdamState:
    """Bias-corrected Adam with optional decoupled weight decay."""

    first_moment: Array
    second_moment: Array
    step_count: int = 0
    lr: float = 1e-3
    beta1: float = 0.9
    beta2: float = 0.999
    eps_opt: float = 1e-8
    weight_decay: float = 0.0

    @classmethod
    def create(
        cls,
        n_params: int,
        lr: float = 1e-3,
        beta1: float = 0.9,
        beta2: float = 0.999,
        eps_opt: float = 1e-8,
        weight_decay: float = 0.0,
    ) -> "AdamState":
        return cls(
            first_moment=np.zeros(n_params),
            second_moment=np.zeros(n_params),
            lr=lr,
            beta1=beta1,
            beta2=beta2,
            eps_opt=eps_opt,
            weight_decay=weight_decay,
        )


def adam_step(params: Array, grads: Array, state: AdamState) -> Array:
    """One optimizer step, in place: writes ``params`` and both moment
    arrays of ``state`` and returns ``params``.

    Each elementwise operation runs in the order of the textbook update

        m = beta1 * m + (1 - beta1) * g
        v = beta2 * v + (1 - beta2) * g * g
        params = params - lr * m_hat / (sqrt(v_hat) + eps) - lr * wd * params

    (the decay term reads the parameters from before the step), so the
    result is bitwise the same as evaluating it out of place.
    """
    if params.shape != grads.shape:
        raise DimensionError(f"params {params.shape} vs grads {grads.shape}")
    if params.shape != state.first_moment.shape:
        raise DimensionError(
            f"params {params.shape} vs optimizer state {state.first_moment.shape}"
        )
    state.step_count += 1
    t = state.step_count
    m, v = state.first_moment, state.second_moment
    scratch = np.multiply(grads, 1.0 - state.beta1)
    m *= state.beta1
    m += scratch
    np.multiply(grads, 1.0 - state.beta2, out=scratch)
    scratch *= grads
    v *= state.beta2
    v += scratch
    denom = np.divide(v, 1.0 - state.beta2**t)
    np.sqrt(denom, out=denom)
    denom += state.eps_opt
    step = np.divide(m, 1.0 - state.beta1**t, out=scratch)
    step *= state.lr
    step /= denom
    if state.weight_decay != 0.0:
        decay = np.multiply(params, state.lr * state.weight_decay, out=denom)
        params -= step
        params -= decay
    else:
        params -= step
    return params


# ---------------------------------------------------------------------------
# gradient checking
# ---------------------------------------------------------------------------


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
