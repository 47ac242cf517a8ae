"""Minimal float64 numeric kernel: dense and batch-whitening layers with
hand-coded gradients, and Adam.

Everything works on C-contiguous float64 numpy arrays. Layers hold state
only: a train forward returns what its backward needs and the caller hands
it back (see ``models.EncodeCache``). A backward returns the input gradient
and writes the parameter gradient into ``out``, its slot of the step's flat
gradient. All state that a step writes (Adam's moments and step count, the
whitening running statistics and ready flag) is held in arrays and written
in place, the two scalars as 0-d arrays, so it may live in memory a worker
process shares with its parent.

The per-step kernels are internal and keep only the checks that depend on
values or state. Callers pass shapes checked once, at a boundary: the
constructors here and in :mod:`fedmm.models`, ``engine.make_client``, and
the public entry points (``encode``, ``head_forward``, ``local_objective``).

The whitening backward deliberately treats the batch statistics (mean and
whitening matrix) as constants: gradients flow through the affine transform
only. The finite-difference oracles in the test suite freeze the statistics
the same way, which keeps the two sides of every gradient check consistent.
"""

from __future__ import annotations

from dataclasses import dataclass, field

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


def as_tensor(values) -> Array:
    """Coerce ``values`` to a C-contiguous float64 array, rejecting NaN/Inf."""
    arr = np.ascontiguousarray(values, dtype=np.float64)
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
    return x @ layer.weight + layer.bias


def dense_backward(
    layer: DenseLayer, x: Array, grad_out: Array, out: Array, input_grad: bool = True
):
    """Write the ``[weight | bias]`` gradient into ``out``; return the input one.

    ``x`` must be the array passed to the matching forward call. With
    ``input_grad=False`` the input gradient, a (B x out) @ (out x in)
    product, is skipped and returned as None.
    """
    np.matmul(x.T, grad_out, out=out[: layer.weight.size].reshape(layer.weight.shape))
    np.add.reduce(grad_out, axis=0, out=out[layer.weight.size :])
    return grad_out @ layer.weight.T if input_grad else None


# ---------------------------------------------------------------------------
# activations
# ---------------------------------------------------------------------------

def _sigmoid(x: Array) -> Array:
    # exp(-|x|) never overflows; each side of the where is the branch the
    # two-branch form (1 / (1 + exp(-x)) for x >= 0, exp(x) / (1 + exp(x))
    # otherwise) computes, with the same operands, so the bits are equal
    ex = np.exp(-np.abs(x))
    denom = 1.0 + ex
    return np.where(x >= 0, 1.0, ex) / denom


def _softmax_rows(x: Array) -> Array:
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

    ``cov`` is a symmetric float64 matrix. Rank deficiency is absorbed by
    ``eps``; a singular covariance with eps == 0, or one ``eigh`` cannot
    decompose, raises NumericError.
    """
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
    mu = np.add.reduce(x, axis=0) / x.shape[0]  # x.mean(axis=0), bit for bit
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
    """Learnable scale/shift plus running statistics for a whitening layer;
    state only, no batch artifact. ``stats_ready``, set by the first train
    forward, is a 0-d bool array written in place.
    """

    gamma: Array
    beta: Array
    running_mean: Array
    running_cov: Array
    eps: float = 1e-5
    momentum: float = 0.1
    stats_ready: Array = field(default_factory=lambda: np.zeros((), np.bool_))

    def __post_init__(self):
        self.gamma = as_tensor(self.gamma)
        self.beta = as_tensor(self.beta)
        self.running_mean = as_tensor(self.running_mean)
        self.running_cov = as_tensor(self.running_cov)
        self.stats_ready = np.asarray(self.stats_ready, np.bool_)
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


def batch_whitening_train(x: Array, state: WhiteningState):
    """gamma * W(x - mu) + beta with the batch's own mean and whitening
    matrix, folded into the running estimates by EMA: (out, mu, w, xhat)."""
    if x.shape[0] < 2:
        raise BatchSizeError(f"train-mode whitening needs at least 2 rows, got {x.shape[0]}")
    out, mu, cov, w, xhat = _batch_whiten_core(x, state.gamma, state.beta, state.eps)
    m = state.momentum
    # (1 - m) * running + m * batch, written into the arrays the state
    # holds, which may live in memory a worker process shares with its
    # parent (see fedmm.engine); cov is this call's own scratch
    state.running_mean *= 1.0 - m
    state.running_mean += m * mu
    state.running_cov *= 1.0 - m
    state.running_cov += np.multiply(cov, m, out=cov)
    state.stats_ready[...] = True
    return out, mu, w, xhat


def batch_whitening_eval(x: Array, state: WhiteningState) -> Array:
    """gamma * W(x - mu) + beta with the running statistics, W recomputed
    on every call; the state is never written."""
    if not state.stats_ready:
        raise StateError("eval-mode whitening called before any train step")
    w = whitening_matrix(state.running_cov, state.eps)
    return state.gamma * ((x - state.running_mean) @ w) + state.beta


def batch_whitening_backward(gamma: Array, w: Array, xhat: Array, grad_out: Array, out: Array):
    """Write the ``[gamma | beta]`` gradient into ``out``; return the input one.
    Batch statistics are frozen: ``w`` and ``xhat`` come from the matching
    :func:`batch_whitening_train`."""
    np.add.reduce(grad_out * xhat, axis=0, out=out[: gamma.size])
    np.add.reduce(grad_out, axis=0, out=out[gamma.size :])
    return (grad_out * gamma) @ w


# ---------------------------------------------------------------------------
# Adam
# ---------------------------------------------------------------------------


@dataclass
class AdamState:
    """Bias-corrected Adam with optional decoupled weight decay.

    ``step_count`` is a 0-d int64 array that each step increments in place.
    """

    first_moment: Array
    second_moment: Array
    step_count: Array = field(default_factory=lambda: np.zeros((), np.int64))
    lr: float = 1e-3
    beta1: float = 0.9
    beta2: float = 0.999
    eps_opt: float = 1e-8
    weight_decay: float = 0.0

    def __post_init__(self):
        self.step_count = np.asarray(self.step_count, np.int64)


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
    state.step_count[...] += 1
    # a Python int: beta ** np.int64(t) differs from beta ** t in the last
    # bit at some t (0.999 at 7, 23, 26, 28; 0.9 at 12, 23, 40)
    t = int(state.step_count)
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
