"""Frozen formulas: the straightforward numpy expressions the loss and
layer kernels were first written with, kept here verbatim as oracles.

The kernels now reach the same values through fewer numpy calls
(``np.add.reduce`` for ``.sum``/``.mean``, ``np.minimum(np.maximum(...))``
for ``np.clip``, in-place updates, no masks when every row is live). Each
test requires the new kernel to reproduce its frozen formula bit for bit,
on random inputs and on edge inputs: signed zeros, saturating logits,
probabilities at 0.5 and at the 1e-12 floor, and batches of 2 and 57 rows.
"""

import numpy as np
import pytest

from fedmm import losses, nncore
from fedmm.losses import LossConfig, bce_multilabel, ntxent
from fedmm.nncore import (
    DenseLayer,
    WhiteningState,
    batch_whitening_backward,
    batch_whitening_train,
    dense_backward,
)

BATCHES = [2, 57]


def same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


# -- the frozen formulas -----------------------------------------------------


def frozen_unit_rows(f):
    norms = np.linalg.norm(f, axis=1)
    live = norms > 1e-12
    units = np.zeros_like(f)
    units[live] = f[live] / norms[live, None]
    return units, norms, live


def frozen_ntxent(f_local, f_global, cfg):
    b = f_local.shape[0]
    ul, nl, live_l = frozen_unit_rows(f_local)
    ug, _, _ = frozen_unit_rows(f_global)
    sims = np.clip(ul @ ug.T, -1.0, 1.0)
    logits = sims / cfg.tau
    masked = logits
    if cfg.ntxent_variant == "negatives-only":
        masked = logits.copy()
        np.fill_diagonal(masked, -np.inf)
    row_max = masked.max(axis=1, keepdims=True)
    ex = np.exp(masked - row_max)
    denom = row_max[:, 0] + np.log(ex.sum(axis=1))
    weights = ex / ex.sum(axis=1, keepdims=True)
    coeff = (weights - np.eye(b)) / cfg.tau
    loss = float((-np.diag(logits) + denom).sum())
    grad = coeff @ ug - ((coeff * sims).sum(axis=1, keepdims=True)) * ul
    grad[live_l] /= nl[live_l, None]
    grad[~live_l] = 0.0
    return loss, grad


def frozen_bce(probs, y):
    p = np.clip(probs, 1e-12, 1.0 - 1e-12)
    per_sample = -(y * np.log(p) + (1.0 - y) * np.log(1.0 - p)).sum(axis=1)
    loss = float(per_sample.mean())
    grad_logits = (probs - y) / probs.shape[0]
    return loss, grad_logits


def frozen_sigmoid(x):
    ex = np.exp(-np.abs(x))
    return np.where(x >= 0, 1.0 / (1.0 + ex), ex / (1.0 + ex))


def frozen_whitening_matrix(cov, eps):
    lam, u = np.linalg.eigh(cov)
    lam = np.maximum(lam, 0.0)
    scaled = lam + eps
    return (u * scaled**-0.5) @ u.T


def frozen_whiten_train(x, gamma, beta, eps, running_mean, running_cov, m):
    """Train-mode whitening: output, batch statistics and the EMA update."""
    mu = x.mean(axis=0)
    centered = x - mu
    cov = centered.T @ centered / x.shape[0]
    w = frozen_whitening_matrix(cov, eps)
    xhat = centered @ w
    out = gamma * xhat + beta
    new_mean = (1.0 - m) * running_mean + m * mu
    new_cov = (1.0 - m) * running_cov + m * cov
    return out, mu, w, xhat, new_mean, new_cov


def frozen_dense_backward(weight, x, grad_out):
    return grad_out @ weight.T, x.T @ grad_out, grad_out.sum(axis=0)


def frozen_whitening_backward(gamma, w, xhat, grad_out):
    grad_x = (grad_out * gamma) @ w
    return grad_x, (grad_out * xhat).sum(axis=0), grad_out.sum(axis=0)


# -- edge inputs ---------------------------------------------------------------


def features(rng, b, d=6):
    f = rng.normal(size=(b, d))
    f[0, : d // 2] = 0.0
    f[-1, d // 2 :] = -0.0
    return f


def signed_zeros(a):
    a = a.copy()
    a[0, 0] = 0.0
    a[-1, -1] = -0.0
    return a


# -- tests ---------------------------------------------------------------------


@pytest.mark.parametrize("b", BATCHES)
def test_unit_rows(b):
    rng = np.random.default_rng(b)
    for f in (features(rng, b), 1e-7 * features(rng, b)):
        for new, old in zip(losses._unit_rows(f), frozen_unit_rows(f)):
            assert same_bits(new, old)
    dead = features(rng, b)
    dead[b // 2] = 0.0
    dead[0] = -0.0
    for new, old in zip(losses._unit_rows(dead), frozen_unit_rows(dead)):
        assert same_bits(new, old)


@pytest.mark.parametrize("variant", ["negatives-only", "standard"])
@pytest.mark.parametrize("b", BATCHES)
def test_ntxent(b, variant):
    rng = np.random.default_rng(10 + b)
    cfg = LossConfig(tau=0.3, ntxent_variant=variant)
    fl, fg = features(rng, b), features(rng, b)
    aligned = fl.copy()  # positives at similarity 1: the clip's upper edge
    opposed = -fl  # and its lower edge
    dead_local, dead_global = fl.copy(), fg.copy()
    dead_local[b - 1] = 0.0
    dead_global[0] = -0.0
    for local, other in [
        (fl, fg),
        (fl, aligned),
        (fl, opposed),
        (dead_local, fg),
        (fl, dead_global),
    ]:
        loss, grad = ntxent(local, other, cfg)
        old_loss, old_grad = frozen_ntxent(local, other, cfg)
        assert loss == old_loss
        assert np.array_equal(grad, old_grad) and same_bits(grad, old_grad)


@pytest.mark.parametrize("b", BATCHES)
def test_bce_multilabel(b):
    rng = np.random.default_rng(20 + b)
    y = (rng.uniform(size=(b, 5)) > 0.5).astype(float)
    probs = rng.uniform(size=(b, 5))
    probs[0] = 0.5
    probs[-1, :2] = [1e-12, 1.0 - 1e-12]
    probs[-1, 2:] = [1e-13, 0.0, 1.0]  # below the floor, at 0 and at 1
    probs[0, 0] = -0.0
    for p in (probs, nncore._sigmoid(40.0 * rng.normal(size=(b, 5)))):
        loss, grad = bce_multilabel(p, y)
        old_loss, old_grad = frozen_bce(p, y)
        assert loss == old_loss
        assert same_bits(grad, old_grad)


@pytest.mark.parametrize("b", BATCHES)
def test_sigmoid(b):
    rng = np.random.default_rng(30 + b)
    x = signed_zeros(rng.normal(scale=5.0, size=(b, 4)))
    x[1 % b, :2] = [40.0, -40.0]
    x[1 % b, 2:] = [800.0, -800.0]
    assert same_bits(nncore._sigmoid(x), frozen_sigmoid(x))


@pytest.mark.parametrize("b", BATCHES)
def test_train_whitening_and_running_statistics(b):
    rng = np.random.default_rng(40 + b)
    d = 5
    x = signed_zeros(rng.normal(size=(b, d)))
    state = WhiteningState(
        gamma=rng.normal(size=d),
        beta=signed_zeros(rng.normal(size=(1, d)))[0],
        running_mean=rng.normal(size=d),
        running_cov=np.eye(d) + 0.1,
        momentum=0.3,
    )
    expected = frozen_whiten_train(
        x, state.gamma, state.beta, state.eps, state.running_mean, state.running_cov, 0.3
    )
    out, mean, w, xhat = batch_whitening_train(x, state)
    got = (out, mean, w, xhat)
    got += (state.running_mean, state.running_cov)
    for new, old in zip(got, expected):
        assert same_bits(new, old)

    grad_out = signed_zeros(rng.normal(size=(b, d)))
    out = np.empty(2 * d)
    new = (batch_whitening_backward(state.gamma, w, xhat, grad_out, out), out[:d], out[d:])
    old = frozen_whitening_backward(state.gamma, w, xhat, grad_out)
    for a, c in zip(new, old):
        assert same_bits(a, c)


@pytest.mark.parametrize("b", BATCHES)
def test_dense_backward(b):
    rng = np.random.default_rng(50 + b)
    layer = DenseLayer(rng.normal(size=(4, 3)), rng.normal(size=3))
    x = signed_zeros(rng.normal(size=(b, 4)))
    grad_out = signed_zeros(rng.normal(size=(b, 3)))
    grad_out[:, 1] = -0.0
    out = np.empty(15)
    new = (dense_backward(layer, x, grad_out, out), out[:12].reshape(4, 3), out[12:])
    old = frozen_dense_backward(layer.weight, x, grad_out)
    for a, c in zip(new, old):
        assert same_bits(a, c)
