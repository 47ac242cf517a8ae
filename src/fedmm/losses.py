"""Classification losses, the contrastive alignment loss, and the combined
per-client training objective.

Gradient conventions: classification losses return gradients with respect
to the pre-activation logits, averaged over the batch. The contrastive
loss sums over the batch and differentiates only the local features; the
other-model features it is paired against are treated as constants.

:func:`local_objective` is the public entry point and checks the shapes it
is given; the losses it calls are internal, trust those shapes and keep
only their value checks (the class id range, the two-row minimum).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import BatchSizeError, ConfigError, DimensionError, ValidationError
from .models import (
    Encoder,
    GlobalModelSet,
    TaskHead,
    cross_encode,
    encode_backward,
    encode_train,
    fuse_full,
    head_forward,
)
from .nncore import Array, dense_backward

NTXENT_VARIANTS = ("negatives-only", "standard")

_PROB_FLOOR = 1e-12
_NORM_FLOOR = 1e-12


@dataclass
class LossConfig:
    """Temperature, contrastive weight, and denominator convention."""

    tau: float = 0.5
    lambda_mim: float = 1.0
    ntxent_variant: str = "negatives-only"

    def __post_init__(self):
        if self.tau <= 0.0:
            raise ValidationError("temperature tau must be positive")
        if self.lambda_mim < 0.0:
            raise ValidationError("lambda_mim must be non-negative")
        if self.ntxent_variant not in NTXENT_VARIANTS:
            raise ConfigError(f"unknown ntxent variant {self.ntxent_variant!r}")


def bce_multilabel(probs: Array, y: Array) -> tuple[float, Array]:
    """Mean over the batch of per-label binary cross-entropy summed over labels.

    Returns the loss and its gradient wrt the logits that produced ``probs``
    through a sigmoid.
    """
    # np.clip, .sum and .mean with less call overhead, bit for bit
    p = np.minimum(np.maximum(probs, _PROB_FLOOR), 1.0 - _PROB_FLOOR)
    per_sample = -np.add.reduce(y * np.log(p) + (1.0 - y) * np.log(1.0 - p), axis=1)
    loss = float(np.add.reduce(per_sample) / per_sample.shape[0])
    grad_logits = (probs - y) / probs.shape[0]
    return loss, grad_logits


def ce_singlelabel(probs: Array, y: Array) -> tuple[float, Array]:
    """Mean negative log-probability of the true class.

    ``y`` holds integer class indices; the gradient is wrt the logits that
    produced ``probs`` through a row softmax.
    """
    if np.any(y < 0) or np.any(y >= probs.shape[1]):
        raise ValidationError(
            f"class index out of range [0, {probs.shape[1]}): {y.min()}..{y.max()}"
        )
    rows = np.arange(probs.shape[0])
    loss = float(-np.log(np.clip(probs[rows, y], _PROB_FLOOR, None)).mean())
    onehot = np.zeros_like(probs)
    onehot[rows, y] = 1.0
    grad_logits = (probs - onehot) / probs.shape[0]
    return loss, grad_logits


def _unit_rows(f: Array) -> tuple[Array, Array, Array]:
    """Rows scaled to unit norm (rows with norm <= 1e-12 stay zero), the
    row norms, and which rows are live (above that floor)."""
    norms = np.sqrt(np.add.reduce(f * f, axis=1))  # np.linalg.norm(f, axis=1)
    live = norms > _NORM_FLOOR
    if live.all():
        return f / norms[:, None], norms, live
    units = np.zeros_like(f)
    units[live] = f[live] / norms[live, None]
    return units, norms, live


def ntxent(f_local: Array, f_global: Array, cfg: LossConfig) -> tuple[float, Array]:
    """Temperature-scaled contrastive loss over cosine similarities.

    Row z of ``f_local`` is paired with row z of ``f_global`` as a positive
    and with every other row as a negative. The loss is summed over the
    batch. The default variant keeps only negatives in the denominator;
    the "standard" variant includes the positive as well. The gradient is
    wrt ``f_local`` only; ``f_global`` is a constant.
    """
    b = f_local.shape[0]
    if b < 2:
        raise BatchSizeError(f"contrastive loss needs at least 2 rows, got {b}")
    ul, nl, live_l = _unit_rows(f_local)
    ug, _, _ = _unit_rows(f_global)
    sims = np.minimum(np.maximum(ul @ ug.T, -1.0), 1.0)  # np.clip, bit for bit
    logits = sims / cfg.tau

    masked = logits
    if cfg.ntxent_variant == "negatives-only":
        masked = logits.copy()
        masked.reshape(-1)[:: b + 1] = -np.inf  # the diagonal, as a view
    row_max = masked.max(axis=1, keepdims=True)
    ex = np.exp(masked - row_max)
    ex_sum = np.add.reduce(ex, axis=1, keepdims=True)
    denom = row_max[:, 0] + np.log(ex_sum[:, 0])
    coeff = ex / ex_sum  # softmax weights; negatives-only: zero diagonal
    coeff.reshape(-1)[:: b + 1] -= 1.0  # weights - I
    coeff /= cfg.tau

    loss = float(np.add.reduce(-logits.diagonal() + denom))

    # d sim[z, t] / d f_local[z] = (ug[t] - sim[z, t] * ul[z]) / ||f_local[z]||
    grad = coeff @ ug - np.add.reduce(coeff * sims, axis=1, keepdims=True) * ul
    if live_l.all():
        grad /= nl[:, None]
    else:
        grad[live_l] /= nl[live_l, None]
        grad[~live_l] = 0.0
    return loss, grad


@dataclass
class LocalObjectiveResult:
    loss: float
    ce: float
    ntx: float
    grad: Array  # laid out like the client's parameters: [encoder | head]


def local_objective(
    x: Array,
    y: Array,
    encoder: Encoder,
    head: TaskHead,
    global_set: GlobalModelSet,
    cfg: LossConfig,
) -> LocalObjectiveResult:
    """Combined per-client objective on one mini-batch.

    Classification term: the local features are zero-padded into the full
    slot layout and scored by the shared head. Alignment term (when
    ``cfg.lambda_mim > 0`` and other modalities exist): the local adapter's
    activation on the batch, as the local forward pass already computed
    it, is pushed through every other modality's body, those features are
    averaged, and the contrastive loss pulls the local features toward
    them. Both terms are averaged over the batch, which
    rescales the summed objective by a constant 1/B and keeps their
    relative weight independent of batch size. The gradient covers the
    local encoder and the head as one vector in ``[encoder | head]``
    flatten order; the other models stay untouched.

    A ``y`` that does not fit the batch and ``head``, an ``x`` that does not
    fit ``encoder``, or an ``encoder`` of another hidden width than
    ``global_set``'s or for a slot outside it raises DimensionError before
    any state changes.
    """
    rows = x.shape[:1]
    expected = rows + (head.n_labels,) if head.task_kind == "multi-label" else rows
    if y.shape != expected:
        raise DimensionError(f"labels {y.shape} do not match batch and head: {expected}")
    if encoder.hidden_dim != global_set.encoders[0].hidden_dim:
        raise DimensionError(f"encoder hidden dim {encoder.hidden_dim} is not the model's")
    slot = encoder.modality_id
    n_mod = global_set.n_modalities
    if not 0 <= slot < n_mod:
        raise DimensionError(f"encoder slot {slot} is not one of the model's {n_mod}")
    n_enc = encoder.params.size
    grad = np.empty(n_enc + head.params.size)
    d = encoder.feature_dim
    f_local, cache = encode_train(encoder, x)
    fused = fuse_full([f_local if m == slot else None for m in range(n_mod)], n_mod, d)
    task_loss = bce_multilabel if head.task_kind == "multi-label" else ce_singlelabel
    ce, grad_logits = task_loss(head_forward(head, fused), y)
    grad_fused = dense_backward(head.layer, fused, grad_logits, grad[n_enc:])
    grad_f_local = grad_fused[:, slot * d : (slot + 1) * d]

    ntx = 0.0
    others = [m for m in range(n_mod) if m != slot]
    if cfg.lambda_mim > 0.0 and others:
        adapter_out = cache.inputs[1]
        stacked = [cross_encode(adapter_out, global_set.encoders[m]) for m in others]
        f_global = stacked[0] if len(stacked) == 1 else sum(stacked) / len(stacked)
        ntx_sum, grad_ntx = ntxent(f_local, f_global, cfg)
        ntx = ntx_sum / x.shape[0]
        grad_f_local = grad_f_local + (cfg.lambda_mim / x.shape[0]) * grad_ntx

    encode_backward(encoder, cache, grad_f_local, grad[:n_enc])
    return LocalObjectiveResult(loss=cfg.lambda_mim * ntx + ce, ce=ce, ntx=ntx, grad=grad)
