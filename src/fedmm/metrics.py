"""Classification metrics and multi-mode model evaluation.

Evaluation runs the whole test set as a single batch per encoder, so any
whitening layer that falls back to batch statistics sees the statistics of
the full evaluation set. Metrics are computed from a 0.5 probability
threshold for multi-label tasks and argmax for single-label tasks.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

import numpy as np

from .data import Shard
from .errors import DimensionError, ValidationError
from .models import GlobalModelSet, encode, fuse_full, head_forward
from .nncore import Array

MODE_BOTH = "both"
_ONLY_RE = re.compile(r"^only-(\d+)$")


@dataclass
class MetricsReport:
    micro_f1: float
    macro_f1: float
    accuracy: float
    per_label_precision: Array
    per_label_recall: Array
    n_samples: int


def _confusion_counts(preds: Array, labels: Array) -> tuple[Array, Array, Array]:
    """Per-label integer true positive, false positive and false negative
    counts of predictions and labels thresholded at 0.5."""
    if preds.shape != labels.shape or preds.ndim != 2:
        raise DimensionError(f"preds {preds.shape} vs labels {labels.shape}")
    p = preds > 0.5
    l = labels > 0.5
    return np.sum(p & l, axis=0), np.sum(p & ~l, axis=0), np.sum(~p & l, axis=0)


def _f1(tp: int, fp: int, fn: int) -> float:
    denom = 2 * tp + fp + fn
    return 2.0 * tp / denom if denom else 0.0


def micro_f1(preds: Array, labels: Array) -> float:
    """F1 over globally pooled true/false positives and false negatives.

    Defined as 0 when there are no positives anywhere and none predicted.
    """
    return _micro_f1(*_confusion_counts(preds, labels))


def macro_f1(preds: Array, labels: Array) -> float:
    """Unweighted mean of per-label F1.

    A label with no positives and no predictions contributes F1 = 0.
    """
    return _macro_f1(*_confusion_counts(preds, labels))


def _micro_f1(tp: Array, fp: Array, fn: Array) -> float:
    return _f1(int(tp.sum()), int(fp.sum()), int(fn.sum()))


def _macro_f1(tp: Array, fp: Array, fn: Array) -> float:
    counts = zip(tp.tolist(), fp.tolist(), fn.tolist())
    return float(np.mean([_f1(t, p, n) for t, p, n in counts]))


def _per_label_pr(tp: Array, fp: Array, fn: Array) -> tuple[Array, Array]:
    tp, fp, fn = (c.astype(float) for c in (tp, fp, fn))
    with np.errstate(invalid="ignore", divide="ignore"):
        precision = np.where(tp + fp > 0, tp / (tp + fp), 0.0)
        recall = np.where(tp + fn > 0, tp / (tp + fn), 0.0)
    return precision, recall


def _onehot(indices: Array, n_labels: int) -> Array:
    out = np.zeros((indices.shape[0], n_labels))
    out[np.arange(indices.shape[0]), indices] = 1.0
    return out


def report_from_predictions(
    probabilities: Array, labels: Array, task_kind: str
) -> MetricsReport:
    """Threshold/argmax probabilities and assemble the full metric report."""
    if task_kind == "multi-label":
        preds = (probabilities >= 0.5).astype(float)
        truth = labels
        accuracy = float((preds == truth).mean())
    else:
        n_labels = probabilities.shape[1]
        pred_idx = np.argmax(probabilities, axis=1)
        preds = _onehot(pred_idx, n_labels)
        truth = _onehot(np.asarray(labels), n_labels)
        accuracy = float((pred_idx == np.asarray(labels)).mean())
    counts = _confusion_counts(preds, truth)
    precision, recall = _per_label_pr(*counts)
    return MetricsReport(
        micro_f1=_micro_f1(*counts),
        macro_f1=_macro_f1(*counts),
        accuracy=accuracy,
        per_label_precision=precision,
        per_label_recall=recall,
        n_samples=probabilities.shape[0],
    )


def parse_mode(mode: str, n_modalities: int) -> int | None:
    """Return the modality index for an ``only-m`` mode, None for ``both``."""
    if mode == MODE_BOTH:
        return None
    match = _ONLY_RE.match(mode)
    if not match:
        raise ValidationError(f"unknown inference mode {mode!r}")
    m = int(match.group(1))
    if m >= n_modalities:
        raise ValidationError(
            f"mode {mode!r} references modality {m}, model has {n_modalities}"
        )
    return m


def evaluate(model: GlobalModelSet, test_shards: list[Shard], mode: str) -> MetricsReport:
    """Score the model on aligned per-modality test shards.

    Mode ``both`` fuses every modality's features; ``only-m`` places
    modality m's features in their slot and zero-fills the rest. The model
    is not mutated: whitening statistics are identical before and after.
    """
    if not test_shards or any(s.n == 0 for s in test_shards):
        raise ValidationError("test set must be non-empty")
    only = parse_mode(mode, model.n_modalities)
    wanted = [only] if only is not None else list(range(model.n_modalities))
    blocks: list[Array | None] = [None] * model.n_modalities
    for m in wanted:
        blocks[m] = encode(model.encoders[m], test_shards[m].features, "eval")
    fused = fuse_full(blocks, model.n_modalities, model.feature_dim)
    probs = head_forward(model.head, fused)
    labels = test_shards[wanted[0]].labels
    return report_from_predictions(probs, labels, model.head.task_kind)
