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

from .data import Shard, label_mismatch
from .errors import DimensionError, ValidationError
from .models import Encoder, GlobalModelSet, TaskHead, encode, fuse_full, head_forward
from .nncore import Array

MODE_BOTH = "both"
_ONLY_RE = re.compile(r"only-(0|[1-9][0-9]*)")


@dataclass
class MetricsReport:
    micro_f1: float
    macro_f1: float
    accuracy: float
    n_samples: int


def _confusion_counts(pred: Array, truth: Array) -> tuple[Array, Array, Array]:
    """Per-label integer true positive, false positive and false negative
    counts of boolean (sample x label) predictions against truth."""
    if pred.shape != truth.shape or pred.ndim != 2:
        raise DimensionError(f"preds {pred.shape} vs labels {truth.shape}")
    counts = (pred & truth, pred & ~truth, ~pred & truth)
    return tuple(np.sum(c, axis=0) for c in counts)


def _f1(tp: int, fp: int, fn: int) -> float:
    denom = 2 * tp + fp + fn
    return 2.0 * tp / denom if denom else 0.0


def micro_f1(preds: Array, labels: Array) -> float:
    """F1 over globally pooled true/false positives and false negatives of
    predictions and labels thresholded at 0.5.

    Defined as 0 when there are no positives anywhere and none predicted.
    """
    return _micro_f1(*_confusion_counts(preds > 0.5, labels > 0.5))


def macro_f1(preds: Array, labels: Array) -> float:
    """Unweighted mean of per-label F1, thresholded as :func:`micro_f1`.

    A label with no positives and no predictions contributes F1 = 0.
    """
    return _macro_f1(*_confusion_counts(preds > 0.5, labels > 0.5))


def _micro_f1(tp: Array, fp: Array, fn: Array) -> float:
    return _f1(int(tp.sum()), int(fp.sum()), int(fn.sum()))


def _macro_f1(tp: Array, fp: Array, fn: Array) -> float:
    counts = zip(tp.tolist(), fp.tolist(), fn.tolist())
    return float(np.mean([_f1(t, p, n) for t, p, n in counts]))


def report_from_predictions(
    probabilities: Array, labels: Array, task_kind: str
) -> MetricsReport:
    """Score probabilities against labels: a multi-label task thresholds
    each label at 0.5, a single-label task takes the argmax class; both
    F1s come from one count of the boolean (sample x label) arrays."""
    if task_kind == "multi-label":
        pred, truth = probabilities >= 0.5, labels > 0.5
        accuracy = float((pred == truth).mean())
    else:
        pred_idx, labels = np.argmax(probabilities, axis=1), np.asarray(labels)
        accuracy = float((pred_idx == labels).mean())
        classes = np.arange(probabilities.shape[1])
        pred, truth = pred_idx[:, None] == classes, labels[:, None] == classes
    counts = _confusion_counts(pred, truth)
    return MetricsReport(
        micro_f1=_micro_f1(*counts),
        macro_f1=_macro_f1(*counts),
        accuracy=accuracy,
        n_samples=probabilities.shape[0],
    )


def parse_mode(mode: str, n_modalities: int) -> int | None:
    """Return the modality index for an ``only-m`` mode, None for ``both``.

    ``m`` is written canonically: ``0``, or digits without a leading zero.
    """
    if mode == MODE_BOTH:
        return None
    match = _ONLY_RE.fullmatch(mode)
    if not match:
        raise ValidationError(f"unknown inference mode {mode!r}")
    m = int(match.group(1))
    if m >= n_modalities:
        raise ValidationError(
            f"mode {mode!r} references modality {m}, model has {n_modalities}"
        )
    return m


def score_modes(
    encoders: list[Encoder], head: TaskHead, test_shards: list[Shard], modes, probabilities
) -> dict[str, MetricsReport]:
    """The one evaluation loop: a report per mode, in the order given.

    Every mode is validated first (a bare mode string is rejected, since
    none of its characters is a mode), then the test set: ValidationError
    for an empty set or shard, a shard count other than one per encoder or
    labels ``head`` cannot score, DimensionError for unaligned shards. Then
    each modality some mode reads (all for ``both``, m for ``only-m``) is
    encoded once, in eval mode, and ``probabilities(features, present)``,
    the evaluator's fusion rule, gives each mode's class probabilities from
    the features by modality and the modalities that mode reads.
    """
    p = len(encoders)
    only = {mode: parse_mode(mode, p) for mode in modes}
    wanted = {mode: list(range(p)) if m is None else [m] for mode, m in only.items()}
    if not test_shards or any(s.n == 0 for s in test_shards):
        raise ValidationError("test set must be non-empty")
    if len(test_shards) != p:
        raise ValidationError(f"{len(test_shards)} test shards for {p} modalities")
    rows = {s.n for s in test_shards}
    if len(rows) != 1:
        raise DimensionError(f"test shards disagree on rows: {sorted(rows)}")
    for m, shard in enumerate(test_shards):
        why = label_mismatch(shard, head.task_kind, head.n_labels)
        if why is not None:
            raise ValidationError(f"test shard {m}: {why}")
    features = {
        m: encode(encoders[m], test_shards[m].features, "eval")
        for m in sorted(set().union(*wanted.values()))
    }
    return {
        mode: report_from_predictions(
            probabilities(features, present), test_shards[present[0]].labels, head.task_kind
        )
        for mode, present in wanted.items()
    }


def evaluate(
    model: GlobalModelSet, test_shards: list[Shard], modes
) -> dict[str, MetricsReport]:
    """Score the model on aligned per-modality test shards, once per mode.

    Mode ``both`` fuses every modality's features; ``only-m`` places
    modality m's features in their slot and zero-fills the rest; the shared
    head scores the fused rows (:func:`score_modes`). The model is not
    mutated: whitening statistics are identical before and after.
    """
    p = model.n_modalities

    def fused_probabilities(features, present):
        blocks = [features[m] if m in present else None for m in range(p)]
        return head_forward(model.head, fuse_full(blocks, p, model.feature_dim))

    return score_modes(model.encoders, model.head, test_shards, modes, fused_probabilities)
