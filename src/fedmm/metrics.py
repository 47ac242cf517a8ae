"""Classification metrics and multi-mode model evaluation.

Evaluation runs the whole test set as a single batch per encoder, so any
whitening layer that falls back to batch statistics sees the statistics of
the full evaluation set. Metrics count a multi-label prediction at a
probability of 0.5 or more and take the argmax class of a single-label one.
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
    counts = (pred & truth, pred & ~truth, ~pred & truth)
    return tuple(np.sum(c, axis=0) for c in counts)


def _f1(tp: int, fp: int, fn: int) -> float:
    """0 with no positives and none predicted."""
    denom = 2 * tp + fp + fn
    return 2.0 * tp / denom if denom else 0.0


def report_from_predictions(
    probabilities: Array, labels: Array, task_kind: str
) -> MetricsReport:
    """Score (sample x label) probabilities against labels of the same
    shape (multi-label) or one class id per sample (single-label), else
    DimensionError. A multi-label task predicts each label whose probability
    is 0.5 or more, a single-label task the argmax class. Micro F1 pools
    one count of the boolean (sample x label) arrays, macro F1 averages
    its per-label F1."""
    labels = np.asarray(labels)
    expected = probabilities.shape if task_kind == "multi-label" else probabilities.shape[:1]
    if probabilities.ndim != 2 or labels.shape != expected:
        raise DimensionError(f"probabilities {probabilities.shape} vs labels {labels.shape}")
    if task_kind == "multi-label":
        pred, truth = probabilities >= 0.5, labels > 0.5
        accuracy = float((pred == truth).mean())
    else:
        pred_idx = np.argmax(probabilities, axis=1)
        accuracy = float((pred_idx == labels).mean())
        classes = np.arange(probabilities.shape[1])
        pred, truth = pred_idx[:, None] == classes, labels[:, None] == classes
    tp, fp, fn = _confusion_counts(pred, truth)
    per_label = [_f1(t, p, n) for t, p, n in zip(tp.tolist(), fp.tolist(), fn.tolist())]
    return MetricsReport(
        micro_f1=_f1(int(tp.sum()), int(fp.sum()), int(fn.sum())),
        macro_f1=float(np.mean(per_label)),
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


def parse_modes(modes, n_modalities: int) -> dict[str, list[int]]:
    """The slots each mode reads, by mode in the order given: every slot
    for ``both``, slot m for ``only-m`` (:func:`parse_mode`). An empty
    list, or a repeated, non-string or unknown mode, raises ValidationError."""
    wanted: dict[str, list[int]] = {}
    for mode in modes:
        if not isinstance(mode, str):
            raise ValidationError(f"inference mode {mode!r} is not a string")
        if mode in wanted:
            raise ValidationError(f"inference modes repeat {mode!r}")
        m = parse_mode(mode, n_modalities)
        wanted[mode] = list(range(n_modalities)) if m is None else [m]
    if not wanted:
        raise ValidationError("inference modes must not be empty")
    return wanted


def score_modes(
    encoders: list[Encoder], head: TaskHead, test_shards: list[Shard], modes, probabilities
) -> dict[str, MetricsReport]:
    """The one evaluation loop: a report per mode, in the order given.

    Every mode is validated first (:func:`parse_modes`; a bare mode string
    is rejected, since none of its characters is a mode), then the test
    set: ValidationError for an empty set or shard, a shard count other
    than one per encoder or labels ``head`` cannot score, DimensionError
    for unaligned shards: each must hold shard 0's geo keys and labels, row
    for row, since every mode takes row i of each shard it reads as one
    sample. Then each modality some mode reads is encoded once, by the eval
    forward, and ``probabilities(features, present)``, the evaluator's
    fusion rule, gives each mode's class probabilities from the features by
    modality and the modalities that mode reads.
    """
    p = len(encoders)
    wanted = parse_modes(modes, p)
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
    first = test_shards[0]
    for m, shard in enumerate(test_shards[1:], 1):
        labels_differ = (shard.labels != first.labels).reshape(first.n, -1).any(axis=1)
        differs = np.flatnonzero((shard.geo_keys != first.geo_keys) | labels_differ)
        if differs.size:
            raise DimensionError(
                f"test shards disagree on rows: row {differs[0]} of shard {m} has another "
                "geo key or labels than shard 0"
            )
    features = {
        m: encode(encoders[m], test_shards[m].features)
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
