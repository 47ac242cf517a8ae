"""Tests for F1 metrics and multi-mode evaluation."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fedmm import metrics
from fedmm.data import DatasetSpec, gen_synthetic
from fedmm.errors import DimensionError, ValidationError
from fedmm.metrics import (
    evaluate,
    macro_f1,
    micro_f1,
    parse_mode,
    report_from_predictions,
)
from fedmm.models import build_model, encode, head_forward


def _f1_oracle(tp, fp, fn):
    denom = 2 * tp + fp + fn
    return 2 * tp / denom if denom else 0.0


class TestMicroF1:
    def test_hand_counted(self):
        # one sample, three labels: TP=1, FP=1, FN=0 -> 2/3
        preds = np.array([[1.0, 1.0, 0.0]])
        labels = np.array([[1.0, 0.0, 0.0]])
        assert abs(micro_f1(preds, labels) - 2.0 / 3.0) < 1e-12

    def test_perfect_prediction(self):
        labels = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
        assert micro_f1(labels.copy(), labels) == 1.0

    def test_all_zero_predictions(self):
        labels = np.array([[1.0, 0.0], [0.0, 1.0]])
        assert micro_f1(np.zeros_like(labels), labels) == 0.0

    def test_shape_mismatch(self):
        with pytest.raises(DimensionError):
            micro_f1(np.zeros((2, 2)), np.zeros((2, 3)))

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=100, deadline=None)
    def test_matches_confusion_matrix_oracle(self, seed):
        rng = np.random.default_rng(seed)
        n, l = int(rng.integers(1, 20)), int(rng.integers(1, 6))
        preds = (rng.uniform(size=(n, l)) > 0.5).astype(float)
        labels = (rng.uniform(size=(n, l)) > 0.5).astype(float)
        tp = fp = fn = 0
        for i in range(n):
            for j in range(l):
                if preds[i, j] and labels[i, j]:
                    tp += 1
                elif preds[i, j] and not labels[i, j]:
                    fp += 1
                elif not preds[i, j] and labels[i, j]:
                    fn += 1
        assert micro_f1(preds, labels) == _f1_oracle(tp, fp, fn)


class TestMacroF1:
    def test_zero_support_label_contributes_zero(self):
        # label 1 never occurs and is never predicted: its F1 counts as 0
        preds = np.array([[1.0, 0.0], [1.0, 0.0]])
        labels = np.array([[1.0, 0.0], [1.0, 0.0]])
        assert macro_f1(preds, labels) == 0.5

    def test_averages_per_label_f1(self):
        preds = np.array([[1.0, 1.0], [0.0, 1.0]])
        labels = np.array([[1.0, 0.0], [1.0, 1.0]])
        # label 0: tp=1 fp=0 fn=1 -> 2/3; label 1: tp=1 fp=1 fn=0 -> 2/3
        assert abs(macro_f1(preds, labels) - 2.0 / 3.0) < 1e-12


class TestReportFromPredictions:
    def test_multilabel_threshold_half(self):
        probs = np.array([[0.51, 0.49], [0.2, 0.9]])
        labels = np.array([[1.0, 0.0], [0.0, 1.0]])
        report = report_from_predictions(probs, labels, "multi-label")
        assert report.micro_f1 == 1.0 and report.accuracy == 1.0
        assert report.n_samples == 2

    def test_singlelabel_argmax_accuracy(self):
        probs = np.array([[0.7, 0.2, 0.1], [0.1, 0.1, 0.8]])
        report = report_from_predictions(probs, np.array([0, 1]), "single-label")
        assert report.accuracy == 0.5
        # single-label micro F1 over one-hot rows equals accuracy
        assert report.micro_f1 == 0.5

    def test_duplicated_inputs_leave_ratios_unchanged(self):
        rng = np.random.default_rng(0)
        probs = rng.uniform(size=(10, 4))
        labels = (rng.uniform(size=(10, 4)) > 0.5).astype(float)
        once = report_from_predictions(probs, labels, "multi-label")
        twice = report_from_predictions(
            np.vstack([probs, probs]), np.vstack([labels, labels]), "multi-label"
        )
        assert once.micro_f1 == twice.micro_f1
        assert once.macro_f1 == twice.macro_f1
        assert once.accuracy == twice.accuracy

    @pytest.mark.parametrize("kind", ["multi-label", "single-label"])
    def test_counts_once_and_agrees_with_public_f1(self, monkeypatch, kind):
        rng = np.random.default_rng(4)
        probs = rng.uniform(size=(12, 4))
        if kind == "multi-label":
            labels = (rng.uniform(size=(12, 4)) > 0.5).astype(float)
            preds, truth = (probs >= 0.5).astype(float), labels
        else:
            labels = rng.integers(0, 4, size=12)
            preds, truth = np.eye(4)[probs.argmax(axis=1)], np.eye(4)[labels]
        calls = []
        counts = metrics._confusion_counts
        monkeypatch.setattr(
            metrics, "_confusion_counts", lambda *a: calls.append(a) or counts(*a)
        )
        report = report_from_predictions(probs, labels, kind)
        assert len(calls) == 1
        assert report.micro_f1 == micro_f1(preds, truth)
        assert report.macro_f1 == macro_f1(preds, truth)


def _fixture_model_and_data(use_whitening=True):
    spec = DatasetSpec(
        n_sites=60,
        latent_dim=5,
        modality_dims=(4, 6),
        n_labels=3,
        n_groups=2,
        seed=1,
    )
    ds = gen_synthetic(spec)
    model = build_model(
        input_dims=[4, 6],
        hidden_dim=8,
        feature_dim=5,
        n_labels=3,
        task_kind="multi-label",
        use_whitening=use_whitening,
        rng=np.random.default_rng(2),
    )
    return model, ds


class TestEvaluate:
    def test_only_mode_matches_zeroed_other_features(self):
        model, ds = _fixture_model_and_data()
        only = evaluate(model, ds.test, "only-1")
        feats = encode(model.encoders[1], ds.test[1].features, "eval")
        fused = np.concatenate([np.zeros_like(feats), feats], axis=1)
        probs = head_forward(model.head, fused)
        direct = report_from_predictions(probs, ds.test[1].labels, "multi-label")
        assert only.micro_f1 == direct.micro_f1
        assert only.accuracy == direct.accuracy

    def test_deterministic_across_calls(self):
        model, ds = _fixture_model_and_data()
        a = evaluate(model, ds.test, "both")
        b = evaluate(model, ds.test, "both")
        assert (a.micro_f1, a.macro_f1, a.accuracy) == (b.micro_f1, b.macro_f1, b.accuracy)
        np.testing.assert_array_equal(a.per_label_precision, b.per_label_precision)
        np.testing.assert_array_equal(a.per_label_recall, b.per_label_recall)

    def test_never_mutates_model_state(self):
        model, ds = _fixture_model_and_data(use_whitening=True)
        # populate one encoder's statistics to cover the calibrated path too
        encode(model.encoders[0], ds.train[0].features[:16], "train")
        snapshots = []
        for enc in model.encoders:
            st = enc.adapter.whitening
            snapshots.append(
                (st.running_mean.tobytes(), st.running_cov.tobytes(), st.stats_ready)
            )
        for mode in ("both", "only-0", "only-1"):
            evaluate(model, ds.test, mode)
        for enc, before in zip(model.encoders, snapshots):
            st = enc.adapter.whitening
            after = (st.running_mean.tobytes(), st.running_cov.tobytes(), st.stats_ready)
            assert after == before

    def test_unknown_mode_rejected(self):
        model, ds = _fixture_model_and_data(use_whitening=False)
        with pytest.raises(ValidationError):
            evaluate(model, ds.test, "only-2")
        with pytest.raises(ValidationError):
            evaluate(model, ds.test, "fused")

    def test_parse_mode(self):
        assert parse_mode("both", 2) is None
        assert parse_mode("only-1", 2) == 1
        with pytest.raises(ValidationError):
            parse_mode("only-3", 2)
