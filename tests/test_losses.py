"""Tests for classification losses, the contrastive loss, and the combined
per-client objective, all checked against independent oracles."""

import math

import numpy as np
import pytest
from gradcheck import grad_check
from modelclone import clone_model

from fedmm import nncore
from fedmm.errors import BatchSizeError, ConfigError, DimensionError, ValidationError
from fedmm.losses import (
    LossConfig,
    bce_multilabel,
    ce_singlelabel,
    local_objective,
    ntxent,
)
from fedmm.models import (
    build_encoder,
    build_model,
    cross_encode,
    encode,
    encode_train,
    flatten_params,
    head_forward,
    param_count,
    unflatten_params,
)
from fedmm.nncore import activation_forward, dense_forward, whitening_matrix


def _sigmoid(x):
    return 1.0 / (1.0 + np.exp(-x))


class TestBceMultilabel:
    def test_half_probability_is_log_two(self):
        loss, _ = bce_multilabel(np.array([[0.5]]), np.array([[1.0]]))
        assert abs(loss - math.log(2.0)) < 1e-12

    def test_perfect_prediction(self):
        y = np.array([[1.0, 0.0], [0.0, 1.0]])
        loss, _ = bce_multilabel(y.copy(), y)
        assert loss < 1e-10

    def test_gradient_matches_finite_differences_through_sigmoid(self):
        rng = np.random.default_rng(0)
        y = (rng.uniform(size=(3, 4)) > 0.5).astype(float)

        def f(theta):
            logits = theta.reshape(3, 4)
            probs = _sigmoid(logits)
            loss, grad = bce_multilabel(probs, y)
            return loss, grad.ravel()

        assert grad_check(f, rng.normal(size=12), h=1e-5) < 1e-6


class TestCeSinglelabel:
    def test_uniform_probabilities(self):
        probs = np.full((5, 4), 0.25)
        loss, _ = ce_singlelabel(probs, np.array([0, 1, 2, 3, 0]))
        assert abs(loss - math.log(4.0)) < 1e-12

    def test_certain_prediction(self):
        probs = np.eye(3)
        loss, _ = ce_singlelabel(probs, np.array([0, 1, 2]))
        assert loss == 0.0

    def test_gradient_matches_finite_differences_through_softmax(self):
        rng = np.random.default_rng(1)
        y = rng.integers(0, 4, size=3)

        def f(theta):
            logits = theta.reshape(3, 4)
            probs = activation_forward(logits, "softmax-rows")
            loss, grad = ce_singlelabel(probs, y)
            return loss, grad.ravel()

        assert grad_check(f, rng.normal(size=12), h=1e-5) < 1e-6

    def test_index_out_of_range(self):
        with pytest.raises(ValidationError):
            ce_singlelabel(np.full((2, 3), 1 / 3), np.array([0, 3]))


def _ntxent_reference(f_local, f_global, tau, variant):
    """Straightforward loop re-implementation used as an oracle."""

    def cos(a, b):
        na, nb = np.linalg.norm(a), np.linalg.norm(b)
        if na <= 1e-12 or nb <= 1e-12:
            return 0.0
        return float(a @ b) / (na * nb)

    total = 0.0
    b = f_local.shape[0]
    for z in range(b):
        pos = math.exp(cos(f_local[z], f_global[z]) / tau)
        denom = 0.0
        for t in range(b):
            if variant == "negatives-only" and t == z:
                continue
            denom += math.exp(cos(f_local[z], f_global[t]) / tau)
        total += -math.log(pos / denom)
    return total


class TestNtxent:
    def test_all_rows_identical_gives_zero(self):
        v = np.array([1.0, 0.0])
        f = np.tile(v, (2, 1))
        loss, _ = ntxent(f, f.copy(), LossConfig(tau=1.0))
        assert abs(loss) < 1e-12

    def test_hand_evaluated_orthogonal_negatives(self):
        # positives aligned (sim 1), cross pairs orthogonal (sim 0), tau=1:
        # each sample contributes -log(e^1 / e^0) = -1
        f = np.eye(2)
        loss, _ = ntxent(f, f.copy(), LossConfig(tau=1.0, ntxent_variant="negatives-only"))
        assert abs(loss - (-2.0)) < 1e-12

    def test_hand_evaluated_standard_variant(self):
        f = np.eye(2)
        loss, _ = ntxent(f, f.copy(), LossConfig(tau=1.0, ntxent_variant="standard"))
        expected = 2.0 * math.log(1.0 + math.exp(-1.0))  # 0.626524...
        assert abs(loss - expected) < 1e-12

    @pytest.mark.parametrize("variant", ["negatives-only", "standard"])
    def test_matches_loop_reference(self, variant):
        rng = np.random.default_rng(3)
        fl = rng.normal(size=(5, 4))
        fg = rng.normal(size=(5, 4))
        loss, _ = ntxent(fl, fg, LossConfig(tau=0.5, ntxent_variant=variant))
        assert abs(loss - _ntxent_reference(fl, fg, 0.5, variant)) < 1e-10

    @pytest.mark.parametrize("scale", [0.5, 3.0])
    def test_invariant_to_row_rescaling(self, scale):
        rng = np.random.default_rng(4)
        fl = rng.normal(size=(4, 3))
        fg = rng.normal(size=(4, 3))
        cfg = LossConfig(tau=0.7)
        base, _ = ntxent(fl, fg, cfg)
        scaled, _ = ntxent(fl * scale, fg, cfg)
        assert abs(base - scaled) < 1e-9
        scaled_g, _ = ntxent(fl, fg * scale, cfg)
        assert abs(base - scaled_g) < 1e-9

    def test_loss_decreases_as_positive_similarity_grows(self):
        # negatives pinned at similarity 0 while the positive pair rotates
        # into alignment: the loss must fall monotonically
        fg = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
        losses = []
        for angle in [1.2, 0.8, 0.4, 0.1]:
            fl = np.array(
                [[math.cos(angle), 0.0, math.sin(angle)], [0.0, 1.0, 0.0]]
            )
            loss, _ = ntxent(fl, fg, LossConfig(tau=0.5))
            losses.append(loss)
        assert all(a > b for a, b in zip(losses, losses[1:]))

    @pytest.mark.parametrize("variant", ["negatives-only", "standard"])
    def test_gradient_matches_finite_differences(self, variant):
        rng = np.random.default_rng(5)
        fg = rng.normal(size=(4, 3))
        cfg = LossConfig(tau=0.5, ntxent_variant=variant)

        def f(theta):
            fl = theta.reshape(4, 3)
            loss, grad = ntxent(fl, fg, cfg)
            return loss, grad.ravel()

        assert grad_check(f, rng.normal(size=12), h=1e-6) < 1e-5

    @pytest.mark.parametrize("variant", ["negatives-only", "standard"])
    @pytest.mark.parametrize("dead", ["local", "global"])
    def test_zero_norm_row(self, variant, dead):
        # a zero row has no direction: its cosines are 0, and a dead local
        # row gets no gradient; the loss and the live rows' gradient still
        # match the loop reference (the gradient by central differences)
        rng = np.random.default_rng(6)
        fl = rng.normal(size=(5, 4))
        fg = rng.normal(size=(5, 4))
        (fl if dead == "local" else fg)[2] = 0.0
        cfg = LossConfig(tau=0.5, ntxent_variant=variant)
        loss, grad = ntxent(fl, fg, cfg)
        assert np.isfinite(loss) and np.all(np.isfinite(grad))
        assert abs(loss - _ntxent_reference(fl, fg, 0.5, variant)) < 1e-10
        live = [0, 1, 3, 4] if dead == "local" else list(range(5))
        if dead == "local":
            assert np.all(grad[2] == 0.0)
        h = 1e-6
        for z in live:
            for j in range(4):
                plus, minus = fl.copy(), fl.copy()
                plus[z, j] += h
                minus[z, j] -= h
                numeric = (
                    _ntxent_reference(plus, fg, 0.5, variant)
                    - _ntxent_reference(minus, fg, 0.5, variant)
                ) / (2.0 * h)
                assert abs(numeric - grad[z, j]) < 1e-6 * max(1.0, abs(numeric))

    def test_small_batch_rejected(self):
        with pytest.raises(BatchSizeError):
            ntxent(np.ones((1, 3)), np.ones((1, 3)), LossConfig())

    def test_unknown_variant_rejected(self):
        with pytest.raises(ConfigError):
            LossConfig(ntxent_variant="simclr")

    def test_bad_temperature_rejected(self):
        with pytest.raises(ValidationError):
            LossConfig(tau=0.0)


def _tiny_model(seed=0, use_whitening=True, task_kind="multi-label"):
    return build_model(
        input_dims=[3, 4],
        hidden_dim=5,
        feature_dim=3,
        n_labels=2,
        task_kind=task_kind,
        use_whitening=use_whitening,
        rng=np.random.default_rng(seed),
    )


@pytest.mark.parametrize(
    "call",
    [
        "encode-x",
        "head-z",
        "head-z-1d",
        "local-x",
        "local-y-columns",
        "local-y-rows",
        "local-hidden",
        "local-slot",
    ],
)
def test_public_entry_points_raise_dimension_error(call):
    # the kernels trust their shapes, so a malformed direct call must be
    # caught at the entry point, with a typed error rather than numpy's
    model = _tiny_model()
    enc, head = model.encoders[0], model.head
    x, y = np.random.default_rng(4).normal(size=(4, 3)), np.ones((4, 2))

    def objective(x_, y_, encoder=enc):
        return local_objective(x_, y_, encoder, head, model, LossConfig())

    calls = {
        "encode-x": lambda: encode(enc, np.zeros((4, 4)), "train"),
        "head-z": lambda: head_forward(head, np.zeros((4, 5))),
        "head-z-1d": lambda: head_forward(head, np.zeros(6)),
        "local-x": lambda: objective(np.zeros((4, 4)), y),
        "local-y-columns": lambda: objective(x, np.ones((4, 3))),
        "local-y-rows": lambda: objective(x, np.ones((3, 2))),
        "local-hidden": lambda: objective(
            x, y, build_encoder(0, 3, 7, 3, True, np.random.default_rng(1))
        ),
        "local-slot": lambda: objective(
            x, y, build_encoder(2, 3, 5, 3, True, np.random.default_rng(1))
        ),
    }
    with pytest.raises(DimensionError):
        calls[call]()


class TestLocalObjective:
    def test_zero_weight_reduces_to_classification_only(self):
        model = _tiny_model()
        rng = np.random.default_rng(7)
        x = rng.normal(size=(4, 3))
        y = (rng.uniform(size=(4, 2)) > 0.5).astype(float)

        run_a = clone_model(model)
        res = local_objective(
            x, y, run_a.encoders[0], run_a.head, run_a, LossConfig(lambda_mim=0.0)
        )

        run_b = clone_model(model)
        enc, head = run_b.encoders[0], run_b.head
        f_local, cache = encode_train(enc, x)
        fused = np.concatenate([f_local, np.zeros_like(f_local)], axis=1)
        logits = dense_forward(head.layer, fused)
        ce, grad_logits = bce_multilabel(activation_forward(logits, "sigmoid"), y)

        assert res.loss == ce
        assert res.ntx == 0.0
        from fedmm.models import encode_backward

        grad_f = (grad_logits @ head.layer.weight.T)[:, :3]
        np.testing.assert_array_equal(
            res.grad[: param_count(enc)],
            encode_backward(enc, cache, grad_f, np.empty(param_count(enc))),
        )

    def test_single_other_modality_equals_one_contrastive_call(self):
        model = _tiny_model(seed=3)
        rng = np.random.default_rng(8)
        x = rng.normal(size=(4, 3))
        y = (rng.uniform(size=(4, 2)) > 0.5).astype(float)
        cfg = LossConfig(tau=0.5, lambda_mim=1.0)

        run_a = clone_model(model)
        res = local_objective(x, y, run_a.encoders[0], run_a.head, run_a, cfg)

        run_b = clone_model(model)
        f_local, cache = encode_train(run_b.encoders[0], x)
        f_global = cross_encode(cache.inputs[1], run_b.encoders[1])
        ntx_direct, _ = ntxent(f_local, f_global, cfg)
        assert res.ntx == ntx_direct / x.shape[0]

    @pytest.mark.parametrize("task_kind", ["multi-label", "single-label"])
    def test_composite_gradient_matches_frozen_oracle(self, task_kind):
        model = _tiny_model(seed=12, use_whitening=True, task_kind=task_kind)
        rng = np.random.default_rng(9)
        x = rng.normal(size=(3, 3)) + 0.8
        if task_kind == "multi-label":
            y = (rng.uniform(size=(3, 2)) > 0.5).astype(float)
        else:
            y = rng.integers(0, 2, size=3)
        cfg = LossConfig(tau=0.5, lambda_mim=1.0)

        work = clone_model(model)
        enc, head = work.encoders[0], work.head
        probe_features, _ = encode_train(clone_model(model).encoders[0], x)
        # cosine similarity is discontinuous at zero-norm rows; the fixture
        # must stay away from that degenerate definition boundary
        assert np.linalg.norm(probe_features, axis=1).min() > 1e-3
        res = local_objective(x, y, enc, head, work, cfg)
        analytic = res.grad
        n_enc = param_count(enc)

        # constants of the stop-gradient semantics, captured at theta0
        _, theta0_cache = encode_train(clone_model(model).encoders[0], x)
        f_global = cross_encode(theta0_cache.inputs[1], model.encoders[1])
        base_enc = model.encoders[0]
        z1 = x @ base_enc.adapter.dense.weight + base_enc.adapter.dense.bias
        mu = z1.mean(axis=0)
        c = z1 - mu
        w_frozen = whitening_matrix(c.T @ c / z1.shape[0], base_enc.adapter.whitening.eps)

        def frozen_loss(theta):
            enc_t = unflatten_params(theta[:n_enc], model.encoders[0])
            head_t = unflatten_params(theta[n_enc:], model.head)
            z = x @ enc_t.adapter.dense.weight + enc_t.adapter.dense.bias
            wst = enc_t.adapter.whitening
            h = np.maximum(wst.gamma * ((z - mu) @ w_frozen) + wst.beta, 0.0)
            s1, s2 = enc_t.body
            h = np.maximum(h @ s1.dense.weight + s1.dense.bias, 0.0)
            f_loc = h @ s2.dense.weight + s2.dense.bias
            fused_t = np.concatenate([f_loc, np.zeros_like(f_loc)], axis=1)
            logits = fused_t @ head_t.layer.weight + head_t.layer.bias
            if task_kind == "multi-label":
                probs = _sigmoid(logits)
                ce = float(
                    -(
                        y * np.log(probs) + (1.0 - y) * np.log(1.0 - probs)
                    ).sum(axis=1).mean()
                )
            else:
                ex = np.exp(logits - logits.max(axis=1, keepdims=True))
                probs = ex / ex.sum(axis=1, keepdims=True)
                ce = float(-np.log(probs[np.arange(3), y]).mean())
            ntx = _ntxent_reference(f_loc, f_global, cfg.tau, cfg.ntxent_variant)
            return cfg.lambda_mim * ntx / x.shape[0] + ce, analytic

        theta0 = np.concatenate([flatten_params(enc), flatten_params(head)])
        np.testing.assert_allclose(frozen_loss(theta0)[0], res.loss, rtol=1e-12)
        assert grad_check(frozen_loss, theta0, h=1e-5) < 1e-4

    def test_one_whitening_per_step(self, monkeypatch):
        # the cross-encoding reuses the adapter activation of the local
        # forward pass, so the adapter's covariance is decomposed only once
        calls = []
        original = nncore.whitening_matrix

        def counting(cov, eps):
            calls.append(cov.shape)
            return original(cov, eps)

        monkeypatch.setattr(nncore, "whitening_matrix", counting)
        model = _tiny_model(seed=4, use_whitening=True)
        rng = np.random.default_rng(11)
        x = rng.normal(size=(6, 3))
        y = (rng.uniform(size=(6, 2)) > 0.5).astype(float)
        res = local_objective(x, y, model.encoders[0], model.head, model, LossConfig())
        assert res.ntx > 0.0
        assert calls == [(5, 5)]

    def test_loss_parts_add_up(self):
        model = _tiny_model(seed=5)
        rng = np.random.default_rng(10)
        x = rng.normal(size=(4, 4))
        y = (rng.uniform(size=(4, 2)) > 0.5).astype(float)
        cfg = LossConfig(tau=0.5, lambda_mim=0.25)
        res = local_objective(x, y, model.encoders[1], model.head, model, cfg)
        assert res.loss == cfg.lambda_mim * res.ntx + res.ce
