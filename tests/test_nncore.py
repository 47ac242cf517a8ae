"""Unit tests for the numeric kernel: layers, whitening, Adam, grad checks."""

import math

import numpy as np
import pytest

from fedmm.errors import (
    BatchSizeError,
    ConfigError,
    DimensionError,
    NumericError,
    StateError,
    ValidationError,
)
from fedmm.nncore import (
    AdamState,
    DenseLayer,
    WhiteningState,
    activation_backward,
    activation_forward,
    adam_step,
    as_tensor,
    batch_whitening_backward,
    batch_whitening_forward,
    dense_backward,
    dense_forward,
    grad_check,
    whiten_batch,
    whitening_matrix,
)


def test_as_tensor_rejects_non_finite():
    with pytest.raises(NumericError):
        as_tensor([1.0, np.nan])
    with pytest.raises(NumericError):
        as_tensor([np.inf])


class TestDense:
    def test_identity_weight(self):
        layer = DenseLayer(weight=np.eye(2), bias=np.zeros(2))
        out = dense_forward(layer, np.array([[3.0, -1.0]]))
        np.testing.assert_array_equal(out, [[3.0, -1.0]])

    def test_hand_matrix_multiply(self):
        # [[2, 4]] @ [[1], [1]] + [0.5] = [[6.5]]
        layer = DenseLayer(weight=np.array([[1.0], [1.0]]), bias=np.array([0.5]))
        out = dense_forward(layer, np.array([[2.0, 4.0]]))
        np.testing.assert_allclose(out, [[6.5]])

    def test_zero_weights_annihilate(self):
        layer = DenseLayer(weight=np.zeros((3, 2)), bias=np.zeros(2))
        x = np.random.default_rng(0).normal(size=(4, 3))
        np.testing.assert_array_equal(dense_forward(layer, x), np.zeros((4, 2)))

    def test_shape_mismatch_names_both_shapes(self):
        layer = DenseLayer(weight=np.zeros((3, 2)), bias=np.zeros(2))
        with pytest.raises(DimensionError, match=r"\(1, 4\).*\(3, 2\)"):
            dense_forward(layer, np.zeros((1, 4)))

    def test_backward_zero_upstream(self):
        layer = DenseLayer(weight=np.ones((2, 1)), bias=np.zeros(1))
        x = np.array([[1.0, 2.0]])
        gx, gw, gb = dense_backward(layer, x, np.zeros((1, 1)))
        assert not gx.any() and not gw.any() and not gb.any()

    def test_backward_hand_computed(self):
        layer = DenseLayer(weight=np.array([[1.0], [1.0]]), bias=np.zeros(1))
        x = np.array([[1.0, 2.0]])
        gx, gw, gb = dense_backward(layer, x, np.array([[1.0]]))
        np.testing.assert_array_equal(gw, [[1.0], [2.0]])
        np.testing.assert_array_equal(gb, [1.0])
        np.testing.assert_array_equal(gx, [[1.0, 1.0]])

    def test_backward_without_input_gradient(self):
        rng = np.random.default_rng(8)
        layer = DenseLayer(weight=rng.normal(size=(3, 4)), bias=np.zeros(4))
        x, probe = rng.normal(size=(5, 3)), rng.normal(size=(5, 4))
        _, gw, gb = dense_backward(layer, x, probe)
        gx, gw_only, gb_only = dense_backward(layer, x, probe, input_grad=False)
        assert gx is None
        assert gw_only.tobytes() == gw.tobytes() and gb_only.tobytes() == gb.tobytes()

    def test_backward_matches_finite_differences(self):
        rng = np.random.default_rng(7)
        x = rng.normal(size=(5, 3))
        probe = rng.normal(size=(5, 4))  # fixed projection makes the loss scalar

        def f(theta):
            w = theta[:12].reshape(3, 4)
            b = theta[12:]
            layer = DenseLayer(weight=w, bias=b)
            out = dense_forward(layer, x)
            _, gw, gb = dense_backward(layer, x, probe)
            return float((out * probe).sum()), np.concatenate([gw.ravel(), gb])

        theta0 = rng.normal(size=16)
        assert grad_check(f, theta0, h=1e-5) < 1e-6


class TestActivations:
    def test_relu_forward(self):
        out = activation_forward(np.array([-1.0, 0.0, 2.0]), "relu")
        np.testing.assert_array_equal(out, [0.0, 0.0, 2.0])

    def test_sigmoid_symmetry_point(self):
        np.testing.assert_allclose(activation_forward(np.array([0.0]), "sigmoid"), [0.5])

    def test_sigmoid_extremes_stay_finite_in_unit_interval(self):
        x = np.array([800.0, -800.0, 0.0, -0.0])
        with np.errstate(over="raise", invalid="raise"):
            out = activation_forward(x, "sigmoid")
        assert np.all(np.isfinite(out))
        assert np.all((out >= 0.0) & (out <= 1.0))
        np.testing.assert_array_equal(out, [1.0, 0.0, 0.5, 0.5])

    @pytest.mark.parametrize("shape", [(64, 8), (63, 8), (400, 8)])
    def test_sigmoid_matches_two_branch_reference_bitwise(self, shape):
        def reference(x):
            out = np.empty_like(x)
            pos = x >= 0
            out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
            ex = np.exp(x[~pos])
            out[~pos] = ex / (1.0 + ex)
            return out

        x = np.random.default_rng(5).normal(size=shape) * 20.0
        x.flat[:4] = [800.0, -800.0, 0.0, -0.0]
        assert activation_forward(x, "sigmoid").tobytes() == reference(x).tobytes()

    def test_softmax_uniform(self):
        out = activation_forward(np.array([[0.0, 0.0]]), "softmax-rows")
        np.testing.assert_allclose(out, [[0.5, 0.5]])

    def test_softmax_rows_sum_to_one(self):
        rng = np.random.default_rng(3)
        out = activation_forward(rng.normal(size=(6, 5)) * 10.0, "softmax-rows")
        np.testing.assert_allclose(out.sum(axis=1), np.ones(6), atol=1e-12)

    def test_softmax_requires_two_dims(self):
        with pytest.raises(DimensionError):
            activation_forward(np.array([1.0, 2.0]), "softmax-rows")

    def test_unknown_kind(self):
        with pytest.raises(ConfigError):
            activation_forward(np.zeros(2), "tanh")
        with pytest.raises(ConfigError):
            activation_backward(np.zeros(2), "tanh", np.zeros(2))

    @pytest.mark.parametrize("kind", ["relu", "sigmoid", "softmax-rows"])
    def test_backward_matches_finite_differences(self, kind):
        rng = np.random.default_rng(11)
        shape = (3, 4)
        probe = rng.normal(size=shape)
        # keep relu inputs away from the kink
        base = rng.normal(size=shape) + np.where(rng.normal(size=shape) > 0, 0.5, -0.5)

        def f(theta):
            x = theta.reshape(shape)
            out = activation_forward(x, kind)
            grad = activation_backward(x, kind, probe)
            return float((out * probe).sum()), grad.ravel()

        assert grad_check(f, base.ravel(), h=1e-6) < 1e-5


class TestWhiteningMatrix:
    def test_identity_covariance(self):
        w = whitening_matrix(np.eye(2), eps=1e-5)
        np.testing.assert_allclose(w, 0.999995 * np.eye(2), atol=1e-9)

    def test_diagonal_covariance(self):
        w = whitening_matrix(np.diag([2.0, 2.0]), eps=0.0)
        np.testing.assert_allclose(w, np.diag([2.0**-0.5, 2.0**-0.5]), atol=1e-12)

    def test_scalar_inverse_square_root(self):
        np.testing.assert_allclose(whitening_matrix(np.array([[4.0]]), eps=0.0), [[0.5]])

    def test_whitens_its_own_covariance(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            d = int(rng.integers(1, 6))
            a = rng.normal(size=(d + 3, d))
            cov = a.T @ a / a.shape[0]
            eps = float(rng.choice([0.0, 1e-5, 1e-2]))
            if eps == 0.0 and np.linalg.matrix_rank(cov) < d:
                continue
            w = whitening_matrix(cov, eps)
            target = w @ (cov + eps * np.eye(d)) @ w.T
            assert np.abs(target - np.eye(d)).max() < 1e-8
            np.testing.assert_allclose(w, w.T)  # symmetric by construction

    def test_non_symmetric_rejected(self):
        with pytest.raises(ValidationError):
            whitening_matrix(np.array([[1.0, 0.5], [0.0, 1.0]]), eps=1e-5)

    def test_symmetry_tolerance_edge_and_nan(self):
        whitening_matrix(np.array([[1.0, 1e-9], [0.0, 1.0]]), eps=1e-5)
        for cov in ([[1.0, 2e-9], [0.0, 1.0]], [[1.0, np.nan], [np.nan, 1.0]]):
            with pytest.raises(ValidationError):
                whitening_matrix(np.array(cov), eps=1e-5)

    def test_singular_without_eps_rejected(self):
        with pytest.raises(NumericError):
            whitening_matrix(np.zeros((2, 2)), eps=0.0)


def _frozen_whitening_forward(x, gamma, beta, mu, w):
    """Independent oracle: the whitening transform with fixed statistics."""
    return gamma * ((x - mu) @ w) + beta


class TestBatchWhiteningForward:
    def test_hand_zca_on_diagonal_covariance(self):
        x = np.array([[2.0, 0.0], [0.0, 2.0], [-2.0, 0.0], [0.0, -2.0]])
        state = WhiteningState.create(2, eps=0.0)
        out = batch_whitening_forward(x, state, "train")
        r2 = math.sqrt(2.0)
        np.testing.assert_allclose(
            out, [[r2, 0.0], [0.0, r2], [-r2, 0.0], [0.0, -r2]], atol=1e-12
        )
        out_cov = out.T @ out / 4.0
        np.testing.assert_allclose(out_cov, np.eye(2), atol=1e-12)

    def test_zero_gamma_collapses_to_beta(self):
        state = WhiteningState.create(3)
        state.gamma = np.zeros(3)
        state.beta = np.array([1.0, -2.0, 0.5])
        x = np.random.default_rng(0).normal(size=(8, 3))
        out = batch_whitening_forward(x, state, "train")
        np.testing.assert_allclose(out, np.tile(state.beta, (8, 1)), atol=1e-12)

    def test_train_then_eval_with_momentum_one(self):
        rng = np.random.default_rng(1)
        x = rng.normal(size=(10, 3))
        state = WhiteningState.create(3, eps=1e-5, momentum=1.0)
        out_train = batch_whitening_forward(x, state, "train")
        out_eval = batch_whitening_forward(x, state, "eval")
        np.testing.assert_allclose(out_eval, out_train, atol=1e-9)

    def test_train_output_zero_mean_identity_covariance(self):
        rng = np.random.default_rng(9)
        for _ in range(20):
            d = int(rng.integers(2, 6))
            b = int(rng.integers(d + 1, d + 10))
            x = rng.normal(size=(b, d)) @ rng.normal(size=(d, d)) + rng.normal(size=d)
            state = WhiteningState.create(d, eps=0.0)
            out = batch_whitening_forward(x, state, "train")
            assert np.abs(out.mean(axis=0)).max() < 1e-9
            cov = out.T @ out / b
            assert np.abs(cov - np.eye(d)).max() < 1e-6

    def test_small_batch_rejected_in_train_mode(self):
        state = WhiteningState.create(2)
        with pytest.raises(BatchSizeError):
            batch_whitening_forward(np.zeros((1, 2)), state, "train")

    def test_eval_before_train_rejected(self):
        state = WhiteningState.create(2)
        with pytest.raises(StateError):
            batch_whitening_forward(np.zeros((4, 2)), state, "eval")

    def test_unknown_mode_rejected(self):
        state = WhiteningState.create(2)
        with pytest.raises(ConfigError):
            batch_whitening_forward(np.zeros((4, 2)), state, "predict")

    def test_rank_deficient_batch_absorbed_by_eps(self):
        # all rows identical in one coordinate: covariance is rank deficient
        x = np.ones((4, 3))
        x[:, 1] = [0.0, 1.0, 2.0, 3.0]
        state = WhiteningState.create(3, eps=1e-5)
        out = batch_whitening_forward(x, state, "train")
        assert np.all(np.isfinite(out))

    def test_stateless_helper_matches_train_forward(self):
        rng = np.random.default_rng(2)
        x = rng.normal(size=(6, 4))
        state = WhiteningState.create(4, eps=1e-5)
        out_train = batch_whitening_forward(x, state, "train")
        out_pure = whiten_batch(x, state.gamma, state.beta, state.eps)
        np.testing.assert_array_equal(out_pure, out_train)


class TestBatchWhiteningBackward:
    def test_zero_upstream(self):
        state = WhiteningState.create(3)
        batch_whitening_forward(np.random.default_rng(0).normal(size=(5, 3)), state, "train")
        gx, gg, gb = batch_whitening_backward(state, np.zeros((5, 3)))
        assert not gx.any() and not gg.any() and not gb.any()

    def test_hand_chain_rule(self):
        state = WhiteningState.create(1)
        state.gamma = np.array([2.0])
        state.cache_mean = np.array([0.0])
        state.cache_w = np.array([[0.5]])
        state.cache_xhat = np.array([[3.0]])
        gx, gg, gb = batch_whitening_backward(state, np.array([[1.0]]))
        np.testing.assert_allclose(gx, [[1.0]])
        np.testing.assert_allclose(gg, [3.0])
        np.testing.assert_allclose(gb, [1.0])

    def test_missing_cache_rejected(self):
        state = WhiteningState.create(2)
        with pytest.raises(StateError):
            batch_whitening_backward(state, np.zeros((4, 2)))

    def test_matches_frozen_statistics_finite_differences(self):
        rng = np.random.default_rng(21)
        d, b = 3, 6
        x0 = rng.normal(size=(b, d))
        probe = rng.normal(size=(b, d))
        state = WhiteningState.create(d, eps=1e-5)
        state.gamma = rng.normal(size=d) + 2.0
        state.beta = rng.normal(size=d)
        batch_whitening_forward(x0, state, "train")
        mu, w = state.cache_mean, state.cache_w
        gx, gg, gb = batch_whitening_backward(state, probe)

        def f_input(theta):
            out = _frozen_whitening_forward(
                theta.reshape(b, d), state.gamma, state.beta, mu, w
            )
            return float((out * probe).sum()), gx.ravel()

        def f_gamma(theta):
            out = _frozen_whitening_forward(x0, theta, state.beta, mu, w)
            return float((out * probe).sum()), gg

        def f_beta(theta):
            out = _frozen_whitening_forward(x0, state.gamma, theta, mu, w)
            return float((out * probe).sum()), gb

        assert grad_check(f_input, x0.ravel(), h=1e-5) < 1e-5
        assert grad_check(f_gamma, state.gamma, h=1e-5) < 1e-5
        assert grad_check(f_beta, state.beta, h=1e-5) < 1e-5


class TestAdam:
    def test_zero_gradients_leave_params_unchanged(self):
        params = np.array([1.0, -2.0, 0.0])
        state = AdamState.create(3, weight_decay=0.0)
        for _ in range(3):
            params = adam_step(params, np.zeros(3), state)
            np.testing.assert_array_equal(params, [1.0, -2.0, 0.0])
        assert state.step_count == 3

    @pytest.mark.parametrize("weight_decay", [0.0, 0.01])
    def test_in_place_step_matches_out_of_place_formula(self, weight_decay):
        def reference(params, grads, state):
            state.step_count += 1
            t = state.step_count
            state.first_moment = (
                state.beta1 * state.first_moment + (1.0 - state.beta1) * grads
            )
            state.second_moment = (
                state.beta2 * state.second_moment + (1.0 - state.beta2) * grads * grads
            )
            m_hat = state.first_moment / (1.0 - state.beta1**t)
            v_hat = state.second_moment / (1.0 - state.beta2**t)
            new = params - state.lr * m_hat / (np.sqrt(v_hat) + state.eps_opt)
            if state.weight_decay != 0.0:
                new = new - state.lr * state.weight_decay * params
            return new

        rng = np.random.default_rng(5)
        params = rng.normal(size=257)
        expected = params.copy()
        state = AdamState.create(257, lr=3e-3, weight_decay=weight_decay)
        oracle = AdamState.create(257, lr=3e-3, weight_decay=weight_decay)
        moments = (state.first_moment, state.second_moment)
        for _ in range(6):
            grads = rng.normal(size=257) * rng.uniform(1e-3, 10.0)
            out = adam_step(params, grads, state)
            expected = reference(expected, grads, oracle)
            assert out is params
            assert params.tobytes() == expected.tobytes()
            assert state.first_moment.tobytes() == oracle.first_moment.tobytes()
            assert state.second_moment.tobytes() == oracle.second_moment.tobytes()
        assert state.first_moment is moments[0] and state.second_moment is moments[1]

    def test_first_step_closed_form(self):
        # m_hat = v_hat = 1 on the first step, so the update is -lr / (1 + eps)
        state = AdamState.create(1, lr=1e-3)
        w = adam_step(np.array([0.0]), np.array([1.0]), state)
        assert abs(w[0] + 1e-3) < 1e-8

    def test_bitwise_determinism(self):
        rng = np.random.default_rng(13)
        params = rng.normal(size=10)
        grads = rng.normal(size=10)
        s1 = AdamState.create(10, lr=3e-4, weight_decay=0.01)
        s2 = AdamState.create(10, lr=3e-4, weight_decay=0.01)
        out1 = adam_step(params.copy(), grads.copy(), s1)
        out2 = adam_step(params.copy(), grads.copy(), s2)
        assert out1.tobytes() == out2.tobytes()
        assert s1.first_moment.tobytes() == s2.first_moment.tobytes()

    def test_decoupled_weight_decay(self):
        state = AdamState.create(1, lr=0.1, weight_decay=0.5)
        w = adam_step(np.array([2.0]), np.array([0.0]), state)
        # zero gradient: only the decay term acts
        np.testing.assert_allclose(w, [2.0 - 0.1 * 0.5 * 2.0])

    def test_shape_mismatch(self):
        state = AdamState.create(3)
        with pytest.raises(DimensionError):
            adam_step(np.zeros(3), np.zeros(4), state)
        with pytest.raises(DimensionError):
            adam_step(np.zeros(4), np.zeros(4), state)


class TestGradCheck:
    def test_quadratic_is_nearly_exact(self):
        def f(theta):
            return float(theta @ theta), 2.0 * theta

        assert grad_check(f, np.array([1.0, 2.0]), h=1e-5) < 1e-9

    def test_sigmoid_derivative(self):
        def f(theta):
            s = 1.0 / (1.0 + math.exp(-theta[0]))
            return s, np.array([s * (1.0 - s)])

        assert grad_check(f, np.array([0.0]), h=1e-5) < 1e-8

    def test_analytic_gradient_against_itself(self):
        # linear objective over dyadic values: central differences recover
        # the slope without any rounding, so the reported error is exactly 0
        slope = np.array([1.5, -0.25])

        def f(theta):
            return float(slope @ theta), slope

        assert grad_check(f, np.array([0.25, 0.5]), h=0.25) == 0.0

    def test_non_finite_objective_rejected(self):
        def f(theta):
            if abs(theta[0]) > 0.5:
                return float("nan"), np.zeros(1)
            return 0.0, np.zeros(1)

        with pytest.raises(NumericError):
            grad_check(f, np.array([0.499]), h=0.1)

    def test_rejects_bad_step(self):
        with pytest.raises(ValidationError):
            grad_check(lambda t: (0.0, np.zeros(1)), np.zeros(1), h=0.0)
