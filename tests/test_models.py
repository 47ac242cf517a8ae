"""Tests for the encoder family, fusion, cross-encoding, and checkpoints."""

import itertools
import struct
import tracemalloc

import numpy as np
import pytest
from modelclone import clone_model
from onevector import assert_one_vector
from test_frozen_formulas import frozen_dense_backward, frozen_whitening_backward

from fedmm import models
from fedmm.errors import ConfigError, DimensionError, FormatError, NumericError, ValidationError
from fedmm.models import (
    Encoder,
    GlobalModelSet,
    Stage,
    TaskHead,
    assign_params,
    build_encoder,
    build_model,
    cross_encode,
    encode,
    encode_backward,
    encode_train,
    flatten_params,
    fuse_full,
    head_forward,
    load_model,
    save_model,
    unflatten_params,
)
from fedmm.nncore import (
    DenseLayer,
    WhiteningState,
    activation_backward,
    dense_forward,
    whiten_batch,
)


def small_model(use_whitening=True, task_kind="multi-label", seed=0):
    return build_model(
        input_dims=[5, 7],
        hidden_dim=6,
        feature_dim=4,
        n_labels=3,
        task_kind=task_kind,
        use_whitening=use_whitening,
        rngs=itertools.repeat(np.random.default_rng(seed)),
    )


class TestEncode:
    def test_identity_body_returns_adapter_output(self):
        rng = np.random.default_rng(0)
        adapter = Stage(DenseLayer(rng.normal(size=(3, 4)), np.zeros(4)), None, "relu")
        body = [Stage(DenseLayer(np.eye(4), np.zeros(4)), None, None)]
        enc = Encoder(modality_id=0, adapter=adapter, body=body)
        x = rng.normal(size=(5, 3))
        adapter_out = np.maximum(x @ adapter.dense.weight, 0.0)
        np.testing.assert_array_equal(encode_train(enc, x)[0], adapter_out)

    def test_deterministic_across_calls(self):
        x = np.random.default_rng(5).normal(size=(2, 5))
        e1 = build_encoder(0, 5, 6, 4, False, np.random.default_rng(0))
        e2 = build_encoder(0, 5, 6, 4, False, np.random.default_rng(0))
        np.testing.assert_array_equal(encode_train(e1, x)[0], encode_train(e2, x)[0])

    @pytest.mark.parametrize("batch", [2, 3, 9])
    def test_output_shape(self, batch):
        enc = build_encoder(1, 7, 6, 4, True, np.random.default_rng(1))
        out = encode_train(enc, np.random.default_rng(2).normal(size=(batch, 7)))[0]
        assert out.shape == (batch, 4)

    @pytest.mark.parametrize(
        "adapter_whitening,body_dims,activation,error",
        [
            (None, [(8, 8), (6, 3)], "relu", DimensionError),  # body stage 2 takes 6, gets 8
            (5, [(8, 8), (8, 3)], "relu", DimensionError),  # whitens 5 of 8 adapter outputs
            (None, [(8, 8), (8, 3)], "tanh", ConfigError),
        ],
        ids=["body-chain", "whitening-dim", "activation"],
    )
    def test_broken_topology_rejected_at_construction(
        self, adapter_whitening, body_dims, activation, error
    ):
        rng = np.random.default_rng(0)

        def dense(n_in, n_out):
            return DenseLayer(rng.normal(size=(n_in, n_out)), np.zeros(n_out))

        whitening = WhiteningState.create(adapter_whitening) if adapter_whitening else None
        adapter = Stage(dense(4, 8), whitening, "relu")
        body = [Stage(dense(*body_dims[0]), None, activation), Stage(dense(*body_dims[1]))]
        with pytest.raises(error):
            Encoder(0, adapter, body)

    def test_dimension_error_names_modality(self):
        enc = build_encoder(1, 7, 6, 4, False, np.random.default_rng(1))
        with pytest.raises(DimensionError, match="modality 1"):
            encode_train(enc, np.zeros((2, 9)))

    def test_zero_row_input_rejected(self):
        # a never-calibrated whitening encoder would whiten an empty batch
        # with the statistics of no rows
        enc = build_encoder(1, 7, 6, 4, True, np.random.default_rng(1))
        with pytest.raises(ValidationError, match="modality 1"):
            encode(enc, np.zeros((0, 7)))

    def test_eval_mode_never_mutates_state(self):
        enc = build_encoder(0, 5, 6, 4, True, np.random.default_rng(3))
        rng = np.random.default_rng(4)
        encode_train(enc, rng.normal(size=(8, 5)))  # populate statistics
        st = enc.adapter.whitening
        before = (st.running_mean.tobytes(), st.running_cov.tobytes(), bool(st.stats_ready))
        encode(enc, rng.normal(size=(6, 5)))
        after = (st.running_mean.tobytes(), st.running_cov.tobytes(), bool(st.stats_ready))
        assert before == after

    def test_eval_without_calibrated_stats_uses_batch_statistics(self):
        enc = build_encoder(0, 5, 6, 4, True, np.random.default_rng(3))
        x = np.random.default_rng(4).normal(size=(8, 5))
        out = encode(enc, x)  # stats never populated: must not raise
        assert np.all(np.isfinite(out))
        assert not enc.adapter.whitening.stats_ready

    def test_interleaved_forwards_keep_their_own_record(self):
        # a cache is the whole record of its forward: a second forward on
        # the same encoder leaves the first one's backward bit for bit as
        # a lone forward and backward on a twin encoder
        enc, twin = (build_encoder(0, 5, 6, 4, True, np.random.default_rng(3)) for _ in range(2))
        rng = np.random.default_rng(4)
        x1, x2, g = rng.normal(size=(8, 5)), rng.normal(size=(8, 5)), rng.normal(size=(8, 4))
        _, cache1 = encode_train(enc, x1)
        encode_train(enc, x2)
        grad = encode_backward(enc, cache1, g, np.empty(enc.params.size))
        _, twin_cache = encode_train(twin, x1)
        expected = encode_backward(twin, twin_cache, g, np.empty(twin.params.size))
        assert grad.tobytes() == expected.tobytes()


class TestFusion:
    def test_slot_zero(self):
        np.testing.assert_array_equal(
            fuse_full([np.array([[1.0, 2.0]]), None], 2, 2), [[1.0, 2.0, 0.0, 0.0]]
        )

    def test_slot_one(self):
        np.testing.assert_array_equal(
            fuse_full([None, np.array([[1.0, 2.0]])], 2, 2), [[0.0, 0.0, 1.0, 2.0]]
        )

    def test_single_modality_is_identity(self):
        f = np.array([[3.0, -1.0], [0.5, 2.0]])
        np.testing.assert_array_equal(fuse_full([f], 1, 2), f)

    def test_full_fusion_is_plain_concatenation(self):
        a = np.array([[1.0, 2.0]])
        b = np.array([[3.0, 4.0]])
        np.testing.assert_array_equal(fuse_full([a, b], 2, 2), [[1.0, 2.0, 3.0, 4.0]])

    def test_full_fusion_single_present_zero_fills_the_rest(self):
        f = np.array([[1.0, 2.0], [5.0, 6.0]])
        np.testing.assert_array_equal(
            fuse_full([None, f], 2, 2), [[0.0, 0.0, 1.0, 2.0], [0.0, 0.0, 5.0, 6.0]]
        )

    def test_all_absent_rejected(self):
        with pytest.raises(ValidationError):
            fuse_full([None, None], 2, 2)

    def test_training_and_inference_fusion_agree_per_modality(self):
        # training fuses one present block; inference fuses the same block
        # among the others, and slot m's columns hold it either way
        rng = np.random.default_rng(8)
        blocks = [rng.normal(size=(4, 5)) for _ in range(3)]
        both = fuse_full(blocks, 3, 5)
        for m in range(3):
            one = [None, None, None]
            one[m] = blocks[m]
            expected = np.zeros((4, 15))
            expected[:, 5 * m : 5 * (m + 1)] = blocks[m]
            np.testing.assert_array_equal(fuse_full(one, 3, 5), expected)
            np.testing.assert_array_equal(both[:, 5 * m : 5 * (m + 1)], blocks[m])


class TestHeadForward:
    def test_zero_head_multilabel_gives_half(self):
        head = TaskHead(DenseLayer(np.zeros((4, 3)), np.zeros(3)), "multi-label")
        pred = head_forward(head, np.random.default_rng(0).normal(size=(5, 4)))
        np.testing.assert_allclose(pred, np.full((5, 3), 0.5))

    def test_zero_head_singlelabel_gives_uniform(self):
        head = TaskHead(DenseLayer(np.zeros((4, 4)), np.zeros(4)), "single-label")
        pred = head_forward(head, np.random.default_rng(0).normal(size=(5, 4)))
        np.testing.assert_allclose(pred, np.full((5, 4), 0.25))

    def test_probabilities_stay_in_unit_interval(self):
        rng = np.random.default_rng(1)
        head = TaskHead(DenseLayer(rng.normal(size=(4, 3)) * 5, rng.normal(size=3)), "multi-label")
        pred = head_forward(head, rng.normal(size=(20, 4)) * 5)
        assert np.all(pred >= 0.0) and np.all(pred <= 1.0)

    def test_unknown_task_kind_rejected(self):
        with pytest.raises(ValidationError):
            TaskHead(DenseLayer(np.zeros((2, 2)), np.zeros(2)), "regression")


class TestCrossEncode:
    def test_identical_bodies_match_plain_encode(self):
        model = small_model(use_whitening=True)
        x = np.random.default_rng(2).normal(size=(6, 5))
        local = model.encoders[0]
        # building an encoder binds its stages to a new buffer, so the twin
        # takes copies and leaves the model's own encoders bound
        copy = clone_model(model)
        twin = Encoder(1, adapter=copy.encoders[1].adapter, body=copy.encoders[0].body)
        _, cache = encode_train(local, x)
        out_cross = cross_encode(cache.inputs[1], twin)
        out_plain = encode_train(local, x)[0]
        np.testing.assert_array_equal(out_cross, out_plain)

    def test_zero_adapter_gives_constant_rows(self):
        model = small_model(use_whitening=False)
        local = model.encoders[0]
        local.adapter.dense.weight[:] = 0.0
        local.adapter.dense.bias[:] = 0.0
        x = np.random.default_rng(3).normal(size=(5, 5))
        _, cache = encode_train(local, x)
        out = cross_encode(cache.inputs[1], model.encoders[1])
        np.testing.assert_allclose(out, np.tile(out[0], (5, 1)), atol=1e-12)

    def test_cached_adapter_matches_recomputed_adapter_bitwise(self):
        # default shapes: B=64, modality dims 24/40, hidden 64, feature 32
        model = build_model(
            input_dims=[24, 40],
            hidden_dim=64,
            feature_dim=32,
            n_labels=8,
            task_kind="multi-label",
            use_whitening=True,
            rngs=itertools.repeat(np.random.default_rng(5)),
        )
        local, other = model.encoders
        x = np.random.default_rng(6).normal(size=(64, 24))
        _, cache = encode_train(clone_model(model).encoders[0], x)

        # the former cross-encoding path: rerun the adapter on the batch
        st = local.adapter.whitening
        z = dense_forward(local.adapter.dense, x)
        expected = np.maximum(whiten_batch(z, st.gamma, st.beta, st.eps), 0.0)
        for stage in other.body:
            expected = dense_forward(stage.dense, expected)
            if stage.activation is not None:
                expected = np.maximum(expected, 0.0)

        out = cross_encode(cache.inputs[1], other)
        assert out.tobytes() == expected.tobytes()

    def test_topology_mismatch_rejected(self):
        # a 6-wide adapter output cannot feed an 8-wide body, so the two
        # encoders never form one model
        enc_a = build_encoder(0, 5, 6, 4, False, np.random.default_rng(0))
        enc_b = build_encoder(1, 7, 8, 4, False, np.random.default_rng(1))
        head = TaskHead(DenseLayer(np.zeros((8, 3)), np.zeros(3)), "multi-label")
        with pytest.raises(DimensionError, match="hidden"):
            GlobalModelSet(encoders=[enc_a, enc_b], head=head)


class TestFlattening:
    def test_built_model_is_one_vector(self):
        assert_one_vector(small_model(use_whitening=True))

    def test_unflattened_model_is_one_vector(self):
        model = small_model(use_whitening=True, seed=4)
        rebuilt = unflatten_params(flatten_params(model), model)
        assert_one_vector(rebuilt)
        assert rebuilt.params.tobytes() == model.params.tobytes()

    def test_model_adopts_the_given_buffer(self):
        model = small_model(use_whitening=False)
        buf = flatten_params(small_model(use_whitening=False, seed=5))
        adopted = GlobalModelSet(model.encoders, model.head, params=buf)
        assert adopted.params is buf
        assert adopted.head.layer.bias.tobytes() == buf[-3:].tobytes()
        assert_one_vector(adopted)
        with pytest.raises(DimensionError):
            GlobalModelSet(model.encoders, model.head, params=buf[1:])

    def test_roundtrip_is_bitwise_identity(self):
        model = small_model(use_whitening=True, seed=11)
        # give the running statistics non-trivial values
        encode_train(model.encoders[0], np.random.default_rng(0).normal(size=(8, 5)))
        rebuilt = unflatten_params(flatten_params(model), model)
        assert flatten_params(rebuilt).tobytes() == flatten_params(model).tobytes()
        st_old = model.encoders[0].adapter.whitening
        st_new = rebuilt.encoders[0].adapter.whitening
        assert st_new.running_cov.tobytes() == st_old.running_cov.tobytes()
        assert st_new.stats_ready == st_old.stats_ready

    def test_zero_encoder_flattens_to_zero_vector(self):
        enc = build_encoder(0, 5, 6, 4, False, np.random.default_rng(0))
        zeros = unflatten_params(np.zeros(enc.params.size), enc)
        flat = flatten_params(zeros)
        assert flat.shape == (enc.params.size,)
        assert not flat.any()

    def test_same_topology_same_length(self):
        e1 = build_encoder(0, 5, 6, 4, True, np.random.default_rng(0))
        e2 = build_encoder(1, 5, 6, 4, True, np.random.default_rng(9))
        assert e1.params.size == e2.params.size

    def test_length_mismatch_rejected(self):
        enc = build_encoder(0, 5, 6, 4, False, np.random.default_rng(0))
        with pytest.raises(DimensionError):
            unflatten_params(np.zeros(enc.params.size + 1), enc)

    def test_assign_writes_in_place_without_aliasing(self):
        enc = small_model(use_whitening=True, seed=11).encoders[0]

        def owned():
            adapter = enc.adapter
            return [adapter.dense.weight, adapter.whitening.gamma, enc.body[-1].dense.bias]

        before = owned()
        target = flatten_params(small_model(use_whitening=True, seed=12).encoders[0])
        assign_params(enc, target)
        assert flatten_params(enc).tobytes() == target.tobytes()
        assert all(a is b for a, b in zip(before, owned()))
        target[:] = 0.0
        assert flatten_params(enc).any()

    def test_layers_are_views_of_the_buffer(self):
        enc = build_encoder(0, 5, 6, 4, True, np.random.default_rng(0))
        enc.params[...] = np.arange(enc.params.size, dtype=np.float64)
        assert enc.adapter.dense.weight[0, 1] == 1.0
        assert enc.adapter.whitening.beta[0] == 5 * 6 + 6 + 6
        assert flatten_params(enc).tobytes() == enc.params.tobytes()

    def test_constructor_adopts_the_given_buffer(self):
        enc = build_encoder(0, 5, 6, 4, True, np.random.default_rng(0))
        buf = flatten_params(build_encoder(0, 5, 6, 4, True, np.random.default_rng(1)))
        expected = buf.copy()
        adopted = Encoder(enc.modality_id, enc.adapter, enc.body, params=buf)
        assert adopted.params is buf
        assert flatten_params(adopted).tobytes() == expected.tobytes()
        assert np.shares_memory(adopted.adapter.dense.weight, buf)

    def test_unflatten_copies_input_and_rejects_nan(self):
        model = small_model(use_whitening=True, seed=3)
        flat = flatten_params(model)
        rebuilt = unflatten_params(flat, model)
        for part in rebuilt.encoders + [rebuilt.head]:
            assert not np.may_share_memory(part.params, flat)
        flat[:] = 0.0
        assert flatten_params(rebuilt).any()
        flat[7] = np.nan
        with pytest.raises(NumericError):
            unflatten_params(flat, model)
        with pytest.raises(NumericError):
            unflatten_params(flat[: model.encoders[0].params.size], model.encoders[0])

    def test_assign_length_mismatch_rejected(self):
        enc = build_encoder(0, 5, 6, 4, False, np.random.default_rng(0))
        with pytest.raises(DimensionError):
            assign_params(enc, np.zeros(enc.params.size - 1))

    def test_encode_backward_alignment(self):
        # the flat gradient must line up with the flat parameter layout
        enc = build_encoder(0, 4, 5, 3, True, np.random.default_rng(13))
        x = np.random.default_rng(14).normal(size=(6, 4))
        out, cache = encode_train(enc, x)
        buffer = np.full(enc.params.size, np.nan)
        grad = encode_backward(enc, cache, np.ones_like(out), buffer)
        assert grad is buffer
        assert np.isfinite(grad).all()  # every slice written
        # the last stage has no activation: its bias gradient is the column sum
        np.testing.assert_array_equal(grad[-3:], np.full(3, 6.0))

    @pytest.mark.parametrize("use_whitening", [True, False])
    def test_encode_backward_fills_every_slot(self, use_whitening):
        # each stage writes its whole slot, with the bits of the frozen
        # formulas' pieces concatenated in flatten order
        enc = build_encoder(0, 4, 5, 3, use_whitening, np.random.default_rng(15))
        rng = np.random.default_rng(16)
        out, cache = encode_train(enc, rng.normal(size=(6, 4)))
        grad_out = rng.normal(size=out.shape)
        grad = encode_backward(enc, cache, grad_out, np.full(enc.params.size, np.nan))
        assert not np.isnan(grad).any()
        pieces, g = [], grad_out
        for i, stage in reversed(list(enumerate(enc.stages()))):
            if stage.activation is not None:
                g = activation_backward(cache.preact[i], stage.activation, g)
            whitening = []
            if stage.whitening is not None:
                w, xhat = cache.whitened[i]
                g, grad_gamma, grad_beta = frozen_whitening_backward(
                    stage.whitening.gamma, w, xhat, g
                )
                whitening = [grad_gamma, grad_beta]
            g, grad_w, grad_b = frozen_dense_backward(stage.dense.weight, cache.inputs[i], g)
            pieces = [grad_w.ravel(), grad_b] + whitening + pieces
        assert grad.tobytes() == np.concatenate(pieces).tobytes()


class TestCheckpoint:
    def test_roundtrip_bit_exact(self, tmp_path):
        model = small_model(use_whitening=True, seed=21)
        encode_train(model.encoders[1], np.random.default_rng(1).normal(size=(9, 7)))
        model.round = 17
        path = tmp_path / "model.ckpt"
        save_model(model, path)
        loaded = load_model(path)
        assert flatten_params(loaded).tobytes() == flatten_params(model).tobytes()
        assert loaded.round == 17
        assert loaded.head.task_kind == model.head.task_kind
        st_old = model.encoders[1].adapter.whitening
        st_new = loaded.encoders[1].adapter.whitening
        assert st_new.running_mean.tobytes() == st_old.running_mean.tobytes()
        assert st_new.running_cov.tobytes() == st_old.running_cov.tobytes()
        assert st_new.stats_ready == st_old.stats_ready

    def test_loaded_model_is_one_vector(self, tmp_path):
        path = tmp_path / "model.ckpt"
        save_model(small_model(use_whitening=True, seed=22), path)
        assert_one_vector(load_model(path))

    def test_declared_size_checked_before_building(self, tmp_path):
        # a header alone that declares a wide model is rejected without
        # allocating that model: its template would take 2 * 300 * 300 floats
        # for the body weights and as many for the running covariances
        header = b"MFMM" + struct.pack("<HH", 1, 2) + struct.pack("<II", 5, 7)
        header += struct.pack("<IIIBBI", 300, 4, 3, 0, 1, 0)
        path = tmp_path / "wide.ckpt"
        path.write_bytes(header)
        tracemalloc.start()
        try:
            with pytest.raises(FormatError, match="truncated") as info:
                load_model(path)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert info.value.offset == len(header)
        assert peak < 100_000

    @pytest.mark.parametrize(
        "field,name",
        [
            (0, "modality 0 input dim"),
            (1, "modality 1 input dim"),
            (2, "hidden width"),
            (3, "feature width"),
            (4, "label count"),
        ],
        ids=["input-0", "input-1", "hidden", "feature", "labels"],
    )
    def test_zero_width_rejected_at_its_field(self, tmp_path, field, name):
        # the header fields from byte 8: two input dims, hidden, feature and
        # label count; a zero in any is malformed even when the payload
        # matches the size it declares
        widths = [5, 7, 6, 4, 3]
        widths[field] = 0
        *dims, hidden, feature, labels = widths
        header = b"MFMM" + struct.pack("<HH", 1, 2) + struct.pack("<II", *dims)
        header += struct.pack("<IIIBBI", hidden, feature, labels, 0, 0, 0)
        floats = models._payload_floats(dims, hidden, feature, labels, False)
        path = tmp_path / "zero.ckpt"
        path.write_bytes(header + bytes(8 * floats))
        with pytest.raises(FormatError, match=f"declares {name} 0") as info:
            load_model(path)
        assert info.value.offset == 8 + 4 * field

    @pytest.mark.parametrize(
        "field,value,named",
        [
            (0, 0.5, "ready flag 0.5"),
            (1, -5.0, "eps -5.0"),
            (2, 7.0, "momentum 7.0"),
            (2, 0.0, "momentum 0.0"),
        ],
        ids=["ready-flag", "negative-eps", "momentum-above-1", "momentum-0"],
    )
    def test_whitening_header_out_of_range_rejected_at_its_float(
        self, tmp_path, field, value, named
    ):
        # the ranges a built whitening layer must keep; a loaded one is no
        # exception. Each layer's (ready flag, eps, momentum) header opens
        # its running statistics, which follow the parameters
        model = small_model(use_whitening=True)
        path = tmp_path / "model.ckpt"
        save_model(model, path)
        data = bytearray(path.read_bytes())
        stats = sum(3 + st.dim + st.dim**2 for st in models.whitening_states(model.encoders))
        offset = len(data) - 8 * stats + 8 * field
        data[offset : offset + 8] = struct.pack("<d", value)
        path.write_bytes(bytes(data))
        expected = f"^checkpoint whitening {named} is out of range "
        with pytest.raises(FormatError, match=expected) as info:
            load_model(path)
        assert info.value.offset == offset

    @pytest.mark.parametrize(
        "block,index,named",
        [
            ("parameter", 0, "checkpoint parameter 0"),
            ("parameter", 40, "checkpoint parameter 40"),
            ("mean", 2, "checkpoint whitening layer 1 running mean 2"),
            ("cov", 7, "checkpoint whitening layer 1 running covariance 7"),
        ],
        ids=["first-parameter", "parameter", "running-mean", "running-cov"],
    )
    @pytest.mark.parametrize("value", [np.nan, np.inf], ids=["nan", "inf"])
    def test_non_finite_value_rejected_at_its_float(self, tmp_path, block, index, named, value):
        # the header takes 26 + 4 * P bytes, then the parameters and, per
        # whitening layer, its (ready flag, eps, momentum), mean and covariance
        model = small_model(use_whitening=True)
        path = tmp_path / "model.ckpt"
        save_model(model, path)
        dim = model.encoders[0].adapter.whitening.dim
        params_at = 26 + 4 * model.n_modalities
        layer_at = params_at + 8 * (model.params.size + 3 + dim + dim * dim)  # after layer 0
        start = {"parameter": params_at, "mean": layer_at + 24, "cov": layer_at + 8 * (3 + dim)}
        offset = start[block] + 8 * index
        data = bytearray(path.read_bytes())
        data[offset : offset + 8] = struct.pack("<d", value)
        path.write_bytes(bytes(data))
        with pytest.raises(FormatError, match=f"^{named} is {value!r}, not finite ") as info:
            load_model(path)
        assert info.value.offset == offset

    def test_unknown_whitening_flag_rejected_at_its_byte(self, tmp_path):
        # the byte after the task kind, at 21 + 4 * P: 0 or 1, as saved
        path = tmp_path / "model.ckpt"
        save_model(small_model(use_whitening=True), path)
        data = bytearray(path.read_bytes())
        offset = 21 + 4 * 2
        assert data[offset] == 1
        data[offset] = 7
        path.write_bytes(bytes(data))
        with pytest.raises(FormatError, match="whitening flag 7") as info:
            load_model(path)
        assert info.value.offset == offset

    def test_roundtrip_without_whitening(self, tmp_path):
        model = small_model(use_whitening=False, task_kind="single-label")
        path = tmp_path / "model.ckpt"
        save_model(model, path)
        loaded = load_model(path)
        assert flatten_params(loaded).tobytes() == flatten_params(model).tobytes()
        assert loaded.encoders[0].adapter.whitening is None

    @pytest.mark.parametrize("whitened", [(True, False), (False, True)], ids=["0", "1"])
    def test_encoders_disagreeing_on_whitening_not_saved(self, tmp_path, whitened):
        # the header's one whitening flag cannot describe both encoders
        rng = np.random.default_rng(0)
        encoders = [
            build_encoder(m, d, 6, 4, w, rng) for m, (d, w) in enumerate(zip([5, 7], whitened))
        ]
        head = TaskHead(models.init_dense(rng, 8, 3, 1.0), "multi-label")
        path = tmp_path / "model.ckpt"
        with pytest.raises(ValidationError, match="^encoder 1 stages "):
            save_model(GlobalModelSet(encoders, head), path)
        assert not path.exists()

    def test_activation_a_header_cannot_describe_not_saved(self, tmp_path):
        # load_model would rebuild the middle stage with relu: the same
        # parameters, different features
        model = small_model(use_whitening=False)
        enc = model.encoders[1]
        mid, out = enc.body
        body = [Stage(mid.dense, None, "sigmoid"), out]
        encoders = [model.encoders[0], Encoder(1, enc.adapter, body)]
        path = tmp_path / "model.ckpt"
        with pytest.raises(ValidationError, match=r"^encoder 1 stages .*'sigmoid'"):
            save_model(GlobalModelSet(encoders, model.head), path)
        assert not path.exists()

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "bad.ckpt"
        path.write_bytes(b"NOPE" + b"\x00" * 64)
        with pytest.raises(FormatError):
            load_model(path)

    def test_truncated_file_rejected(self, tmp_path):
        model = small_model()
        path = tmp_path / "model.ckpt"
        save_model(model, path)
        data = path.read_bytes()
        path.write_bytes(data[: len(data) // 2])
        with pytest.raises(FormatError) as info:
            load_model(path)
        assert info.value.offset is not None

    def test_trailing_bytes_rejected(self, tmp_path):
        model = small_model()
        path = tmp_path / "model.ckpt"
        save_model(model, path)
        path.write_bytes(path.read_bytes() + b"\x00" * 8)
        with pytest.raises(FormatError):
            load_model(path)


def test_clone_is_deep():
    model = small_model()
    twin = clone_model(model)
    twin.encoders[0].adapter.dense.weight[:] = 0.0
    assert np.abs(model.encoders[0].adapter.dense.weight).max() > 0.0


def test_whitening_body_stage_rejected():
    adapter = Stage(DenseLayer(np.zeros((3, 4)), np.zeros(4)), None, "relu")
    body = [Stage(DenseLayer(np.eye(4), np.zeros(4)), WhiteningState.create(4), "relu")]
    with pytest.raises(ValidationError):
        Encoder(modality_id=0, adapter=adapter, body=body)


def test_model_invariants_enforced():
    model = small_model()
    with pytest.raises(DimensionError):
        GlobalModelSet(
            encoders=model.encoders,
            head=TaskHead(DenseLayer(np.zeros((5, 3)), np.zeros(3)), "multi-label"),
        )
