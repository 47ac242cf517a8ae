"""Tests for the round-based engine: local updates, aggregation, experiment
runs, the late-fusion baseline, and the ablation grid."""

import ast
import dataclasses
import functools
import gc
import hashlib
import os
import pickle
import subprocess
import sys
import textwrap
import threading
import tracemalloc
import weakref
from pathlib import Path

import numpy as np
import pytest
from kernels import (
    CORE_NEEDS,
    GOLDEN_LOG_SHA256,
    cpu_has,
    kernel_class,
    kernels_note,
    runtime_kernels,
)
from onevector import assert_one_vector

from fedmm import engine, losses, metrics, workers
from fedmm.config import ExperimentConfig
from fedmm.data import SCENARIO_KINDS, DatasetSpec, ScenarioSpec, build_scenario, gen_synthetic
from fedmm.engine import (
    ClientUpdate,
    aggregate,
    baseline_fedavg_latefusion,
    client_update,
    evaluate_late_fusion,
    experiment_csv,
    init_model,
    make_client,
    run_ablation,
    run_experiment,
    run_round,
    timings_csv,
)
from fedmm.errors import ConfigError, DataError, DimensionError, NumericError, ValidationError
from fedmm.models import flatten_params, load_model, unflatten_params


ENTRY_POINTS = (run_experiment, baseline_fedavg_latefusion)


def tiny_cfg(**overrides):
    base = dict(
        dataset=DatasetSpec(
            n_sites=80,
            latent_dim=5,
            modality_dims=(4, 6),
            n_labels=3,
            n_groups=2,
            noise_sigma=0.1,
        ),
        scenario=ScenarioSpec(kind="iid"),
        k_clients=4,
        rounds=2,
        local_epochs=1,
        batch_size=8,
        lr=1e-3,
        eval_every=1,
        inference_modes=("both", "only-0", "only-1"),
        seed=0,
        d_hidden=8,
        d_feature=5,
    )
    base.update(overrides)
    return ExperimentConfig(**base)


def golden_cfg(out_dir):
    return ExperimentConfig(
        dataset=DatasetSpec(
            n_sites=240, latent_dim=6, modality_dims=(6, 10), n_labels=4, n_groups=4
        ),
        scenario=ScenarioSpec(kind="group-skew"),
        k_clients=4,
        rounds=3,
        batch_size=16,
        d_hidden=16,
        d_feature=8,
        use_fw=True,
        use_mim=True,
        inference_modes=("both", "only-0", "only-1"),
        seed=0,
        output_dir=str(out_dir),
    )


def three_modality_cfg(out_dir):
    """golden_cfg with a third modality, so local_objective averages two
    cross-encoded features: K=6, scored in both and two single modes."""
    cfg = golden_cfg(out_dir)
    return dataclasses.replace(
        cfg,
        dataset=dataclasses.replace(cfg.dataset, modality_dims=(4, 6, 5)),
        k_clients=6,
        inference_modes=("both", "only-0", "only-2"),
    )


def single_label(cfg):
    return dataclasses.replace(
        cfg, dataset=dataclasses.replace(cfg.dataset, task_kind="single-label")
    )


def final_params(log):
    models = [log.model] if log.model is not None else log.baseline_models
    return [flatten_params(m).tobytes() for m in models]


def client_state(client):
    """Values of everything a local update changes on ``client``, copied
    out: the step count and ready flags are 0-d arrays written in place."""
    whitening = [s.whitening for s in client.encoder.stages() if s.whitening is not None]
    return (
        client.params.tobytes(),
        client.adam.first_moment.tobytes(),
        client.adam.second_moment.tobytes(),
        int(client.adam.step_count),
        [
            (w.running_mean.tobytes(), w.running_cov.tobytes(), bool(w.stats_ready))
            for w in whitening
        ],
        client.rng.bit_generator.state,
    )


def assert_parallel_matches_serial(entry_point):
    serial = entry_point(tiny_cfg())
    parallel = entry_point(tiny_cfg(), parallel=True)
    assert experiment_csv(serial) == experiment_csv(parallel)
    assert final_params(serial) == final_params(parallel)


def assert_phase_timings(path, rounds):
    """One ``timings.csv`` row per round whose ``seconds`` is its training
    plus aggregation parts, and every round evaluated (eval_every=1)."""
    lines = path.read_text().splitlines()
    assert lines[0] == "round,seconds,train_s,aggregate_s,eval_s"
    rows = [[float(v) for v in line.split(",")] for line in lines[1:]]
    assert [int(row[0]) for row in rows] == list(range(1, rounds + 1))
    for _, seconds, train_s, aggregate_s, eval_s in rows:
        assert min(seconds, train_s, aggregate_s) >= 0.0 and eval_s > 0.0
        # three cells each rounded to 6 places: at most 1.5e-6 apart
        assert abs(seconds - (train_s + aggregate_s)) <= 1.5e-6 + 1e-12


def assert_reports_identical(a, b):
    """Every field of two MetricsReports equal."""
    assert (a.micro_f1, a.macro_f1, a.accuracy, a.n_samples) == (
        b.micro_f1,
        b.macro_f1,
        b.accuracy,
        b.n_samples,
    )


def counting(monkeypatch, *targets):
    """Replace each (module, name) function with one that records its calls
    in the returned list, then calls the original."""
    calls = []
    for module, name in targets:
        original = getattr(module, name)

        def counted(*args, _name=name, _original=original, **kwargs):
            calls.append(_name)
            return _original(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)
    return calls


def _setup(cfg):
    dataset = gen_synthetic(cfg.resolved_dataset())
    shards = build_scenario(dataset, cfg.scenario, cfg.k_clients)
    model = init_model(cfg)
    clients = [
        make_client(i, shard, model.encoders[shard.modality_id], model.head, cfg)
        for i, shard in enumerate(shards)
    ]
    return dataset, model, clients


def _baseline_federations(cfg):
    """The late-fusion baseline's initial (submodel, clients) federations,
    one per modality in modality order, each client built as the baseline
    builds it."""
    dataset = gen_synthetic(cfg.resolved_dataset())
    shards = build_scenario(dataset, cfg.scenario, cfg.k_clients)
    models = [engine._baseline_submodel(cfg, m) for m in range(cfg.dataset.n_modalities)]
    clients = [[] for _ in models]
    for i, shard in enumerate(shards):
        sub = models[shard.modality_id]
        clients[shard.modality_id].append(make_client(i, shard, sub.encoders[0], sub.head, cfg))
    return list(zip(models, clients))


class TestClientUpdate:
    def test_zero_epochs_returns_broadcast(self):
        cfg = tiny_cfg(local_epochs=0)
        _, model, clients = _setup(cfg)
        update = client_update(clients[0], model, cfg)
        expected = flatten_params(model.encoders[clients[0].shard.modality_id])
        assert update.encoder_flat.tobytes() == expected.tobytes()
        assert update.head_flat.tobytes() == flatten_params(model.head).tobytes()

    def test_zero_learning_rate_returns_broadcast(self):
        cfg = tiny_cfg(lr=0.0)
        _, model, clients = _setup(cfg)
        update = client_update(clients[1], model, cfg)
        expected = flatten_params(model.encoders[clients[1].shard.modality_id])
        assert update.encoder_flat.tobytes() == expected.tobytes()

    def test_bit_identical_across_reruns(self):
        results = []
        for _ in range(2):
            cfg = tiny_cfg()
            _, model, clients = _setup(cfg)
            results.append(client_update(clients[0], model, cfg))
        assert results[0].encoder_flat.tobytes() == results[1].encoder_flat.tobytes()
        assert results[0].head_flat.tobytes() == results[1].head_flat.tobytes()
        assert results[0].mean_ce == results[1].mean_ce

    def test_whitening_statistics_survive_rebroadcast(self):
        cfg = tiny_cfg(use_fw=True)
        _, model, clients = _setup(cfg)
        client = clients[0]
        client_update(client, model, cfg)
        st = client.encoder.adapter.whitening
        assert st.stats_ready
        snapshot = st.running_cov.tobytes()
        client_update(client, model, cfg)  # second broadcast
        st = client.encoder.adapter.whitening
        assert st.stats_ready
        assert st.running_cov.tobytes() != snapshot  # evolved, not reset

    def test_broadcast_model_is_left_unchanged(self):
        # client arrays are written in place and must never alias the
        # global model, which other clients read during the same round
        cfg = tiny_cfg(use_fw=True)
        _, model, clients = _setup(cfg)
        snapshot = flatten_params(model).tobytes()
        for client in clients:
            client_update(client, model, cfg)
            client_update(client, model, cfg)
        assert flatten_params(model).tobytes() == snapshot

    def test_parameters_stay_views_of_client_buffer(self):
        cfg = tiny_cfg(use_fw=True)
        _, model, clients = _setup(cfg)
        client = clients[0]
        update = client_update(client, model, cfg)
        arrays = [client.head.layer.weight, client.head.layer.bias]
        for stage in client.encoder.stages():
            arrays += [stage.dense.weight, stage.dense.bias]
            if stage.whitening is not None:
                arrays += [stage.whitening.gamma, stage.whitening.beta]
        assert client.encoder.adapter.whitening is not None
        assert all(arr.base is client.params for arr in arrays)
        assert client.params.tobytes() == (
            update.encoder_flat.tobytes() + update.head_flat.tobytes()
        )
        for flat in (update.encoder_flat, update.head_flat):
            assert np.shares_memory(flat, client.params)

    @pytest.mark.parametrize(
        "use_mim, lambda_mim, aligned",
        [(False, 1.0, False), (True, 1.0, True), (True, 0.0, False)],
    )
    def test_contrastive_term_follows_config(self, monkeypatch, use_mim, lambda_mim, aligned):
        # the loss settings come from cfg alone: on a two-modality model the
        # contrastive term runs exactly when use_mim is on with a positive
        # weight
        calls = counting(monkeypatch, (losses, "ntxent"))
        cfg = tiny_cfg(use_mim=use_mim, lambda_mim=lambda_mim)
        _, model, clients = _setup(cfg)
        assert model.n_modalities == 2
        update = client_update(clients[0], model, cfg)
        assert bool(calls) == aligned
        assert (update.mean_ntx != 0.0) == aligned

    @pytest.mark.parametrize("corrupt", ["features", "labels", "task-kind"])
    def test_make_client_rejects_a_shard_the_model_cannot_read(self, corrupt):
        # caught at construction, not at the client's first local step
        cfg = tiny_cfg()
        _, model, clients = _setup(cfg)
        shard = clients[0].shard
        if corrupt == "task-kind":
            shard = dataclasses.replace(
                shard, task_kind="single-label", labels=np.zeros(shard.n, dtype=np.int64)
            )
        else:
            shard = dataclasses.replace(shard, **{corrupt: getattr(shard, corrupt)[:, :-1]})
        error = DimensionError if corrupt == "features" else ValidationError
        with pytest.raises(error, match="^client 0: "):
            make_client(0, shard, model.encoders[shard.modality_id], model.head, cfg)

    def test_client_sharing_global_arrays_is_rejected(self):
        cfg = tiny_cfg()
        _, model, clients = _setup(cfg)
        global_encoder = model.encoders[clients[0].shard.modality_id]
        shared = dataclasses.replace(clients[0], encoder=global_encoder)
        with pytest.raises(ValidationError, match="client 0"):
            client_update(shared, model, cfg)


def _fake_updates(model, spec):
    """Random client updates with data-proportional weights for the oracle."""
    rng = np.random.default_rng(spec)
    updates = []
    cid = 0
    for m, enc in enumerate(model.encoders):
        for _ in range(int(rng.integers(1, 4))):
            updates.append(
                ClientUpdate(
                    client_id=cid,
                    modality_id=m,
                    encoder_flat=rng.normal(size=enc.params.size),
                    head_flat=rng.normal(size=model.head.params.size),
                    n_samples=int(rng.integers(1, 50)),
                    mean_ce=0.0,
                    mean_ntx=0.0,
                )
            )
            cid += 1
    return updates


class TestAggregate:
    def test_single_client_per_modality_is_identity(self):
        cfg = tiny_cfg(k_clients=2)
        _, model, clients = _setup(cfg)
        updates = [client_update(c, model, cfg) for c in clients]
        merged = aggregate(updates, model)
        for m, enc in enumerate(merged.encoders):
            assert flatten_params(enc).tobytes() == updates[m].encoder_flat.tobytes()
        assert merged.round == model.round + 1

    @pytest.mark.parametrize("k_clients", [2, 4], ids=["K=P", "K>P"])
    def test_new_global_model_shares_no_client_memory(self, k_clients):
        # the uploads are the clients' own vectors; a single-member group's
        # verbatim average must still be copied before it becomes global
        cfg = tiny_cfg(k_clients=k_clients)
        _, model, clients = _setup(cfg)
        updates = [client_update(c, model, cfg) for c in clients]
        for u, c in zip(updates, clients):
            assert np.shares_memory(u.encoder_flat, c.params)
        merged = aggregate(updates, model)
        for c in clients:
            assert not np.may_share_memory(merged.params, c.encoder.params)
            assert not np.may_share_memory(merged.params, c.head.params)
        assert not np.may_share_memory(merged.params, model.params)

    @pytest.mark.parametrize("k_clients", [2, 4], ids=["K=P", "K>P"])
    def test_new_global_model_is_one_vector(self, k_clients):
        # K=P copies each single-member group verbatim; K>P averages deltas
        cfg = tiny_cfg(k_clients=k_clients)
        _, model, clients = _setup(cfg)
        assert_one_vector(model)
        merged = aggregate([client_update(c, model, cfg) for c in clients], model)
        assert_one_vector(merged)

    def test_upload_for_a_slot_outside_the_model_is_an_error(self):
        # no encoder group would take it, yet its head would enter the head
        # average at full weight
        cfg = tiny_cfg()
        _, model, _ = _setup(cfg)
        model.round = 2
        updates = _fake_updates(model, 4)
        stray = dataclasses.replace(updates[0], client_id=99, modality_id=5)
        with pytest.raises(DimensionError, match="round 3: client 99 "):
            aggregate(updates + [stray], model)

    def test_hand_weighted_mean(self):
        cfg = tiny_cfg()
        _, model, _ = _setup(cfg)
        zero = unflatten_params(np.zeros(model.params.size), model)
        n_enc0 = model.encoders[0].params.size
        n_enc1 = model.encoders[1].params.size
        n_head = model.head.params.size
        updates = [
            ClientUpdate(0, 0, np.full(n_enc0, 1.0), np.full(n_head, 1.0), 1, 0, 0),
            ClientUpdate(1, 0, np.full(n_enc0, 3.0), np.full(n_head, 3.0), 3, 0, 0),
            ClientUpdate(2, 1, np.full(n_enc1, 5.0), np.full(n_head, 5.0), 4, 0, 0),
        ]
        merged = aggregate(updates, zero)
        # modality 0: 0.25 * 1 + 0.75 * 3 = 2.5
        np.testing.assert_array_equal(flatten_params(merged.encoders[0]), 2.5)
        np.testing.assert_array_equal(flatten_params(merged.encoders[1]), 5.0)
        # head over all clients: (1*1 + 3*3 + 4*5) / 8 = 3.75
        np.testing.assert_allclose(flatten_params(merged.head), 3.75, atol=1e-12)

    def test_matches_weighted_average_oracle(self):
        cfg = tiny_cfg()
        _, model, _ = _setup(cfg)
        for trial in range(25):
            updates = _fake_updates(model, trial)
            merged = aggregate(updates, model)
            total = sum(u.n_samples for u in updates)
            for m, enc in enumerate(merged.encoders):
                group = [u for u in updates if u.modality_id == m]
                g_total = sum(u.n_samples for u in group)
                expected = sum(
                    (u.n_samples / g_total) * u.encoder_flat for u in group
                )
                np.testing.assert_allclose(flatten_params(enc), expected, atol=1e-12)
            expected_head = sum((u.n_samples / total) * u.head_flat for u in updates)
            np.testing.assert_allclose(
                flatten_params(merged.head), expected_head, atol=1e-12
            )

    def test_exact_fixed_point(self):
        cfg = tiny_cfg()
        _, model, _ = _setup(cfg)
        updates = []
        for cid in range(4):
            m = 0 if cid < 2 else 1
            updates.append(
                ClientUpdate(
                    client_id=cid,
                    modality_id=m,
                    encoder_flat=flatten_params(model.encoders[m]),
                    head_flat=flatten_params(model.head),
                    n_samples=cid + 1,
                    mean_ce=0.0,
                    mean_ntx=0.0,
                )
            )
        merged = aggregate(updates, model)
        assert flatten_params(merged).tobytes() == flatten_params(model).tobytes()

    def test_permutation_invariance_is_bitwise(self):
        cfg = tiny_cfg()
        _, model, _ = _setup(cfg)
        updates = _fake_updates(model, 99)
        merged_a = aggregate(updates, model)
        merged_b = aggregate(list(reversed(updates)), model)
        assert flatten_params(merged_a).tobytes() == flatten_params(merged_b).tobytes()

    def test_modality_without_updates_is_an_error(self):
        cfg = tiny_cfg()
        _, model, _ = _setup(cfg)
        updates = [u for u in _fake_updates(model, 5) if u.modality_id == 0]
        with pytest.raises(DataError, match="modality 1"):
            aggregate(updates, model)

    def test_length_mismatch_is_an_error(self):
        cfg = tiny_cfg()
        _, model, _ = _setup(cfg)
        updates = _fake_updates(model, 6)
        updates[0] = dataclasses.replace(
            updates[0], encoder_flat=np.zeros(3), modality_id=0
        )
        with pytest.raises(DimensionError):
            aggregate(updates, model)

    @pytest.mark.parametrize("part", ["encoder_flat", "head_flat"])
    def test_non_finite_upload_names_round_and_client(self, part):
        cfg = tiny_cfg()
        _, model, _ = _setup(cfg)
        model.round = 6
        updates = _fake_updates(model, 8)
        bad = getattr(updates[-1], part).copy()
        bad[1] = np.nan
        updates[-1] = dataclasses.replace(updates[-1], **{part: bad})
        with pytest.raises(NumericError) as info:
            aggregate(updates, model)
        message = str(info.value)
        assert "round 7" in message
        assert f"client {updates[-1].client_id} " in message

    def test_no_update_at_all_names_the_round(self):
        _, model, _ = _setup(tiny_cfg())
        model.round = 4
        with pytest.raises(DataError, match="^round 5: aggregation needs at least one "):
            aggregate([], model)

    def test_modality_without_updates_names_the_round(self):
        _, model, _ = _setup(tiny_cfg())
        model.round = 4
        updates = [u for u in _fake_updates(model, 5) if u.modality_id == 0]
        with pytest.raises(DataError, match="^round 5: no client update for modality 1 "):
            aggregate(updates, model)

    def test_length_mismatch_names_the_round_and_client(self):
        _, model, _ = _setup(tiny_cfg())
        model.round = 4
        updates = _fake_updates(model, 6)
        updates[0] = dataclasses.replace(updates[0], encoder_flat=np.zeros(3), modality_id=0)
        n = model.encoders[0].params.size
        expected = rf"^round 5: client 0 encoder has \(3,\), expected \({n},\)$"
        with pytest.raises(DimensionError, match=expected):
            aggregate(updates, model)

    @pytest.mark.parametrize(
        "count", [0, -3, 2.5, True], ids=["zero", "negative", "float", "bool"]
    )
    def test_sample_count_that_is_not_a_positive_integer_names_the_round_and_client(
        self, count
    ):
        # one client per modality: a count of 0 there would divide by zero
        _, model, _ = _setup(tiny_cfg(k_clients=2))
        model.round = 4
        updates = [
            ClientUpdate(m, m, model.encoders[m].params, model.head.params, 5, 0.0, 0.0)
            for m in range(2)
        ]
        updates[1] = dataclasses.replace(updates[1], n_samples=count)
        with pytest.raises(ValidationError, match=rf"^round 5: client 1 has {count!r} samples$"):
            aggregate(updates, model)

    def test_repeated_client_id_names_the_round_and_client(self):
        _, model, _ = _setup(tiny_cfg())
        model.round = 4
        updates = _fake_updates(model, 6)
        updates.append(dataclasses.replace(updates[0]))
        with pytest.raises(ValidationError, match="^round 5: client 0 uploaded twice$"):
            aggregate(updates, model)

    def test_non_finite_average_names_the_round(self):
        # finite uploads whose deltas from the broadcast overflow
        _, model, _ = _setup(tiny_cfg())
        model.round = 4
        model.encoders[0].params[...] = -1e308
        updates = [
            ClientUpdate(
                cid, m, np.full(model.encoders[m].params.size, 1e308), model.head.params, 1, 0, 0
            )
            for cid, m in enumerate([0, 0, 1])
        ]
        expected = "^round 5: averaged encoder parameters are not finite$"
        with np.errstate(over="ignore"), pytest.raises(NumericError, match=expected):
            aggregate(updates, model)

    def test_weights_sum_to_one_per_group_and_head(self):
        # every client uploads the same x, so the mean is x only if the
        # group weights and the head weights each sum to one
        cfg = tiny_cfg()
        _, model, _ = _setup(cfg)
        rng = np.random.default_rng(7)
        x_enc = [enc.params + rng.normal(size=enc.params.size) for enc in model.encoders]
        x_head = model.head.params + rng.normal(size=model.head.params.size)
        updates = [
            ClientUpdate(cid, m, x_enc[m].copy(), x_head.copy(), n, 0.0, 0.0)
            for cid, (m, n) in enumerate([(0, 3), (1, 11), (0, 17), (1, 2), (0, 40)])
        ]
        merged = aggregate(updates, model)
        for m, enc in enumerate(merged.encoders):
            np.testing.assert_allclose(flatten_params(enc), x_enc[m], rtol=0, atol=1e-12)
        np.testing.assert_allclose(flatten_params(merged.head), x_head, rtol=0, atol=1e-12)


class TestRunRound:
    def test_zero_learning_rate_leaves_global_unchanged(self):
        cfg = tiny_cfg(lr=0.0)
        _, model, clients = _setup(cfg)
        [(new_model, _)], _ = run_round([(model, clients)], cfg)
        assert flatten_params(new_model).tobytes() == flatten_params(model).tobytes()

    def test_byte_accounting(self):
        cfg = tiny_cfg()
        _, model, clients = _setup(cfg)
        _, log = run_round([(model, clients)], cfg)
        per_client = [
            model.encoders[c.shard.modality_id].params.size + model.head.params.size
            for c in clients
        ]
        assert log.bytes_exchanged == 2 * 8 * sum(per_client)

    def test_round_allocates_few_client_vectors(self):
        # the uploads are the clients' own vectors, so a warmed-up round's
        # new allocations peak at a few vectors (batch temporaries and the
        # new global model), not one copy per client
        cfg = ExperimentConfig(
            dataset=DatasetSpec(n_sites=400), scenario=ScenarioSpec(kind="iid"), k_clients=16
        )
        _, model, clients = _setup(cfg)
        [(model, _)], _ = run_round([(model, clients)], cfg)
        vector = np.mean([c.params.nbytes for c in clients])
        tracemalloc.start()
        try:
            run_round([(model, clients)], cfg)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 8 * vector

    def test_round_index_increments(self):
        cfg = tiny_cfg()
        _, model, clients = _setup(cfg)
        [(m1, _)], log1 = run_round([(model, clients)], cfg)
        [(m2, _)], log2 = run_round([(m1, clients)], cfg)
        assert (log1.round_index, log2.round_index) == (1, 2)
        assert m2.round == 2

    def test_one_round_over_two_federations(self):
        # as the baseline runs them: one call advances both federations to
        # the models two one-federation rounds give, and its one record
        # holds every upload of the round
        cfg = tiny_cfg(use_mim=True)
        joint, log = run_round(_baseline_federations(cfg), cfg)
        singles = [run_round([federation], cfg) for federation in _baseline_federations(cfg)]
        assert [flatten_params(model).tobytes() for model, _ in joint] == [
            flatten_params(model).tobytes() for [(model, _)], _ in singles
        ]
        order = [c.client_id for _, clients in joint for c in clients]
        assert [len(clients) for _, clients in joint] == [2, 2]
        assert list(log.client_ce) == list(log.client_ntx) == order
        assert log.client_ce == {k: v for _, s in singles for k, v in s.client_ce.items()}
        assert log.client_ntx == {k: v for _, s in singles for k, v in s.client_ntx.items()}
        assert log.bytes_exchanged == sum(s.bytes_exchanged for _, s in singles)
        assert log.round_index == singles[0][1].round_index == singles[1][1].round_index == 1


def usable_cpus(monkeypatch, n):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)), raising=False)


def fake_blas(monkeypatch, threads=2):
    """Stand-in BLAS thread-count calls; returns the live count and the counts set."""
    state = {"threads": threads}
    history = []

    def set_threads(n):
        state["threads"] = n
        history.append(n)

    calls = (lambda: state["threads"], set_threads)
    monkeypatch.setattr(workers, "blas_thread_calls", lambda: calls)
    return state, history


def recording_forks(monkeypatch):
    """The pids of the children ``os.fork`` makes from here on."""
    forks = []
    original = os.fork

    def recording_fork():
        pid = original()
        if pid:
            forks.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", recording_fork)
    return forks


def pooled_round(model, clients, cfg, parallel=True):
    """:func:`run_round` through a worker pool opened for this round alone,
    or inline when ``parallel`` is off or the pool would have one worker."""
    with engine._pool_for([(model, clients)], cfg, parallel) as pool:
        [(model, _)], log = run_round([(model, clients)], cfg, pool)
        return model, log


class TestClientPool:
    @pytest.mark.parametrize("cpus", [1, 2, 3, 8])
    def test_width_is_usable_cpus_capped_by_clients(self, monkeypatch, cpus):
        usable_cpus(monkeypatch, cpus)
        forks = recording_forks(monkeypatch)
        cfg = tiny_cfg()
        _, model, clients = _setup(cfg)
        pooled_round(model, clients, cfg)
        assert len(clients) == 4
        # min(cpus, 4) workers: this process runs one group itself and
        # forks one child per other; one worker forks none
        assert len(forks) == max(min(cpus, 4) - 1, 0)

    @pytest.mark.parametrize(
        "entry,rounds,children",
        [
            (run_experiment, 3, 1),
            (baseline_fedavg_latefusion, 3, 1),
            (run_experiment, 0, 0),
            (baseline_fedavg_latefusion, 0, 0),
        ],
        ids=["run-3", "baseline-3", "run-0", "baseline-0"],
    )
    def test_one_pool_per_run(self, monkeypatch, entry, rounds, children):
        # workers are forked at the first round and kept to the last
        usable_cpus(monkeypatch, 2)
        forks = recording_forks(monkeypatch)
        entry(tiny_cfg(rounds=rounds), parallel=True)
        assert len(forks) == children

    @pytest.mark.parametrize(
        "cpus,kind",
        [
            pytest.param(2, "iid", id="2"),
            pytest.param(3, "iid", id="3"),
            # modality-0 clients take 2 local steps, modality-1 clients 4
            pytest.param(2, "missing-A", id="2-missing-A"),
        ],
    )
    def test_client_state_matches_serial_bitwise(self, monkeypatch, cpus, kind):
        # everything a local update changes must come back from the workers:
        # parameters, Adam moments and step count, whitening running
        # statistics and the RNG stream, checked after a second round that
        # builds on the first
        cfg = tiny_cfg(use_fw=True, use_mim=True, k_clients=5, scenario=ScenarioSpec(kind=kind))
        usable_cpus(monkeypatch, cpus)
        runs = []
        for parallel in (False, True):
            _, model, clients = _setup(cfg)
            for _ in range(2):
                model, _ = pooled_round(model, clients, cfg, parallel)
            runs.append((flatten_params(model).tobytes(), [client_state(c) for c in clients]))
        assert runs[0] == runs[1]

    @pytest.mark.parametrize("kind", ["iid", "missing-A"])
    def test_client_state_matches_serial_through_one_pool(self, monkeypatch, kind):
        # three rounds through one open pool: each worker keeps its clients,
        # and their state comes back to this process after every round
        cfg = tiny_cfg(use_fw=True, use_mim=True, k_clients=5, scenario=ScenarioSpec(kind=kind))
        usable_cpus(monkeypatch, 2)
        runs = []
        for parallel in (False, True):
            _, model, clients = _setup(cfg)
            with engine._pool_for([(model, clients)], cfg, parallel) as pool:
                assert (pool is not None) == parallel
                states = []
                for _ in range(3):
                    [(model, _)], _ = run_round([(model, clients)], cfg, pool)
                    states.append([client_state(c) for c in clients])
            runs.append((flatten_params(model).tobytes(), states))
        assert runs[0] == runs[1]

    def test_worker_report_is_each_clients_two_losses(self, monkeypatch):
        # a worker's clients write their whole state into shared memory, so
        # its per-round report holds each client's (mean_ce, mean_ntx) alone
        reports = []
        original = workers.Pool.receive

        def recording_receive(pool, g):
            value = original(pool, g)
            reports.append(value)
            return value

        usable_cpus(monkeypatch, 2)
        monkeypatch.setattr(workers.Pool, "receive", recording_receive)
        run_experiment(tiny_cfg(use_fw=True, use_mim=True, rounds=2), parallel=True)
        assert len(reports) == 2  # one per round from the one worker
        for report in reports:
            assert len(report) == 2  # the worker's clients 0 and 2
            for entry in report:
                assert type(entry) is tuple and [type(v) for v in entry] == [float, float]

    def test_pooled_upload_is_the_shared_client_vector(self, monkeypatch):
        # the parent averages straight out of the shared memory the workers
        # wrote, for a worker's clients and its own alike
        seen = []
        original = engine.aggregate

        def recording_aggregate(updates, model):
            seen.append(updates)
            return original(updates, model)

        usable_cpus(monkeypatch, 2)
        monkeypatch.setattr(engine, "aggregate", recording_aggregate)
        cfg = tiny_cfg()
        _, model, clients = _setup(cfg)
        private = [c.params for c in clients]
        pooled_round(model, clients, cfg)
        (updates,) = seen
        for update, client, before in zip(updates, clients, private):
            assert client.params is before  # the pool rebinds nothing
            n_enc = update.encoder_flat.size
            assert np.shares_memory(update.encoder_flat, client.params[:n_enc])
            assert np.shares_memory(update.head_flat, client.params[n_enc:])

    def test_client_state_is_shared_from_make_client(self):
        # everything a local update writes lives in shared memory from the
        # client's construction on: a child forked before any pool opens
        # writes it for this process too, the step count, ready flags and
        # stream included
        cfg = tiny_cfg(use_fw=True)
        _, model, clients = _setup(cfg)
        _, _, twins = _setup(cfg)
        client = clients[0]
        whitening = [s.whitening for s in client.encoder.stages() if s.whitening is not None]
        assert whitening
        arrays = [client.params, client.adam.first_moment, client.adam.second_moment]
        arrays += [a for w in whitening for a in (w.running_mean, w.running_cov)]
        pid = os.fork()
        if pid == 0:
            status = 1
            try:
                for i, a in enumerate(arrays):
                    a[...] = 100.0 + i
                client_update(clients[1], model, cfg)
                status = 0
            finally:
                os._exit(status)
        _, status = os.waitpid(pid, 0)
        assert os.waitstatus_to_exitcode(status) == 0
        for i, a in enumerate(arrays):
            assert (a == 100.0 + i).all()
        client_update(twins[1], model, cfg)
        assert client_state(clients[1]) == client_state(twins[1])

    @pytest.mark.parametrize("where", ["child", "parent"])
    def test_failed_worker_is_reaped(self, monkeypatch, where):
        # a child that dies without reporting must raise (not hang) and name
        # the round; a failure in this process's own group still reaps
        # every child
        parent = os.getpid()
        original = engine.client_update

        def dying_update(client, *args):
            if where == "child" and os.getpid() != parent:
                os._exit(3)
            if where == "parent" and os.getpid() == parent:
                raise NumericError("boom")
            return original(client, *args)

        usable_cpus(monkeypatch, 2)
        cfg = tiny_cfg()
        _, model, clients = _setup(cfg)
        model, _ = pooled_round(model, clients, cfg)
        monkeypatch.setattr(engine, "client_update", dying_update)
        if where == "child":
            with pytest.raises(ChildProcessError, match=r"^round 2: .* status 3 "):
                pooled_round(model, clients, cfg)
        else:
            with pytest.raises(NumericError, match=r"^round 2: client \d+: boom$"):
                pooled_round(model, clients, cfg)
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    def test_worker_dying_mid_run_is_reaped(self, monkeypatch):
        parent = os.getpid()
        original = engine.client_update

        def dying_update(client, model, *args):
            if os.getpid() != parent and model.round == 1:
                os._exit(3)
            return original(client, model, *args)

        usable_cpus(monkeypatch, 2)
        monkeypatch.setattr(engine, "client_update", dying_update)
        with pytest.raises(ChildProcessError, match=r"^round 2: .* status 3 "):
            run_experiment(tiny_cfg(rounds=3), parallel=True)
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    def test_truncated_reply_is_a_dead_worker(self, monkeypatch):
        # a worker that writes part of its reply and exits: pickle reads
        # that as UnpicklingError, not EOFError, and it must still raise
        # naming the round, with the worker reaped
        parent = os.getpid()
        original_dump, original_load, failures = pickle.dump, pickle.load, []

        def truncating_dump(value, file, *args):
            if os.getpid() == parent:
                return original_dump(value, file, *args)
            payload = pickle.dumps(value, *args)
            file.write(payload[: len(payload) // 2])
            file.flush()
            os._exit(0)

        def recording_load(file):
            try:
                return original_load(file)
            except Exception as exc:
                failures.append(type(exc))
                raise

        usable_cpus(monkeypatch, 2)
        monkeypatch.setattr(pickle, "dump", truncating_dump)
        monkeypatch.setattr(pickle, "load", recording_load)
        with pytest.raises(
            ChildProcessError,
            match=r"^round 1: the worker updating clients \[0, 2\] exited with status 0 "
            r"without reporting$",
        ):
            run_experiment(tiny_cfg(rounds=2), parallel=True)
        assert failures == [pickle.UnpicklingError]
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    def test_one_usable_cpu_runs_inline(self, monkeypatch):
        serial = run_experiment(tiny_cfg())
        threads = set()
        original = engine.client_update

        def recording_update(*args):
            threads.add(threading.get_ident())
            return original(*args)

        usable_cpus(monkeypatch, 1)
        monkeypatch.setattr(engine, "client_update", recording_update)
        parallel = run_experiment(tiny_cfg(), parallel=True)
        assert threads == {threading.get_ident()}
        assert experiment_csv(parallel) == experiment_csv(serial)
        assert final_params(parallel) == final_params(serial)

    @pytest.mark.parametrize("fail", [False, True])
    def test_blas_capped_inside_pool_and_restored(self, monkeypatch, fail):
        usable_cpus(monkeypatch, 2)
        state, history = fake_blas(monkeypatch, threads=2)
        seen = []
        original = engine.client_update

        def checking_update(client, *args):
            # a forked worker inherits the cap; its failure reaches this process
            if state["threads"] != 1:
                raise AssertionError(f"client {client.client_id} ran uncapped")
            seen.append(state["threads"])
            if fail and client.client_id == 1:
                raise NumericError("boom")
            return original(client, *args)

        monkeypatch.setattr(engine, "client_update", checking_update)
        cfg = tiny_cfg()
        _, model, clients = _setup(cfg)
        if fail:
            with pytest.raises(NumericError, match="client 1: boom"):
                pooled_round(model, clients, cfg)
        else:
            pooled_round(model, clients, cfg)
        assert seen and set(seen) == {1}  # the calls this process ran itself
        assert history == [1, 2] and state["threads"] == 2

    @pytest.mark.parametrize("fail", [False, True])
    def test_blas_stays_capped_between_rounds(self, monkeypatch, fail):
        # the cap holds from the pool's first fork to its close, so the
        # evaluations between rounds run under it too; the set-up
        # evaluation runs before the pool opens
        usable_cpus(monkeypatch, 2)
        state, history = fake_blas(monkeypatch, threads=2)
        seen = []
        original_update, original_evaluate = engine.client_update, engine.evaluate

        def failing_update(client, model, *args):
            if fail and client.client_id == 1 and model.round == 1:
                raise NumericError("boom")
            return original_update(client, model, *args)

        def recording_evaluate(*args):
            seen.append(state["threads"])
            return original_evaluate(*args)

        monkeypatch.setattr(engine, "client_update", failing_update)
        monkeypatch.setattr(engine, "evaluate", recording_evaluate)
        cfg = tiny_cfg(rounds=3, inference_modes=("both",))
        if fail:
            with pytest.raises(NumericError, match=r"^round 2: client 1: boom$"):
                run_experiment(cfg, parallel=True)
            assert seen == [2, 1]
        else:
            run_experiment(cfg, parallel=True)
            assert seen == [2, 1, 1, 1]
        assert history == [1, 2] and state["threads"] == 2

    def test_serial_path_leaves_blas_alone(self, monkeypatch):
        _, history = fake_blas(monkeypatch)
        cfg = tiny_cfg()
        _, model, clients = _setup(cfg)
        pooled_round(model, clients, cfg, parallel=False)
        usable_cpus(monkeypatch, 1)
        pooled_round(model, clients, cfg)
        assert history == []

    def test_real_blas_thread_count_restored(self, monkeypatch):
        calls = workers.blas_thread_calls()
        if calls is None:
            pytest.skip("numpy's BLAS exports no OpenBLAS thread-count calls")
        get_threads, set_threads = calls
        original = get_threads()
        usable_cpus(monkeypatch, 2)
        cfg = tiny_cfg()
        _, model, clients = _setup(cfg)
        set_threads(2)  # a count other than the cap, whatever the machine's default
        try:
            pooled_round(model, clients, cfg)
            assert get_threads() == 2
        finally:
            set_threads(original)

    def test_missing_blas_setter_matches_serial(self, monkeypatch):
        serial = run_experiment(tiny_cfg())
        usable_cpus(monkeypatch, 2)
        monkeypatch.setattr(workers, "blas_thread_calls", lambda: None)
        parallel = run_experiment(tiny_cfg(), parallel=True)
        assert experiment_csv(parallel) == experiment_csv(serial)
        assert final_params(parallel) == final_params(serial)

    @pytest.mark.parametrize(
        "parallel,cpus", [(False, 2), (True, 1), (True, 2)], ids=["serial", "inline", "pool"]
    )
    def test_failed_update_names_round_and_client(self, monkeypatch, parallel, cpus):
        usable_cpus(monkeypatch, cpus)
        cfg = tiny_cfg(use_fw=True)
        _, model, clients = _setup(cfg)
        model, _ = pooled_round(model, clients, cfg, parallel)
        clients[2].shard.features[0] = np.nan
        # the NaN row makes the batch covariance NaN: eigh fails inside the
        # update, or, where it returns NaNs, the upload fails aggregation
        with pytest.raises(NumericError, match=r"^round 2: client 2"):
            pooled_round(model, clients, cfg, parallel)


class TestRunExperiment:
    def test_zero_rounds_logs_initial_evaluation_only(self):
        log = run_experiment(tiny_cfg(rounds=0))
        assert log.rounds == []
        csv_text = experiment_csv(log)
        lines = csv_text.strip().split("\n")
        assert len(lines) == 1 + 3  # header + one row per inference mode
        assert all(line.startswith("0,") for line in lines[1:])

    def test_same_seed_same_csv(self):
        a = run_experiment(tiny_cfg())
        b = run_experiment(tiny_cfg())
        assert experiment_csv(a) == experiment_csv(b)

    def test_golden_log_hash(self, tmp_path):
        # Pins the bytes of log.csv, not just run-to-run determinism: a
        # change that alters any arithmetic of training or evaluation fails
        # here. The constant is specific to the numpy/OpenBLAS build it was
        # recorded with (numpy 2.4.6, OpenBLAS 0.3.31, x86-64); another
        # build may round differently and then needs a fresh recording
        # from an unchanged tree. So may the kernels a build picks by CPU,
        # which a failure names (kernels_note).
        run_experiment(golden_cfg(tmp_path))
        digest = hashlib.sha256((tmp_path / "log.csv").read_bytes()).hexdigest()
        assert digest == "238e7deaa80a0492720fee2c78bbf940c26c211c766fb2bfae0917329e137262", (
            kernels_note()
        )

    def test_golden_log_hash_single_label(self, tmp_path):
        # the single-label (softmax head) twin of test_golden_log_hash, same
        # build caveat
        run_experiment(single_label(golden_cfg(tmp_path)))
        digest = hashlib.sha256((tmp_path / "log.csv").read_bytes()).hexdigest()
        assert digest == "28289b2a82793eadbdcd916215f9c5d83e1379141c9cc27a18d179c0d4699358", (
            kernels_note()
        )

    def test_golden_log_hash_three_modalities(self, tmp_path):
        # same build caveat as test_golden_log_hash
        run_experiment(three_modality_cfg(tmp_path))
        digest = hashlib.sha256((tmp_path / "log.csv").read_bytes()).hexdigest()
        assert digest == "49560cae07b89e3a1b236353fc257bac0306a2a9f0f9bc825bb4d0fa2d858784", (
            kernels_note()
        )

    def test_acceptance_size_log_hash(self, tmp_path):
        # the acceptance-size run: default dataset (2000 sites), group-skew,
        # K=14, 40 rounds, all three modes scored every round, seed 0, as
        # the benchmark's groupskew-full workload configures it; same build
        # caveat as test_golden_log_hash
        cfg = ExperimentConfig(
            dataset=DatasetSpec(),
            scenario=ScenarioSpec(kind="group-skew"),
            k_clients=14,
            rounds=40,
            inference_modes=("both", "only-0", "only-1"),
            eval_every=1,
            seed=0,
            output_dir=str(tmp_path),
        )
        run_experiment(cfg)
        digest = hashlib.sha256((tmp_path / "log.csv").read_bytes()).hexdigest()
        assert digest == "68d9f585fb2571bf6ba9a22bc3333c81beeb7c897caef53a69af79eb50716d4d", (
            kernels_note()
        )

    def test_parallel_matches_serial(self):
        assert_parallel_matches_serial(run_experiment)

    def test_hash_failures_name_the_blas_core(self):
        # OpenBLAS reads OPENBLAS_CORETYPE when it loads, so the forced
        # core needs a fresh interpreter; Haswell kernels need AVX2
        version, targets, core = runtime_kernels()
        if core is None or not cpu_has("AVX2"):
            pytest.skip("needs an OpenBLAS with a core-name call and an AVX2 CPU")
        script = "from kernels import runtime_kernels; print(repr(runtime_kernels()))"
        tests_dir = Path(__file__).resolve().parent
        result = subprocess.run(
            [sys.executable, "-c", script],
            cwd=tests_dir,
            env={**os.environ, "OPENBLAS_CORETYPE": "Haswell"},
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert result.returncode == 0, result.stderr
        assert result.stdout.strip() == repr((version, targets, "Haswell"))
        assert f"OpenBLAS core: {core}" in kernels_note()

    def test_golden_log_hash_per_kernel_class(self):
        # numpy reads NPY_DISABLE_CPU_FEATURES and OpenBLAS reads
        # OPENBLAS_CORETYPE when they load, so each class runs in a fresh
        # interpreter; a class runs when this CPU has its features
        default = kernel_class()
        assert default in GOLDEN_LOG_SHA256, (
            f"no golden log.csv hash for this machine's kernel class {default!r} "
            f"({kernels_note()}); record it from an unchanged tree with: "
            "cd tests && PYTHONPATH=../src python kernels.py"
        )
        tests_dir = Path(__file__).resolve().parent
        env = {**os.environ, "PYTHONPATH": str(tests_dir.parent / "src")}
        script = (
            "from kernels import golden_log_sha256, kernel_class\n"
            "print(repr((kernel_class(), golden_log_sha256())))"
        )
        seen = {}
        for targets, core in GOLDEN_LOG_SHA256:
            if not (set(targets) <= set(default[0]) and cpu_has(CORE_NEEDS[core])):
                continue
            disabled = ",".join(t for t in default[0] if t not in targets)
            row_env = {**env, "OPENBLAS_CORETYPE": core, "NPY_DISABLE_CPU_FEATURES": disabled}
            result = subprocess.run(
                [sys.executable, "-c", script],
                cwd=tests_dir,
                env=row_env,
                capture_output=True,
                text=True,
                timeout=300,
            )
            assert result.returncode == 0, result.stderr
            seen[(targets, core)] = ast.literal_eval(result.stdout)
        assert default in seen
        assert seen == {key: (key, GOLDEN_LOG_SHA256[key]) for key in seen}

    def test_blas_thread_count_leaves_the_bits(self, tmp_path):
        # OpenBLAS reads OPENBLAS_NUM_THREADS when it loads, so each count
        # needs a fresh interpreter
        if workers.blas_thread_calls() is None or workers.usable_cpus() < 2:
            pytest.skip("needs OpenBLAS and 2 usable CPUs")
        script = textwrap.dedent(
            """
            import sys

            from fedmm import ExperimentConfig, ScenarioSpec, run_experiment
            from fedmm.workers import blas_thread_calls

            run_experiment(ExperimentConfig(
                scenario=ScenarioSpec(kind="group-skew"), rounds=2, output_dir=sys.argv[1]
            ))
            get_threads, _ = blas_thread_calls()
            print(get_threads())
            """
        )
        root = Path(__file__).resolve().parents[1]
        logs, threads = [], []
        for count in ("1", "2"):
            out = tmp_path / count
            result = subprocess.run(
                [sys.executable, "-c", script, str(out)],
                cwd=root,
                env={**os.environ, "PYTHONPATH": "src", "OPENBLAS_NUM_THREADS": count},
                capture_output=True,
                text=True,
                timeout=300,
            )
            assert result.returncode == 0, result.stderr
            threads.append(int(result.stdout))
            logs.append((out / "log.csv").read_bytes())
        assert threads[0] != threads[1]
        assert logs[0] == logs[1]

    def test_different_seeds_differ(self):
        a = run_experiment(tiny_cfg(seed=0))
        b = run_experiment(tiny_cfg(seed=1))
        assert experiment_csv(a) != experiment_csv(b)

    @pytest.mark.parametrize("entry", ENTRY_POINTS, ids=["run", "baseline"])
    def test_eval_every_skips_intermediate_rounds(self, entry):
        log = entry(tiny_cfg(rounds=3, eval_every=2))
        evaluated = [r.round_index for r in log.rounds if r.evals]
        assert evaluated == [2, 3]  # schedule plus the final round

    def test_outputs_written(self, tmp_path):
        out = tmp_path / "run"
        log = run_experiment(tiny_cfg(rounds=1, output_dir=str(out)))
        assert (out / "log.csv").read_text() == experiment_csv(log)
        assert (out / "timings.csv").read_text() == timings_csv(log)
        assert_phase_timings(out / "timings.csv", rounds=1)
        assert (out / "model.ckpt").exists()
        assert (out / "config.json").exists()

    @pytest.mark.parametrize("entry", ENTRY_POINTS, ids=["run", "baseline"])
    def test_checkpoints_read_back_as_the_final_model(self, tmp_path, entry):
        # every checkpoint a run writes loads as its final model, which
        # scores the run's test split as the last round of log.csv says
        cfg = tiny_cfg(
            scenario=ScenarioSpec(kind="group-skew"), rounds=3, output_dir=str(tmp_path)
        )
        log = entry(cfg)
        if entry is run_experiment:
            names, models = ["model.ckpt"], [log.model]
        else:
            models = log.baseline_models
            names = [f"baseline_m{m}.ckpt" for m in range(len(models))]
        loaded = [load_model(tmp_path / name) for name in names]
        for model, back in zip(models, loaded):
            assert flatten_params(back).tobytes() == flatten_params(model).tobytes()
            assert back.round == model.round == cfg.rounds
        test = gen_synthetic(cfg.resolved_dataset()).test
        modes = cfg.inference_modes
        if entry is run_experiment:
            reports = metrics.evaluate(loaded[0], test, modes)
        else:
            reports = evaluate_late_fusion(loaded, test, modes)
        rows = (tmp_path / "log.csv").read_text().splitlines()[-len(modes) :]
        for row in rows:
            _, mode, micro, macro, accuracy = row.split(",")[:5]
            report = reports[mode]
            assert [micro, macro, accuracy] == [
                repr(float(report.micro_f1)),
                repr(float(report.macro_f1)),
                repr(float(report.accuracy)),
            ]

    @pytest.mark.parametrize("entry", ENTRY_POINTS, ids=["run", "baseline"])
    def test_evaluation_never_mutates_training_state(self, entry):
        dense_log = entry(tiny_cfg(rounds=2, eval_every=1))
        sparse_log = entry(tiny_cfg(rounds=2, eval_every=2))
        assert final_params(dense_log) == final_params(sparse_log)


ALL_MODES = ("both", "only-0", "only-1")


@pytest.mark.parametrize("kind", ["iid", "missing-A"])
class TestEvaluateEveryMode:
    """One call for every mode equals one call per mode, field for field."""

    def test_framework(self, kind):
        cfg = tiny_cfg(rounds=1, scenario=ScenarioSpec(kind=kind), use_fw=True)
        model = run_experiment(cfg).model
        test = gen_synthetic(cfg.resolved_dataset()).test
        together = engine.evaluate(model, test, ALL_MODES)
        assert list(together) == list(ALL_MODES)
        for mode in ALL_MODES:
            alone = engine.evaluate(model, test, (mode,))[mode]
            assert_reports_identical(together[mode], alone)

    def test_late_fusion(self, kind):
        cfg = tiny_cfg(rounds=1, scenario=ScenarioSpec(kind=kind), use_fw=True)
        submodels = baseline_fedavg_latefusion(cfg).baseline_models
        test = gen_synthetic(cfg.resolved_dataset()).test
        together = evaluate_late_fusion(submodels, test, ALL_MODES)
        assert list(together) == list(ALL_MODES)
        for mode in ALL_MODES:
            alone = evaluate_late_fusion(submodels, test, (mode,))[mode]
            assert_reports_identical(together[mode], alone)


def scorer(cfg, late_fusion):
    """``evaluate`` on an initial model, or ``evaluate_late_fusion`` on
    initial submodels, waiting for the test shards and modes."""
    if late_fusion:
        p = cfg.resolved_dataset().n_modalities
        submodels = [engine._baseline_submodel(cfg, m) for m in range(p)]
        return functools.partial(evaluate_late_fusion, submodels)
    return functools.partial(engine.evaluate, init_model(cfg))


@pytest.mark.parametrize("late_fusion", [False, True], ids=["evaluate", "evaluate_late_fusion"])
def test_empty_test_set_rejected(late_fusion):
    # zero rows have no accuracy to report: both evaluators refuse them
    cfg = tiny_cfg()
    empty = [shard.select([]) for shard in gen_synthetic(cfg.resolved_dataset()).test]
    with pytest.raises(ValidationError, match="^test set must be non-empty$"):
        scorer(cfg, late_fusion)(empty, ALL_MODES)


@pytest.mark.parametrize("late_fusion", [False, True], ids=["evaluate", "evaluate_late_fusion"])
def test_unknown_mode_rejected_before_the_test_set(late_fusion):
    # both evaluators validate in one order: every mode, then the test set
    with pytest.raises(ValidationError, match="^unknown inference mode 'none'$"):
        scorer(tiny_cfg(), late_fusion)([], ("both", "none"))


@pytest.mark.parametrize("late_fusion", [False, True], ids=["evaluate", "evaluate_late_fusion"])
@pytest.mark.parametrize(
    "modes,named",
    [
        (("both", "both", "only-0"), "repeat 'both'"),
        (("only-1", "only-1"), "repeat 'only-1'"),
        ((), "must not be empty"),
        (("both", 5), "5 is not a string"),
    ],
    ids=["repeated-both", "repeated-only", "empty", "non-string"],
)
def test_bad_mode_list_rejected(late_fusion, modes, named):
    # a report per mode given: a repeat would fold into one report
    cfg = tiny_cfg()
    test = gen_synthetic(cfg.resolved_dataset()).test
    with pytest.raises(ValidationError, match=named):
        scorer(cfg, late_fusion)(test, modes)


@pytest.mark.parametrize("late_fusion", [False, True], ids=["evaluate", "evaluate_late_fusion"])
@pytest.mark.parametrize("count", [1, 3], ids=["too-few", "too-many"])
def test_wrong_test_shard_count_rejected(late_fusion, count):
    # one test shard per modality: a missing one has no features to score
    # and an extra one would be ignored
    cfg = tiny_cfg()
    test = gen_synthetic(cfg.resolved_dataset()).test
    shards = [test[m % len(test)] for m in range(count)]
    with pytest.raises(ValidationError, match=f"^{count} test shards for 2 modalities$"):
        scorer(cfg, late_fusion)(shards, ALL_MODES)


def relabel_sample_3(value):
    def edit(labels):
        labels = labels.copy()
        labels[3] = value
        return labels

    return edit


@pytest.mark.parametrize("late_fusion", [False, True], ids=["evaluate", "evaluate_late_fusion"])
@pytest.mark.parametrize(
    "head_kind,shard_kind,edit,expected",
    [
        ("single-label", "single-label", relabel_sample_3(99), r"label of sample 3 is 99\.0"),
        ("single-label", "single-label", relabel_sample_3(-1), r"label of sample 3 is -1\.0"),
        ("multi-label", "multi-label", lambda y: y[:, :-1], "2 label columns for a head of 3"),
        ("multi-label", "single-label", None, "single-label labels for a multi-label head"),
    ],
    ids=["class-99", "class-minus-1", "label-columns", "task-kind"],
)
def test_unscorable_test_labels_rejected_before_encoding(
    monkeypatch, late_fusion, head_kind, shard_kind, edit, expected
):
    cfg = tiny_cfg() if head_kind == "multi-label" else single_label(tiny_cfg())
    score = scorer(cfg, late_fusion)
    shard_cfg = tiny_cfg() if shard_kind == "multi-label" else single_label(tiny_cfg())
    test = gen_synthetic(shard_cfg.resolved_dataset()).test
    if edit is not None:
        test[0] = dataclasses.replace(test[0], labels=edit(test[0].labels))
    encoded = []
    monkeypatch.setattr(metrics, "encode", lambda *args: encoded.append(args))
    with pytest.raises(ValidationError, match=f"^test shard 0: {expected}"):
        score(test, ALL_MODES)
    assert encoded == []


@pytest.mark.parametrize("late_fusion", [False, True], ids=["evaluate", "evaluate_late_fusion"])
def test_unaligned_test_shards_rejected(late_fusion):
    # row i of every shard is one sample, so shards of unequal length
    # cannot be fused or averaged row by row
    cfg = tiny_cfg()
    test = gen_synthetic(cfg.resolved_dataset()).test
    test[1] = test[1].select(np.arange(test[1].n - 1))
    with pytest.raises(DimensionError, match="rows"):
        scorer(cfg, late_fusion)(test, ALL_MODES)


class TestBaseline:
    def test_single_modality_equals_plain_run(self):
        cfg = tiny_cfg(
            dataset=DatasetSpec(
                n_sites=80,
                latent_dim=5,
                modality_dims=(6,),
                n_labels=3,
                n_groups=2,
                noise_sigma=0.1,
            ),
            k_clients=3,
            use_fw=False,
            use_mim=False,
            inference_modes=("both", "only-0"),
        )
        plain = run_experiment(cfg)
        fused = baseline_fedavg_latefusion(cfg)
        assert experiment_csv(plain) == experiment_csv(fused)
        assert (
            flatten_params(plain.model).tobytes()
            == flatten_params(fused.baseline_models[0]).tobytes()
        )

    def test_identical_probabilities_fuse_to_themselves(self):
        cfg = tiny_cfg(
            dataset=DatasetSpec(
                n_sites=60,
                latent_dim=5,
                modality_dims=(4, 4),
                n_labels=3,
                n_groups=2,
                noise_sigma=0.1,
            )
        )
        spec = cfg.resolved_dataset()
        dataset = gen_synthetic(spec)
        from fedmm.engine import _baseline_submodel

        sub = _baseline_submodel(cfg, 0)
        twin_shards = [dataset.test[0], dataset.test[0]]
        fused = evaluate_late_fusion([sub, sub], twin_shards, ("both",))["both"]
        solo = evaluate_late_fusion([sub, sub], twin_shards, ("only-0",))["only-0"]
        assert fused.micro_f1 == solo.micro_f1
        assert fused.accuracy == solo.accuracy

    def test_missing_modality_uses_other_model_alone(self):
        cfg = tiny_cfg(rounds=1)
        log = baseline_fedavg_latefusion(cfg)
        dataset = gen_synthetic(cfg.resolved_dataset())
        only1 = evaluate_late_fusion(log.baseline_models, dataset.test, ("only-1",))["only-1"]
        report = log.rounds[-1].evals["only-1"]
        assert report.micro_f1 == only1.micro_f1

    def test_golden_log_hash(self, tmp_path):
        # the baseline twin of TestRunExperiment::test_golden_log_hash, same
        # config and the same build caveat; recorded at the commit before
        # the baseline went through run_round
        baseline_fedavg_latefusion(golden_cfg(tmp_path))
        digest = hashlib.sha256((tmp_path / "log.csv").read_bytes()).hexdigest()
        assert digest == "85204ad712c0bd5990cee146976c747c28ab0c3bac7dcd5fa36e3260740d61bb", (
            kernels_note()
        )

    def test_golden_log_hash_single_label(self, tmp_path):
        baseline_fedavg_latefusion(single_label(golden_cfg(tmp_path)))
        digest = hashlib.sha256((tmp_path / "log.csv").read_bytes()).hexdigest()
        assert digest == "f91ff57cc8191fb0edc2e1000925c279b98ac0447ac7d4acbdc2b4228c4d14f2", (
            kernels_note()
        )

    def test_golden_log_hash_three_modalities(self, tmp_path):
        baseline_fedavg_latefusion(three_modality_cfg(tmp_path))
        digest = hashlib.sha256((tmp_path / "log.csv").read_bytes()).hexdigest()
        assert digest == "35ede5ad818da1f434a2e0c94c427424375bddc1b73e7f5499559bc7a52538b2", (
            kernels_note()
        )

    def test_parallel_matches_serial(self):
        assert_parallel_matches_serial(baseline_fedavg_latefusion)

    def test_phase_timings_written(self, tmp_path):
        baseline_fedavg_latefusion(tiny_cfg(rounds=2, output_dir=str(tmp_path)))
        assert_phase_timings(tmp_path / "timings.csv", rounds=2)

    def test_one_encode_per_modality_per_evaluation(self, monkeypatch):
        encoded = []
        original = metrics.encode

        def counting_encode(encoder, x):
            encoded.append(x.shape)
            return original(encoder, x)

        monkeypatch.setattr(metrics, "encode", counting_encode)
        cfg = tiny_cfg(rounds=1)
        log = baseline_fedavg_latefusion(cfg)
        assert len(encoded) == 2 * 2  # the set-up and the round-1 evaluations
        test = gen_synthetic(cfg.resolved_dataset()).test
        with pytest.raises(ValidationError):
            evaluate_late_fusion(log.baseline_models, test, ("both", "only-2"))
        assert len(encoded) == 4

    def test_one_head_pass_per_modality_per_evaluation(self, monkeypatch):
        # the three modes read each modality twice; each head still runs once
        cfg = tiny_cfg(rounds=1)
        log = baseline_fedavg_latefusion(cfg)
        test = gen_synthetic(cfg.resolved_dataset()).test
        calls = counting(monkeypatch, (engine, "head_forward"))
        evaluate_late_fusion(log.baseline_models, test, ALL_MODES)
        assert calls == ["head_forward"] * 2

    def test_contrastive_setting_has_no_effect(self, monkeypatch):
        # each submodel holds one modality, so with MIM on and a positive
        # weight there is still no other modality to align with
        calls = counting(monkeypatch, (losses, "ntxent"), (losses, "cross_encode"))
        log = baseline_fedavg_latefusion(tiny_cfg(use_mim=True, lambda_mim=1.0))
        assert calls == []
        assert len(log.rounds) == 2
        assert all(rlog.mean_ntx == 0.0 for rlog in log.rounds)

    def test_baseline_deterministic(self):
        a = baseline_fedavg_latefusion(tiny_cfg(rounds=1))
        b = baseline_fedavg_latefusion(tiny_cfg(rounds=1))
        assert experiment_csv(a) == experiment_csv(b)


class TestSetupFootprint:
    """What a run holds and imports besides its own work."""

    @pytest.mark.parametrize("kind", SCENARIO_KINDS)
    @pytest.mark.parametrize("entry", ENTRY_POINTS, ids=lambda f: f.__name__)
    def test_training_split_freed_before_the_first_evaluation(self, monkeypatch, entry, kind):
        # the client shards are copies, so the rounds need only the test
        # split; the training split must not live on in the run's frame
        refs = []

        def recording_gen_synthetic(spec):
            dataset = gen_synthetic(spec)
            for shard in dataset.train:
                refs.extend(map(weakref.ref, (shard.geo_keys, shard.features, shard.labels)))
            return dataset

        name = "evaluate" if entry is run_experiment else "evaluate_late_fusion"
        evaluator = getattr(engine, name)
        alive = []

        def counting_evaluator(*args, **kwargs):
            gc.collect()
            alive.append(sum(ref() is not None for ref in refs))
            return evaluator(*args, **kwargs)

        monkeypatch.setattr(engine, "gen_synthetic", recording_gen_synthetic)
        monkeypatch.setattr(engine, name, counting_evaluator)
        entry(tiny_cfg(rounds=1, scenario=ScenarioSpec(kind=kind)))
        assert len(refs) == 6
        assert alive == [0, 0]  # set-up and round 1

    def test_no_run_imports_numpy_ma(self):
        # numpy.ma costs a run's start-up about 18 ms and 1.2 MB; a fresh
        # interpreter is needed, since this one may have imported it already
        script = textwrap.dedent(
            """
            import sys

            import fedmm
            import fedmm.cli
            from fedmm.data import SCENARIO_KINDS

            for task_kind in ("multi-label", "single-label"):
                for kind in SCENARIO_KINDS:
                    cfg = fedmm.ExperimentConfig(
                        dataset=fedmm.DatasetSpec(n_sites=120, n_groups=4, task_kind=task_kind),
                        scenario=fedmm.ScenarioSpec(kind=kind),
                        k_clients=4,
                        rounds=0,
                        batch_size=8,
                    )
                    fedmm.run_experiment(cfg)
                    fedmm.baseline_fedavg_latefusion(cfg)
            assert "numpy.ma" not in sys.modules, "a run imported numpy.ma"
            """
        )
        root = Path(__file__).resolve().parents[1]
        result = subprocess.run(
            [sys.executable, "-c", script],
            cwd=root,
            env={**os.environ, "PYTHONPATH": "src"},
            capture_output=True,
            text=True,
            timeout=300,
        )
        assert result.returncode == 0, result.stderr


class TestAblation:
    @pytest.mark.parametrize(
        "scenarios,named",
        [((), "at least one"), (("iid", "bogus"), "bogus"), (("iid", "group-skew", "iid"), "iid")],
        ids=["empty", "unknown", "repeated"],
    )
    def test_bad_scenario_list_rejected_before_any_run(self, monkeypatch, scenarios, named):
        runs = []
        monkeypatch.setattr(engine, "run_experiment", lambda cfg: runs.append(cfg))
        with pytest.raises(ConfigError, match=named):
            run_ablation(tiny_cfg(rounds=1), scenarios=scenarios)
        assert runs == []

    def test_grid_shape_and_flags(self):
        cfg = tiny_cfg(rounds=1, inference_modes=("both",))
        table = run_ablation(cfg, scenarios=("iid",))
        assert table.rows == ["MF", "MF+MIM", "MF+FW", "MF+FW+MIM"]
        assert table.scenarios == ["iid"]
        assert len(table.micro_f1) == 4

    def test_plain_row_reproduces_direct_run_bitwise(self):
        cfg = tiny_cfg(rounds=1, inference_modes=("both",))
        table = run_ablation(cfg, scenarios=("iid",))
        direct = run_experiment(
            dataclasses.replace(cfg, use_fw=False, use_mim=False)
        )
        assert table.micro_f1[("MF", "iid")] == direct.final_eval("both").micro_f1

    def test_csv_shape(self):
        cfg = tiny_cfg(rounds=1, inference_modes=("both",))
        table = run_ablation(cfg, scenarios=("iid",))
        lines = table.to_csv().strip().split("\n")
        assert lines[0] == "modules,iid"
        assert len(lines) == 5
