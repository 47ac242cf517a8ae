"""Acceptance suite.

One test per acceptance criterion, each printing a PASS line (run with
``pytest tests/test_acceptance.py -v -s``). Numeric tolerances and runtime
budgets are asserted inline. The heavier multi-seed comparisons share
cached runs through module-level memoization.
"""

import dataclasses
import functools
import itertools
import math
import time

import numpy as np
import pytest
from gradcheck import grad_check
from modelclone import clone_model
from shardcheck import shards_equal

from fedmm.config import ExperimentConfig
from fedmm.data import (
    DatasetSpec,
    ScenarioSpec,
    build_scenario,
    gen_synthetic,
    load_shard,
    save_shard,
)
from fedmm.engine import (
    ClientUpdate,
    aggregate,
    baseline_fedavg_latefusion,
    client_rng,
    init_model,
    run_experiment,
)
from fedmm.errors import FormatError
from fedmm.losses import (
    LossConfig,
    bce_multilabel,
    ce_singlelabel,
    local_objective,
    ntxent,
)
from fedmm.models import (
    build_model,
    cross_encode,
    encode_train,
    flatten_params,
    load_model,
    save_model,
    unflatten_params,
)
from fedmm.nncore import (
    AdamState,
    DenseLayer,
    WhiteningState,
    activation_backward,
    activation_forward,
    adam_step,
    batch_whitening_backward,
    batch_whitening_train,
    dense_backward,
    dense_forward,
    whitening_matrix,
)
from fedmm.data import batches

GRAD_TOL = 1e-5
N_POINTS = 10


def _sigmoid(x):
    return 1.0 / (1.0 + np.exp(-x))


def _away_from_relu_kink(rng, shape, margin=1e-4):
    """Sample inputs whose relu pre-activations stay differentiable.

    Central differences are undefined at the kink itself, so test points
    keep a margin of several step sizes around it.
    """
    while True:
        x = rng.normal(size=shape)
        if np.abs(x).min() > margin:
            return x


# ---------------------------------------------------------------------------
# 1. gradient suite
# ---------------------------------------------------------------------------


def _check_dense(rng):
    x = rng.normal(size=(4, 3))
    probe = rng.normal(size=(4, 5))

    def f(theta):
        layer = DenseLayer(weight=theta[:15].reshape(3, 5), bias=theta[15:])
        out = dense_forward(layer, x)
        _, gw, gb = dense_backward(layer, x, probe)
        return float((out * probe).sum()), np.concatenate([gw.ravel(), gb])

    return grad_check(f, rng.normal(size=20), h=1e-5)


def _check_activation(rng, kind):
    shape = (3, 4)
    probe = rng.normal(size=shape)
    base = _away_from_relu_kink(rng, shape) if kind == "relu" else rng.normal(size=shape)

    def f(theta):
        x = theta.reshape(shape)
        out = activation_forward(x, kind)
        return float((out * probe).sum()), activation_backward(x, kind, probe).ravel()

    return grad_check(f, base.ravel(), h=1e-6)


def _check_whitening(rng):
    d, b = 3, 7
    x0 = rng.normal(size=(b, d))
    probe = rng.normal(size=(b, d))
    state = WhiteningState.create(d, eps=1e-3)
    state.gamma = rng.normal(size=d) + 2.0
    state.beta = rng.normal(size=d)
    _, mu, w, xhat = batch_whitening_train(x0, state)
    gx, gg, gb = batch_whitening_backward(state.gamma, w, xhat, probe)
    analytic = np.concatenate([gx.ravel(), gg, gb])
    n_x = b * d

    def f(theta):
        x = theta[:n_x].reshape(b, d)
        gamma = theta[n_x : n_x + d]
        beta = theta[n_x + d :]
        out = gamma * ((x - mu) @ w) + beta  # statistics frozen at theta0
        return float((out * probe).sum()), analytic

    theta0 = np.concatenate([x0.ravel(), state.gamma, state.beta])
    return grad_check(f, theta0, h=1e-5)


def _check_bce(rng):
    y = (rng.uniform(size=(3, 4)) > 0.5).astype(float)

    def f(theta):
        probs = _sigmoid(theta.reshape(3, 4))
        loss, grad = bce_multilabel(probs, y)
        return loss, grad.ravel()

    return grad_check(f, rng.normal(size=12), h=1e-5)


def _check_ce(rng):
    y = rng.integers(0, 4, size=3)

    def f(theta):
        probs = activation_forward(theta.reshape(3, 4), "softmax-rows")
        loss, grad = ce_singlelabel(probs, y)
        return loss, grad.ravel()

    return grad_check(f, rng.normal(size=12), h=1e-5)


def _check_ntxent(rng, variant):
    fg = rng.normal(size=(4, 3))
    cfg = LossConfig(tau=0.5, ntxent_variant=variant)

    def f(theta):
        loss, grad = ntxent(theta.reshape(4, 3), fg, cfg)
        return loss, grad.ravel()

    return grad_check(f, rng.normal(size=12), h=1e-6)


def _composite_point(seed, input_dims):
    """Draw a model/batch pair at which the combined objective is smooth.

    Points on the non-differentiable manifolds (relu kinks, zero-norm
    feature rows where the cosine convention switches branch) are rejected:
    finite differences are undefined there for any implementation.
    """
    for attempt in range(50):
        point_seed = seed + 7919 * attempt
        model = build_model(
            input_dims=list(input_dims),
            hidden_dim=5,
            feature_dim=3,
            n_labels=2,
            task_kind="multi-label",
            use_whitening=True,
            rngs=itertools.repeat(np.random.default_rng(point_seed)),
        )
        rng = np.random.default_rng(point_seed + 1000)
        x = rng.normal(size=(3, 3)) + 0.8
        y = (rng.uniform(size=(3, 2)) > 0.5).astype(float)
        probe = clone_model(model)
        f_local, cache = encode_train(probe.encoders[0], x)
        margins = [np.abs(p).min() for p in cache.preact[:-1]]
        # small feature norms inflate the cosine's higher derivatives and
        # with them the finite-difference truncation error
        if min(margins) > 1e-2 and np.linalg.norm(f_local, axis=1).min() > 0.3:
            return model, x, y
    raise RuntimeError("no smooth test point found")


def _check_composite(seed, input_dims=(3, 4)):
    """Combined objective vs a frozen-statistics finite-difference oracle,
    for modality 0 of a model with one modality per input dim. The
    alignment target is the mean of the other modalities' bodies applied
    to modality 0's adapter output."""
    model, x, y = _composite_point(seed, input_dims)
    cfg = LossConfig(tau=0.5, lambda_mim=1.0)

    work = clone_model(model)
    enc, head = work.encoders[0], work.head
    res = local_objective(x, y, enc, head, work, cfg)
    analytic = res.grad
    n_enc = enc.params.size

    _, theta0_cache = encode_train(clone_model(model).encoders[0], x)
    f_global = np.mean(
        [cross_encode(theta0_cache.inputs[1], enc) for enc in model.encoders[1:]], axis=0
    )
    base = model.encoders[0]
    z1 = x @ base.adapter.dense.weight + base.adapter.dense.bias
    mu = z1.mean(axis=0)
    c = z1 - mu
    w_frozen = whitening_matrix(c.T @ c / z1.shape[0], base.adapter.whitening.eps)

    def ntx_reference(f_loc):
        total = 0.0
        for z in range(3):
            def cos(a, b):
                na, nb = np.linalg.norm(a), np.linalg.norm(b)
                return 0.0 if na <= 1e-12 or nb <= 1e-12 else float(a @ b) / (na * nb)
            pos = math.exp(cos(f_loc[z], f_global[z]) / cfg.tau)
            den = sum(
                math.exp(cos(f_loc[z], f_global[t]) / cfg.tau)
                for t in range(3)
                if t != z
            )
            total += -math.log(pos / den)
        return total

    def f(theta):
        enc_t = unflatten_params(theta[:n_enc], model.encoders[0])
        head_t = unflatten_params(theta[n_enc:], model.head)
        z = x @ enc_t.adapter.dense.weight + enc_t.adapter.dense.bias
        wst = enc_t.adapter.whitening
        h = np.maximum(wst.gamma * ((z - mu) @ w_frozen) + wst.beta, 0.0)
        s1, s2 = enc_t.body
        h = np.maximum(h @ s1.dense.weight + s1.dense.bias, 0.0)
        f_loc = h @ s2.dense.weight + s2.dense.bias
        fused = np.concatenate([f_loc] + [np.zeros_like(f_loc)] * len(model.encoders[1:]), axis=1)
        logits = fused @ head_t.layer.weight + head_t.layer.bias
        probs = _sigmoid(logits)
        ce = float(-(y * np.log(probs) + (1 - y) * np.log(1 - probs)).sum(axis=1).mean())
        return cfg.lambda_mim * ntx_reference(f_loc) / 3.0 + ce, analytic

    theta0 = np.concatenate([flatten_params(enc), flatten_params(head)])
    return grad_check(f, theta0, h=1e-5)


def test_criterion_01_gradient_suite():
    started = time.perf_counter()
    worst = {}
    for point in range(N_POINTS):
        rng = np.random.default_rng(100 + point)
        worst["dense"] = max(worst.get("dense", 0.0), _check_dense(rng))
        for kind in ("relu", "sigmoid", "softmax-rows"):
            worst[kind] = max(worst.get(kind, 0.0), _check_activation(rng, kind))
        worst["whitening"] = max(worst.get("whitening", 0.0), _check_whitening(rng))
        worst["bce"] = max(worst.get("bce", 0.0), _check_bce(rng))
        worst["ce"] = max(worst.get("ce", 0.0), _check_ce(rng))
        for variant in ("negatives-only", "standard"):
            key = f"contrastive/{variant}"
            worst[key] = max(worst.get(key, 0.0), _check_ntxent(rng, variant))
        worst["composite"] = max(worst.get("composite", 0.0), _check_composite(200 + point))
        worst["composite/P=3"] = max(
            worst.get("composite/P=3", 0.0), _check_composite(300 + point, (3, 4, 5))
        )
    elapsed = time.perf_counter() - started
    for name, err in worst.items():
        assert err < GRAD_TOL, f"{name}: max relative error {err:.2e}"
    assert elapsed < 10.0, f"gradient suite took {elapsed:.1f}s"
    print(
        f"[acceptance 1] PASS - gradient suite, worst rel err "
        f"{max(worst.values()):.2e} over {N_POINTS} points/check, {elapsed:.1f}s"
    )


# ---------------------------------------------------------------------------
# 2. whitening property
# ---------------------------------------------------------------------------


def test_criterion_02_whitening_property():
    rng = np.random.default_rng(7)
    checked = 0
    worst_mean, worst_cov = 0.0, 0.0
    while checked < 50:
        d = int(rng.integers(2, 7))
        b = int(rng.integers(d + 1, d + 12))
        x = rng.normal(size=(b, d)) @ rng.normal(size=(d, d)) + rng.normal(size=d)
        if np.linalg.matrix_rank(np.cov(x.T, bias=True)) < d:
            continue
        state = WhiteningState.create(d, eps=0.0)
        out = batch_whitening_train(x, state)[0]
        worst_mean = max(worst_mean, float(np.abs(out.mean(axis=0)).max()))
        cov = out.T @ out / b
        worst_cov = max(worst_cov, float(np.abs(cov - np.eye(d)).max()))
        checked += 1
    assert worst_mean < 1e-9, f"worst output mean {worst_mean:.2e}"
    assert worst_cov < 1e-6, f"worst covariance deviation {worst_cov:.2e}"
    print(
        f"[acceptance 2] PASS - 50 batches whitened: |mean| <= {worst_mean:.2e}, "
        f"|cov - I| <= {worst_cov:.2e}"
    )


# ---------------------------------------------------------------------------
# 3. aggregation oracle
# ---------------------------------------------------------------------------


def test_criterion_03_aggregation_oracle():
    model = build_model(
        input_dims=[4, 6],
        hidden_dim=5,
        feature_dim=3,
        n_labels=3,
        task_kind="multi-label",
        use_whitening=True,
        rngs=itertools.repeat(np.random.default_rng(3)),
    )
    worst = 0.0
    for trial in range(100):
        rng = np.random.default_rng(5000 + trial)
        updates = []
        cid = 0
        for m, enc in enumerate(model.encoders):
            for _ in range(int(rng.integers(1, 5))):
                updates.append(
                    ClientUpdate(
                        client_id=cid,
                        modality_id=m,
                        encoder_flat=rng.normal(size=enc.params.size),
                        head_flat=rng.normal(size=model.head.params.size),
                        n_samples=int(rng.integers(1, 100)),
                        mean_ce=0.0,
                        mean_ntx=0.0,
                    )
                )
                cid += 1
        merged = aggregate(updates, model)
        total = sum(u.n_samples for u in updates)
        for m, enc in enumerate(merged.encoders):
            group = [u for u in updates if u.modality_id == m]
            g_total = sum(u.n_samples for u in group)
            expected = sum((u.n_samples / g_total) * u.encoder_flat for u in group)
            worst = max(worst, float(np.abs(flatten_params(enc) - expected).max()))
        expected_head = sum((u.n_samples / total) * u.head_flat for u in updates)
        worst = max(worst, float(np.abs(flatten_params(merged.head) - expected_head).max()))
    assert worst < 1e-12, f"worst deviation from the weighted-average oracle {worst:.2e}"
    print(f"[acceptance 3] PASS - 100 aggregations within {worst:.2e} of the oracle")


# ---------------------------------------------------------------------------
# 4. reduction to centralized training
# ---------------------------------------------------------------------------


def test_criterion_04_single_client_reduction():
    started = time.perf_counter()
    cfg = ExperimentConfig(
        dataset=DatasetSpec(
            n_sites=150,
            latent_dim=5,
            modality_dims=(12,),
            n_labels=4,
            n_groups=2,
            noise_sigma=0.1,
        ),
        scenario=ScenarioSpec(kind="iid"),
        k_clients=1,
        rounds=3,
        local_epochs=2,
        batch_size=16,
        use_fw=False,
        use_mim=False,
        inference_modes=("both",),
        seed=5,
        d_hidden=8,
        d_feature=5,
    )
    log = run_experiment(cfg)

    # independent centralized loop: same init, same stream, R*E plain epochs
    dataset = gen_synthetic(cfg.resolved_dataset())
    shard = build_scenario(dataset, cfg.scenario, 1)[0]
    model = init_model(cfg)
    enc, head = model.encoders[0], model.head
    n_enc = enc.params.size
    n = n_enc + head.params.size
    adam = AdamState(
        np.zeros(n), np.zeros(n), lr=cfg.lr, beta1=cfg.beta1, beta2=cfg.beta2,
        weight_decay=cfg.weight_decay,
    )
    rng = client_rng(cfg.seed, 0)
    loss_cfg = LossConfig(tau=cfg.tau, lambda_mim=0.0, ntxent_variant=cfg.ntxent_variant)
    for _ in range(cfg.rounds * cfg.local_epochs):
        for idx in batches(shard.n, cfg.batch_size, rng):
            res = local_objective(
                shard.features[idx], shard.labels[idx], enc, head, model, loss_cfg
            )
            flat = np.concatenate([flatten_params(enc), flatten_params(head)])
            flat = adam_step(flat, res.grad, adam)
            enc = unflatten_params(flat[:n_enc], enc)
            head = unflatten_params(flat[n_enc:], head)
            model.encoders[0], model.head = enc, head

    federated = flatten_params(log.model)
    centralized = np.concatenate([flatten_params(enc), flatten_params(head)])
    elapsed = time.perf_counter() - started
    assert federated.tobytes() == centralized.tobytes()
    assert elapsed < 30.0, f"reduction check took {elapsed:.1f}s"
    print(
        f"[acceptance 4] PASS - one-client run equals {cfg.rounds * cfg.local_epochs} "
        f"centralized epochs bit-for-bit, {elapsed:.1f}s"
    )


# ---------------------------------------------------------------------------
# 5. determinism, including client-parallel execution
# ---------------------------------------------------------------------------


def test_criterion_05_determinism(tmp_path):
    base = ExperimentConfig(
        dataset=DatasetSpec(
            n_sites=400,
            latent_dim=8,
            modality_dims=(6, 9),
            n_labels=4,
            n_groups=3,
            noise_sigma=0.1,
        ),
        scenario=ScenarioSpec(kind="group-skew"),
        k_clients=6,
        rounds=3,
        batch_size=32,
        eval_every=1,
        inference_modes=("both", "only-0", "only-1"),
        seed=11,
        d_hidden=16,
        d_feature=8,
    )
    outputs = {}
    for name, parallel in (("a", False), ("b", False), ("c", True)):
        cfg = dataclasses.replace(base, output_dir=str(tmp_path / name))
        run_experiment(cfg, parallel=parallel)
        outputs[name] = (
            (tmp_path / name / "log.csv").read_bytes(),
            (tmp_path / name / "model.ckpt").read_bytes(),
        )
    assert outputs["a"] == outputs["b"], "repeat run diverged"
    assert outputs["a"] == outputs["c"], "client-parallel run diverged"
    print("[acceptance 5] PASS - serial repeat and process-parallel runs byte-identical")


# ---------------------------------------------------------------------------
# 6-9. directional trends (multi-seed, shared cached runs)
# ---------------------------------------------------------------------------

TREND_SEEDS = (0, 1, 2, 3, 4)
_RUN_TIMES: dict[str, float] = {}


def _trend_config(kind, seed, use_fw, use_mim, modes=("both",), k_clients=14, eval_every=40):
    return ExperimentConfig(
        dataset=DatasetSpec(),
        scenario=ScenarioSpec(kind=kind),
        k_clients=k_clients,
        rounds=40,
        eval_every=eval_every,
        inference_modes=modes,
        seed=seed,
        use_fw=use_fw,
        use_mim=use_mim,
    )


@functools.cache
def _framework_final(kind, seed, use_fw, use_mim, modes=("both",), k_clients=14, eval_every=40):
    started = time.perf_counter()
    log = run_experiment(
        _trend_config(kind, seed, use_fw, use_mim, modes, k_clients, eval_every)
    )
    _RUN_TIMES[f"run/{kind}/{seed}/{use_fw}/{use_mim}/{k_clients}"] = (
        time.perf_counter() - started
    )
    return {mode: log.final_eval(mode).micro_f1 for mode in modes}, [
        r.evals["both"].micro_f1 for r in log.rounds if "both" in r.evals
    ]


@functools.cache
def _baseline_final(kind, seed, modes=("both",)):
    started = time.perf_counter()
    log = baseline_fedavg_latefusion(_trend_config(kind, seed, False, False, modes))
    _RUN_TIMES[f"base/{kind}/{seed}"] = time.perf_counter() - started
    return {mode: log.final_eval(mode).micro_f1 for mode in modes}


def test_criterion_06_beats_baseline_under_group_skew():
    started = time.perf_counter()
    full = [_framework_final("group-skew", s, True, True)[0]["both"] for s in TREND_SEEDS]
    base = [_baseline_final("group-skew", s)["both"] for s in TREND_SEEDS]
    elapsed = time.perf_counter() - started
    gap = float(np.mean(full) - np.mean(base))
    wins = sum(f > b for f, b in zip(full, base))
    assert gap > 0.0, f"mean gap {gap:+.4f} is not positive"
    assert wins >= 4, f"framework won only {wins}/5 paired seeds"
    assert elapsed < 300.0, f"criterion took {elapsed:.0f}s"
    print(
        f"[acceptance 6] PASS - full framework {np.mean(full):.4f} vs baseline "
        f"{np.mean(base):.4f} (gap {gap:+.4f}, {wins}/5 seeds, {elapsed:.0f}s)"
    )


def test_criterion_07_module_ablation_ordering():
    started = time.perf_counter()
    plain = [_framework_final("group-skew", s, False, False)[0]["both"] for s in TREND_SEEDS]
    whitened = [_framework_final("group-skew", s, True, False)[0]["both"] for s in TREND_SEEDS]
    full = [_framework_final("group-skew", s, True, True)[0]["both"] for s in TREND_SEEDS]
    elapsed = time.perf_counter() - started
    assert np.mean(whitened) >= np.mean(plain), (
        f"whitening hurt: {np.mean(whitened):.4f} < {np.mean(plain):.4f}"
    )
    assert np.mean(full) >= np.mean(plain), (
        f"full stack hurt: {np.mean(full):.4f} < {np.mean(plain):.4f}"
    )
    assert elapsed < 600.0, f"criterion took {elapsed:.0f}s"
    print(
        f"[acceptance 7] PASS - ordering holds: {np.mean(plain):.4f} (averaging only) "
        f"<= {np.mean(whitened):.4f} (+whitening) <= {np.mean(full):.4f} (+alignment), "
        f"{elapsed:.0f}s"
    )


def test_criterion_08_missing_modality_inference():
    modes = ("both", "only-0", "only-1")
    full, base = {}, {}
    for mode in modes:
        full[mode] = []
        base[mode] = []
    for s in TREND_SEEDS:
        f = _framework_final("missing-B", s, True, True, modes)[0]
        b = _baseline_final("missing-B", s, modes)
        for mode in modes:
            assert 0.0 <= f[mode] <= 1.0 and 0.0 <= b[mode] <= 1.0
            full[mode].append(f[mode])
            base[mode].append(b[mode])
    # the halved modality is 1; solo inference on the modality whose archive
    # stayed complete is where cross-modal training pays off most
    gap = float(np.mean(full["only-0"]) - np.mean(base["only-0"]))
    assert gap > 0.0, f"solo-inference gap {gap:+.4f} is not positive"
    print(
        f"[acceptance 8] PASS - missing-modality runs for only-0/only-1; "
        f"solo complete-modality micro-F1 {np.mean(full['only-0']):.4f} vs baseline "
        f"{np.mean(base['only-0']):.4f} (gap {gap:+.4f})"
    )


def test_criterion_09_client_count_sensitivity():
    seeds = (0, 1, 2)
    finals = {}
    for k in (7, 14, 28):
        finals[k] = []
        for s in seeds:
            final, per_round = _framework_final(
                "iid", s, True, True, ("both",), k, eval_every=1
            )
            assert len(per_round) == 40, "per-round evaluations missing"
            finals[k].append(final["both"])
    assert np.mean(finals[28]) <= np.mean(finals[7]), (
        f"more clients did not cost accuracy: K=28 {np.mean(finals[28]):.4f} "
        f"> K=7 {np.mean(finals[7]):.4f}"
    )
    print(
        "[acceptance 9] PASS - per-round logs complete; final micro-F1 "
        + " ".join(f"K={k}:{np.mean(v):.4f}" for k, v in finals.items())
    )


# ---------------------------------------------------------------------------
# 10. format robustness
# ---------------------------------------------------------------------------


def test_criterion_10_format_robustness(tmp_path):
    dataset = gen_synthetic(
        DatasetSpec(
            n_sites=60, latent_dim=5, modality_dims=(4, 6), n_labels=3, n_groups=2, seed=2
        )
    )
    shard_path = tmp_path / "data.shard"
    save_shard(dataset.train[1], shard_path, n_labels=3)
    assert shards_equal(load_shard(shard_path), dataset.train[1])

    model = build_model(
        input_dims=[4, 6],
        hidden_dim=6,
        feature_dim=4,
        n_labels=3,
        task_kind="multi-label",
        use_whitening=True,
        rngs=itertools.repeat(np.random.default_rng(4)),
    )
    encode_train(model.encoders[0], dataset.train[0].features[:16])
    ckpt_path = tmp_path / "model.ckpt"
    save_model(model, ckpt_path)
    reloaded = load_model(ckpt_path)
    assert flatten_params(reloaded).tobytes() == flatten_params(model).tobytes()
    st_a = model.encoders[0].adapter.whitening
    st_b = reloaded.encoders[0].adapter.whitening
    assert st_a.running_cov.tobytes() == st_b.running_cov.tobytes()

    corruptions = 0
    for path, loader in ((shard_path, load_shard), (ckpt_path, load_model)):
        original = path.read_bytes()
        variants = [
            b"XXXX" + original[4:],                     # wrong magic
            original[:4] + b"\xff\xff" + original[6:],  # unsupported version
            original[: len(original) // 3],             # truncation
            original[:-5],                              # torn tail
            original + b"\x00" * 16,                    # trailing garbage
        ]
        nan_payload = bytearray(original)
        nan_payload[-8:] = np.float64("nan").tobytes()
        variants.append(bytes(nan_payload))
        for variant in variants:
            path.write_bytes(variant)
            with pytest.raises(FormatError):
                loader(path)
            corruptions += 1
        path.write_bytes(original)
        loader(path)  # still loads after restoring

    # an asymmetric running covariance is rejected at load, not at evaluation
    original = ckpt_path.read_bytes()
    dim = reloaded.encoders[-1].adapter.whitening.dim  # the file's last statistics block
    cov_offset = len(original) - 8 * dim * dim
    skewed = bytearray(original)
    skewed[cov_offset + 8 : cov_offset + 16] = np.float64(1e-6).tobytes()
    ckpt_path.write_bytes(bytes(skewed))
    with pytest.raises(FormatError) as info:
        load_model(ckpt_path)
    assert info.value.offset == cov_offset
    corruptions += 1
    print(
        f"[acceptance 10] PASS - roundtrips bit-exact; {corruptions} corrupted "
        f"variants all raised typed format errors"
    )
