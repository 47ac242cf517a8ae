"""Synchronous round-based federated training.

A run trains one or more (global model, clients) federations: the
framework one, the late-fusion baseline one single-modality federation per
modality. Each round is one :func:`run_round` call over all of them: for
each federation in order, broadcast its global parameters, run every
client's local update, aggregate per-modality encoders and the shared
head; then one :class:`RoundLog` from every upload of the round. One loop
(:func:`_federate`) drives the rounds and the evaluation schedule for both
entry points. With ``parallel`` it opens a :class:`~fedmm.workers.Pool` of one
worker per usable CPU (never more than a federation has clients; inline
when that is one or when the platform has no ``os.fork``): processes forked
once, at the first round, and kept until the last, with numpy's BLAS capped
to one thread meanwhile. :mod:`fedmm.workers` does the forking, piping and
reaping; this module holds the client side (:func:`_run_updates`,
:func:`_serve`). Worker g keeps ``clients[g::workers]``, and this process
updates the last group itself through the same :func:`_serve`; a serial
round is the one-group case, so every upload of every round is built from
its group's reply. Everything a local update writes (parameters, Adam
moments and step count, whitening running statistics and ready flags, the
RNG state) lives from :func:`make_client` on in one anonymous shared
mapping per client, serial runs included; a worker forked
later writes it for this process too, so this process's clients stay
authoritative between rounds and the pool moves nothing before it forks. A
round sends each worker the global parameters and takes back only each
client's two mean losses. Results are identical either way because each
client owns its state and RNG stream and the global snapshot is read-only.
A failed local update re-raises its exception, in the parent too, with
``round r: client k:`` prepended to the message; a worker that dies
without reporting raises ChildProcessError naming the round.

Aggregation accumulates client deltas around the broadcast reference in
ascending client-id order, which makes "all clients returned the broadcast
unchanged" an exact fixed point and keeps the result independent of
completion order.

Each client owns one parameter vector laid out as [encoder | head]; its
encoder and head buffers are the two slices, so an Adam step on the vector
is the whole local update and the broadcast is two slice copies. The upload
is those two slices themselves, not copies: a pooled round's aggregation
reads straight from the memory the workers wrote. A global model owns one
[enc_0 | ... | enc_{P-1} | head] vector, sent to a worker as one array;
aggregation copies it once and averages each part's slice in place.

Whitening running statistics never leave a client: :func:`make_client`
copies them from the global template and no broadcast touches them; a
broadcast overwrites parameters only.

Both entry points build their models with :func:`~fedmm.models.build_model`,
each part from its own init stream (:func:`model_rng`), and score them
through :func:`~fedmm.metrics.score_modes`, each with its own fusion rule.
"""

from __future__ import annotations

import contextlib
import dataclasses
import functools
import itertools
import json
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import workers
from .config import ExperimentConfig, config_to_dict
from .data import SCENARIO_KINDS, Shard, batches, build_scenario, gen_synthetic, label_mismatch
from .errors import ConfigError, DataError, DimensionError, NumericError, ValidationError
from .losses import LossConfig, local_objective
from .metrics import MetricsReport, evaluate, score_modes
from .models import (
    Encoder,
    GlobalModelSet,
    TaskHead,
    assign_params,
    bind_parts,
    build_model,
    copy_part,
    head_forward,
    save_model,
    unflatten_params,
    whitening_states,
)
from .nncore import AdamState, adam_step

_MODEL_STREAM = 1
_CLIENT_STREAM = 2
_PCG64_WORDS = 6  # 128-bit state and increment as (high, low) words, has_uint32, uinteger
_LOW_WORD = (1 << 64) - 1

CSV_COLUMNS = (
    "round",
    "mode",
    "micro_f1",
    "macro_f1",
    "accuracy",
    "mean_ce",
    "mean_ntx",
    "bytes_exchanged",
)


def model_rng(seed: int, part: int) -> np.random.Generator:
    """Initialization stream for one model part.

    Encoder for modality m draws from part=m; a head for the model whose
    first slot is modality m draws from part=P+m. With one modality the
    single-modality baseline therefore initializes identically to the full
    run, which is what makes the two coincide exactly at P=1.
    """
    return np.random.default_rng([seed, _MODEL_STREAM, part])


def client_rng(seed: int, client_id: int) -> np.random.Generator:
    return np.random.default_rng([seed, _CLIENT_STREAM, client_id])


def init_model(cfg: ExperimentConfig) -> GlobalModelSet:
    """The framework's initial global model, part m from stream m (:func:`model_rng`)."""
    spec = cfg.resolved_dataset()
    return build_model(
        spec.modality_dims,
        cfg.d_hidden,
        cfg.d_feature,
        spec.n_labels,
        spec.task_kind,
        cfg.use_fw,
        [model_rng(cfg.seed, part) for part in range(spec.n_modalities + 1)],
    )


def _baseline_submodel(cfg: ExperimentConfig, modality: int) -> GlobalModelSet:
    """The late-fusion baseline's initial model for ``modality``: that
    encoder, unwhitened, in slot 0, from the stream it has in
    :func:`init_model`, and a private head over its features from stream
    P + ``modality`` (:func:`model_rng`)."""
    spec = cfg.resolved_dataset()
    return build_model(
        [spec.modality_dims[modality]],
        cfg.d_hidden,
        cfg.d_feature,
        spec.n_labels,
        spec.task_kind,
        False,
        [model_rng(cfg.seed, part) for part in (modality, spec.n_modalities + modality)],
    )


@dataclass
class ClientState:
    """One client's private shard, local model copy, optimizer, and RNG.

    ``params`` is the client's own vector laid out as [encoder | head];
    ``encoder.params`` and ``head.params`` are its two slices (``make_client``
    binds them), and ``client_update`` writes into it in place. It, the
    Adam state, the whitening running statistics and ready flags and
    ``rng_words``, the PCG64 state of the client's stream, all live in one
    anonymous shared mapping that ``make_client`` allocates, so a worker
    process forked afterwards writes them for this one too.
    """

    client_id: int
    shard: Shard
    encoder: Encoder
    head: TaskHead
    params: np.ndarray
    adam: AdamState
    rng_words: np.ndarray
    _stream: np.random.Generator = field(
        init=False, repr=False, default_factory=lambda: np.random.Generator(np.random.PCG64(0))
    )

    @property
    def rng(self) -> np.random.Generator:
        """The client's stream as ``rng_words`` hold it. Each read sets the
        state of the one Generator the client reuses; assign the stream back
        to store what was drawn from it."""
        state_hi, state_lo, inc_hi, inc_lo, has_uint32, uinteger = self.rng_words.tolist()
        self._stream.bit_generator.state = {
            "bit_generator": "PCG64",
            "state": {"state": state_hi << 64 | state_lo, "inc": inc_hi << 64 | inc_lo},
            "has_uint32": has_uint32,
            "uinteger": uinteger,
        }
        return self._stream

    @rng.setter
    def rng(self, generator: np.random.Generator) -> None:
        state = generator.bit_generator.state
        s, inc = state["state"]["state"], state["state"]["inc"]
        self.rng_words[...] = (
            s >> 64,
            s & _LOW_WORD,
            inc >> 64,
            inc & _LOW_WORD,
            state["has_uint32"],
            state["uinteger"],
        )


@dataclass
class ClientUpdate:
    """What one client sends the server after its local update.

    ``encoder_flat`` and ``head_flat`` are the client's own parameter
    slices (``ClientState.encoder.params`` and ``.head.params``), not
    copies: they hold this round's values until that client's next local
    update overwrites them. :func:`run_round` aggregates them before then.
    """

    client_id: int
    modality_id: int  # slot within the model being aggregated
    encoder_flat: np.ndarray
    head_flat: np.ndarray
    n_samples: int
    mean_ce: float
    mean_ntx: float


@dataclass
class RoundLog:
    round_index: int
    client_ce: dict[int, float]
    client_ntx: dict[int, float]
    bytes_exchanged: int
    evals: dict[str, MetricsReport] = field(default_factory=dict)
    train_s: float = 0.0  # every client's local update, waiting for workers included
    aggregate_s: float = 0.0
    eval_s: float = 0.0  # scheduled evaluation after the round

    @property
    def mean_ce(self) -> float:
        return float(np.mean(list(self.client_ce.values()))) if self.client_ce else 0.0

    @property
    def mean_ntx(self) -> float:
        return float(np.mean(list(self.client_ntx.values()))) if self.client_ntx else 0.0


@dataclass
class ExperimentLog:
    config: ExperimentConfig
    initial_evals: dict[str, MetricsReport]
    rounds: list[RoundLog]
    model: GlobalModelSet | None = None
    baseline_models: list[GlobalModelSet] | None = None

    def final_eval(self, mode: str) -> MetricsReport:
        for rlog in reversed(self.rounds):
            if rlog.evals:
                return rlog.evals[mode]
        return self.initial_evals[mode]


def make_client(
    client_id: int,
    shard: Shard,
    encoder_template: Encoder,
    head_template: TaskHead,
    cfg: ExperimentConfig,
) -> ClientState:
    """A client holding ``shard`` and copies of the templates. The shard must
    fit them: a feature width other than the encoder's raises DimensionError
    and a label the head cannot score ValidationError.

    Everything :func:`client_update` writes is allocated here, once, in one
    anonymous shared mapping (:func:`~fedmm.workers.shared_block`). A header
    of 8-byte words comes first: Adam's step count, the stream's PCG64 state
    (``rng_words``) and one word per whitening layer whose first byte is its
    ready flag. Then come [parameters | Adam first moment | Adam second
    moment | each whitening layer's running mean and running covariance].
    Each piece is its own array over its bytes, so every layer view's
    ``.base`` is ``params``, and each scalar a 0-d view. A process forked
    afterwards (a :class:`~fedmm.workers.Pool` worker) writes them for this
    one too."""
    if shard.n == 0:
        raise DataError(f"client {client_id} has an empty shard")
    if shard.dim != encoder_template.input_dim:
        raise DimensionError(
            f"client {client_id}: shard has {shard.dim} features, encoder takes "
            f"{encoder_template.input_dim}"
        )
    why = label_mismatch(shard, head_template.task_kind, head_template.n_labels)
    if why is not None:
        raise ValidationError(f"client {client_id}: {why}")
    # the copies share the templates' buffers until bound to their own vector
    encoder, head = (copy_part(t, t.params) for t in (encoder_template, head_template))
    states = whitening_states([encoder])
    n_words = 1 + _PCG64_WORDS + len(states)
    n = encoder.params.size + head.params.size
    sizes = [n, n, n] + [size for st in states for size in (st.dim, st.dim * st.dim)]
    # zero-filled, as Adam's moments and step count start
    block = workers.shared_block(8 * (n_words + sum(sizes)))
    words = np.frombuffer(block, np.uint64, n_words)
    ready = words[1 + _PCG64_WORDS :].view(np.bool_)[::8]
    params, first_moment, second_moment, *stats = (
        np.frombuffer(block, np.float64, size, 8 * start)
        for start, size in zip(itertools.accumulate(sizes, initial=n_words), sizes)
    )
    np.concatenate([encoder.params, head.params], out=params)
    bind_parts([encoder, head], params)
    for i, (st, mean, cov) in enumerate(zip(states, stats[::2], stats[1::2])):
        cov = cov.reshape(st.dim, st.dim)
        mean[...] = st.running_mean
        cov[...] = st.running_cov
        ready[i] = st.stats_ready
        st.running_mean, st.running_cov, st.stats_ready = mean, cov, ready[i, ...]
    adam = AdamState(
        first_moment,
        second_moment,
        words[0, ...].view(np.int64),
        lr=cfg.lr,
        beta1=cfg.beta1,
        beta2=cfg.beta2,
        weight_decay=cfg.weight_decay,
    )
    client = ClientState(
        client_id=client_id,
        shard=shard,
        encoder=encoder,
        head=head,
        params=params,
        adam=adam,
        rng_words=words[1 : 1 + _PCG64_WORDS],
    )
    client.rng = client_rng(cfg.seed, client_id)
    return client


def client_update(
    client: ClientState,
    global_model: GlobalModelSet,
    cfg: ExperimentConfig,
) -> ClientUpdate:
    """Copy the broadcast parameters in, run E local epochs, return the result.

    The broadcast and every optimizer step are copied into the parameter
    vector the client already owns, so no layer object is rebuilt per
    batch and no client array ever aliases ``global_model``. The client
    keeps its own whitening running statistics across rounds; only
    parameters are overwritten by the broadcast. Other-modality encoders
    of ``global_model`` are read-only throughout. The loss settings come
    from ``cfg``: ``tau``, ``ntxent_variant`` and ``lambda_mim``, which
    counts only when ``use_mim`` is on. The client's stream is read from
    its mapping once, at the start, and stored back once, at the end. The
    returned flats are the client's own encoder and head slices, valid
    until its next update.
    """
    if client.shard.n == 0:
        raise DataError(f"client {client.client_id} has an empty shard")
    parts = (client.encoder, client.head)
    if any(np.may_share_memory(part.params, global_model.params) for part in parts):
        raise ValidationError(
            f"client {client.client_id} parameters share memory with the global model"
        )
    assign_params(client.encoder, global_model.encoders[client.encoder.modality_id].params)
    assign_params(client.head, global_model.head.params)
    loss_cfg = LossConfig(
        tau=cfg.tau,
        lambda_mim=cfg.lambda_mim if cfg.use_mim else 0.0,
        ntxent_variant=cfg.ntxent_variant,
    )

    ce_total = ntx_total = 0.0
    n_batches = 0
    rng = client.rng
    for _ in range(cfg.local_epochs):
        for idx in batches(client.shard.n, cfg.batch_size, rng):
            res = local_objective(
                client.shard.features[idx],
                client.shard.labels[idx],
                client.encoder,
                client.head,
                global_model,
                loss_cfg,
            )
            adam_step(client.params, res.grad, client.adam)
            ce_total += res.ce
            ntx_total += res.ntx
            n_batches += 1
    client.rng = rng
    return _upload(
        client,
        ce_total / n_batches if n_batches else 0.0,
        ntx_total / n_batches if n_batches else 0.0,
    )


def _upload(client: ClientState, mean_ce: float, mean_ntx: float) -> ClientUpdate:
    """What ``client`` sends the server: its encoder and head slices,
    uncopied, and its sample count and mean losses."""
    return ClientUpdate(
        client_id=client.client_id,
        modality_id=client.encoder.modality_id,
        encoder_flat=client.encoder.params,
        head_flat=client.head.params,
        n_samples=client.shard.n,
        mean_ce=mean_ce,
        mean_ntx=mean_ntx,
    )


def aggregate(updates: list[ClientUpdate], model: GlobalModelSet) -> GlobalModelSet:
    """Weighted-average client parameters into a new global model.

    Encoders average within their modality group with renormalized
    data-proportional weights; the head averages over all clients. Each
    upload must name one of the model's slots and be finite and as long as
    the part it updates, with a positive integer sample count and its own
    client id, and every slot needs an upload, all checked before anything
    is averaged; every error names the round (``model.round + 1``), and the
    client where one is at fault.
    Sums run in ascending client-id order over deltas from the broadcast
    parameters; a single-member group copies its update verbatim.

    The uploads are read, never kept: the new model's vector is one fresh
    copy of ``model.params`` (:func:`unflatten_params`), averaged into slice
    by slice in place, so it shares no memory with any client, and
    ``updates`` may alias client state that the next round overwrites.
    """
    where = f"round {model.round + 1}:"
    if not updates:
        raise DataError(f"{where} aggregation needs at least one client update")
    updates = sorted(updates, key=lambda u: u.client_id)
    for prev, u in zip([None] + updates, updates):
        n = u.n_samples
        if isinstance(n, bool) or not isinstance(n, (int, np.integer)) or n < 1:
            raise ValidationError(f"{where} client {u.client_id} has {n!r} samples")
        if prev is not None and prev.client_id == u.client_id:
            raise ValidationError(f"{where} client {u.client_id} uploaded twice")
        if not 0 <= u.modality_id < model.n_modalities:
            raise DimensionError(
                f"{where} client {u.client_id} uploaded for slot "
                f"{u.modality_id} of a {model.n_modalities}-modality model"
            )
        bases = (model.encoders[u.modality_id].params, model.head.params)
        for kind, flat, base in zip(("encoder", "head"), (u.encoder_flat, u.head_flat), bases):
            if flat.shape != base.shape:
                raise DimensionError(
                    f"{where} client {u.client_id} {kind} has {flat.shape}, expected {base.shape}"
                )
            if not np.isfinite(flat).all():
                raise NumericError(
                    f"{where} client {u.client_id} uploaded non-finite {kind} parameters"
                )
    new = unflatten_params(model.params, model)
    new.round = model.round + 1
    for m, enc in enumerate(model.encoders):
        group = [u for u in updates if u.modality_id == m]
        if not group:
            raise DataError(f"{where} no client update for modality {m} this round")
        group_total = sum(u.n_samples for u in group)
        members = [(u.encoder_flat, u.n_samples / group_total) for u in group]
        _average(f"{where} averaged encoder", new.encoders[m].params, enc.params, members)
    total = sum(u.n_samples for u in updates)
    members = [(u.head_flat, u.n_samples / total) for u in updates]
    _average(f"{where} averaged head", new.head.params, model.head.params, members)
    return new


def _average(
    what: str, out: np.ndarray, base: np.ndarray, members: list[tuple[np.ndarray, float]]
) -> None:
    """Add to ``out``, a copy of ``base``, the weighted deltas from ``base``
    of the (flat, weight) members, summed in their order; a single member's
    flat is copied in verbatim. A non-finite sum raises NumericError naming
    ``what``."""
    if len(members) == 1:
        out[...] = members[0][0]
        return
    for flat, weight in members:
        out += weight * (flat - base)
    if not np.isfinite(out).all():
        raise NumericError(f"{what} parameters are not finite")


def _serve(federations, cfg: ExperimentConfig, g: int, request) -> list:
    """Group g's part of one round (:func:`_run_updates`), run by child g of
    the pool or, for the last group, by this process: write the broadcast
    parameters into this process's copy of federation f's global model (in
    this process its own vector, which numpy does not copy onto itself),
    update ``clients[g::k]`` in order and reply each client's ``(mean_ce,
    mean_ntx)``; the rest of a client's state is already in the memory every
    process shares (:func:`make_client`). A failed :func:`client_update`
    keeps its class and gains the round and the client at the front of its
    message."""
    f, k, round_done, params = request
    model, clients = federations[f]
    model.round = round_done
    model.params[...] = params
    losses = []
    for client in clients[g::k]:
        try:
            update = client_update(client, model, cfg)
        except Exception as exc:
            exc.args = (f"round {round_done + 1}: client {client.client_id}: {exc}",)
            raise
        losses.append((update.mean_ce, update.mean_ntx))
    return losses


def _pool_for(federations, cfg: ExperimentConfig, parallel: bool):
    """With ``parallel``, a :class:`~fedmm.workers.Pool` over
    ``federations`` of one worker per usable CPU, but no more than the
    largest federation has clients (:func:`~fedmm.workers.usable_cpus`);
    otherwise, or at one worker, a context that yields None."""
    width = min(workers.usable_cpus(), max(len(c) for _, c in federations)) if parallel else 1
    if width <= 1:
        return contextlib.nullcontext()
    return workers.Pool(width, functools.partial(_serve, federations, cfg))


def _run_updates(
    federations: list[tuple[GlobalModelSet, list[ClientState]]],
    f: int,
    cfg: ExperimentConfig,
    pool: workers.Pool | None = None,
) -> list[ClientUpdate]:
    """Every local update of federation ``f`` in one round, in client order.
    Its clients are dealt by stride into ``k`` groups ``clients[g::k]``, one
    without ``pool`` (a serial round is the one-group case) and else ``k =
    min(pool.width, len(clients))``; child g of the pool serves group g and
    this process the last, each through :func:`_serve`. Every upload is
    built here from its group's reply (:func:`_upload`). A child that exits
    without reporting raises ChildProcessError naming the round and its
    clients."""
    model, clients = federations[f]
    k = 1 if pool is None else min(pool.width, len(clients))
    request = (f, k, model.round, model.params)
    try:
        for g in range(k - 1):
            pool.send(g, request)
        own = _serve(federations, cfg, k - 1, request)
        replies = [pool.receive(g) for g in range(k - 1)] + [own]
    except workers.WorkerExited as exc:
        g, status = exc.args
        raise ChildProcessError(
            f"round {model.round + 1}: the worker updating clients "
            f"{[c.client_id for c in clients[g::k]]} exited with status {status} without reporting"
        ) from None
    return [_upload(c, *replies[i % k][i // k]) for i, c in enumerate(clients)]


def run_round(
    federations: list[tuple[GlobalModelSet, list[ClientState]]],
    cfg: ExperimentConfig,
    pool: workers.Pool | None = None,
) -> tuple[list[tuple[GlobalModelSet, list[ClientState]]], RoundLog]:
    """One round of every (global model, clients) federation of a run: for
    each, in order, its clients' local updates (:func:`_run_updates`,
    through ``pool`` when the caller holds one open) and then its
    aggregation.
    Returns the federations with their new global models and the round's
    one log, built from every upload: client losses in client order, the
    bytes of all of them, and the train and aggregate seconds summed over
    the federations. Each client's loss settings come from ``cfg``
    (:func:`client_update`)."""
    uploads: list[ClientUpdate] = []
    advanced = []
    train_s = aggregate_s = 0.0
    for f, (model, clients) in enumerate(federations):
        started = time.perf_counter()
        updates = _run_updates(federations, f, cfg, pool)
        trained = time.perf_counter()
        advanced.append((aggregate(updates, model), clients))
        train_s += trained - started
        aggregate_s += time.perf_counter() - trained
        uploads += updates
    payload = sum(u.encoder_flat.size + u.head_flat.size for u in uploads)
    log = RoundLog(
        round_index=advanced[0][0].round,
        client_ce={u.client_id: u.mean_ce for u in uploads},
        client_ntx={u.client_id: u.mean_ntx for u in uploads},
        bytes_exchanged=2 * 8 * payload,  # broadcast + upload of float64 payloads
        train_s=train_s,
        aggregate_s=aggregate_s,
    )
    return advanced, log


def _federate(
    cfg: ExperimentConfig, federations, score, parallel: bool
) -> tuple[dict[str, MetricsReport], list[RoundLog], list[GlobalModelSet]]:
    """Train (global model, clients) ``federations`` side by side for
    ``cfg.rounds`` rounds, one :func:`run_round` call each; the one round
    loop of every run.

    ``score(models)`` reports on the current global models at set-up and
    after every ``eval_every``-th and the last round. With ``parallel``
    one pool over every federation (:func:`_pool_for`) serves all the rounds;
    the set-up evaluation runs before it opens. Returns the set-up reports,
    the round logs and the final global models.
    """
    initial = score([model for model, _ in federations])
    rounds: list[RoundLog] = []
    with _pool_for(federations, cfg, parallel and cfg.rounds > 0) as pool:
        for r in range(1, cfg.rounds + 1):
            federations, rlog = run_round(federations, cfg, pool)
            if r % cfg.eval_every == 0 or r == cfg.rounds:
                started = time.perf_counter()
                rlog.evals = score([model for model, _ in federations])
                rlog.eval_s = time.perf_counter() - started
            rounds.append(rlog)
    return initial, rounds, [model for model, _ in federations]


def _client_shards(cfg: ExperimentConfig) -> tuple[list[Shard], list[Shard]]:
    """The run's client shards and test shards.

    :func:`build_scenario` copies every client's rows, so nothing a run
    keeps refers to the training split, and it is freed when this returns,
    before the clients are built and the rounds allocate.
    """
    dataset = gen_synthetic(cfg.resolved_dataset())
    return build_scenario(dataset, cfg.scenario, cfg.k_clients), dataset.test


def run_experiment(cfg: ExperimentConfig, parallel: bool = False) -> ExperimentLog:
    """Full framework run: R rounds plus scheduled multi-mode evaluations."""
    cfg.validate()
    shards, test = _client_shards(cfg)
    model = init_model(cfg)
    clients = [
        make_client(i, shard, model.encoders[shard.modality_id], model.head, cfg)
        for i, shard in enumerate(shards)
    ]
    initial, rounds, (model,) = _federate(
        cfg,
        [(model, clients)],
        lambda models: evaluate(models[0], test, cfg.inference_modes),
        parallel,
    )
    log = ExperimentLog(config=cfg, initial_evals=initial, rounds=rounds, model=model)
    if cfg.output_dir:
        write_outputs(log, cfg.output_dir)
    return log


# ---------------------------------------------------------------------------
# single-modality federated baseline with late fusion
# ---------------------------------------------------------------------------


def evaluate_late_fusion(
    submodels: list[GlobalModelSet], test_shards: list[Shard], modes
) -> dict[str, MetricsReport]:
    """Average per-modality predicted probabilities over available modalities.

    Each submodel holds one modality, whose one-slot fused layout is its
    features unchanged, so the features go straight to that submodel's
    head, once per modality for every mode (:func:`~fedmm.metrics.score_modes`).
    """
    probs: dict[int, np.ndarray] = {}

    def mean_probabilities(features, present):
        for m in present:
            if m not in probs:
                probs[m] = head_forward(submodels[m].head, features[m])
        return sum((probs[m] for m in present[1:]), probs[present[0]]) / len(present)

    encoders = [sub.encoders[0] for sub in submodels]
    return score_modes(encoders, submodels[0].head, test_shards, modes, mean_probabilities)


def baseline_fedavg_latefusion(
    cfg: ExperimentConfig, parallel: bool = False
) -> ExperimentLog:
    """Independent per-modality federated averaging, fused only at inference.

    Each modality trains its own encoder and private head (feature dim in,
    labels out) with plain weighted averaging; no whitening, and no
    contrastive term, since a one-modality submodel has no other modality
    to align with. The P single-modality federations train side by side
    through :func:`_federate`, whose one :func:`run_round` call per round
    advances them in modality order. Inference averages the per-modality
    probabilities; single-modality modes use that modality's model alone.
    """
    cfg.validate()
    shards, test = _client_shards(cfg)
    p = cfg.dataset.n_modalities
    submodels = [_baseline_submodel(cfg, m) for m in range(p)]
    clients_by_modality: list[list[ClientState]] = [[] for _ in range(p)]
    for i, shard in enumerate(shards):
        m = shard.modality_id
        clients_by_modality[m].append(
            make_client(i, shard, submodels[m].encoders[0], submodels[m].head, cfg)
        )
    initial, rounds, submodels = _federate(
        cfg,
        list(zip(submodels, clients_by_modality)),
        lambda models: evaluate_late_fusion(models, test, cfg.inference_modes),
        parallel,
    )
    log = ExperimentLog(
        config=cfg, initial_evals=initial, rounds=rounds, baseline_models=submodels
    )
    if cfg.output_dir:
        write_outputs(log, cfg.output_dir)
    return log


# ---------------------------------------------------------------------------
# ablation grid
# ---------------------------------------------------------------------------

ABLATION_ROWS = (
    ("MF", False, False),
    ("MF+MIM", False, True),
    ("MF+FW", True, False),
    ("MF+FW+MIM", True, True),
)

DEFAULT_ABLATION_SCENARIOS = ("iid", "group-skew", "group-skew-mixed")


@dataclass
class AblationTable:
    rows: list[str]
    scenarios: list[str]
    micro_f1: dict[tuple[str, str], float]

    def to_csv(self) -> str:
        lines = ["modules," + ",".join(self.scenarios)]
        for row in self.rows:
            cells = [repr(self.micro_f1[(row, s)]) for s in self.scenarios]
            lines.append(f"{row}," + ",".join(cells))
        return "\n".join(lines) + "\n"


def run_ablation(
    cfg: ExperimentConfig, scenarios: tuple[str, ...] = DEFAULT_ABLATION_SCENARIOS
) -> AblationTable:
    """Run the module on/off grid with shared seeds across rows.

    Every cell is the final-round fused-inference micro F1 of one run,
    which scores the ``both`` mode alone, whatever modes ``cfg`` lists; all
    runs of a column share the identical dataset, shards, and RNG streams,
    so rows are paired comparisons. The scenario list (ConfigError when it
    is empty or names an unknown or repeated kind) and every cell's config
    are validated before the first run, so a column that cannot run fails
    before any does.
    """
    if not scenarios:
        raise ConfigError("scenarios must name at least one scenario kind")
    unknown = [s for s in scenarios if s not in SCENARIO_KINDS]
    if unknown:
        raise ConfigError(f"unknown scenario kind(s): {', '.join(unknown)}")
    repeated = [s for s in dict.fromkeys(scenarios) if scenarios.count(s) > 1]
    if repeated:
        raise ConfigError(f"scenario kind(s) repeated: {', '.join(repeated)}")
    cells = {}
    for kind in scenarios:
        for name, use_fw, use_mim in ABLATION_ROWS:
            run_cfg = dataclasses.replace(
                cfg,
                scenario=dataclasses.replace(cfg.scenario, kind=kind),
                use_fw=use_fw,
                use_mim=use_mim,
                inference_modes=("both",),
                output_dir=None,
            )
            run_cfg.validate()
            cells[(name, kind)] = run_cfg
    table = {key: run_experiment(c).final_eval("both").micro_f1 for key, c in cells.items()}
    return AblationTable(
        rows=[r[0] for r in ABLATION_ROWS], scenarios=list(scenarios), micro_f1=table
    )


# ---------------------------------------------------------------------------
# logs on disk
# ---------------------------------------------------------------------------


def experiment_csv(log: ExperimentLog) -> str:
    """Deterministic per-round, per-mode metric rows (no wall-clock columns).
    The set-up evaluation is round 0's record: no clients and no bytes."""
    setup = RoundLog(0, {}, {}, 0, log.initial_evals)
    lines = [",".join(CSV_COLUMNS)]
    for rlog in [setup, *log.rounds]:
        for mode in log.config.inference_modes:
            if mode in rlog.evals:
                report = rlog.evals[mode]
                scores = (report.micro_f1, report.macro_f1, report.accuracy)
                floats = [repr(float(v)) for v in (*scores, rlog.mean_ce, rlog.mean_ntx)]
                row = [str(rlog.round_index), mode, *floats, str(rlog.bytes_exchanged)]
                lines.append(",".join(row))
    return "\n".join(lines) + "\n"


def timings_csv(log: ExperimentLog) -> str:
    """Wall-clock sidecar; kept out of the main log to keep it reproducible.

    One row per round: ``seconds``, its local training plus aggregation
    (``train_s + aggregate_s``), then those two parts, then ``eval_s``,
    the evaluation after the round (0 in a round that is not evaluated)."""
    lines = ["round,seconds,train_s,aggregate_s,eval_s"]
    for rlog in log.rounds:
        seconds = rlog.train_s + rlog.aggregate_s
        lines.append(
            f"{rlog.round_index},{seconds:.6f},{rlog.train_s:.6f},"
            f"{rlog.aggregate_s:.6f},{rlog.eval_s:.6f}"
        )
    return "\n".join(lines) + "\n"


def write_outputs(log: ExperimentLog, out_dir) -> None:
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    (out / "log.csv").write_text(experiment_csv(log))
    (out / "timings.csv").write_text(timings_csv(log))
    (out / "config.json").write_text(
        json.dumps(config_to_dict(log.config), indent=2, sort_keys=True) + "\n"
    )
    if log.model is not None:
        save_model(log.model, out / "model.ckpt")
    if log.baseline_models is not None:
        for m, sub in enumerate(log.baseline_models):
            save_model(sub, out / f"baseline_m{m}.ckpt")
