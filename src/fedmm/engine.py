"""Synchronous round-based federated training.

Each round (:func:`run_round`): broadcast the global parameters, run every
client's local update, aggregate per-modality encoders and the shared head.
One loop (:func:`_federate`) drives the rounds and the evaluation schedule
for the framework, one federation, and for the late-fusion baseline, one
single-modality federation per modality side by side, merging their round
logs. With ``parallel`` it opens one worker per usable CPU (never more than
a federation has clients; inline when that is one or when the platform has
no ``os.fork``): processes forked once, at the first round, and kept until
the last (:class:`_ClientPool`). Worker g keeps ``clients[g::workers]``,
and this process updates the last group itself. The arrays a local update
writes (parameters, Adam moments, whitening running statistics) live from
:func:`make_client` on in one anonymous shared mapping per client, serial
runs included; a worker forked later writes them for this process too, so
this process's clients stay authoritative between rounds and the pool moves
nothing before it forks. A round sends each worker the global
parameters and takes back only scalars per client (losses, Adam step
count, whether the whitening statistics are ready, RNG state). From the
first fork until every worker is reaped, evaluation between rounds
included, the BLAS numpy loaded is capped to one thread, so workers times
BLAS threads stay within the usable cores. Results are identical either
way because each client owns its state and RNG stream and the global
snapshot is read-only. A failed local update re-raises its exception, in
the parent too, with ``round r: client k:`` prepended to the message; a
worker that dies without reporting raises ChildProcessError naming the
round.

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

Whitening running statistics never leave a client: the first broadcast
initializes them and later broadcasts overwrite parameters only.
"""

from __future__ import annotations

import contextlib
import ctypes
import dataclasses
import functools
import itertools
import json
import mmap
import os
import pickle
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import BinaryIO, NoReturn

import numpy as np

from .config import ExperimentConfig, config_to_dict
from .data import Shard, batches, build_scenario, gen_synthetic, label_mismatch
from .errors import DataError, DimensionError, NumericError, ValidationError
from .losses import LossConfig, local_objective
from .metrics import (
    MetricsReport,
    check_test_set,
    evaluate,
    mode_modalities,
    report_from_predictions,
)
from .models import (
    Encoder,
    GlobalModelSet,
    TaskHead,
    assign_params,
    bind_parts,
    build_encoder,
    copy_part,
    encode,
    head_forward,
    init_dense,
    params_overlap,
    save_model,
    unflatten_params,
    whitening_states,
)
from .nncore import AdamState, adam_step

_MODEL_STREAM = 1
_CLIENT_STREAM = 2

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
    spec = cfg.resolved_dataset()
    p = spec.n_modalities
    encoders = [
        build_encoder(
            m,
            spec.modality_dims[m],
            cfg.d_hidden,
            cfg.d_feature,
            cfg.use_fw,
            model_rng(cfg.seed, m),
        )
        for m in range(p)
    ]
    head = TaskHead(
        layer=init_dense(model_rng(cfg.seed, p), p * cfg.d_feature, spec.n_labels, 1.0),
        task_kind=spec.task_kind,
    )
    return GlobalModelSet(encoders=encoders, head=head)


def _baseline_submodel(cfg: ExperimentConfig, modality: int) -> GlobalModelSet:
    spec = cfg.resolved_dataset()
    p = spec.n_modalities
    encoder = build_encoder(
        0,
        spec.modality_dims[modality],
        cfg.d_hidden,
        cfg.d_feature,
        False,
        model_rng(cfg.seed, modality),
    )
    head = TaskHead(
        layer=init_dense(
            model_rng(cfg.seed, p + modality), cfg.d_feature, spec.n_labels, 1.0
        ),
        task_kind=spec.task_kind,
    )
    return GlobalModelSet(encoders=[encoder], head=head)


@dataclass
class ClientState:
    """One client's private shard, local model copy, optimizer, and RNG.

    ``params`` is the client's own vector laid out as [encoder | head];
    ``encoder.params`` and ``head.params`` are its two slices (``make_client``
    binds them), and ``client_update`` writes into it in place. It, the
    Adam moments and the whitening running statistics live in one
    anonymous shared mapping that ``make_client`` allocates, so a worker
    process forked afterwards writes them for this one too.
    """

    client_id: int
    shard: Shard
    encoder: Encoder
    head: TaskHead
    params: np.ndarray
    adam: AdamState
    rng: np.random.Generator


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
    seconds: float  # local training plus aggregation
    bytes_exchanged: int
    evals: dict[str, MetricsReport] = field(default_factory=dict)
    train_s: float = 0.0  # every client's local update, waiting for workers included
    aggregate_s: float = 0.0
    eval_s: float = 0.0  # scheduled evaluation after the round, outside ``seconds``

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
    anonymous shared mapping laid out as [parameters | Adam first moment |
    Adam second moment | each whitening layer's running mean and running
    covariance]. Each piece is its own array over its bytes, so every layer
    view's ``.base`` is ``params``. A process forked afterwards (a
    :class:`_ClientPool` worker) writes them for this one too."""
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
    n = encoder.params.size + head.params.size
    sizes = [n, n, n] + [size for st in states for size in (st.dim, st.dim * st.dim)]
    block = mmap.mmap(-1, 8 * sum(sizes))  # zero-filled, as Adam's moments start
    params, first_moment, second_moment, *stats = (
        np.frombuffer(block, np.float64, size, 8 * start)
        for start, size in zip(itertools.accumulate(sizes, initial=0), sizes)
    )
    np.concatenate([encoder.params, head.params], out=params)
    bind_parts([encoder, head], params)
    for st, mean, cov in zip(states, stats[::2], stats[1::2]):
        cov = cov.reshape(st.dim, st.dim)
        mean[...] = st.running_mean
        cov[...] = st.running_cov
        st.running_mean, st.running_cov = mean, cov
    adam = AdamState(
        first_moment,
        second_moment,
        lr=cfg.lr,
        beta1=cfg.beta1,
        beta2=cfg.beta2,
        weight_decay=cfg.weight_decay,
    )
    return ClientState(
        client_id=client_id,
        shard=shard,
        encoder=encoder,
        head=head,
        params=params,
        adam=adam,
        rng=client_rng(cfg.seed, client_id),
    )


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
    counts only when ``use_mim`` is on. The returned flats are the
    client's own encoder and head slices, valid until its next update.
    """
    if client.shard.n == 0:
        raise DataError(f"client {client.client_id} has an empty shard")
    if any(params_overlap(part, global_model) for part in (client.encoder, client.head)):
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
    for _ in range(cfg.local_epochs):
        for idx in batches(client.shard.n, cfg.batch_size, client.rng):
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
    # a client's last-batch whitening caches would otherwise live until
    # its next round: memory that grows with the client count
    for st in whitening_states([client.encoder]):
        st.drop_cache()
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
    upload must name one of the model's slots and be finite; otherwise
    DimensionError or NumericError names the round (``model.round + 1``)
    and the client. Sums
    run in ascending client-id order over deltas from the broadcast
    parameters; a single-member group copies its update verbatim.

    The uploads are read, never kept: the new model's vector is one fresh
    copy of ``model.params`` (:func:`unflatten_params`), averaged into slice
    by slice in place, so it shares no memory with any client, and
    ``updates`` may alias client state that the next round overwrites.
    """
    if not updates:
        raise DataError("aggregation needs at least one client update")
    updates = sorted(updates, key=lambda u: u.client_id)
    for u in updates:
        if not 0 <= u.modality_id < model.n_modalities:
            raise DimensionError(
                f"round {model.round + 1}: client {u.client_id} uploaded for slot "
                f"{u.modality_id} of a {model.n_modalities}-modality model"
            )
        for kind, flat in (("encoder", u.encoder_flat), ("head", u.head_flat)):
            if not np.isfinite(flat).all():
                raise NumericError(
                    f"round {model.round + 1}: client {u.client_id} uploaded "
                    f"non-finite {kind} parameters"
                )
    new = unflatten_params(model.params, model)
    new.round = model.round + 1
    for m, enc in enumerate(model.encoders):
        group = [u for u in updates if u.modality_id == m]
        if not group:
            raise DataError(f"no client update for modality {m} this round")
        group_total = sum(u.n_samples for u in group)
        members = [
            (u.client_id, u.encoder_flat, u.n_samples / group_total) for u in group
        ]
        _average("encoder", new.encoders[m].params, enc.params, members)
    total = sum(u.n_samples for u in updates)
    members = [(u.client_id, u.head_flat, u.n_samples / total) for u in updates]
    _average("head", new.head.params, model.head.params, members)
    return new


def _average(
    kind: str, out: np.ndarray, base: np.ndarray, members: list[tuple[int, np.ndarray, float]]
) -> None:
    """Add to ``out``, a copy of ``base``, the weighted deltas from ``base``
    of the (client id, flat, weight) members, summed in their order; a
    single member's flat is copied in verbatim."""
    for client_id, flat, _ in members:
        if flat.shape != base.shape:
            raise DimensionError(
                f"client {client_id} {kind} has {flat.shape}, expected {base.shape}"
            )
    if len(members) == 1:
        out[...] = members[0][1]
        return
    for _, flat, weight in members:
        out += weight * (flat - base)
    if not np.isfinite(out).all():
        raise NumericError(f"averaged {kind} parameters are not finite")


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


@functools.cache
def _blas_thread_calls():
    """(get, set) thread-count functions of the OpenBLAS numpy loaded, or None.

    Looked up through numpy's LAPACK extension, whose dependencies include
    the BLAS library; other BLAS builds export none of these names.
    """
    lib = ctypes.CDLL(np.linalg._umath_linalg.__file__)
    for prefix, suffix in (("", ""), ("scipy_", "64_"), ("", "64_")):
        setter = getattr(lib, f"{prefix}openblas_set_num_threads{suffix}", None)
        getter = getattr(lib, f"{prefix}openblas_get_num_threads{suffix}", None)
        if setter is not None and getter is not None:
            setter.argtypes, setter.restype = [ctypes.c_int], None
            getter.argtypes, getter.restype = [], ctypes.c_int
            return getter, setter
    return None


@contextlib.contextmanager
def _single_threaded_blas():
    """Cap numpy's BLAS to one thread for the block, then restore its count.

    BLAS thread count changes no result bits, so without a known setter the
    block simply runs uncapped.
    """
    calls = _blas_thread_calls()
    if calls is None:
        yield
        return
    get_threads, set_threads = calls
    before = get_threads()
    set_threads(1)
    try:
        yield
    finally:
        set_threads(before)


def _update(
    client: ClientState,
    model: GlobalModelSet,
    cfg: ExperimentConfig,
) -> ClientUpdate:
    """:func:`client_update`; a failure keeps its class and gains the round
    and the client at the front of its message."""
    try:
        return client_update(client, model, cfg)
    except Exception as exc:
        exc.args = (f"round {model.round + 1}: client {client.client_id}: {exc}",)
        raise


def _report(client: ClientState, update: ClientUpdate) -> tuple:
    """What a worker sends back for one updated client: the scalars of the
    update and of the client's state. The arrays it wrote are shared."""
    return (
        update.mean_ce,
        update.mean_ntx,
        client.adam.step_count,
        [w.stats_ready for w in whitening_states([client.encoder])],
        client.rng.bit_generator.state,
    )


def _take_report(client: ClientState, report: tuple) -> ClientUpdate:
    """Write a worker's :func:`_report` into ``client`` and build the
    client's upload: the slices of its shared parameter vector."""
    mean_ce, mean_ntx, step_count, ready, rng_state = report
    client.adam.step_count = step_count
    for w, stats_ready in zip(whitening_states([client.encoder]), ready):
        w.stats_ready = stats_ready
    client.rng.bit_generator.state = rng_state
    return _upload(client, mean_ce, mean_ntx)


def _send(out: BinaryIO, value) -> None:
    """Write ``value`` pickled, after its 8-byte length, and flush."""
    payload = pickle.dumps(value, protocol=pickle.HIGHEST_PROTOCOL)
    out.write(len(payload).to_bytes(8, "little"))
    out.write(payload)
    out.flush()


def _receive(src: BinaryIO):
    """The next value :func:`_send` wrote; EOFError when the writer closed
    before a whole one."""
    head = src.read(8)
    if len(head) < 8:
        raise EOFError
    size = int.from_bytes(head, "little")
    payload = src.read(size)
    if len(payload) < size:
        raise EOFError
    return pickle.loads(payload)  # written by this program's own processes


@dataclass
class _Worker:
    pid: int | None  # None once reaped
    requests: BinaryIO  # write end of the pipe the worker reads rounds from
    reports: BinaryIO  # read end of the pipe the worker answers on


class _ClientPool:
    """Forked workers that keep their clients from the first round to close.

    ``federations`` are (global model, clients) pairs that train side by
    side: one for a framework run, one per modality for the late-fusion
    baseline. A federation of n clients is dealt by stride into
    ``k = min(workers, n)`` groups, group g being ``clients[g::k]``; worker
    g updates group g every round and this process the last group. Every
    client's written arrays already live in shared memory
    (:func:`make_client`), so the pool only deals the groups and forks,
    moving and rebinding nothing; a round sends a worker only the global
    parameters and gets back only scalars (:func:`_report`).

    Fork rather than spawn: a worker needs this process's clients, shards
    and models as they are, which a spawned worker would have to be sent.
    fedmm starts no threads of its own; the caller caps numpy's BLAS to
    one thread before the pool forks and until it closes.
    """

    def __init__(self, federations, workers: int, cfg: ExperimentConfig):
        self._cfg = cfg
        self._federations = {}  # first client id -> (model, groups)
        for model, clients in federations:
            k = min(workers, len(clients))
            self._federations[clients[0].client_id] = (
                model,
                [clients[g::k] for g in range(k)],
            )
        self._workers: list[_Worker] = []
        try:
            for g in range(workers - 1):
                self._fork(g)
        except BaseException:
            self.close()
            raise

    def _fork(self, g: int) -> None:
        request_r, request_w = os.pipe()
        report_r, report_w = os.pipe()
        pid = os.fork()
        if pid:
            os.close(request_r)
            os.close(report_w)
            self._workers.append(
                _Worker(pid, os.fdopen(request_w, "wb"), os.fdopen(report_r, "rb"))
            )
            return
        status = 1
        try:
            os.close(request_w)
            os.close(report_r)
            # hold no other worker's pipe ends, so that this process closing
            # them reaches that worker (EOF, broken pipe) whatever it sends
            for other in self._workers:
                other.requests.close()
                other.reports.close()
            with os.fdopen(request_r, "rb") as requests, os.fdopen(report_w, "wb") as reports:
                self._serve(g, requests, reports)
            status = 0
        finally:
            os._exit(status)

    def _serve(self, g: int, requests: BinaryIO, reports: BinaryIO) -> None:
        """Worker g: per request, write the global parameters into this
        process's copy of the federation's model, update group g and send
        one report per client, or the first failure; return at EOF."""
        while True:
            try:
                key, round_done, params = _receive(requests)
            except EOFError:
                return
            model, groups = self._federations[key]
            model.round = round_done
            model.params[...] = params
            try:
                outcome = [_report(c, _update(c, model, self._cfg)) for c in groups[g]]
            except Exception as exc:  # sent to the parent, which re-raises it
                outcome = exc
            _send(reports, outcome)

    def updates(self, model: GlobalModelSet, clients: list[ClientState]) -> list[ClientUpdate]:
        """Every client's update this round, in client order; ``clients``
        must be one of the pool's federations and ``model`` its global
        model. A worker that dies raises ChildProcessError naming the
        round and its clients."""
        key = clients[0].client_id
        *worker_groups, own = self._federations[key][1]
        workers = self._workers[: len(worker_groups)]
        for worker, group in zip(workers, worker_groups):
            try:
                _send(worker.requests, (key, model.round, model.params))
            except BrokenPipeError:
                self._died(worker, model, group)
        updates = {c.client_id: _update(c, model, self._cfg) for c in own}
        for worker, group in zip(workers, worker_groups):
            try:
                outcome = _receive(worker.reports)
            except EOFError:
                self._died(worker, model, group)
            if isinstance(outcome, Exception):
                raise outcome
            for client, report in zip(group, outcome):
                updates[client.client_id] = _take_report(client, report)
        return [updates[c.client_id] for c in clients]

    def _died(self, worker: _Worker, model: GlobalModelSet, group: list[ClientState]) -> NoReturn:
        _, status = os.waitpid(worker.pid, 0)
        worker.pid = None
        raise ChildProcessError(
            f"round {model.round + 1}: the worker updating clients "
            f"{[c.client_id for c in group]} exited with status "
            f"{os.waitstatus_to_exitcode(status)} without reporting"
        )

    def close(self) -> None:
        """End every worker and reap it. A worker waiting for a round sees
        EOF; one still sending gets a broken pipe; either exits."""
        for worker in self._workers:
            worker.reports.close()
            with contextlib.suppress(BrokenPipeError):  # the rest of a failed send
                worker.requests.close()
        for worker in self._workers:
            if worker.pid is not None:
                os.waitpid(worker.pid, 0)
                worker.pid = None


@contextlib.contextmanager
def _client_pool(federations, cfg: ExperimentConfig, parallel: bool):
    """An open :class:`_ClientPool` over ``federations``, or None.

    With ``parallel`` the pool has one worker per usable CPU, but no more
    than the largest federation has clients; with one worker, or where the
    platform has no ``os.fork``, there is no pool (None) and clients run
    inline. numpy's BLAS is capped to one thread from before the first
    fork until every worker is reaped, evaluation between rounds included.
    """
    workers = 1
    if parallel and hasattr(os, "fork"):
        workers = min(_usable_cpus(), max(len(clients) for _, clients in federations))
    if workers <= 1:
        yield None
        return
    with _single_threaded_blas():
        pool = _ClientPool(federations, workers, cfg)
        try:
            yield pool
        finally:
            pool.close()


def _run_updates(
    clients: list[ClientState],
    model: GlobalModelSet,
    cfg: ExperimentConfig,
    pool: _ClientPool | None = None,
) -> list[ClientUpdate]:
    """Every client's local update, in client order: through ``pool`` when
    one is open, inline otherwise."""
    if pool is None:
        return [_update(c, model, cfg) for c in clients]
    return pool.updates(model, clients)


def run_round(
    model: GlobalModelSet,
    clients: list[ClientState],
    cfg: ExperimentConfig,
    pool: _ClientPool | None = None,
) -> tuple[GlobalModelSet, RoundLog]:
    """One round: local updates (through ``pool`` when the caller holds
    one open, inline otherwise), aggregation and the round log. Each
    client's loss settings come from ``cfg`` (:func:`client_update`)."""
    started = time.perf_counter()
    updates = _run_updates(clients, model, cfg, pool)
    trained = time.perf_counter()
    new_model = aggregate(updates, model)
    aggregated = time.perf_counter()
    payload = sum(u.encoder_flat.size + u.head_flat.size for u in updates)
    log = RoundLog(
        round_index=new_model.round,
        client_ce={u.client_id: u.mean_ce for u in updates},
        client_ntx={u.client_id: u.mean_ntx for u in updates},
        seconds=time.perf_counter() - started,
        bytes_exchanged=2 * 8 * payload,  # broadcast + upload of float64 payloads
        train_s=trained - started,
        aggregate_s=aggregated - trained,
    )
    return new_model, log


def _federate(
    cfg: ExperimentConfig, federations, score, parallel: bool
) -> tuple[dict[str, MetricsReport], list[RoundLog], list[GlobalModelSet]]:
    """Train (global model, clients) ``federations`` side by side for
    ``cfg.rounds`` rounds; the one round loop of every run.

    Each round calls :func:`run_round` once per federation, in order, and
    merges their logs: client losses united, seconds and bytes summed.
    ``score(models)`` reports on the current global models at set-up and
    after every ``eval_every``-th and the last round. With ``parallel``
    one :func:`_client_pool` over every federation serves all the rounds;
    the set-up evaluation runs before it opens. Returns the set-up reports,
    the round logs and the final global models.
    """
    models = [model for model, _ in federations]
    initial = score(models)
    rounds: list[RoundLog] = []
    with _client_pool(federations, cfg, parallel and cfg.rounds > 0) as pool:
        for r in range(1, cfg.rounds + 1):
            logs = []
            for i, (_, clients) in enumerate(federations):
                models[i], mlog = run_round(models[i], clients, cfg, pool)
                logs.append(mlog)
            rlog = RoundLog(
                round_index=r,
                client_ce={k: v for mlog in logs for k, v in mlog.client_ce.items()},
                client_ntx={k: v for mlog in logs for k, v in mlog.client_ntx.items()},
                seconds=sum(mlog.seconds for mlog in logs),
                bytes_exchanged=sum(mlog.bytes_exchanged for mlog in logs),
                train_s=sum(mlog.train_s for mlog in logs),
                aggregate_s=sum(mlog.aggregate_s for mlog in logs),
            )
            if r % cfg.eval_every == 0 or r == cfg.rounds:
                started = time.perf_counter()
                rlog.evals = score(models)
                rlog.eval_s = time.perf_counter() - started
            rounds.append(rlog)
    return initial, rounds, models


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
    features unchanged, so the features go straight to that submodel's head.
    As in :func:`~fedmm.metrics.evaluate`, every mode and the test set are
    validated first, each needed modality is encoded once for all modes,
    and the result is a report per mode.
    """
    wanted = mode_modalities(modes, len(submodels))
    check_test_set(test_shards, len(submodels), submodels[0].head)
    probs = {}
    for m in sorted(set().union(*wanted.values())):
        features = encode(submodels[m].encoders[0], test_shards[m].features, "eval")
        probs[m] = head_forward(submodels[m].head, features)
    reports = {}
    for mode, present in wanted.items():
        prob_sum = probs[present[0]]
        for m in present[1:]:
            prob_sum = prob_sum + probs[m]
        labels = test_shards[present[0]].labels
        reports[mode] = report_from_predictions(
            prob_sum / len(present), labels, submodels[0].head.task_kind
        )
    return reports


def baseline_fedavg_latefusion(
    cfg: ExperimentConfig, parallel: bool = False
) -> ExperimentLog:
    """Independent per-modality federated averaging, fused only at inference.

    Each modality trains its own encoder and private head (feature dim in,
    labels out) with plain weighted averaging; no whitening, and no
    contrastive term, since a one-modality submodel has no other modality
    to align with. The P single-modality federations train side by side
    through :func:`_federate`, one :func:`run_round` each per round in
    modality order. Inference averages the per-modality probabilities;
    single-modality modes use that modality's model alone.
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

    Every cell is the final-round fused-inference micro F1 of one run; all
    runs of a column share the identical dataset, shards, and RNG streams,
    so rows are paired comparisons. Every cell's config is validated before
    the first run, so a column that cannot run fails before any does.
    """
    cells = {}
    for kind in scenarios:
        for name, use_fw, use_mim in ABLATION_ROWS:
            run_cfg = dataclasses.replace(
                cfg,
                scenario=dataclasses.replace(cfg.scenario, kind=kind),
                use_fw=use_fw,
                use_mim=use_mim,
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


def _csv_row(round_index, mode, report, mean_ce, mean_ntx, bytes_exchanged) -> str:
    return ",".join(
        [
            str(round_index),
            mode,
            repr(float(report.micro_f1)),
            repr(float(report.macro_f1)),
            repr(float(report.accuracy)),
            repr(float(mean_ce)),
            repr(float(mean_ntx)),
            str(bytes_exchanged),
        ]
    )


def experiment_csv(log: ExperimentLog) -> str:
    """Deterministic per-round, per-mode metric rows (no wall-clock columns)."""
    lines = [",".join(CSV_COLUMNS)]
    for mode in log.config.inference_modes:
        lines.append(_csv_row(0, mode, log.initial_evals[mode], 0.0, 0.0, 0))
    for rlog in log.rounds:
        for mode in log.config.inference_modes:
            if mode in rlog.evals:
                lines.append(
                    _csv_row(
                        rlog.round_index,
                        mode,
                        rlog.evals[mode],
                        rlog.mean_ce,
                        rlog.mean_ntx,
                        rlog.bytes_exchanged,
                    )
                )
    return "\n".join(lines) + "\n"


def timings_csv(log: ExperimentLog) -> str:
    """Wall-clock sidecar; kept out of the main log to keep it reproducible.

    One row per round: ``seconds`` (local training plus aggregation), then
    its ``train_s`` and ``aggregate_s`` parts, then ``eval_s``, the
    evaluation after the round (0 in a round that is not evaluated)."""
    lines = ["round,seconds,train_s,aggregate_s,eval_s"]
    for rlog in log.rounds:
        lines.append(
            f"{rlog.round_index},{rlog.seconds:.6f},{rlog.train_s:.6f},"
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
