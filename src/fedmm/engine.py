"""Synchronous round-based federated training.

Each round (:func:`run_round`): broadcast the global parameters, run every
client's local update, aggregate per-modality encoders and the shared head,
then optionally evaluate. Local updates run serially, or with
``parallel=True`` in one worker per usable CPU (never more than there are
clients; inline when that is one or when the platform has no ``os.fork``).
Workers are processes: each round deals the clients by stride, worker g
taking ``clients[g::workers]``, forks one child per group but the last,
and updates the last group itself. A child pickles back each client's
upload, which carries its parameters, and every other piece of client
state the update changed (Adam moments and step count, whitening running
statistics, RNG state), which the parent writes into its own clients, so
they stay authoritative between rounds. While the workers run, the BLAS
numpy loaded is capped to one thread, so workers times BLAS threads stay
within the usable cores. Results are identical either way because each
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
is the whole local update and the broadcast is two slice copies.

Whitening running statistics never leave a client: the first broadcast
initializes them and later broadcasts overwrite parameters only.

The late-fusion baseline is P single-modality federations: it calls
:func:`run_round` once per modality and merges the round logs.
"""

from __future__ import annotations

import contextlib
import ctypes
import dataclasses
import functools
import json
import os
import pickle
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import BinaryIO

import numpy as np

from .config import ExperimentConfig, config_to_dict
from .data import Shard, batches, build_scenario, gen_synthetic
from .errors import DataError, DimensionError, NumericError, ValidationError
from .losses import LossConfig, local_objective
from .metrics import MetricsReport, evaluate, parse_mode, report_from_predictions
from .models import (
    Encoder,
    GlobalModelSet,
    TaskHead,
    assign_params,
    build_encoder,
    copy_part,
    encode,
    flatten_params,
    head_forward,
    init_dense,
    param_count,
    params_overlap,
    save_model,
    unflatten_params,
)
from .nncore import AdamState, WhiteningState, adam_step

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


def _baseline_submodel(cfg: ExperimentConfig, spec, modality: int) -> GlobalModelSet:
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
    binds them), and ``client_update`` writes into it in place.
    """

    client_id: int
    modality_id: int
    shard: Shard
    encoder: Encoder
    head: TaskHead
    params: np.ndarray
    adam: AdamState
    rng: np.random.Generator


@dataclass
class ClientUpdate:
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
    seconds: float
    bytes_exchanged: int
    evals: dict[str, MetricsReport] = field(default_factory=dict)

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
    if shard.n == 0:
        raise DataError(f"client {client_id} has an empty shard")
    n_enc = param_count(encoder_template)
    params = np.empty(n_enc + param_count(head_template))
    encoder = copy_part(encoder_template, params[:n_enc])
    head = copy_part(head_template, params[n_enc:])
    adam = AdamState.create(
        params.size,
        lr=cfg.lr,
        beta1=cfg.beta1,
        beta2=cfg.beta2,
        weight_decay=cfg.weight_decay,
    )
    return ClientState(
        client_id=client_id,
        modality_id=shard.modality_id,
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
    loss_cfg: LossConfig,
) -> ClientUpdate:
    """Copy the broadcast parameters in, run E local epochs, return the result.

    The broadcast and every optimizer step are copied into the parameter
    vector the client already owns, so no layer object is rebuilt per
    batch and no client array ever aliases ``global_model``. The client
    keeps its own whitening running statistics across rounds; only
    parameters are overwritten by the broadcast. Other-modality encoders
    of ``global_model`` are read-only throughout.
    """
    if client.shard.n == 0:
        raise DataError(f"client {client.client_id} has an empty shard")
    slot = client.encoder.modality_id
    if params_overlap(client.encoder, global_model.encoders[slot]) or params_overlap(
        client.head, global_model.head
    ):
        raise ValidationError(
            f"client {client.client_id} parameters share memory with the global model"
        )
    assign_params(client.encoder, global_model.encoders[slot].params)
    assign_params(client.head, global_model.head.params)

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
    for stage in client.encoder.stages():
        if stage.whitening is not None:
            stage.whitening.drop_cache()
    return ClientUpdate(
        client_id=client.client_id,
        modality_id=slot,
        encoder_flat=flatten_params(client.encoder),
        head_flat=flatten_params(client.head),
        n_samples=client.shard.n,
        mean_ce=ce_total / n_batches if n_batches else 0.0,
        mean_ntx=ntx_total / n_batches if n_batches else 0.0,
    )


def aggregate(updates: list[ClientUpdate], model: GlobalModelSet) -> GlobalModelSet:
    """Weighted-average client parameters into a new global model.

    Encoders average within their modality group with renormalized
    data-proportional weights; the head averages over all clients. Each
    upload must be finite; a NaN or Inf raises NumericError naming the
    round (``model.round + 1``) and the client. Sums
    run in ascending client-id order over deltas from the broadcast
    parameters; a single-member group copies its update verbatim.
    """
    if not updates:
        raise DataError("aggregation needs at least one client update")
    updates = sorted(updates, key=lambda u: u.client_id)
    for u in updates:
        for kind, flat in (("encoder", u.encoder_flat), ("head", u.head_flat)):
            if not np.isfinite(flat).all():
                raise NumericError(
                    f"round {model.round + 1}: client {u.client_id} uploaded "
                    f"non-finite {kind} parameters"
                )
    new_encoders = []
    for m, enc in enumerate(model.encoders):
        group = [u for u in updates if u.modality_id == m]
        if not group:
            raise DataError(f"no client update for modality {m} this round")
        group_total = sum(u.n_samples for u in group)
        members = [
            (u.client_id, u.encoder_flat, u.n_samples / group_total) for u in group
        ]
        flat = _average("encoder", enc.params, members)
        new_encoders.append(unflatten_params(flat, enc))
    total = sum(u.n_samples for u in updates)
    members = [(u.client_id, u.head_flat, u.n_samples / total) for u in updates]
    head_flat = _average("head", model.head.params, members)
    new_head = unflatten_params(head_flat, model.head)
    return GlobalModelSet(encoders=new_encoders, head=new_head, round=model.round + 1)


def _average(
    kind: str, base: np.ndarray, members: list[tuple[int, np.ndarray, float]]
) -> np.ndarray:
    """``base`` plus the weighted deltas of the (client id, flat, weight)
    members, summed in their order; a single member is returned verbatim."""
    for client_id, flat, _ in members:
        if flat.shape != base.shape:
            raise DimensionError(
                f"client {client_id} {kind} has {flat.shape}, expected {base.shape}"
            )
    if len(members) == 1:
        return members[0][1]
    out = base.copy()
    for _, flat, weight in members:
        out += weight * (flat - base)
    return out


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
    loss_cfg: LossConfig,
) -> ClientUpdate:
    """:func:`client_update`; a failure keeps its class and gains the round
    and the client at the front of its message."""
    try:
        return client_update(client, model, cfg, loss_cfg)
    except Exception as exc:
        exc.args = (f"round {model.round + 1}: client {client.client_id}: {exc}",)
        raise


def _whitening_states(client: ClientState) -> list[WhiteningState]:
    return [s.whitening for s in client.encoder.stages() if s.whitening is not None]


def _local_state(client: ClientState) -> tuple:
    """Everything :func:`client_update` changes on ``client`` besides its
    parameters (which its :class:`ClientUpdate` carries), as plain data."""
    return (
        client.adam.first_moment,
        client.adam.second_moment,
        client.adam.step_count,
        [(w.running_mean, w.running_cov, w.stats_ready) for w in _whitening_states(client)],
        client.rng.bit_generator.state,
    )


def _restore_local_state(client: ClientState, update: ClientUpdate, state: tuple) -> None:
    """Write an update and a :func:`_local_state` taken elsewhere into
    ``client``'s own arrays; the parameter buffers are written through,
    never rebound."""
    first, second, step_count, whitening, rng_state = state
    client.encoder.params[...] = update.encoder_flat
    client.head.params[...] = update.head_flat
    client.adam.first_moment[...] = first
    client.adam.second_moment[...] = second
    client.adam.step_count = step_count
    for w, (mean, cov, ready) in zip(_whitening_states(client), whitening):
        w.running_mean, w.running_cov, w.stats_ready = mean, cov, ready
    client.rng.bit_generator.state = rng_state


def _fork_worker(
    group: list[ClientState],
    model: GlobalModelSet,
    cfg: ExperimentConfig,
    loss_cfg: LossConfig,
) -> tuple[int, BinaryIO]:
    """Fork a child that updates ``group`` and pickles, per client, the
    :class:`ClientUpdate` and :func:`_local_state` (or the first failure)
    into a pipe, after an 8-byte length. Returns the child's pid and the
    pipe's read end.

    Fork rather than spawn: the child needs this process's clients, shards
    and model as they are, which a spawned worker would have to be sent
    every round. fedmm starts no threads of its own, and OpenBLAS's are
    idle under the one-thread cap the caller holds.
    """
    read_fd, write_fd = os.pipe()
    pid = os.fork()
    if pid:
        os.close(write_fd)
        return pid, os.fdopen(read_fd, "rb")
    status = 1
    try:
        os.close(read_fd)
        try:
            outcome = [(_update(c, model, cfg, loss_cfg), _local_state(c)) for c in group]
        except Exception as exc:  # reported to the parent, which re-raises it
            outcome = exc
        payload = pickle.dumps(outcome, protocol=pickle.HIGHEST_PROTOCOL)
        with os.fdopen(write_fd, "wb") as out:
            out.write(len(payload).to_bytes(8, "little"))
            out.write(payload)
        status = 0
    finally:
        os._exit(status)


def _forked_updates(
    groups: list[list[ClientState]],
    model: GlobalModelSet,
    cfg: ExperimentConfig,
    loss_cfg: LossConfig,
) -> dict[int, ClientUpdate]:
    """Updates of every group by client id: one forked child per group but
    the last, which this process runs itself. Each child's clients take
    back the state it reports, so the caller's clients end the round as a
    serial round would leave them. Every child is reaped, also on failure;
    a complete report is used before its child is reaped, which overlaps the
    child's exit with the parent's work."""
    children: list[tuple[list[ClientState], int, BinaryIO]] = []
    reaped: set[int] = set()
    try:
        for group in groups[:-1]:
            children.append((group, *_fork_worker(group, model, cfg, loss_cfg)))
        updates = {c.client_id: _update(c, model, cfg, loss_cfg) for c in groups[-1]}
        for group, pid, reader in children:
            data = reader.read()
            if len(data) < 8 or len(data) != 8 + int.from_bytes(data[:8], "little"):
                _, status = os.waitpid(pid, 0)
                reaped.add(pid)
                raise ChildProcessError(
                    f"round {model.round + 1}: the worker updating clients "
                    f"{[c.client_id for c in group]} exited with status "
                    f"{os.waitstatus_to_exitcode(status)} without reporting"
                )
            outcome = pickle.loads(memoryview(data)[8:])  # written by our own child
            if isinstance(outcome, Exception):
                raise outcome
            for client, (update, state) in zip(group, outcome):
                _restore_local_state(client, update, state)
                updates[client.client_id] = update
        return updates
    finally:
        for _, pid, reader in children:
            reader.close()  # a child still writing gets a broken pipe and exits
            if pid not in reaped:
                os.waitpid(pid, 0)


def _run_updates(
    clients: list[ClientState],
    model: GlobalModelSet,
    cfg: ExperimentConfig,
    loss_cfg: LossConfig,
    parallel: bool,
) -> list[ClientUpdate]:
    """Every client's local update, in client order.

    With ``parallel``, one worker per usable CPU runs them, but no more
    workers than clients; with one worker, or where the platform has no
    ``os.fork``, they run inline. Workers are forked processes; worker g
    updates ``clients[g::workers]`` (this process runs the last, smallest
    group), with numpy's BLAS capped to one thread.
    """
    workers = min(_usable_cpus(), len(clients)) if parallel and hasattr(os, "fork") else 1
    if workers <= 1:
        return [_update(c, model, cfg, loss_cfg) for c in clients]
    with _single_threaded_blas():
        groups = [clients[g::workers] for g in range(workers)]
        updates = _forked_updates(groups, model, cfg, loss_cfg)
    return [updates[c.client_id] for c in clients]


def run_round(
    model: GlobalModelSet,
    clients: list[ClientState],
    cfg: ExperimentConfig,
    loss_cfg: LossConfig,
    parallel: bool = False,
) -> tuple[GlobalModelSet, RoundLog]:
    started = time.perf_counter()
    updates = _run_updates(clients, model, cfg, loss_cfg, parallel)
    new_model = aggregate(updates, model)
    payload = sum(u.encoder_flat.size + u.head_flat.size for u in updates)
    log = RoundLog(
        round_index=new_model.round,
        client_ce={u.client_id: u.mean_ce for u in updates},
        client_ntx={u.client_id: u.mean_ntx for u in updates},
        seconds=time.perf_counter() - started,
        bytes_exchanged=2 * 8 * payload,  # broadcast + upload of float64 payloads
    )
    return new_model, log


def run_experiment(cfg: ExperimentConfig, parallel: bool = False) -> ExperimentLog:
    """Full framework run: R rounds plus scheduled multi-mode evaluations."""
    cfg.validate()
    dataset = gen_synthetic(cfg.resolved_dataset())
    shards = build_scenario(dataset, cfg.scenario, cfg.k_clients)
    model = init_model(cfg)
    loss_cfg = LossConfig(
        tau=cfg.tau,
        lambda_mim=cfg.lambda_mim if cfg.use_mim else 0.0,
        ntxent_variant=cfg.ntxent_variant,
    )
    clients = [
        make_client(i, shard, model.encoders[shard.modality_id], model.head, cfg)
        for i, shard in enumerate(shards)
    ]
    initial = {mode: evaluate(model, dataset.test, mode) for mode in cfg.inference_modes}
    rounds: list[RoundLog] = []
    for r in range(1, cfg.rounds + 1):
        model, rlog = run_round(model, clients, cfg, loss_cfg, parallel)
        if r % cfg.eval_every == 0 or r == cfg.rounds:
            rlog.evals = {
                mode: evaluate(model, dataset.test, mode) for mode in cfg.inference_modes
            }
        rounds.append(rlog)
    log = ExperimentLog(config=cfg, initial_evals=initial, rounds=rounds, model=model)
    if cfg.output_dir:
        write_outputs(log, cfg.output_dir)
    return log


# ---------------------------------------------------------------------------
# single-modality federated baseline with late fusion
# ---------------------------------------------------------------------------


def evaluate_late_fusion(
    submodels: list[GlobalModelSet], test_shards: list[Shard], mode: str
) -> MetricsReport:
    """Average per-modality predicted probabilities over available modalities.

    Each submodel holds one modality, whose one-slot fused layout is its
    features unchanged, so the features go straight to that submodel's head.
    """
    only = parse_mode(mode, len(submodels))
    wanted = [only] if only is not None else list(range(len(submodels)))
    prob_sum = None
    for m in wanted:
        feats = encode(submodels[m].encoders[0], test_shards[m].features, "eval")
        probs = head_forward(submodels[m].head, feats)
        prob_sum = probs if prob_sum is None else prob_sum + probs
    fused = prob_sum / len(wanted)
    labels = test_shards[wanted[0]].labels
    return report_from_predictions(fused, labels, submodels[0].head.task_kind)


def baseline_fedavg_latefusion(
    cfg: ExperimentConfig, parallel: bool = False
) -> ExperimentLog:
    """Independent per-modality federated averaging, fused only at inference.

    Each modality trains its own encoder and private head (feature dim in,
    labels out) with plain weighted averaging; no whitening, no contrastive
    term. Each round calls :func:`run_round` once per modality and merges
    the logs in modality order: client losses united, seconds and bytes
    summed. Inference averages the per-modality probabilities;
    single-modality modes use that modality's model alone.
    """
    cfg.validate()
    spec = cfg.resolved_dataset()
    dataset = gen_synthetic(spec)
    shards = build_scenario(dataset, cfg.scenario, cfg.k_clients)
    p = spec.n_modalities
    submodels = [_baseline_submodel(cfg, spec, m) for m in range(p)]
    loss_cfg = LossConfig(tau=cfg.tau, lambda_mim=0.0, ntxent_variant=cfg.ntxent_variant)
    clients_by_modality: list[list[ClientState]] = [[] for _ in range(p)]
    for i, shard in enumerate(shards):
        m = shard.modality_id
        clients_by_modality[m].append(
            make_client(i, shard, submodels[m].encoders[0], submodels[m].head, cfg)
        )
    initial = {
        mode: evaluate_late_fusion(submodels, dataset.test, mode)
        for mode in cfg.inference_modes
    }
    rounds: list[RoundLog] = []
    for r in range(1, cfg.rounds + 1):
        logs = []
        for m in range(p):
            submodels[m], mlog = run_round(
                submodels[m], clients_by_modality[m], cfg, loss_cfg, parallel
            )
            logs.append(mlog)
        rlog = RoundLog(
            round_index=r,
            client_ce={k: v for mlog in logs for k, v in mlog.client_ce.items()},
            client_ntx={k: v for mlog in logs for k, v in mlog.client_ntx.items()},
            seconds=sum(mlog.seconds for mlog in logs),
            bytes_exchanged=sum(mlog.bytes_exchanged for mlog in logs),
        )
        if r % cfg.eval_every == 0 or r == cfg.rounds:
            rlog.evals = {
                mode: evaluate_late_fusion(submodels, dataset.test, mode)
                for mode in cfg.inference_modes
            }
        rounds.append(rlog)
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
    so rows are paired comparisons.
    """
    table: dict[tuple[str, str], float] = {}
    for kind in scenarios:
        for name, use_fw, use_mim in ABLATION_ROWS:
            run_cfg = dataclasses.replace(
                cfg,
                scenario=dataclasses.replace(cfg.scenario, kind=kind),
                use_fw=use_fw,
                use_mim=use_mim,
                output_dir=None,
            )
            log = run_experiment(run_cfg)
            table[(name, kind)] = log.final_eval("both").micro_f1
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
    """Wall-clock sidecar; kept out of the main log to keep it reproducible."""
    lines = ["round,seconds"]
    for rlog in log.rounds:
        lines.append(f"{rlog.round_index},{rlog.seconds:.6f}")
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
