"""The benchmark's workloads: one fedmm config each, plus why it exists.

Every workload uses the default dataset (2000 sites, modality dims 24/40,
8 labels, multi-label), inference modes ``both,only-0,only-1`` and
``eval_every=1``. The benchmark's ``--seed`` becomes the experiment seed,
which also seeds the dataset, so the same seed gives the same inputs.

This module imports nothing from fedmm at import time: the orchestrator
reads the workload table without loading the program.
"""

from __future__ import annotations

from dataclasses import dataclass

INFERENCE_MODES = ("both", "only-0", "only-1")


@dataclass(frozen=True)
class Workload:
    name: str
    entry: str  # "run_experiment" or "baseline_fedavg_latefusion"
    scenario: str
    k_clients: int
    rounds: int
    parallel: bool
    why: str
    # traced functions this workload must call; zero calls means the trace
    # lost a layer (for example after a refactor bypassed a rebound name)
    expected: tuple[str, ...]


_COMMON = (
    "engine.make_client",
    "engine.client_update",
    "engine._run_updates",
    "engine.aggregate",
    "engine.write_outputs",
    "losses.local_objective",
    "models.encode_train",
    "models.encode_backward",
    "models.flatten_params",
    "models.unflatten_params",
    "nncore.adam_step",
    "nncore.as_tensor",
    "nncore.dense_forward",
    "nncore.dense_backward",
    "data.gen_synthetic",
    "data.build_scenario",
)
_FRAMEWORK = _COMMON + (
    "engine.run_experiment",
    "engine.init_model",
    "engine.run_round",
    "metrics.evaluate",
    "losses.ntxent",
    "models.cross_encode",
    "nncore.whitening_matrix",
)
_BASELINE = _COMMON + (
    "engine.baseline_fedavg_latefusion",
    "engine._baseline_submodel",
    "engine.evaluate_late_fusion",
)

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="groupskew-full",
            entry="run_experiment",
            scenario="group-skew",
            k_clients=14,
            rounds=40,
            parallel=False,
            why=(
                "paper's headline setting (group-skew, K=14, FW+MIM); ZCA eigh "
                "dominates, so whitening and cross-encoding work shows here"
            ),
            expected=_FRAMEWORK,
        ),
        Workload(
            name="baseline-latefusion",
            entry="baseline_fedavg_latefusion",
            scenario="group-skew",
            k_clients=14,
            # four times the rounds of groupskew-full, so that one repetition
            # lasts about as long (5 s) and spans the machine's speed swings
            rounds=160,
            parallel=False,
            why=(
                "same data through the late-fusion baseline: bypasses eigh, "
                "cross-encoding and NT-Xent; per-step Python overhead dominates"
            ),
            expected=_BASELINE,
        ),
        Workload(
            name="iid-manyclients",
            entry="run_experiment",
            scenario="iid",
            k_clients=56,
            rounds=40,
            parallel=False,
            why=(
                "iid, K=56: same local steps as groupskew-full but 4x the "
                "broadcasts, uploads and aggregated deltas, small odd batches"
            ),
            expected=_FRAMEWORK,
        ),
        Workload(
            name="groupskew-parallel",
            entry="run_experiment",
            scenario="group-skew",
            k_clients=14,
            rounds=5,
            parallel=True,
            why=(
                "groupskew-full on the engine thread pool (--parallel), 5 "
                "rounds; the only workload that runs concurrent clients"
            ),
            expected=_FRAMEWORK,
        ),
    )
}


def make_config(fedmm, workload: Workload, seed: int, rounds: int, output_dir: str):
    """The ExperimentConfig a user would write for this workload."""
    return fedmm.ExperimentConfig(
        dataset=fedmm.DatasetSpec(),
        scenario=fedmm.ScenarioSpec(kind=workload.scenario),
        k_clients=workload.k_clients,
        rounds=rounds,
        inference_modes=INFERENCE_MODES,
        eval_every=1,
        seed=seed,
        output_dir=output_dir,
    )


def local_samples(fedmm, cfg) -> int:
    """Training rows the run's local updates consume.

    Counted from the generated shard sizes and the batching rule of
    ``fedmm.data.batches``: each epoch visits every row of a shard once,
    except that a trailing batch of one row is dropped.
    """
    dataset = fedmm.gen_synthetic(cfg.resolved_dataset())
    shards = fedmm.build_scenario(dataset, cfg.scenario, cfg.k_clients)
    per_epoch = 0
    for shard in shards:
        tail = shard.n % cfg.batch_size
        per_epoch += shard.n - (1 if tail == 1 else 0)
    return per_epoch * cfg.local_epochs * cfg.rounds
