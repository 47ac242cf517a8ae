"""Deterministic simulation engine for multi-modal federated learning.

Per-modality encoders are averaged within their modality groups, a shared
head is averaged over all clients, batch whitening aligns non-IID feature
distributions, and a temperature-scaled contrastive term ties each client's
features to the other modalities' global models. Includes a per-modality
federated-averaging baseline with late fusion, synthetic paired-modality
scenario generation, metrics, and a CLI.
"""

from .config import ExperimentConfig, config_from_dict, load_config
from .data import (
    DatasetSpec,
    ScenarioSpec,
    Shard,
    batches,
    build_scenario,
    gen_synthetic,
    load_shard,
    save_shard,
)
from .engine import (
    ClientState,
    ClientUpdate,
    ExperimentLog,
    RoundLog,
    aggregate,
    baseline_fedavg_latefusion,
    client_update,
    run_ablation,
    run_experiment,
    run_round,
)
from .errors import (
    BatchSizeError,
    ConfigError,
    DataError,
    DimensionError,
    FedmmError,
    FormatError,
    NumericError,
    StateError,
    ValidationError,
)
from .losses import LossConfig, local_objective
from .metrics import MetricsReport, evaluate
from .models import (
    DenseLayer,
    Encoder,
    GlobalModelSet,
    TaskHead,
    encode,
    flatten_params,
    head_forward,
    load_model,
    save_model,
    unflatten_params,
)
from .nncore import AdamState, WhiteningState

__version__ = "0.1.0"
