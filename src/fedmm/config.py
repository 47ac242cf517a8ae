"""Experiment configuration: JSON schema, parsing, and validation.

Config files use exactly the field names below; unknown keys are rejected
so typos fail fast instead of silently falling back to defaults, and so is
a value of the wrong JSON type, which would otherwise fail deep in a run. The
experiment seed drives model initialization and the per-client streams;
the dataset seed defaults to it when left unset.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass, field
from pathlib import Path

from .data import (
    DROPPED_MODALITY,
    DatasetSpec,
    ScenarioSpec,
    clients_per_modality,
    train_size,
)
from .errors import ConfigError, ValidationError
from .losses import NTXENT_VARIANTS
from .metrics import parse_mode


@dataclass
class ExperimentConfig:
    dataset: DatasetSpec = field(default_factory=DatasetSpec)
    scenario: ScenarioSpec = field(default_factory=ScenarioSpec)
    k_clients: int = 14
    rounds: int = 40
    local_epochs: int = 1
    batch_size: int = 64
    lr: float = 1e-3
    beta1: float = 0.9
    beta2: float = 0.999
    weight_decay: float = 0.0
    tau: float = 0.5
    lambda_mim: float = 1.0
    ntxent_variant: str = "negatives-only"
    use_fw: bool = True
    use_mim: bool = True
    eval_every: int = 1
    inference_modes: tuple[str, ...] = ("both",)
    seed: int = 0
    output_dir: str | None = None
    d_hidden: int = 64
    d_feature: int = 32

    def __post_init__(self):
        self.inference_modes = tuple(self.inference_modes)

    def resolved_dataset(self) -> DatasetSpec:
        """Dataset spec with its seed defaulted to the experiment seed."""
        if self.dataset.seed is not None:
            return self.dataset
        return dataclasses.replace(self.dataset, seed=self.seed)

    def validate(self) -> None:
        p = self.dataset.n_modalities
        _check_client_count(self.k_clients, p)
        if self.rounds < 0 or self.local_epochs < 0:
            raise ConfigError("rounds and local_epochs must be non-negative")
        if self.batch_size < 2:
            raise ConfigError("batch_size must be at least 2")
        if self.lr < 0.0 or self.weight_decay < 0.0:
            raise ConfigError("lr and weight_decay must be non-negative")
        if not (0.0 <= self.beta1 < 1.0 and 0.0 <= self.beta2 < 1.0):
            raise ConfigError("adam betas must lie in [0, 1)")
        if self.tau <= 0.0:
            raise ConfigError("tau must be positive")
        if self.lambda_mim < 0.0:
            raise ConfigError("lambda_mim must be non-negative")
        if self.ntxent_variant not in NTXENT_VARIANTS:
            raise ConfigError(f"unknown ntxent_variant {self.ntxent_variant!r}")
        if self.eval_every < 1:
            raise ConfigError("eval_every must be at least 1")
        if self.d_hidden < 1 or self.d_feature < 1:
            raise ConfigError("d_hidden and d_feature must be positive")
        if not self.inference_modes:
            raise ConfigError("inference_modes must not be empty")
        for mode in self.inference_modes:
            try:
                parse_mode(mode, p)
            except ValidationError as exc:
                raise ConfigError(str(exc)) from None
        counts = clients_per_modality(self.k_clients, p)
        n_train = train_size(self.dataset.n_sites)
        if n_train // max(counts) < 2:
            raise ConfigError(
                f"n_sites={self.dataset.n_sites} leaves fewer than 2 training "
                f"samples per client at K={self.k_clients}"
            )
        dropped = DROPPED_MODALITY.get(self.scenario.kind)
        if dropped is not None and dropped < p:
            # the rows build_scenario keeps, split over that modality's clients
            kept = n_train - int(n_train * self.scenario.missing_fraction)
            if kept // counts[dropped] < 2:
                raise ConfigError(
                    f"scenario {self.scenario.kind!r} with missing_fraction="
                    f"{self.scenario.missing_fraction} leaves {kept} training "
                    f"samples of modality {dropped} for {counts[dropped]} clients, "
                    f"fewer than 2 per client"
                )
        if self.scenario.kind in ("group-skew", "group-skew-mixed"):
            if self.dataset.n_groups < max(counts):
                raise ConfigError(
                    f"scenario {self.scenario.kind!r} needs n_groups >= "
                    f"{max(counts)}, have {self.dataset.n_groups}"
                )


def _check_client_count(k_clients: int, n_modalities: int) -> None:
    """Every modality needs at least one client."""
    if k_clients < n_modalities:
        raise ConfigError(f"k_clients={k_clients} below modality count {n_modalities}")


# JSON types a field takes, by its annotation: an integer where a float is
# expected, never a boolean for a number or a number for a boolean
_JSON_TYPES = {
    "int": int,
    "float": (int, float),
    "str": str,
    "bool": bool,
    "int | None": (int, type(None)),
    "str | None": (str, type(None)),
}
_JSON_LISTS = {"tuple[int, ...]": "int", "tuple[str, ...]": "str"}


def _wrong_json_type(annotation: str, value) -> bool:
    """Whether a JSON ``value`` cannot fill a field annotated ``annotation``."""
    if annotation in _JSON_LISTS:
        return not isinstance(value, (list, tuple)) or any(
            _wrong_json_type(_JSON_LISTS[annotation], v) for v in value
        )
    kinds = _JSON_TYPES.get(annotation)
    if kinds is None:  # a nested section, built on its own
        return False
    return isinstance(value, bool) != (kinds is bool) or not isinstance(value, kinds)


def _build_section(cls, payload, section: str):
    """``cls`` from one JSON object; an unknown key or a value of the wrong
    JSON type raises ConfigError naming the section and the key."""
    if not isinstance(payload, dict):
        raise ConfigError(f"{section} section must be a JSON object")
    allowed = {f.name for f in dataclasses.fields(cls)}
    unknown = set(payload) - allowed
    if unknown:
        raise ConfigError(
            f"unknown {section} key(s): {', '.join(sorted(unknown))}"
        )
    for f in dataclasses.fields(cls):
        if f.name in payload and _wrong_json_type(f.type, payload[f.name]):
            raise ConfigError(
                f"{section} key {f.name!r} is {json.dumps(payload[f.name])}, "
                f"expected {f.type}"
            )
    try:
        return cls(**payload)
    except (ValidationError, TypeError) as exc:
        raise ConfigError(f"invalid {section} section: {exc}") from None


def config_from_dict(payload: dict) -> ExperimentConfig:
    if not isinstance(payload, dict):
        raise ConfigError("config root must be a JSON object")
    payload = dict(payload)
    for key, cls in (("dataset", DatasetSpec), ("scenario", ScenarioSpec)):
        if key in payload:
            payload[key] = _build_section(cls, payload[key], key)
    cfg = _build_section(ExperimentConfig, payload, "config")
    cfg.validate()
    return cfg


def load_config(path) -> ExperimentConfig:
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"config file not found: {path}")
    try:
        payload = json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from None
    return config_from_dict(payload)


def config_to_dict(cfg: ExperimentConfig) -> dict:
    out = dataclasses.asdict(cfg)
    out["dataset"]["modality_dims"] = list(cfg.dataset.modality_dims)
    out["inference_modes"] = list(cfg.inference_modes)
    return out
