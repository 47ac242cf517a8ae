"""Experiment configuration and ``fedmm gen-data`` specs: JSON schema,
parsing, and validation.

Config files use exactly the field names below; unknown keys are rejected
so typos fail fast instead of silently falling back to defaults, and so is
a value of the wrong JSON type or a number that is not finite, which would
otherwise fail deep in a run. The experiment seed drives model
initialization and the per-client streams; the dataset seed defaults to it
when left unset.
"""

from __future__ import annotations

import contextlib
import dataclasses
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

from .data import DatasetSpec, ScenarioSpec, check_scenario
from .errors import ConfigError, DataError, ValidationError
from .losses import LossConfig
from .metrics import parse_modes


@contextlib.contextmanager
def _as_config_error():
    """Re-raise a ValidationError or DataError of the block as ConfigError,
    so a file that sets a value the library rejects exits 2."""
    try:
        yield
    except (ValidationError, DataError) as exc:
        raise ConfigError(str(exc)) from None


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
        if self.seed < 0:
            raise ConfigError("seed must be non-negative")
        with _as_config_error():
            check_scenario(self.dataset, self.scenario, self.k_clients)
        if self.rounds < 0 or self.local_epochs < 0:
            raise ConfigError("rounds and local_epochs must be non-negative")
        if self.batch_size < 2:
            raise ConfigError("batch_size must be at least 2")
        if self.lr < 0.0 or self.weight_decay < 0.0:
            raise ConfigError("lr and weight_decay must be non-negative")
        if not (0.0 <= self.beta1 < 1.0 and 0.0 <= self.beta2 < 1.0):
            raise ConfigError("adam betas must lie in [0, 1)")
        with _as_config_error():
            LossConfig(self.tau, self.lambda_mim, self.ntxent_variant)
        if self.eval_every < 1:
            raise ConfigError("eval_every must be at least 1")
        if self.d_hidden < 1 or self.d_feature < 1:
            raise ConfigError("d_hidden and d_feature must be positive")
        with _as_config_error():
            parse_modes(self.inference_modes, self.dataset.n_modalities)


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
    """``cls`` from one JSON object; an unknown key, a value of the wrong
    JSON type or a non-finite number (``NaN``, ``Infinity``, or a literal
    such as ``1e400`` that overflows to it) raises ConfigError naming the
    section and the key."""
    if not isinstance(payload, dict):
        raise ConfigError(f"{section} section must be a JSON object")
    allowed = {f.name for f in dataclasses.fields(cls)}
    unknown = set(payload) - allowed
    if unknown:
        raise ConfigError(
            f"unknown {section} key(s): {', '.join(sorted(unknown))}"
        )
    for f in dataclasses.fields(cls):
        value = payload.get(f.name)
        if f.name in payload and _wrong_json_type(f.type, value):
            expected = f.type
        elif isinstance(value, float) and not math.isfinite(value):
            expected = "a finite number"
        else:
            continue
        raise ConfigError(f"{section} key {f.name!r} is {json.dumps(value)}, expected {expected}")
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


def read_text(path, what: str) -> str:
    """The UTF-8 text of the file at ``path``; ``what`` names the file in
    the ConfigError raised when it is missing or not UTF-8."""
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"{what} file not found: {path}")
    try:
        return path.read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{what} file is not UTF-8 text: {exc}") from None


def _read_json_object(path, what: str) -> dict:
    """The JSON object in the file at ``path``; ``what`` names the file in
    the ConfigError raised when it is missing, not UTF-8, not JSON or not
    an object."""
    try:
        payload = json.loads(read_text(path, what))
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{what} is not valid JSON: {exc}") from None
    if not isinstance(payload, dict):
        raise ConfigError(f"{what} root must be a JSON object")
    return payload


def load_config(path) -> ExperimentConfig:
    return config_from_dict(_read_json_object(path, "config"))


def load_gen_spec(
    path, seed_override: int | None = None
) -> tuple[DatasetSpec, ScenarioSpec | None, int | None]:
    """The dataset spec, optional scenario and client count of a
    ``fedmm gen-data`` spec file, checked as :func:`load_config` checks the
    same sections. A scenario and ``k_clients`` come together or not at
    all. The dataset seed is ``seed_override`` when given and must be set
    one way or the other."""
    payload = _read_json_object(path, "spec")
    unknown = set(payload) - {"dataset", "scenario", "k_clients"}
    if unknown:
        raise ConfigError(f"unknown spec key(s): {', '.join(sorted(unknown))}")
    if "dataset" not in payload:
        raise ConfigError("spec must contain a 'dataset' section")
    dataset = _build_section(DatasetSpec, payload["dataset"], "dataset")
    scenario = None
    if "scenario" in payload:
        scenario = _build_section(ScenarioSpec, payload["scenario"], "scenario")
    k_clients = payload.get("k_clients")
    if scenario is not None and k_clients is None:
        raise ConfigError("spec with a scenario section also needs k_clients")
    if scenario is None and k_clients is not None:
        raise ConfigError("spec key 'k_clients' needs a scenario section")
    if _wrong_json_type("int | None", k_clients):
        raise ConfigError(f"spec key 'k_clients' is {json.dumps(k_clients)}, expected int")
    if scenario is not None:
        with _as_config_error():
            check_scenario(dataset, scenario, k_clients)
    if seed_override is not None:
        with _as_config_error():
            dataset = dataclasses.replace(dataset, seed=seed_override)
    if dataset.seed is None:
        raise ConfigError("dataset seed missing; set it in the spec or pass --seed")
    return dataset, scenario, k_clients


def config_to_dict(cfg: ExperimentConfig) -> dict:
    out = dataclasses.asdict(cfg)
    out["dataset"]["modality_dims"] = list(cfg.dataset.modality_dims)
    out["inference_modes"] = list(cfg.inference_modes)
    return out
