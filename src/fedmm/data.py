"""Synthetic paired multi-modal datasets, decentralization scenarios,
deterministic batching, shard files and the one binary file reader.

Every site draws a latent vector from a group-shifted Gaussian; modality 0
observes a linear projection of it and modality 1 a tanh-squashed one, so
the modalities are complementary views of the same underlying signal.
Group membership drives the non-IID scenarios: skewed shards hold sites
from disjoint group subsets, which shifts both features and label
marginals between clients.
"""

from __future__ import annotations

import json
import math
import struct
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from .errors import ConfigError, DataError, FormatError, ValidationError
from .nncore import Array

SHARD_MAGIC = b"MFSH"
SHARD_VERSION = 1

SCENARIO_KINDS = ("iid", "group-skew", "group-skew-mixed", "missing-A", "missing-B")
TASK_KINDS = ("multi-label", "single-label")

# the modality whose training rows a missing-modality scenario thins out
DROPPED_MODALITY = {"missing-A": 0, "missing-B": 1}

_SCENARIO_STREAM = 17
_PREVALENCE_LOW = 0.2
_PREVALENCE_HIGH = 0.5


@dataclass
class DatasetSpec:
    """Everything that determines a synthetic dataset given its seed."""

    n_sites: int = 2000
    latent_dim: int = 16
    modality_dims: tuple[int, ...] = (24, 40)
    n_labels: int = 8
    task_kind: str = "multi-label"
    n_groups: int = 7
    noise_sigma: float = 0.1
    group_shift: float = 1.0
    seed: int | None = None

    def __post_init__(self):
        self.modality_dims = tuple(int(v) for v in self.modality_dims)
        if self.n_sites < 5:
            raise ValidationError("n_sites must be at least 5")
        if self.latent_dim < 1 or self.n_labels < 2:
            raise ValidationError("latent_dim must be >= 1 and n_labels >= 2")
        if not self.modality_dims or any(v < 1 for v in self.modality_dims):
            raise ValidationError("modality_dims must be positive")
        if self.task_kind not in TASK_KINDS:
            raise ValidationError(f"unknown task kind {self.task_kind!r}")
        if self.n_groups < 1:
            raise ValidationError("n_groups must be >= 1")
        if self.noise_sigma < 0.0 or self.group_shift < 0.0:
            raise ValidationError("noise_sigma and group_shift must be non-negative")
        if self.seed is not None and self.seed < 0:
            raise ValidationError("seed must be non-negative")

    @property
    def n_modalities(self) -> int:
        return len(self.modality_dims)


@dataclass
class ScenarioSpec:
    """How the training set is carved into client shards."""

    kind: str = "iid"
    missing_fraction: float = 0.5
    jitter: float = 0.5

    def __post_init__(self):
        if self.kind not in SCENARIO_KINDS:
            raise ValidationError(f"unknown scenario kind {self.kind!r}")
        if not 0.0 <= self.missing_fraction <= 1.0:
            raise ValidationError("missing_fraction must lie in [0, 1]")
        if self.jitter < 0.0:
            raise ValidationError("jitter must be non-negative")


@dataclass
class Shard:
    """Columnar store of one modality's samples; immutable by convention."""

    modality_id: int
    task_kind: str
    geo_keys: Array  # int64 [n]
    features: Array  # float64 [n, dim]
    labels: Array  # float64 [n, n_labels] for multi-label, int64 [n] otherwise

    def __post_init__(self):
        self.geo_keys = np.ascontiguousarray(self.geo_keys, dtype=np.int64)
        self.features = np.ascontiguousarray(self.features, dtype=np.float64)
        if self.task_kind not in TASK_KINDS:
            raise ValidationError(f"unknown task kind {self.task_kind!r}")
        if self.task_kind == "multi-label":
            self.labels = np.ascontiguousarray(self.labels, dtype=np.float64)
            if self.labels.ndim != 2 or self.labels.shape[0] != self.n:
                raise ValidationError("multi-label labels must be [n, n_labels]")
        else:
            self.labels = np.ascontiguousarray(self.labels, dtype=np.int64)
            if self.labels.shape != (self.n,):
                raise ValidationError("single-label labels must be [n]")
        if self.features.ndim != 2 or self.features.shape[0] != self.n:
            raise ValidationError("features must be [n, dim]")

    @property
    def n(self) -> int:
        return self.geo_keys.shape[0]

    @property
    def dim(self) -> int:
        return self.features.shape[1]

    def select(self, idx) -> "Shard":
        return Shard(
            modality_id=self.modality_id,
            task_kind=self.task_kind,
            geo_keys=self.geo_keys[idx].copy(),
            features=self.features[idx].copy(),
            labels=self.labels[idx].copy(),
        )


@dataclass
class SyntheticDataset:
    spec: DatasetSpec
    train: list[Shard]  # one shard per modality, aligned by row
    test: list[Shard]
    site_group: Array  # int64 [n_sites], group id per geo_key


_GROUP_LABEL_MIX = 0.35  # fraction of the group shift that leaks into label space
_NUISANCE_SCALE = 3.0  # std of label-orthogonal latent directions vs label directions


def _label_basis(label_proj):
    q, _ = np.linalg.qr(label_proj)
    return q


def _group_offsets(rng, spec, q_label):
    """Per-group latent offsets, dominated by label-orthogonal directions.

    Group shifts model acquisition nuisances: most of each offset lies in
    the orthogonal complement of the label projection (so it moves features
    without moving labels), plus a smaller label-aligned component that
    skews per-group label marginals.
    """
    raw = rng.standard_normal((spec.n_groups, spec.latent_dim))
    parallel = raw @ q_label @ q_label.T
    orthogonal = raw - parallel
    return spec.group_shift * (orthogonal + _GROUP_LABEL_MIX * parallel)


def _anisotropic_noise(rng, n, q_label, latent_dim):
    """Unit-variance label directions, inflated label-orthogonal directions.

    The dominant variance is nuisance: that is what makes decorrelation
    worthwhile downstream and mirrors acquisition variability dwarfing the
    class signal in the raw measurements.
    """
    eps = rng.standard_normal((n, latent_dim))
    parallel = eps @ q_label @ q_label.T
    return parallel + _NUISANCE_SCALE * (eps - parallel)


def train_size(n_sites: int) -> int:
    """Sites in the training split: 80% of them, rounded."""
    return int(round(n_sites * 0.8))


def sorted_quantile(column: Array, q: float) -> float:
    """``np.quantile(column, q)`` of an ascending ``column``, bit for bit.

    numpy's default (linear) method: the virtual index ``(n - 1) * q``
    interpolates between its two neighbours, from the upper one when the
    weight is at least 0.5, and an index at or past ``n - 1`` takes the
    last element. Taking it from a column sorted once spares each call a
    partition, and ``np.quantile``'s partition indices go through
    ``np.unique``, which imports all of ``numpy.ma``.
    """
    n = column.shape[0]
    virtual = (n - 1) * q
    if virtual >= n - 1:
        return float(column[-1])
    prev = math.floor(virtual)
    t = virtual - prev
    a = float(column[prev])
    b = float(column[prev + 1])
    if t >= 0.5:
        return b - (b - a) * (1 - t)
    return a + (b - a) * t


def gen_synthetic(spec: DatasetSpec) -> SyntheticDataset:
    """Generate paired train/test shards for every modality.

    Both modality views of a site always land in the same split. Multi-label
    thresholds are calibrated on the training split so every label's
    prevalence falls inside [0.2, 0.5].
    """
    if spec.seed is None:
        raise ValidationError("dataset seed must be resolved before generation")
    rng = np.random.default_rng(spec.seed)
    n = spec.n_sites
    groups = np.arange(n, dtype=np.int64) % spec.n_groups
    label_proj = rng.standard_normal((spec.latent_dim, spec.n_labels))
    q_label = _label_basis(label_proj)
    group_means = _group_offsets(rng, spec, q_label)
    latents = group_means[groups] + _anisotropic_noise(rng, n, q_label, spec.latent_dim)

    views = []
    for m, dim in enumerate(spec.modality_dims):
        mix = rng.standard_normal((spec.latent_dim, dim)) / spec.latent_dim**0.5
        raw = latents @ mix
        if m % 2 == 1:
            raw = np.tanh(raw)
        views.append(raw + spec.noise_sigma * rng.standard_normal((n, dim)))

    perm = rng.permutation(n)
    n_train = train_size(n)
    train_sites = np.sort(perm[:n_train])
    test_sites = np.sort(perm[n_train:])

    if spec.task_kind == "multi-label":
        scores = latents @ label_proj
        train_scores = np.sort(scores[train_sites].T, axis=1)  # one row per label
        thresholds = np.empty(spec.n_labels)
        for lbl in range(spec.n_labels):
            column = train_scores[lbl]
            ok = False
            for _ in range(100):
                target = rng.uniform(0.25, 0.45)
                thr = sorted_quantile(column, 1.0 - target)
                prevalence = float((column > thr).mean())
                if _PREVALENCE_LOW <= prevalence <= _PREVALENCE_HIGH:
                    thresholds[lbl] = thr
                    ok = True
                    break
            if not ok:
                raise DataError(
                    f"could not calibrate label {lbl} prevalence into "
                    f"[{_PREVALENCE_LOW}, {_PREVALENCE_HIGH}] after 100 attempts"
                )
        labels = (scores > thresholds).astype(np.float64)
    else:
        labels = np.argmax(latents @ label_proj, axis=1).astype(np.int64)

    def shards_for(sites: Array) -> list[Shard]:
        return [
            Shard(
                modality_id=m,
                task_kind=spec.task_kind,
                geo_keys=sites,
                features=views[m][sites],
                labels=labels[sites],
            )
            for m in range(spec.n_modalities)
        ]

    return SyntheticDataset(
        spec=spec,
        train=shards_for(train_sites),
        test=shards_for(test_sites),
        site_group=groups,
    )


# ---------------------------------------------------------------------------
# scenarios
# ---------------------------------------------------------------------------


def clients_per_modality(k_clients: int, n_modalities: int) -> list[int]:
    """Split K clients across modalities as evenly as possible."""
    if k_clients < n_modalities:
        raise ValidationError(
            f"need at least one client per modality: k_clients={k_clients}, "
            f"modalities={n_modalities}"
        )
    base = k_clients // n_modalities
    return [base + (1 if m < k_clients % n_modalities else 0) for m in range(n_modalities)]


def check_scenario(spec: DatasetSpec, scenario: ScenarioSpec, k_clients: int) -> list[int]:
    """Clients per modality of the split :func:`build_scenario` makes.

    Checks every condition the specs alone decide for each client to get at
    least 2 training rows: one client per modality (ValidationError), one
    group per client of a group-skew modality, and at least 2 rows per
    client both of the training split and of what a missing-modality
    scenario keeps (DataError). A missing-modality scenario also needs the
    modality it thins (DataError). A group-skew split can still leave a
    client short, which only the split itself shows.
    """
    counts = clients_per_modality(k_clients, spec.n_modalities)
    if scenario.kind in ("group-skew", "group-skew-mixed") and spec.n_groups < max(counts):
        raise DataError(
            f"scenario {scenario.kind!r} needs n_groups >= {max(counts)}, "
            f"have {spec.n_groups}"
        )
    n_train = train_size(spec.n_sites)
    if n_train // max(counts) < 2:
        raise DataError(
            f"n_sites={spec.n_sites} leaves fewer than 2 training samples per "
            f"client at k_clients={k_clients}"
        )
    dropped = DROPPED_MODALITY.get(scenario.kind)
    if dropped is not None:
        if dropped >= spec.n_modalities:
            raise DataError(
                f"scenario {scenario.kind!r} thins modality {dropped}, the dataset "
                f"has {spec.n_modalities}"
            )
        kept = n_train - int(n_train * scenario.missing_fraction)
        if kept // counts[dropped] < 2:
            raise DataError(
                f"scenario {scenario.kind!r} with missing_fraction="
                f"{scenario.missing_fraction} leaves {kept} training samples of "
                f"modality {dropped} for {counts[dropped]} clients, fewer than 2 "
                f"per client"
            )
    return counts


def kept_rows(n: int, removed: Array) -> Array:
    """Ascending indices of ``range(n)`` not in ``removed``: what
    ``np.setdiff1d(np.arange(n), removed)`` gives, without the sort-based
    set routines that import ``numpy.ma``."""
    keep = np.ones(n, dtype=bool)
    keep[removed] = False
    return np.flatnonzero(keep)


def build_scenario(
    dataset: SyntheticDataset, scenario: ScenarioSpec, k_clients: int
) -> list[Shard]:
    """Carve the training set into K client shards, one modality each.

    Raises what :func:`check_scenario` raises, and DataError naming the
    first client left with fewer than 2 training rows.
    """
    spec = dataset.spec
    counts = check_scenario(spec, scenario, k_clients)
    rng = np.random.default_rng([spec.seed, _SCENARIO_STREAM])
    shards: list[Shard] = []

    if scenario.kind in ("group-skew", "group-skew-mixed"):
        for m, n_m in enumerate(counts):
            train = dataset.train[m]
            site_groups = dataset.site_group[train.geo_keys]
            for j in range(n_m):
                idx = np.nonzero(site_groups % n_m == j)[0]
                shards.append(train.select(idx))
        if scenario.kind == "group-skew-mixed":
            # extra per-group noise emulates a second axis of heterogeneity
            sigmas = rng.uniform(0.0, scenario.jitter, size=spec.n_groups)
            for shard in shards:
                shard_groups = dataset.site_group[shard.geo_keys]
                noise = rng.standard_normal(shard.features.shape)
                shard.features = shard.features + sigmas[shard_groups, None] * noise
    elif scenario.kind in ("iid", "missing-A", "missing-B"):
        drop_modality = DROPPED_MODALITY.get(scenario.kind)
        for m, n_m in enumerate(counts):
            train = dataset.train[m]
            if drop_modality is not None and m == drop_modality:
                n_remove = int(train.n * scenario.missing_fraction)
                removed = rng.choice(train.n, size=n_remove, replace=False)
                train = train.select(kept_rows(train.n, removed))
            order = rng.permutation(train.n)
            for chunk in np.array_split(order, n_m):
                shards.append(train.select(np.sort(chunk)))
    else:  # pragma: no cover - ScenarioSpec already validates
        raise ValidationError(f"unknown scenario kind {scenario.kind!r}")

    for client_id, shard in enumerate(shards):
        if shard.n < 2:
            raise DataError(
                f"client {client_id} received fewer than 2 training rows ({shard.n})"
            )
    return shards


# ---------------------------------------------------------------------------
# batching
# ---------------------------------------------------------------------------


def batches(n_samples: int, batch_size: int, rng: np.random.Generator):
    """Yield index batches for one shuffled epoch.

    The trailing batch is dropped when it has fewer than 2 samples: both
    whitening and the contrastive loss are undefined on singletons.
    """
    if batch_size < 2:
        raise ConfigError(f"batch size must be at least 2, got {batch_size}")
    order = rng.permutation(n_samples)
    for start in range(0, n_samples, batch_size):
        chunk = order[start : start + batch_size]
        if chunk.size < 2:
            break
        yield chunk


# ---------------------------------------------------------------------------
# binary files, shards and manifests
# ---------------------------------------------------------------------------


def write_binary(path, magic: bytes, version: int, *chunks: bytes) -> None:
    """Write ``magic``, the u16 ``version`` and then ``chunks``: the header
    and body of a file :class:`ByteReader` reads."""
    with open(path, "wb") as fh:
        fh.write(magic + struct.pack("<H", version))
        for chunk in chunks:
            fh.write(chunk)


class ByteReader:
    """The one reader of fedmm's binary files, shards and checkpoints.
    Opening checks the 4-byte ``magic`` and u16 ``version`` of format
    ``name``; then a read past the end, bytes after the payload
    (:meth:`expect_end`) or a non-finite float (:meth:`array`) raises
    FormatError at its byte."""

    def __init__(self, path, magic: bytes, version: int, name: str):
        with open(path, "rb") as fh:
            self.data = fh.read()
        if self.data[:4] != magic:
            raise FormatError(f"bad magic, not a {name} file", offset=0)
        self.offset = 4
        (found,) = self.unpack("<H")
        if found != version:
            raise FormatError(f"unsupported {name} version {found}", offset=4)

    def need(self, n: int) -> None:
        if self.offset + n > len(self.data):
            raise FormatError(f"file truncated: needed {n} more bytes", offset=self.offset)

    def take(self, n: int) -> bytes:
        self.need(n)
        chunk = self.data[self.offset : self.offset + n]
        self.offset += n
        return chunk

    def unpack(self, fmt: str) -> tuple:
        return struct.unpack(fmt, self.take(struct.calcsize(fmt)))

    def array(self, dtype, count: int, what: str) -> Array:
        """The next ``count`` items of ``dtype``, a read-only view of the
        file's bytes. A NaN or Inf in a float field raises FormatError at the
        first byte of the first one, naming it as ``what``'s item and, in a
        record, its field and column."""
        dtype = np.dtype(dtype)
        start = self.offset
        items = np.frombuffer(self.take(count * dtype.itemsize), dtype=dtype)
        faults = []
        for name in dtype.names or (None,):
            column = items if name is None else items[name]
            if column.dtype.kind != "f" or np.isfinite(column).all():
                continue
            rows = column.reshape(count, -1)
            row, col = (int(i) for i in np.argwhere(~np.isfinite(rows))[0])
            at = 0 if name is None else dtype.fields[name][1]
            where = f"{what} {row}" + (f" {name} {col}" if name else "")
            offset = start + row * dtype.itemsize + at + col * column.itemsize
            faults.append((offset, f"{where} is {float(rows[row, col])!r}, not finite"))
        if faults:
            offset, message = min(faults)
            raise FormatError(message, offset=offset)
        return items

    def expect_end(self) -> None:
        if self.offset != len(self.data):
            raise FormatError("trailing bytes after payload", offset=self.offset)


def _shard_dtype(dim: int, n_label_cols: int) -> np.dtype:
    return np.dtype(
        [("geo", "<u8"), ("feature", "<f8", (dim,)), ("label", "<f8", (n_label_cols,))]
    )


def _too_wide(dim: int, n_label_cols: int, n_labels: int) -> tuple[str, int, int] | None:
    """(name, value, header offset) of the field at fault when a record of
    ``dim`` features and ``n_label_cols`` label columns is too wide for
    numpy, which builds no record type of 2**31 bytes or more (8 per geo
    key, feature and label column): the wider of the two. None otherwise."""
    if 8 * (1 + dim + n_label_cols) < 2**31:
        return None
    return ("feature dim", dim, 13) if dim >= n_label_cols else ("label count", n_labels, 17)


def _bad_label(
    label_cols: Array, task_kind: str, n_labels: int
) -> tuple[int, int, str] | None:
    """(sample, column, message) of the first label a header of ``n_labels``
    labels cannot describe, or None: a multi-label entry other than 0 or 1,
    or a single-label value that is not an integral class id below
    ``n_labels``."""
    if task_kind == "multi-label":
        bad = (label_cols != 0.0) & (label_cols != 1.0)
        kind = "a multi-label value outside {0, 1}"
    else:
        bad = (label_cols != np.floor(label_cols)) | (label_cols < 0) | (label_cols >= n_labels)
        kind = f"not a class id in [0, {n_labels})"
    if not bad.any():
        return None
    row, col = (int(i) for i in np.argwhere(bad)[0])
    return row, col, f"label of sample {row} is {float(label_cols[row, col])!r}, {kind}"


def label_mismatch(shard: Shard, task_kind: str, n_labels: int) -> str | None:
    """Why a ``task_kind`` head of ``n_labels`` labels cannot score ``shard``:
    another task kind or label column count, or :func:`_bad_label`; or None."""
    if shard.task_kind != task_kind:
        return f"{shard.task_kind} labels for a {task_kind} head"
    if task_kind == "multi-label":
        if shard.labels.shape[1] != n_labels:
            return f"{shard.labels.shape[1]} label columns for a head of {n_labels} labels"
        label_cols = shard.labels
    else:
        label_cols = shard.labels[:, None]
    bad = _bad_label(label_cols, shard.task_kind, n_labels)
    return None if bad is None else bad[2]


def save_shard(shard: Shard, path, n_labels: int) -> None:
    """Write the binary shard format (see :func:`load_shard`).

    ``n_labels`` is the header's label count. A multi-label shard stores
    one column per label, so an ``n_labels`` that differs from its column
    count raises ValidationError, as does a zero width, a modality id or
    label count its header field cannot hold, a record too wide for numpy
    (naming the wider field), a feature that is not finite (in the words
    :func:`load_shard` uses) or a label it would reject, so no file is
    written that it rejects.
    """
    if shard.dim == 0:
        raise ValidationError("shard has feature dim 0")
    non_finite = np.argwhere(~np.isfinite(shard.features))
    if non_finite.size:
        row, col = (int(i) for i in non_finite[0])
        value = float(shard.features[row, col])
        raise ValidationError(f"shard sample {row} feature {col} is {value!r}, not finite")
    if shard.task_kind == "multi-label":
        n_label_cols = shard.labels.shape[1]
        lab = shard.labels
        if n_labels != n_label_cols:
            raise ValidationError(
                f"multi-label shard has {n_label_cols} label columns, n_labels={n_labels}"
            )
    else:
        n_label_cols = 1
        lab = shard.labels[:, None].astype(np.float64)
    bad = _bad_label(lab, shard.task_kind, n_labels)
    if bad is not None:
        raise ValidationError(bad[2])
    if n_labels == 0:
        raise ValidationError("shard has label count 0")
    if not 0 <= n_labels < 2**32:
        raise ValidationError(f"label count {n_labels} does not fit the u32 header")
    if not 0 <= shard.modality_id < 2**16:
        raise ValidationError(f"modality id {shard.modality_id} does not fit the u16 header")
    wide = _too_wide(shard.dim, n_label_cols, n_labels)
    if wide is not None:
        raise ValidationError(f"shard has {wide[0]} {wide[1]}, too wide a record")
    records = np.empty(shard.n, dtype=_shard_dtype(shard.dim, n_label_cols))
    records["geo"] = shard.geo_keys
    records["feature"] = shard.features
    records["label"] = lab
    task_idx = TASK_KINDS.index(shard.task_kind)
    header = struct.pack("<HBIII", shard.modality_id, task_idx, shard.n, shard.dim, n_labels)
    write_binary(path, SHARD_MAGIC, SHARD_VERSION, header, records.tobytes())


def load_shard(path) -> Shard:
    """Read a shard file.

    Layout: magic ``MFSH``, u16 version, u16 modality id, u8 task kind,
    u32 sample count, u32 feature dim, u32 label count, then per sample a
    u64 geo key, the features, and the labels as little-endian float64.
    The file is read through :class:`ByteReader`, so a NaN or Inf raises
    FormatError at its byte. So do labels the header cannot describe: a
    multi-label entry other than 0 or 1, or a single-label value that is not
    an integral class id in ``[0, label count)``; a zero width, or one
    that makes a record too wide for numpy, at its field.
    """
    reader = ByteReader(path, SHARD_MAGIC, SHARD_VERSION, "shard")
    modality_id, task_idx, count, dim, n_labels = reader.unpack("<HBIII")
    if task_idx >= len(TASK_KINDS):
        raise FormatError(f"unknown task kind code {task_idx}", offset=8)
    for name, value, offset in (("feature dim", dim, 13), ("label count", n_labels, 17)):
        if value == 0:
            raise FormatError(f"shard declares {name} 0", offset=offset)
    task_kind = TASK_KINDS[task_idx]
    n_label_cols = n_labels if task_kind == "multi-label" else 1
    wide = _too_wide(dim, n_label_cols, n_labels)
    if wide is not None:
        name, value, offset = wide
        raise FormatError(f"shard declares {name} {value}, too wide a record", offset=offset)
    dtype = _shard_dtype(dim, n_label_cols)
    start = reader.offset
    records = reader.array(dtype, count, "shard sample")
    reader.expect_end()
    bad = _bad_label(records["label"], task_kind, n_labels)
    if bad is not None:
        row, col, message = bad
        raise FormatError(
            message, offset=start + row * dtype.itemsize + dtype.fields["label"][1] + 8 * col
        )
    labels = records["label"]
    return Shard(
        modality_id=modality_id,
        task_kind=task_kind,
        geo_keys=records["geo"].astype(np.int64),
        features=records["feature"].copy(),
        labels=labels.copy() if task_kind == "multi-label" else labels[:, 0].astype(np.int64),
    )


def write_manifest(
    path,
    shard_paths: dict[str, list[str]],
    scenario_kind: str,
    spec: DatasetSpec,
) -> None:
    """Write the JSON index of a ``gen-data`` export: the dataset spec, the
    scenario kind and the shard file names per split. The manifest is for
    external tools; no fedmm command reads it back, and :func:`load_shard`
    is the public reader of the shard files it lists."""
    payload = {
        "format": "fedmm-manifest",
        "version": 1,
        "scenario_kind": scenario_kind,
        "seed": spec.seed,
        "dataset": asdict(spec),
        "shards": shard_paths,
    }
    Path(path).write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
