"""Encoder/head model family, zero-padded fusion, cross-encoding, the
parameter buffer, and binary checkpoints.

The architecture is fixed, and :func:`_architecture` is its one record:
a dense input adapter (modality dim -> hidden, optional whitening, relu)
followed by a body of [hidden -> hidden dense, relu] and a final hidden ->
feature dense. Every :class:`Encoder` has that layout, and all encoders of
a model share its widths and whitening, which is what lets one modality's
adapter feed another modality's body during cross-encoding and one
checkpoint header describe every encoder. Modality slots concatenate in
ascending modality id; absent slots are zero-filled.

A global model keeps its parameters in one float64 vector, ``params``,
laid out as ``[enc_0 | ... | enc_{P-1} | head]``: each part's ``params`` is
its consecutive slice (see :func:`bind_parts`), and every layer's arrays
are views into that slice in flatten order (see :func:`bind_params`).

Shapes are checked once, where they become fixed: by :class:`Encoder`,
:class:`GlobalModelSet` and the public :func:`encode` and
:func:`head_forward`. The per-step internals trust those checks.
"""

from __future__ import annotations

import dataclasses
import itertools
import struct
from collections.abc import Iterable, Sequence
from dataclasses import dataclass, field

import numpy as np

from .data import TASK_KINDS, ByteReader, write_binary
from .errors import DimensionError, FormatError, ValidationError
from .nncore import (
    Array,
    DenseLayer,
    WhiteningState,
    activation_backward,
    activation_forward,
    as_tensor,
    batch_whitening_backward,
    batch_whitening_eval,
    batch_whitening_train,
    dense_backward,
    dense_forward,
    is_symmetric,
    whiten_batch,
)

CHECKPOINT_MAGIC = b"MFMM"
CHECKPOINT_VERSION = 1

# Whitening settings of a built encoder. The eps keeps the amplification of
# weakly observed covariance directions bounded at desk-scale batch sizes.
WHITENING_EPS = 0.1
WHITENING_MOMENTUM = 0.1


def _architecture(
    input_dim: int, hidden_dim: int, feature_dim: int, whitens: bool
) -> list[tuple[tuple[int, int], str | None, int]]:
    """The one encoder layout: each stage's (weight shape, activation,
    whitened width or 0), the input adapter first.

    Whitening, when on, sits on the adapter output. That placement aligns
    each client's first-layer activations before any shared body weights
    consume them; placing it deeper leaves the early layers exposed to the
    raw per-client distributions.
    """
    h = hidden_dim
    return [
        ((input_dim, h), "relu", h if whitens else 0),
        ((h, h), "relu", 0),
        ((h, feature_dim), None, 0),
    ]


def _stage_layouts(encoder: Encoder) -> list[tuple]:
    """Each stage's (weight shape, activation, whitened width or 0), as
    :func:`_architecture` lists them."""
    return [
        (s.dense.weight.shape, s.activation, 0 if s.whitening is None else s.whitening.dim)
        for s in encoder.stages()
    ]


@dataclass
class Stage:
    """One encoder stage: dense map, optional whitening, optional activation."""

    dense: DenseLayer
    whitening: WhiteningState | None = None
    activation: str | None = None


@dataclass
class Encoder:
    """Modality-specific backbone: input adapter plus shared-topology body,
    the stages of :func:`_architecture`. Any other layout raises
    DimensionError.

    Construction makes the stages' parameter arrays views of ``params``,
    whose values they take, or of a new vector holding their own values
    when it is None (see :func:`bind_params`), so a stage belongs to one
    encoder.
    """

    modality_id: int
    adapter: Stage
    body: list[Stage]
    params: Array | None = field(default=None, repr=False)

    def __post_init__(self):
        got = _stage_layouts(self)
        declared = _architecture(self.input_dim, self.hidden_dim, got[-1][0][1], got[0][2] > 0)
        if got != declared:
            raise DimensionError(
                f"modality {self.modality_id} encoder stages (weight shape, activation, "
                f"whitened width) are {got}, not the architecture's {declared}"
            )
        bind_params(self, self.params)

    @property
    def input_dim(self) -> int:
        return self.adapter.dense.in_dim

    @property
    def hidden_dim(self) -> int:
        return self.adapter.dense.out_dim

    @property
    def feature_dim(self) -> int:
        return self.body[-1].dense.out_dim

    def stages(self) -> list[Stage]:
        return [self.adapter] + self.body


@dataclass
class TaskHead:
    """Shared classifier over the concatenated modality slots; its
    parameters are bound to ``params`` like an :class:`Encoder`'s."""

    layer: DenseLayer
    task_kind: str
    params: Array | None = field(default=None, repr=False)

    def __post_init__(self):
        if self.task_kind not in TASK_KINDS:
            raise ValidationError(f"unknown task kind {self.task_kind!r}")
        bind_params(self, self.params)

    @property
    def n_labels(self) -> int:
        return self.layer.out_dim


@dataclass
class GlobalModelSet:
    """Per-modality encoders plus the shared head; the unit of aggregation.
    Its parts are bound to consecutive slices of ``params``, head last,
    as an :class:`Encoder`'s stages are to its own (see :func:`bind_parts`).
    Slot m holds the encoder of modality m, which is how a client finds its
    encoder's slot and how a checkpoint, which stores no id, reads it back."""

    encoders: list[Encoder]
    head: TaskHead
    round: int = 0
    params: Array | None = field(default=None, repr=False)

    def __post_init__(self):
        for m, enc in enumerate(self.encoders):
            if enc.modality_id != m:
                raise ValidationError(f"slot {m} holds the encoder of modality {enc.modality_id}")
        # one hidden width, so cross-encoding fits any adapter to any body,
        # and one whitening flag, the one a checkpoint header holds
        dims = {
            (enc.hidden_dim, enc.feature_dim, enc.adapter.whitening is not None)
            for enc in self.encoders
        }
        if len(dims) != 1:
            raise DimensionError(f"encoders disagree on (hidden, feature, whitens): {sorted(dims)}")
        expected = len(self.encoders) * self.encoders[0].feature_dim
        if self.head.layer.in_dim != expected:
            raise DimensionError(
                f"head input {self.head.layer.in_dim} != "
                f"modalities * feature dim = {expected}"
            )
        self.params = bind_parts(self.encoders + [self.head], self.params)

    @property
    def n_modalities(self) -> int:
        return len(self.encoders)

    @property
    def feature_dim(self) -> int:
        return self.encoders[0].feature_dim


# ---------------------------------------------------------------------------
# construction
# ---------------------------------------------------------------------------


def init_dense(rng: np.random.Generator, n_in: int, n_out: int, gain: float) -> DenseLayer:
    weight = rng.standard_normal((n_in, n_out)) * (gain / n_in) ** 0.5
    return DenseLayer(weight=weight, bias=np.zeros(n_out))


def build_encoder(
    modality_id: int,
    input_dim: int,
    hidden_dim: int,
    feature_dim: int,
    use_whitening: bool,
    rng: np.random.Generator,
) -> Encoder:
    """The encoder of :func:`_architecture`, its stages' weights drawn from
    ``rng`` in stage order with gain 2 before a relu and 1 otherwise.
    Whitening uses :data:`WHITENING_EPS` and :data:`WHITENING_MOMENTUM`."""
    stages = []
    layout = _architecture(input_dim, hidden_dim, feature_dim, use_whitening)
    for (n_in, n_out), activation, w in layout:
        st = WhiteningState.create(w, WHITENING_EPS, WHITENING_MOMENTUM) if w else None
        gain = 2.0 if activation == "relu" else 1.0
        stages.append(Stage(init_dense(rng, n_in, n_out, gain), st, activation))
    return Encoder(modality_id, stages[0], stages[1:])


def build_model(
    input_dims: Sequence[int],
    hidden_dim: int,
    feature_dim: int,
    n_labels: int,
    task_kind: str,
    use_whitening: bool,
    rngs: Iterable[np.random.Generator],
) -> GlobalModelSet:
    """The one model builder: an encoder per input dim in slot order, then
    the head, each part drawing from the next stream of ``rngs``."""
    rngs = iter(rngs)
    encoders = [
        build_encoder(m, dim, hidden_dim, feature_dim, use_whitening, next(rngs))
        for m, dim in enumerate(input_dims)
    ]
    head = TaskHead(
        layer=init_dense(next(rngs), len(input_dims) * feature_dim, n_labels, 1.0),
        task_kind=task_kind,
    )
    return GlobalModelSet(encoders=encoders, head=head)


# ---------------------------------------------------------------------------
# forward passes
# ---------------------------------------------------------------------------


def _forward(stages: list[Stage], x: Array, cache: EncodeCache | None = None) -> Array:
    """The one loop over encoder stages. Handed ``cache``, it is the train
    forward: a whitening stage uses the batch's statistics and folds them
    into its running ones, and every stage is recorded. Without one it is
    the eval forward and writes no state; never-calibrated whitening
    statistics (e.g. a freshly aggregated global model) give way to the
    batch's own, instead of erroring out."""
    out = x
    for stage in stages:
        z = dense_forward(stage.dense, out)
        st = stage.whitening
        whitened = None
        if st is not None:
            if cache is not None:
                z, _, w, xhat = batch_whitening_train(z, st)
                whitened = (w, xhat)
            elif st.stats_ready:
                z = batch_whitening_eval(z, st)
            else:
                z = whiten_batch(z, st.gamma, st.beta, st.eps)
        if cache is not None:
            cache.inputs.append(out)
            cache.preact.append(z)
            cache.whitened.append(whitened)
        out = activation_forward(z, stage.activation) if stage.activation else z
    return out


def _check_input(encoder: Encoder, x: Array) -> None:
    if x.ndim != 2 or x.shape[1] != encoder.input_dim:
        raise DimensionError(
            f"modality {encoder.modality_id}: input {x.shape} does not match "
            f"expected dim {encoder.input_dim}"
        )
    if x.shape[0] == 0:
        raise ValidationError(f"modality {encoder.modality_id}: input has no rows")


def encode(encoder: Encoder, x: Array) -> Array:
    """The eval forward of ``x`` through adapter and body; no state of
    ``encoder`` changes. :func:`encode_train` is the train forward."""
    _check_input(encoder, x)
    return _forward(encoder.stages(), x)


@dataclass
class EncodeCache:
    """The one record of a train forward, per stage: input, pre-activation
    and, if it whitens, the batch's (w, xhat), else None."""

    inputs: list[Array] = field(default_factory=list)
    preact: list[Array] = field(default_factory=list)
    whitened: list[tuple[Array, Array] | None] = field(default_factory=list)


def encode_train(encoder: Encoder, x: Array) -> tuple[Array, EncodeCache]:
    """Train-mode forward and its record, all the backward pass reads."""
    _check_input(encoder, x)
    cache = EncodeCache()
    return _forward(encoder.stages(), x, cache), cache


def encode_backward(
    encoder: Encoder, cache: EncodeCache, grad_out: Array, out: Array
) -> Array:
    """Backprop through the train forward that made ``cache`` into ``out``,
    a vector laid out like the encoder's ``params`` (:func:`flatten_params`
    order); each stage's gradient is written into its slice. Returns ``out``."""
    stages = encoder.stages()
    end = out.size
    g = grad_out
    for i in reversed(range(len(stages))):
        stage = stages[i]
        if stage.activation is not None:
            g = activation_backward(cache.preact[i], stage.activation, g)
        if stage.whitening is not None:
            w, xhat = cache.whitened[i]
            start = end - 2 * stage.whitening.dim
            g = batch_whitening_backward(stage.whitening.gamma, w, xhat, g, out[start:end])
            end = start
        start = end - stage.dense.weight.size - stage.dense.bias.size
        # nothing consumes the gradient wrt the encoder's own input
        g = dense_backward(stage.dense, cache.inputs[i], g, out[start:end], input_grad=i > 0)
        end = start
    return out


def fuse_full(
    features_by_modality: list[Array | None], n_modalities: int, feature_dim: int
) -> Array:
    """Concatenate present modality features in slot order; absent slots are zero."""
    present = [f for f in features_by_modality if f is not None]
    if not present:
        raise ValidationError("fusion needs at least one present modality")
    out = np.zeros((present[0].shape[0], n_modalities * feature_dim))
    for m, f in enumerate(features_by_modality):
        if f is not None:
            out[:, m * feature_dim : (m + 1) * feature_dim] = f
    return out


def head_forward(head: TaskHead, z: Array) -> Array:
    """Class probabilities, one row per sample: sigmoid per label for a
    multi-label head, a row softmax for a single-label one."""
    if z.ndim != 2 or z.shape[1] != head.layer.in_dim:
        raise DimensionError(f"head input {z.shape} does not match its width {head.layer.in_dim}")
    logits = dense_forward(head.layer, z)
    kind = "sigmoid" if head.task_kind == "multi-label" else "softmax-rows"
    return activation_forward(logits, kind)


# ---------------------------------------------------------------------------
# cross-encoding
# ---------------------------------------------------------------------------


def cross_encode(adapter_out: Array, global_other: Encoder) -> Array:
    """Run a client's adapter activation through another modality's body.

    ``adapter_out`` is the output of the client's own input adapter,
    including its whitening layer, on the current batch: the body input
    that :func:`encode_train` caches as ``cache.inputs[1]``. Reusing it
    means the adapter, and its eigendecomposition, runs once per batch.
    The body runs in eval mode, so no state of ``global_other`` changes,
    and its parameters act as constants: no gradient ever reaches them.
    Bodies never whiten (see :func:`_architecture`).
    """
    return _forward(global_other.body, adapter_out)


# ---------------------------------------------------------------------------
# flattening
# ---------------------------------------------------------------------------


def _param_slots(part) -> list[tuple[object, str]]:
    """(owner, attribute) of every parameter array of ``part``, in flatten order."""
    stages = part.stages() if isinstance(part, Encoder) else [Stage(part.layer)]
    slots: list[tuple[object, str]] = []
    for stage in stages:
        slots += [(stage.dense, "weight"), (stage.dense, "bias")]
        if stage.whitening is not None:
            slots += [(stage.whitening, "gamma"), (stage.whitening, "beta")]
    return slots


def bind_params(part, buffer: Array | None = None) -> None:
    """Make one float64 vector the only home of ``part``'s parameters.

    ``part`` adopts ``buffer`` and its values: each layer's weight/bias and
    each whitening layer's gamma/beta is rebound to a reshaped view of it,
    in :func:`flatten_params` order, and it is stored as ``part.params``;
    nothing is copied. With None, the part's own arrays are first
    concatenated into a new vector. Writing the buffer then writes the
    layers. Invariant: never rebind a parameter attribute of a bound part
    (``layer.weight = w`` detaches that layer from ``params``); write
    through the buffer or the view (``part.params[...] = flat``).
    """
    slots = _param_slots(part)
    arrays = [getattr(owner, name) for owner, name in slots]
    n = sum(a.size for a in arrays)
    if buffer is None:
        buffer = np.concatenate([a.ravel() for a in arrays])
    elif buffer.shape != (n,):
        raise DimensionError(f"buffer has {buffer.shape} entries, part needs ({n},)")
    cursor = 0
    for (owner, name), arr in zip(slots, arrays):
        setattr(owner, name, buffer[cursor : cursor + arr.size].reshape(arr.shape))
        cursor += arr.size
    part.params = buffer


def bind_parts(parts: list, buffer: Array | None = None) -> Array:
    """Bind ``parts`` to consecutive slices of one vector, in order, and
    return it: ``buffer``, whose values they adopt (:func:`bind_params`),
    or, when None, a new vector holding their own values."""
    sizes = [part.params.size for part in parts]
    if buffer is None:
        buffer = np.concatenate([part.params for part in parts])
    if buffer.shape != (sum(sizes),):
        raise DimensionError(f"buffer has {buffer.shape} entries, parts need ({sum(sizes)},)")
    for part, start, n in zip(parts, np.cumsum([0] + sizes), sizes):
        bind_params(part, buffer[start : start + n])
    return buffer


def flatten_params(part) -> Array:
    """Canonical flat parameter vector: a copy of the part's buffer.

    Order: per stage (adapter first, body in order) weight, bias, then
    gamma and beta when the stage whitens; a model set lists encoders in
    modality order with the head last. Running statistics are excluded.
    """
    return part.params.copy()


def assign_params(part: Encoder | TaskHead, flat: Array) -> None:
    """Copy ``flat`` into the buffer ``part`` already owns.

    The in-place inverse of :func:`flatten_params`: no layer object is
    rebuilt and no array of ``part`` is replaced, so running statistics
    and every other reference to the part stay as they are. ``flat`` is
    copied, never aliased.
    """
    if flat.shape != part.params.shape:
        raise DimensionError(
            f"flat vector has {flat.shape} entries, "
            f"{type(part).__name__} needs {part.params.shape}"
        )
    part.params[...] = flat


def _copy_stage(stage: Stage) -> Stage:
    """Same structure, running statistics and ready flag; the parameter
    arrays stay shared until the new part binds its own buffer."""
    st = stage.whitening
    if st is not None:
        mean, cov, ready = st.running_mean.copy(), st.running_cov.copy(), st.stats_ready.copy()
        st = dataclasses.replace(st, running_mean=mean, running_cov=cov, stats_ready=ready)
    return Stage(dataclasses.replace(stage.dense), st, stage.activation)


def copy_part(template, buffer: Array):
    """A new encoder, head or model set with ``template``'s structure and
    running statistics. Its parameters live in ``buffer``, whose values it
    adopts."""
    if isinstance(template, GlobalModelSet):  # parts share its slices until bound to ``buffer``
        *encoders, head = [copy_part(p, p.params) for p in template.encoders + [template.head]]
        return GlobalModelSet(encoders, head, template.round, buffer)
    if isinstance(template, Encoder):
        body = [_copy_stage(s) for s in template.body]
        return Encoder(template.modality_id, _copy_stage(template.adapter), body, buffer)
    return TaskHead(dataclasses.replace(template.layer), template.task_kind, buffer)


def unflatten_params(flat: Array, template):
    """A new model part with ``template``'s structure and ``flat``'s parameters.

    Whitening running statistics are copied from ``template`` (they are
    state, not parameters). The new part owns a copy of ``flat``; NaN/Inf
    entries raise NumericError.
    """
    flat = as_tensor(flat)
    if flat.shape != template.params.shape:
        raise DimensionError(
            f"flat vector has {flat.shape} entries, template needs {template.params.shape}"
        )
    return copy_part(template, flat.copy())


# ---------------------------------------------------------------------------
# checkpoints
# ---------------------------------------------------------------------------


def whitening_states(encoders: list[Encoder]) -> list[WhiteningState]:
    """Every whitening layer of ``encoders``, in encoder and stage order."""
    return [s.whitening for enc in encoders for s in enc.stages() if s.whitening is not None]


def _payload_floats(
    input_dims: list[int], hidden_dim: int, feature_dim: int, n_labels: int, whitening: bool
) -> int:
    """Floats that follow a checkpoint header: the parameters of the
    encoders (see :func:`_architecture`) and head it declares and, per
    whitening layer, the ready flag, eps, momentum, running mean and
    running covariance."""
    floats = (len(input_dims) * feature_dim + 1) * n_labels
    for d in input_dims:
        for (n_in, n_out), _, w in _architecture(d, hidden_dim, feature_dim, whitening):
            floats += (n_in + 1) * n_out + (3 + 3 * w + w * w if w else 0)
    return floats


def save_model(model: GlobalModelSet, path) -> None:
    """Write the checkpoint: header, flat parameters, running statistics.

    The header declares the encoders' one layout (see :func:`_architecture`)
    that :func:`load_model` rebuilds. A parameter, whitening setting or
    running statistic that is not finite raises ValidationError, in the
    words :func:`load_model` uses, and no file is written."""
    enc0 = model.encoders[0]
    dims = [enc.input_dim for enc in model.encoders]
    payload = [("checkpoint parameter", flatten_params(model))]
    for layer, st in enumerate(whitening_states(model.encoders)):
        name = f"checkpoint whitening layer {layer}"
        setting = np.array([1.0 if st.stats_ready else 0.0, st.eps, st.momentum])
        payload += [
            (f"{name} setting", setting),
            (f"{name} running mean", st.running_mean),
            (f"{name} running covariance", st.running_cov.ravel()),
        ]
    for what, values in payload:
        bad = np.flatnonzero(~np.isfinite(values))
        if bad.size:
            raise ValidationError(f"{what} {bad[0]} is {float(values[bad[0]])!r}, not finite")
    header = struct.pack(
        f"<H{len(dims)}IIIIBBI",
        len(dims),
        *dims,
        enc0.hidden_dim,
        model.feature_dim,
        model.head.n_labels,
        TASK_KINDS.index(model.head.task_kind),
        0 if enc0.adapter.whitening is None else 1,
        model.round,
    )
    chunks = [values.astype("<f8").tobytes() for _, values in payload]
    write_binary(path, CHECKPOINT_MAGIC, CHECKPOINT_VERSION, header, *chunks)


def load_model(path) -> GlobalModelSet:
    reader = ByteReader(path, CHECKPOINT_MAGIC, CHECKPOINT_VERSION, "checkpoint")
    (n_modalities,) = reader.unpack("<H")
    if n_modalities < 1:
        raise FormatError("checkpoint declares zero modalities", offset=6)
    *input_dims, hidden_dim, feature_dim, n_labels, task_idx, whiten_flag, round_idx = (
        reader.unpack(f"<{n_modalities}IIIIBBI")
    )
    # the input dims, both widths and the label count: 4-byte fields from byte 8
    widths = [(f"modality {m} input dim", d) for m, d in enumerate(input_dims)] + [
        ("hidden width", hidden_dim),
        ("feature width", feature_dim),
        ("label count", n_labels),
    ]
    for i, (name, value) in enumerate(widths):
        if value == 0:
            raise FormatError(f"checkpoint declares {name} 0", offset=8 + 4 * i)
    if task_idx >= len(TASK_KINDS):
        raise FormatError(f"unknown task kind code {task_idx}", offset=reader.offset - 6)
    if whiten_flag not in (0, 1):
        raise FormatError(f"unknown whitening flag {whiten_flag}", offset=reader.offset - 5)
    # before the model is built: its size grows with the square of the declared width
    floats = _payload_floats(input_dims, hidden_dim, feature_dim, n_labels, bool(whiten_flag))
    reader.need(8 * floats)
    model = build_model(
        input_dims=input_dims,
        hidden_dim=hidden_dim,
        feature_dim=feature_dim,
        n_labels=n_labels,
        task_kind=TASK_KINDS[task_idx],
        use_whitening=bool(whiten_flag),
        rngs=itertools.repeat(np.random.default_rng(0)),
    )
    model.round = round_idx
    model.params[...] = reader.array("<f8", model.params.size, "checkpoint parameter")
    for layer, st in enumerate(whitening_states(model.encoders)):
        name = f"checkpoint whitening layer {layer}"
        offset = reader.offset
        header = reader.array("<f8", 3, f"{name} setting")
        mean = reader.array("<f8", st.dim, f"{name} running mean")
        cov_offset = reader.offset
        cov = reader.array("<f8", st.dim**2, f"{name} running covariance").reshape(st.dim, -1)
        if not is_symmetric(cov, 1e-12):
            raise FormatError(
                "checkpoint running covariance is not symmetric within 1e-12",
                offset=cov_offset,
            )
        # a flag of 0 or 1, then the eps and momentum ranges WhiteningState checks
        values = header.tolist()
        ready, eps, momentum = values
        for i, ok in enumerate([ready in (0.0, 1.0), eps >= 0.0, 0.0 < momentum <= 1.0]):
            if not ok:
                what = f"{('ready flag', 'eps', 'momentum')[i]} {values[i]}"
                raise FormatError(f"checkpoint whitening {what} is out of range", offset + 8 * i)
        st.stats_ready[...] = bool(ready)
        st.eps = eps
        st.momentum = momentum
        st.running_mean[...] = mean
        st.running_cov[...] = cov
    reader.expect_end()
    return model
