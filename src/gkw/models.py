"""Word-prediction architectures, loss, training loop, checkpoints.

Two variants share one engine. "cnn-pool" interleaves convolutions with
max pooling, collapses time with a global max, and finishes with dense
layers. "psc" stacks convolutions without pooling, ends in a linear
convolution with one filter per vocabulary word, and aggregates the
resulting per-position word scores with logsumexp pooling; the pre-pooling
score matrix doubles as a localization map.

Both produce a per-word presence probability via a final sigmoid and train
against soft or binary targets with a summed binary cross-entropy.
"""

from __future__ import annotations

import json
import os
import struct
from dataclasses import dataclass

import numpy as np

from . import ops
from .errors import ConfigError, DataError, FormatError, InvalidInputError, NumericError
from .features import FEATURE_DIM
from .tensor import Tensor, no_grad

_CKPT_MAGIC = b"GKWM"
_CKPT_VERSION = 2  # version 1 had no dtype field and stored float32

CNN_POOL = "cnn-pool"
PSC = "psc"

LOSS_CLAMP = 1e-7


# -- architecture description ------------------------------------------------

def _size(arg):
    return isinstance(arg, int) and arg >= 1


def _conv_activation(arg):
    return arg in ops.CONV_ACTIVATIONS


def _dense_activation(arg):
    return arg in ops.DENSE_ACTIVATIONS


def _number(arg):
    return isinstance(arg, (int, float))


# layer kind -> a check for each of its arguments
_LAYER_ARGS = {
    "conv": (_size, _size, _conv_activation),  # width, filters
    "pool": (_size,),
    "maxtime": (),
    "lse": (_number,),
    "dense": (_size, _dense_activation),
    "sigmoid": (),
}


def _check_layer(layer):
    checks = _LAYER_ARGS.get(layer[0]) if layer else None
    if checks is None or len(layer) != 1 + len(checks) or not all(
        check(arg) for check, arg in zip(checks, layer[1:])
    ):
        raise ConfigError(f"malformed layer {layer!r}")


@dataclass(frozen=True)
class ArchitectureSpec:
    """Layer stack as data. Layers are tuples:

    ("conv", width, filters, activation)   valid conv over time; "relu"/"none"
    ("pool", size)                         non-overlapping max pool
    ("maxtime",)                           max over remaining time
    ("lse", r)                             logsumexp pooling over time
    ("dense", units, activation)
    ("sigmoid",)                           output squash (psc)
    """

    variant: str
    vocab_size: int
    input_dim: int
    layers: tuple

    def __post_init__(self):
        if self.variant not in (CNN_POOL, PSC):
            raise ConfigError(f"unknown variant {self.variant!r}")
        if self.vocab_size < 1 or self.input_dim < 1:
            raise ConfigError("vocab_size and input_dim must be >= 1")
        for layer in self.layers:
            _check_layer(layer)
        convs = [l for l in self.layers if l[0] == "conv"]
        if self.variant == PSC:
            if not convs or self.r is None:
                raise ConfigError("psc needs a convolution and a log-average-exp layer")
            if convs[-1][2] != self.vocab_size:
                raise ConfigError(
                    f"psc final convolution must have vocab_size={self.vocab_size} "
                    f"filters, got {convs[-1][2]}"
                )
            if not self.r > 0:
                raise ConfigError(f"pooling sharpness r must be > 0, got {self.r}")
        else:
            last = self.layers[-1]
            if last[0] != "dense" or last[1] != self.vocab_size:
                raise ConfigError(
                    f"cnn-pool must end in a dense layer of vocab_size="
                    f"{self.vocab_size} units"
                )

    @property
    def r(self):
        for layer in self.layers:
            if layer[0] == "lse":
                return layer[1]
        return None

    @property
    def min_frames(self):
        """Smallest input length every valid convolution and pool accepts."""
        need = 1
        for layer in reversed(self.layers):
            if layer[0] == "conv":
                need = need + layer[1] - 1
            elif layer[0] == "pool":
                need = (need - 1) * layer[1] + 1
        return need

    def time_extents(self, frames):
        """Frame counts after each conv/pool layer for a `frames`-long input."""
        extents = []
        t = frames
        for layer in self.layers:
            if layer[0] == "conv":
                t = int(ops.conv_out_lengths(t, layer[1]))
                extents.append(t)
            elif layer[0] == "pool":
                t = int(ops.pool_out_lengths(t, layer[1]))
                extents.append(t)
        return extents

    def to_dict(self):
        return {
            "variant": self.variant,
            "vocab_size": self.vocab_size,
            "input_dim": self.input_dim,
            "layers": [list(l) for l in self.layers],
        }

    @classmethod
    def from_dict(cls, d):
        try:
            return cls(
                variant=d["variant"],
                vocab_size=int(d["vocab_size"]),
                input_dim=int(d["input_dim"]),
                layers=tuple(tuple(l) for l in d["layers"]),
            )
        except KeyError as err:
            raise FormatError(f"architecture description missing key {err}") from None

    def canonical_json(self):
        return json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))


def cnn_pool(vocab_size, input_dim=FEATURE_DIM, conv_filters=(64, 256, 1024),
             dense_units=4096):
    """Conv/pool stack with a global temporal max and a dense head."""
    f1, f2, f3 = conv_filters
    layers = (
        ("conv", 9, f1, "relu"),
        ("pool", 3),
        ("conv", 10, f2, "relu"),
        ("pool", 3),
        ("conv", 11, f3, "relu"),
        ("maxtime",),
        ("dense", dense_units, "relu"),
        ("dense", vocab_size, "sigmoid"),
    )
    return ArchitectureSpec(CNN_POOL, vocab_size, input_dim, layers)


def psc(vocab_size, input_dim=FEATURE_DIM, conv_filters=(96, 96, 96, 96, 96), r=1.0):
    """All-conv stack ending in one linear filter per word, pooled softly."""
    layers = tuple(
        ("conv", 9 if i == 0 else 10, f, "relu") for i, f in enumerate(conv_filters)
    ) + (
        ("conv", 10, vocab_size, "none"),
        ("lse", float(r)),
        ("sigmoid",),
    )
    return ArchitectureSpec(PSC, vocab_size, input_dim, layers)


def toy_spec(variant, vocab_size=3, input_dim=8):
    """Reduced-width instance of either architecture for gradient checks."""
    if variant == CNN_POOL:
        return cnn_pool(vocab_size, input_dim, conv_filters=(4, 5, 6), dense_units=10)
    if variant == PSC:
        return psc(vocab_size, input_dim, conv_filters=(5, 5, 5, 5, 5))
    raise ConfigError(f"unknown variant {variant!r}")


# -- the model ----------------------------------------------------------------

def _parameter_layout(spec):
    """(name, shape, initial limit) of each parameter of `spec`, in
    declaration order; a bias starts at zero and has limit None."""
    d = spec.input_dim
    conv_i = dense_i = 0
    for layer in spec.layers:
        if layer[0] == "conv":
            _, width, filters, activation = layer
            conv_i += 1
            limit = _init_limit(activation, width * d, width * filters)
            yield f"conv{conv_i}.filters", (filters, width, d), limit
            yield f"conv{conv_i}.bias", (filters,), None
            d = filters
        elif layer[0] == "dense":
            _, units, activation = layer
            dense_i += 1
            yield f"dense{dense_i}.weights", (units, d), _init_limit(activation, d, units)
            yield f"dense{dense_i}.bias", (units,), None
            d = units


def _init_limit(activation, fan_in, fan_out):
    # He-uniform ahead of ReLU, Glorot-uniform for linear/sigmoid
    if activation == "relu":
        return np.sqrt(6.0 / fan_in)
    return np.sqrt(6.0 / (fan_in + fan_out))


# values per float64 draw of a seeded initialisation, cast into the
# parameter at once: a build holds no float64 copy of a whole parameter
# (cnn-pool's dense1 would take 33.5 MB). The generator yields the same
# stream however its draws are split, so the values do not depend on this
_DRAW = 1 << 16


def _uniform_into(rng, limit, data):
    """Fill `data` with rng.uniform(-limit, limit, size=data.shape) cast to
    its dtype, drawn `_DRAW` values at a time."""
    flat = data.reshape(-1)
    for lo in range(0, flat.size, _DRAW):
        flat[lo:lo + _DRAW] = rng.uniform(-limit, limit, size=min(_DRAW, flat.size - lo))
    return data


class SpeechModel:
    """Parameter store plus the forward pass for one ArchitectureSpec."""

    def __init__(self, spec, seed=0, dtype=np.float32, arrays=None):
        """A seeded initialisation, or with `arrays` (name -> array of the
        parameter's shape and `dtype`) a model that holds those arrays
        themselves and draws nothing."""
        self.spec = spec
        self.dtype = dtype
        self.params = {}
        self.last_time_extents = []
        rng = np.random.default_rng(seed) if arrays is None else None
        for name, shape, limit in _parameter_layout(spec):
            if arrays is not None:
                data = arrays[name]
            elif limit is None:
                data = np.zeros(shape, dtype=dtype)
            else:
                data = _uniform_into(rng, limit, np.empty(shape, dtype=dtype))
            self.params[name] = Tensor(data, requires_grad=True, _op=name)

    def parameters(self):
        return list(self.params.items())

    def forward(self, features, lengths=None, return_scores=False):
        """Features (B, T, D) with valid `lengths` (default: every row is
        whole), or a single (T, D) matrix without them.

        The batch is packed on entry: utterance b's first lengths[b] frames,
        the utterances back to back, with no padding (see `ops`). Returns the
        (B, vocab_size) probability Tensor. With `return_scores` (psc only)
        returns (probs, h, h_lengths): h is the packed (N', W) score Tensor
        that log-average-exp pooling reduces to the word scores, in which
        utterance b owns the h_lengths[b] rows after those of the utterances
        before it.
        """
        if return_scores and self.spec.variant != PSC:
            raise ConfigError(
                f"model variant is {self.spec.variant!r}; only psc has a score map"
            )
        x = np.asarray(features, dtype=self.dtype)
        if x.ndim == 2:
            if lengths is not None:
                raise DataError(f"lengths given with a single (T, D) utterance: {lengths}")
            x = x[None]
        if x.ndim != 3:
            raise DataError(f"features must be (T, D) or (B, T, D), got {x.shape}")
        B, T, D = x.shape
        if D != self.spec.input_dim:
            raise DataError(
                f"feature dimension {D} != expected {self.spec.input_dim}"
            )
        if lengths is None:
            lengths = np.full(B, T, dtype=np.int64)
        lengths = np.asarray(lengths, dtype=np.int64)
        if lengths.shape != (B,) or (lengths < 1).any() or (lengths > T).any():
            raise DataError(f"lengths must be {B} values in [1, {T}], got {lengths}")
        packed = x[np.arange(T) < lengths[:, None]]
        need = self.spec.min_frames
        if (lengths < need).any():
            short = int(np.argmin(lengths))
            raise InvalidInputError(
                f"utterance at batch index {short} has {int(lengths[short])} "
                f"frames; this architecture needs at least {need}"
            )

        t = Tensor(packed)
        lens = lengths
        # two tensors per conv or dense layer, in `_parameter_layout`'s order
        params = iter(self.params.values())
        for layer in self.spec.layers:
            if layer[0] == "conv":
                _, width, _, activation = layer
                t = ops.conv1d_valid(t, next(params), next(params), lengths=lens,
                                     activation=activation)
                lens = ops.conv_out_lengths(lens, width)
            elif layer[0] == "pool":
                t = ops.max_pool1d(t, layer[1], lengths=lens)
                lens = ops.pool_out_lengths(lens, layer[1])
            elif layer[0] == "maxtime":
                t = ops.max_over_time(t, lengths=lens)
                lens = None
            elif layer[0] == "lse":
                h, h_lengths = t, lens
                t = ops.logsumexp_pool(t, layer[1], lengths=lens)
                lens = None
            elif layer[0] == "dense":
                t = ops.dense(t, next(params), next(params), activation=layer[2])
            elif layer[0] == "sigmoid":
                t = ops.sigmoid(t)
        self.last_time_extents = self.spec.time_extents(T)
        return (t, h, h_lengths) if return_scores else t

    def predict(self, features):
        """Single utterance (T, D) -> (vocab_size,) probabilities."""
        with no_grad():
            return self.forward(features).data[0].copy()

    def state(self):
        return {name: p.data.copy() for name, p in self.params.items()}


def forward_cnn(model, features):
    """Single-utterance convenience for the cnn-pool variant: (W,) probs."""
    if model.spec.variant != CNN_POOL:
        raise ConfigError(f"model variant is {model.spec.variant!r}, not cnn-pool")
    return model.predict(features)


def forward_psc(model, features):
    """Single-utterance psc forward: ((W,) probs, (T', W) localization)."""
    with no_grad():
        probs, h, h_lengths = model.forward(features, return_scores=True)
    return probs.data[0].copy(), h.data.copy()


# -- loss ----------------------------------------------------------------------

def bow_loss(prediction, target):
    """Summed binary cross-entropy against per-word targets in [0, 1].

    L = -sum_w [ y_w log f_w + (1 - y_w) log(1 - f_w) ], averaged over the
    batch when prediction is 2-D. Predictions are clamped to
    [LOSS_CLAMP, 1 - LOSS_CLAMP] before the logs.
    """
    pred = prediction if isinstance(prediction, Tensor) else Tensor(prediction)
    y = np.asarray(target, dtype=pred.data.dtype)
    if y.shape != pred.data.shape:
        raise DataError(f"target shape {y.shape} != prediction shape {pred.data.shape}")
    batch = pred.data.shape[0] if pred.data.ndim == 2 else 1
    p = np.clip(pred.data, LOSS_CLAMP, 1.0 - LOSS_CLAMP)
    per_entry = -(y * np.log(p) + (1.0 - y) * np.log1p(-p))
    value = per_entry.sum() / batch
    out = Tensor(np.asarray(value, dtype=pred.data.dtype), _parents=(pred,), _op="bow_loss")
    if out.requires_grad:
        def backward():
            inside = (pred.data >= LOSS_CLAMP) & (pred.data <= 1.0 - LOSS_CLAMP)
            g = np.where(inside, (p - y) / (p * (1.0 - p)), 0.0) / batch
            pred.accumulate_grad(out.grad * g)
        out._backward = backward
    return out


# -- training -------------------------------------------------------------------

@dataclass
class TrainConfig:
    learning_rate: float = None  # None -> variant default
    batch_size: int = 32
    epochs: int = 60
    seed: int = 0
    patience: int = 5

    def resolve_lr(self, variant):
        if self.learning_rate is not None:
            if not self.learning_rate > 0:
                raise ConfigError(f"learning rate must be > 0, got {self.learning_rate}")
            return self.learning_rate
        return 1e-3 if variant == PSC else 1e-4

    def validate(self):
        if self.batch_size < 1:
            raise ConfigError(f"batch size must be >= 1, got {self.batch_size}")
        if self.epochs < 1:
            raise ConfigError(f"epochs must be >= 1, got {self.epochs}")
        if self.patience < 1:
            raise ConfigError(f"patience must be >= 1, got {self.patience}")


def _frame_counts(spec, feature_map, ids):
    """Frames of each utterance of `ids`, as a dict id -> count, looking
    each up in `feature_map` once. Refuses an id with no features, with
    features that are not (T, spec.input_dim), or with fewer frames than
    `spec` needs."""
    frames = {}
    for utt_id in ids:
        try:
            feats = feature_map[utt_id]
        except KeyError:
            raise DataError(f"utterance {utt_id!r} has no features") from None
        if np.ndim(feats) != 2 or np.shape(feats)[1] != spec.input_dim:
            raise DataError(
                f"utterance {utt_id!r} has features of shape {np.shape(feats)}; "
                f"expected (T, {spec.input_dim})"
            )
        n = frames[utt_id] = len(feats)
        if n < spec.min_frames:
            raise InvalidInputError(
                f"utterance {utt_id!r} has {n} frames; "
                f"the {spec.variant} architecture needs at least {spec.min_frames}"
            )
    return frames


def _pad_batch(feature_map, frames, ids, dtype):
    """(batch, lengths): the utterances of `ids` zero-padded into one
    (B, T, D) array, with `frames` giving each one's length, so that each
    is looked up in `feature_map` once."""
    lengths = np.array([frames[i] for i in ids], dtype=np.int64)
    batch = None
    for row, utt_id in enumerate(ids):
        feats = feature_map[utt_id]
        if batch is None:
            batch = np.zeros((len(ids), int(lengths.max()), feats.shape[1]), dtype=dtype)
        batch[row, : lengths[row]] = feats
    return batch, lengths


def _length_ordered_batches(feature_map, frames, ids, batch_size, dtype):
    """Padded batches over `ids` in (length, id) order, for forward-only
    passes: yields (rows, chunk, batch, lengths), where rows are the
    positions in `ids` of the utterances in `chunk`.

    The batches depend only on the set of ids, not on their order.
    Neighbours in length share a batch, so the padded array that `forward`
    packs on entry is small (9.7% padding against 40.1% in manifest order
    on 127-610 frame utterances at B=32).
    """
    order = sorted(range(len(ids)), key=lambda k: (frames[ids[k]], ids[k]))
    for start in range(0, len(order), batch_size):
        rows = order[start : start + batch_size]
        chunk = [ids[k] for k in rows]
        batch, lengths = _pad_batch(feature_map, frames, chunk, dtype)
        yield rows, chunk, batch, lengths


def _epoch_loss(model, feature_map, target_map, ids, batch_size):
    frames = _frame_counts(model.spec, feature_map, ids)
    total = 0.0
    with no_grad():
        for _, chunk, batch, lengths in _length_ordered_batches(
            feature_map, frames, ids, batch_size, model.dtype
        ):
            targets = np.stack([target_map[i] for i in chunk])
            loss = bow_loss(model.forward(batch, lengths), targets)
            total += loss.data.item() * len(chunk)
    return total / len(ids)


def train(feature_map, target_map, train_ids, dev_ids, spec, config=None,
          progress=None, dtype=np.float32):
    """Fit a model; returns (model-with-best-dev-params, metadata dict).

    Shuffles per epoch with the seeded generator and runs each batch
    packed: `forward` puts its utterances back to back, so no padding frame
    is computed and no utterance's gradient depends on another's frames.
    Stops early when dev loss has not improved for `patience` epochs.
    `progress`, if given, is called as progress(epoch, train_loss,
    dev_loss) after each epoch.

    Adam steps each parameter inside backward, as soon as its gradient is
    complete, and drops that gradient, so a step holds one layer's
    parameter gradients at a time and none lives past the backward sweep.
    A non-finite gradient raises a `NumericError` naming the epoch, batch
    and parameter after the parameters whose gradients finished earlier in
    that sweep have been stepped; no model is returned then, so nothing
    sees the half-stepped parameters.

    The best parameters are copied only when the next epoch is about to
    overwrite them: the first copy allocates, later ones are written into
    it. A run whose last epoch is its best copies nothing and returns the
    model as it is; otherwise the best copy becomes the returned model's
    parameters, without being copied again.
    """
    from .optim import Adam

    config = config or TrainConfig()
    config.validate()
    if not train_ids:
        raise DataError("no training utterances")
    if not dev_ids:
        raise DataError("no dev utterances for early stopping")
    frames = _frame_counts(spec, feature_map, [*train_ids, *dev_ids])
    for utt_id in list(train_ids) + list(dev_ids):
        if utt_id not in target_map:
            raise DataError(f"utterance {utt_id!r} has no target")
        if target_map[utt_id].shape != (spec.vocab_size,):
            raise DataError(
                f"utterance {utt_id!r}: target dimension "
                f"{target_map[utt_id].shape} != ({spec.vocab_size},)"
            )

    lr = config.resolve_lr(spec.variant)
    model = SpeechModel(spec, seed=config.seed, dtype=dtype)
    opt = Adam(model.parameters(), lr=lr)
    rng = np.random.default_rng(config.seed)
    train_ids = list(train_ids)
    dev_ids = list(dev_ids)

    history = {"train_loss": [], "dev_loss": []}
    best_dev = np.inf
    best_state = None
    best_epoch = 0
    stale = 0
    epochs_run = 0
    for epoch in range(1, config.epochs + 1):
        epochs_run = epoch
        if epoch > 1 and best_epoch == epoch - 1:
            # keep the best parameters before this epoch overwrites them
            if best_state is None:
                best_state = model.state()
            else:
                for name, p in model.params.items():
                    np.copyto(best_state[name], p.data)
        order = [train_ids[k] for k in rng.permutation(len(train_ids))]
        running = 0.0
        for start in range(0, len(order), config.batch_size):
            chunk = order[start : start + config.batch_size]
            batch, lengths = _pad_batch(feature_map, frames, chunk, model.dtype)
            targets = np.stack([target_map[i] for i in chunk])
            try:
                loss = bow_loss(model.forward(batch, lengths), targets)
                loss.backward(on_leaf_grad=opt.apply)
                opt.step()
            except NumericError as err:
                raise NumericError(
                    f"epoch {epoch}, batch {start // config.batch_size} "
                    f"(utterances {', '.join(chunk)}): {err}"
                ) from err
            running += loss.data.item() * len(chunk)
        train_loss = running / len(order)
        dev_loss = _epoch_loss(model, feature_map, target_map, dev_ids, config.batch_size)
        history["train_loss"].append(train_loss)
        history["dev_loss"].append(dev_loss)
        if progress is not None:
            progress(epoch, train_loss, dev_loss)
        if dev_loss < best_dev:
            best_dev = dev_loss
            best_epoch = epoch
            stale = 0
        else:
            stale += 1
            if stale >= config.patience:
                break

    if best_epoch < epochs_run:  # epoch 1's finite dev loss always beats np.inf
        model = SpeechModel(spec, dtype=dtype, arrays=best_state)
    metadata = {
        "variant": spec.variant,
        "seed": config.seed,
        "learning_rate": lr,
        "batch_size": config.batch_size,
        "epochs_run": epochs_run,
        "best_epoch": best_epoch,
        "train_loss": history["train_loss"],
        "dev_loss": history["dev_loss"],
    }
    return model, metadata


def score_utterances(model, feature_map, ids, batch_size=32, on_map=None):
    """Forward a list of utterances; returns an (N, vocab_size) float32
    matrix whose row k belongs to ids[k].

    `feature_map` is any mapping from id to (T, D) features: a dict, or one
    that reads a file at each lookup and keeps nothing
    (`CorpusManifest.feature_files`), so that scoring holds the model and
    about one batch, not the whole split. Each utterance is looked up at
    most twice: once for its length, before any batch runs, so every
    utterance is checked before any output is made, and once in its batch.

    The utterances run in batches of `batch_size` taken in (length, id)
    order, not in the order of `ids`, so any order of the same ids gives
    the same rows to the bit. With `on_map` (psc only), each utterance's
    (T', W) score map from the same batched pass is handed over as
    on_map(utt_id, h): a view into the batch, valid only during the call.
    The calls come in (length, id) order.
    """
    frames = _frame_counts(model.spec, feature_map, ids)
    out = np.zeros((len(ids), model.spec.vocab_size), dtype=np.float32)
    with no_grad():
        for rows, chunk, batch, lengths in _length_ordered_batches(
            feature_map, frames, ids, batch_size, model.dtype
        ):
            if on_map is None:
                probs = model.forward(batch, lengths)
            else:
                probs, h, h_lengths = model.forward(batch, lengths, return_scores=True)
                maps = np.split(h.data, np.cumsum(h_lengths)[:-1])
                for utt_id, utt_map in zip(chunk, maps):
                    on_map(utt_id, utt_map)
            out[rows] = probs.data
    return out


# -- checkpoints -----------------------------------------------------------------

def save_checkpoint(path, model, vocab_fingerprint, metadata):
    """Binary checkpoint: architecture, vocabulary fingerprint, metadata,
    the parameters' float width in bytes (4 or 8), and the parameter
    tensors in declaration order, in the model's own precision."""
    if len(vocab_fingerprint) != 8:
        raise FormatError("vocabulary fingerprint must be 8 bytes")
    spec_blob = model.spec.canonical_json().encode("utf-8")
    meta_blob = json.dumps(metadata, sort_keys=True, separators=(",", ":")).encode("utf-8")
    itemsize = np.dtype(model.dtype).itemsize
    with open(path, "wb") as fh:
        fh.write(_CKPT_MAGIC)
        fh.write(struct.pack("<I", _CKPT_VERSION))
        fh.write(struct.pack("<I", len(spec_blob)))
        fh.write(spec_blob)
        fh.write(vocab_fingerprint)
        fh.write(struct.pack("<I", len(meta_blob)))
        fh.write(meta_blob)
        fh.write(struct.pack("<I", itemsize))
        for _, p in model.parameters():
            arr = np.ascontiguousarray(p.data, dtype=f"<f{itemsize}")
            fh.write(struct.pack("<I", arr.ndim))
            fh.write(struct.pack(f"<{arr.ndim}I", *arr.shape))
            fh.write(arr)  # the array's own buffer, not a bytes copy of it


def _read_exact(fh, n, path, what, dtype=None):
    """The next `n` bytes of the checkpoint: as bytes, or with `dtype` read
    straight into a new 1-D array of that dtype. Nothing is allocated or
    read before the file is known to hold n more bytes."""
    if n > os.fstat(fh.fileno()).st_size - fh.tell():  # a corrupt size
        raise FormatError(f"{path}: truncated checkpoint while reading {what}")
    if dtype is None:
        blob = fh.read(n)
        got = len(blob)
    else:
        blob = np.empty(n // np.dtype(dtype).itemsize, dtype=dtype)
        got = fh.readinto(blob)
    if got != n:
        raise FormatError(f"{path}: truncated checkpoint while reading {what}")
    return blob


def load_checkpoint(path, vocab=None, variant=None, dtype=np.float32):
    """Read a checkpoint; returns (model, vocab_fingerprint, metadata).

    The parameters come back in `dtype`, whatever width they were stored
    at (version 1 files hold float32). With `vocab` given, refuses a
    fingerprint mismatch; with `variant` given, refuses a different
    architecture family.
    """
    with open(path, "rb") as fh:
        magic = fh.read(4)
        if magic != _CKPT_MAGIC:
            raise FormatError(f"{path}: bad magic, not a checkpoint file")
        (version,) = struct.unpack("<I", _read_exact(fh, 4, path, "version"))
        if version not in (1, _CKPT_VERSION):
            raise FormatError(f"{path}: unsupported checkpoint version {version}")
        (spec_len,) = struct.unpack("<I", _read_exact(fh, 4, path, "header"))
        try:
            spec = ArchitectureSpec.from_dict(
                json.loads(_read_exact(fh, spec_len, path, "architecture"))
            )
        except (json.JSONDecodeError, ConfigError, TypeError, ValueError) as err:
            raise FormatError(f"{path}: bad architecture block: {err}") from None
        fingerprint = _read_exact(fh, 8, path, "fingerprint")
        (meta_len,) = struct.unpack("<I", _read_exact(fh, 4, path, "header"))
        try:
            metadata = json.loads(_read_exact(fh, meta_len, path, "metadata"))
        except ValueError as err:  # undecodable UTF-8 or JSON
            raise FormatError(f"{path}: bad metadata block: {err}") from None
        if not isinstance(metadata, dict):
            raise FormatError(f"{path}: metadata block is not a JSON object")
        itemsize = 4
        if version >= 2:
            (itemsize,) = struct.unpack("<I", _read_exact(fh, 4, path, "dtype"))
            if itemsize not in (4, 8):
                raise FormatError(f"{path}: unsupported parameter width {itemsize} bytes")

        if variant is not None and spec.variant != variant:
            raise DataError(
                f"{path}: checkpoint holds a {spec.variant!r} model, "
                f"but {variant!r} was requested"
            )
        if vocab is not None and vocab.fingerprint() != fingerprint:
            raise DataError(
                f"{path}: vocabulary fingerprint mismatch: checkpoint has "
                f"{fingerprint.hex()}, current vocabulary is "
                f"{vocab.fingerprint().hex()}"
            )

        arrays = {}
        for name, expected, _ in _parameter_layout(spec):
            (rank,) = struct.unpack("<I", _read_exact(fh, 4, path, f"{name} rank"))
            if rank != len(expected):
                raise FormatError(f"{path}: parameter {name}: rank {rank} unexpected")
            shape = struct.unpack(
                f"<{rank}I", _read_exact(fh, 4 * rank, path, f"{name} shape")
            )
            if shape != expected:
                raise FormatError(
                    f"{path}: parameter {name}: stored shape {shape} != "
                    f"expected {expected}"
                )
            # read straight into the array: at the stored width it is the
            # parameter itself, so the load peaks near the parameters' size
            stored = _read_exact(fh, itemsize * int(np.prod(shape)), path, f"{name} values",
                                 dtype=f"<f{itemsize}")
            arrays[name] = stored.reshape(shape).astype(dtype, copy=False)
        trailing = fh.read(1)
    if trailing:
        raise FormatError(f"{path}: trailing bytes after parameters")
    try:
        model = SpeechModel(spec, dtype=dtype, arrays=arrays)
    except NumericError as err:  # a Tensor refuses NaN and Inf
        raise FormatError(f"{path}: stored parameter values are not finite: {err}") from None
    return model, fingerprint, metadata


# -- gradient checking -------------------------------------------------------------

def gradient_check(spec, seed=0, step=1e-5, frames=None):
    """Central-difference check of every parameter gradient at 64-bit.

    `frames` is the input's length, or a sequence of lengths for a ragged
    batch (default: one utterance of spec.min_frames + 6 frames). Returns
    (max relative error, worst parameter name).
    """
    if not step > 0:
        raise ConfigError(f"finite-difference step must be > 0, got {step}")
    rng = np.random.default_rng(seed)
    model = SpeechModel(spec, seed=seed + 1, dtype=np.float64)
    frames = np.atleast_1d(spec.min_frames + 6 if frames is None else frames)
    draws = {row: rng.normal(size=(n, spec.input_dim)) * 0.5 for row, n in enumerate(frames)}
    x, lengths = _pad_batch(draws, dict(enumerate(frames)), list(draws), np.float64)
    y = (rng.uniform(size=(len(lengths), spec.vocab_size)) < 0.5).astype(np.float64)

    def loss_value():
        with no_grad():
            return bow_loss(model.forward(x, lengths), y).data.item()

    loss = bow_loss(model.forward(x, lengths), y)
    loss.backward()
    analytic = {
        name: (p.grad.copy() if p.grad is not None else np.zeros_like(p.data))
        for name, p in model.parameters()
    }

    worst = 0.0
    worst_name = ""
    for name, p in model.parameters():
        a = analytic[name]
        it = np.nditer(p.data, flags=["multi_index"])
        for _ in it:
            idx = it.multi_index
            orig = p.data[idx]
            p.data[idx] = orig + step
            hi = loss_value()
            p.data[idx] = orig - step
            lo = loss_value()
            p.data[idx] = orig
            numeric = (hi - lo) / (2.0 * step)
            rel = abs(a[idx] - numeric) / max(abs(a[idx]), abs(numeric), 1e-3)
            if rel > worst:
                worst = rel
                worst_name = name
    return worst, worst_name
