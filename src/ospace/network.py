"""Fully-connected head, weighted MSE loss, and the training loop.

The head maps concat(room feature, pooled people encoding) through ReLU
hidden layers to rows*cols logits squashed by a logistic so predictions
live in (0,1) like the targets.  Loss is mean squared error, optionally
weighted per example to counter single-group/multi-group imbalance.

Training is plain minibatch gradient descent (SGD or Adam) with a fixed
seeded shuffle per epoch; everything is deterministic given the seed.  The
returned weights are the epoch snapshot with the lowest validation loss
(training loss stands in when no validation split is given).

``train`` runs on one flat parameter vector (``layers.flatten``): every
layer's weights are views of it, and backward assigns each step's gradients
into a second vector of the same layout.  The optimizer updates the whole
vector, and the best-epoch snapshot is a copy of it.  Adam walks the vector
in fixed blocks of ``_ADAM_BLOCK`` elements, small enough that the block's
parameters, gradients, moments and two preallocated scratch blocks stay in
the L2 cache across its ufuncs, each of which writes with ``out=`` so a step
allocates nothing.  The arithmetic per element, and its order, is that of
the textbook per-array update, so the result is the same bits.

A checkpoint (version 2) is the magic line ``ospace-checkpoint-2``, then one
line of JSON, the header (version, grid spec, stride, seed, normalization
stats, both configs, ``blob_bytes`` and the ``sha256`` of the blob), then the
blob: every layer's W and then b, encoder layers first, as little-endian
float64 -- the layout of ``layers.flatten``.  Saving writes the arrays'
buffers as they are, so a file is byte-identical across runs with the same
seed; loading reads the blob into one buffer that the layers are views of.
Version 1 files, one JSON object with the weights as nested lists, still
load.  Loading either checks the header's field types, the blob's size and
hash, every layer's shape against the stored configs, the head's output
against the room grid, and that every weight is finite, so a corrupt file
fails with a ValueError that names the field or layer rather than at the
first matmul.
"""
from __future__ import annotations

import hashlib
import json
import math
import os
from dataclasses import dataclass, field

import numpy as np

from .core import DEFAULT_SPEC, OSpaceMap, RoomSpec, Scene, non_singleton_blocks
from .dataset import NormStats, fit_norm_stats, scene_features
from .encoder import (
    EncoderConfig,
    EncoderWeights,
    encode,
    encode_batch,
    encode_batch_backward,
    init_encoder,
    pad_features,
)
from .groundtruth import DEFAULT_STRIDE_M, GaussianParams, scene_target
from .layers import (
    Dense,
    flatten,
    init_dense,
    relu_stack_backward,
    relu_stack_forward,
    sigmoid,
)
from .room import RoomFeature

__all__ = [
    "HeadConfig",
    "HeadWeights",
    "TrainConfig",
    "ModelWeights",
    "TrainingDivergedError",
    "EpochStats",
    "init_head",
    "head_forward",
    "head_backward",
    "forward",
    "example_weight",
    "batch_forward",
    "batch_loss",
    "batch_backward",
    "train",
    "predict_heatmap",
    "model_from_obj",
    "save_model",
    "load_model",
    "CHECKPOINT_VERSION",
]

CHECKPOINT_VERSION = "ospace-checkpoint-2"
# The first line of a v2 file; a v1 file is one JSON object and starts "{".
_MAGIC = (CHECKPOINT_VERSION + "\n").encode("ascii")
_V1_VERSION = "ospace-checkpoint-1"
_BLOB_DTYPE = np.dtype("<f8")

# Elements per Adam block: 32768 float64 values, 256 KiB per array.
_ADAM_BLOCK = 32768


@dataclass(frozen=True)
class HeadConfig:
    input_dim: int = 2048
    hidden_widths: tuple[int, ...] = (1024,)
    output_dim: int = 120

    def __post_init__(self):
        object.__setattr__(self, "hidden_widths", tuple(self.hidden_widths))
        if self.input_dim < 1 or self.output_dim < 1:
            raise ValueError("head dimensions must be positive")
        if any(w < 1 for w in self.hidden_widths):
            raise ValueError(f"bad hidden widths {self.hidden_widths}")

    @property
    def dims(self) -> tuple[int, ...]:
        """Layer widths from the input on: layer i maps dims[i] to dims[i+1]."""
        return (self.input_dim,) + self.hidden_widths + (self.output_dim,)


@dataclass
class HeadWeights:
    config: HeadConfig
    layers: list[Dense] = field(default_factory=list)


@dataclass(frozen=True)
class TrainConfig:
    epochs: int = 100
    batch_size: int = 16
    learning_rate: float = 1e-3
    optimizer: str = "adam"
    multi_group_weight: float = 1.0
    seed: int = 0

    def __post_init__(self):
        if self.epochs < 0:
            raise ValueError("epochs must be non-negative")
        if self.batch_size < 1:
            raise ValueError("batch size must be positive")
        if not (math.isfinite(self.learning_rate) and self.learning_rate >= 0):
            raise ValueError(f"bad learning rate {self.learning_rate}")
        if self.optimizer not in ("sgd", "adam"):
            raise ValueError(f"unknown optimizer {self.optimizer!r}")
        if self.multi_group_weight < 1:
            raise ValueError("multi_group_weight must be at least 1")


@dataclass
class ModelWeights:
    encoder: EncoderWeights
    head: HeadWeights
    norm_stats: NormStats
    stride_m: float = DEFAULT_STRIDE_M
    seed: int = 0
    spec: RoomSpec = DEFAULT_SPEC


class TrainingDivergedError(RuntimeError):
    def __init__(self, epoch: int):
        super().__init__(f"training diverged: non-finite loss at epoch {epoch}")
        self.epoch = epoch


@dataclass(frozen=True)
class EpochStats:
    epoch: int
    train_loss: float
    val_loss: float | None


def init_head(config: HeadConfig, rng: np.random.Generator) -> HeadWeights:
    dims = config.dims
    layers = [init_dense(dims[i], dims[i + 1], rng) for i in range(len(dims) - 1)]
    return HeadWeights(config, layers)


def head_forward(x: np.ndarray, weights: HeadWeights):
    """ReLU hidden layers, affine output, logistic squash. Returns (y, cache)."""
    if x.ndim != 2 or x.shape[1] != weights.config.input_dim:
        raise ValueError(
            f"head input shape {x.shape} does not match dim {weights.config.input_dim}"
        )
    x, xs, relu_masks = relu_stack_forward(x, weights.layers[:-1])
    xs.append(x)
    z = x @ weights.layers[-1].W + weights.layers[-1].b
    y = sigmoid(z)
    return y, (xs, relu_masks, y)


def head_backward(upstream: np.ndarray, cache, weights: HeadWeights) -> np.ndarray:
    """Assign head gradients; returns gradient w.r.t. the concat input."""
    xs, relu_masks, y = cache
    g = upstream * y * (1.0 - y)
    last = weights.layers[-1]
    np.matmul(xs[-1].T, g, out=last.grad_W)
    np.sum(g, axis=0, out=last.grad_b)
    g = g @ last.W.T
    return relu_stack_backward(g, weights.layers[:-1], xs[:-1], relu_masks)


def forward(room: RoomFeature, people: np.ndarray, weights: HeadWeights) -> np.ndarray:
    """Single-example head output in (0,1)."""
    x = np.concatenate([room.values, np.asarray(people, dtype=float)])[None, :]
    y, _ = head_forward(x, weights)
    return y[0]


def example_weight(scene: Scene, multi_group_weight: float) -> float:
    """multi_group_weight for scenes with 2+ conversational groups, else 1."""
    return multi_group_weight if len(non_singleton_blocks(scene)) >= 2 else 1.0


def batch_forward(feats_list, room_values: np.ndarray,
                  enc_w: EncoderWeights, head_w: HeadWeights):
    """Forward a batch of person-feature sets; returns (pred (B, out), cache)."""
    batch, mask = pad_features(feats_list)
    people, enc_cache = encode_batch(batch, mask, enc_w)
    room_tiled = np.broadcast_to(room_values, (people.shape[0], room_values.shape[0]))
    x = np.concatenate([room_tiled, people], axis=1)
    pred, head_cache = head_forward(x, head_w)
    return pred, (enc_cache, head_cache, room_values.shape[0])


def batch_loss(pred: np.ndarray, targets: np.ndarray, weights_vec: np.ndarray) -> float:
    """Mean over the batch of the per-example weighted MSE."""
    per_ex = np.mean((pred - targets) ** 2, axis=1)
    return float(np.mean(weights_vec * per_ex))


def batch_backward(pred: np.ndarray, targets: np.ndarray, weights_vec: np.ndarray,
                   cache, enc_w: EncoderWeights, head_w: HeadWeights) -> None:
    """Assign gradients of batch_loss to the layer gradient buffers."""
    enc_cache, head_cache, room_dim = cache
    b, out_dim = pred.shape
    g = (2.0 / (out_dim * b)) * weights_vec[:, None] * (pred - targets)
    gx = head_backward(g, head_cache, head_w)
    encode_batch_backward(gx[:, room_dim:], enc_cache, enc_w)


class _Sgd:
    """p -= lr * g over the flat parameter vector."""

    def __init__(self, lr: float, params: np.ndarray, grads: np.ndarray):
        self.lr = lr
        self.params = params
        self.grads = grads

    def step(self) -> None:
        self.params -= self.lr * self.grads


class _Adam:
    """Adam (Kingma & Ba, 2015) over the flat vector, one cache block at a time.

    Per element this is m = b1 m + (1 - b1) g, v = b2 v + (1 - b2) g g and
    p -= lr (m / c1) / (sqrt(v / c2) + eps), evaluated in that order.
    """

    def __init__(self, lr: float, params: np.ndarray, grads: np.ndarray,
                 beta1: float = 0.9, beta2: float = 0.999, eps: float = 1e-8):
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.t = 0
        self.params = params
        self.grads = grads
        self._m = np.zeros_like(params)
        self._v = np.zeros_like(params)
        block = min(_ADAM_BLOCK, params.size)
        self._a = np.empty(block)
        self._b = np.empty(block)

    def step(self) -> None:
        self.t += 1
        b1, b2 = self.beta1, self.beta2
        c1 = 1.0 - b1 ** self.t
        c2 = 1.0 - b2 ** self.t
        n = self.params.size
        for lo in range(0, n, _ADAM_BLOCK):
            hi = min(lo + _ADAM_BLOCK, n)
            p, g = self.params[lo:hi], self.grads[lo:hi]
            m, v = self._m[lo:hi], self._v[lo:hi]
            a, b = self._a[:hi - lo], self._b[:hi - lo]
            m *= b1
            np.multiply(g, 1.0 - b1, out=a)
            m += a
            v *= b2
            np.multiply(g, 1.0 - b2, out=a)
            a *= g
            v += a
            np.divide(v, c2, out=a)
            np.sqrt(a, out=a)
            a += self.eps
            np.divide(m, c1, out=b)
            b *= self.lr
            b /= a
            p -= b


def train(train_scenes, room: RoomFeature, enc_cfg: EncoderConfig,
          head_cfg: HeadConfig, cfg: TrainConfig, *, val_scenes=None,
          spec: RoomSpec = DEFAULT_SPEC, stride_m: float = DEFAULT_STRIDE_M,
          gauss: GaussianParams = GaussianParams()):
    """Fit encoder + head on labeled scenes.

    Returns (ModelWeights, [EpochStats...]).  Weights are the best epoch by
    validation loss (plain unweighted MSE); with no validation scenes the
    training loss decides.  Raises TrainingDivergedError on non-finite loss.
    """
    train_scenes = list(train_scenes)
    if not train_scenes:
        raise ValueError("no training scenes")
    if head_cfg.input_dim != room.dim + enc_cfg.output_dim:
        raise ValueError(
            f"head input {head_cfg.input_dim} != room {room.dim} + people "
            f"{enc_cfg.output_dim}"
        )
    if head_cfg.output_dim != spec.n_cells:
        raise ValueError(
            f"head output {head_cfg.output_dim} != grid cells {spec.n_cells}"
        )

    stats = fit_norm_stats(train_scenes)
    rng = np.random.default_rng(cfg.seed)
    enc_w = init_encoder(enc_cfg, rng)
    head_w = init_head(head_cfg, rng)

    feats = [scene_features(s, stats) for s in train_scenes]
    targets = np.stack(
        [scene_target(s, stride_m, gauss, spec).flatten() for s in train_scenes]
    )
    ex_w = np.array([example_weight(s, cfg.multi_group_weight) for s in train_scenes])

    val_feats = None
    val_targets = None
    if val_scenes:
        val_feats = [scene_features(s, stats) for s in val_scenes]
        val_targets = np.stack(
            [scene_target(s, stride_m, gauss, spec).flatten() for s in val_scenes]
        )

    def eval_val() -> float | None:
        if val_feats is None:
            return None
        pred, _ = batch_forward(val_feats, room.values, enc_w, head_w)
        return float(np.mean((pred - val_targets) ** 2))

    params, grads = flatten(enc_w.layers + head_w.layers)
    opt_cls = _Sgd if cfg.optimizer == "sgd" else _Adam
    opt = opt_cls(cfg.learning_rate, params, grads)
    n = len(train_scenes)

    best = params.copy()
    best_loss = math.inf
    trace: list[EpochStats] = []

    for epoch in range(1, cfg.epochs + 1):
        perm = rng.permutation(n)
        running = 0.0
        for start in range(0, n, cfg.batch_size):
            idx = perm[start: start + cfg.batch_size]
            pred, cache = batch_forward([feats[i] for i in idx], room.values,
                                        enc_w, head_w)
            loss = batch_loss(pred, targets[idx], ex_w[idx])
            if not math.isfinite(loss):
                raise TrainingDivergedError(epoch)
            batch_backward(pred, targets[idx], ex_w[idx], cache, enc_w, head_w)
            opt.step()
            running += loss * len(idx)
        train_loss = running / n
        val_loss = eval_val()
        if val_loss is not None and not math.isfinite(val_loss):
            raise TrainingDivergedError(epoch)
        trace.append(EpochStats(epoch, train_loss, val_loss))
        keep = val_loss if val_loss is not None else train_loss
        if keep < best_loss:
            best_loss = keep
            best[...] = params

    params[...] = best
    model = ModelWeights(encoder=enc_w, head=head_w, norm_stats=stats,
                         stride_m=stride_m, seed=cfg.seed, spec=spec)
    return model, trace


def predict_heatmap(scene: Scene, model: ModelWeights, room: RoomFeature) -> OSpaceMap:
    """Network heatmap for one scene."""
    feats = scene_features(scene, model.norm_stats)
    people = encode(feats, model.encoder)
    y = forward(room, people, model.head)
    return OSpaceMap(y.reshape(model.spec.rows, model.spec.cols), model.spec)


# JSON type names for field errors.
_JSON_TYPES = {dict: "object", list: "array", str: "string", int: "integer",
               float: "number", bool: "boolean", type(None): "null"}


def _name(what: str, where: str, key: str = "") -> str:
    """``what`` (the document) and the dotted path of a field inside it."""
    path = ".".join(p for p in (where, key) if p)
    return f"{what} {path}" if path else what


def _field(obj, where: str, key: str, kinds: tuple, what: str = "checkpoint"):
    """``obj[key]``, required to be one of the JSON types ``kinds``.

    ``what`` names the document being read and ``where`` names ``obj`` in
    it ("" for the top level), so a missing or mistyped field fails with a
    ValueError that names both.
    """
    if not isinstance(obj, dict):
        raise ValueError(f"{_name(what, where)}: expected a JSON object, got "
                         f"{_JSON_TYPES.get(type(obj), 'data')}")
    name = _name(what, where, key)
    if key not in obj:
        raise ValueError(f"{name}: missing")
    v = obj[key]
    if isinstance(v, bool) or not isinstance(v, kinds):
        want = " or ".join(_JSON_TYPES[k] for k in kinds)
        raise ValueError(f"{name}: expected {want}, got "
                         f"{_JSON_TYPES.get(type(v), type(v).__name__)}")
    return v


def _number(obj, where: str, key: str, what: str = "checkpoint") -> float:
    try:
        return float(_field(obj, where, key, (float, int), what))
    except OverflowError:  # an integer too large for a float
        raise ValueError(f"{_name(what, where, key)}: out of range") from None


def _ints(obj, where: str, key: str) -> tuple[int, ...]:
    v = _field(obj, where, key, (list,))
    if any(isinstance(x, bool) or not isinstance(x, int) for x in v):
        raise ValueError(f"{_name('checkpoint', where, key)}: expected an "
                         f"array of integers")
    return tuple(v)


def _construct(where: str, cls, what: str = "checkpoint", **kw):
    """``cls(**kw)``, its ValueError reworded to name the document and field."""
    try:
        return cls(**kw)
    except ValueError as e:
        raise ValueError(f"{_name(what, where)}: {e}") from None


def _model_shell(obj, version: str) -> ModelWeights:
    """A checkpoint's spec, stats and configs, as a model with no layers yet.

    Both versions store these fields alike; the head's output is checked
    against the grid here, before any weight is read.
    """
    got = _field(obj, "", "version", (str,))
    if got != version:
        raise ValueError(f"checkpoint version {got!r}, expected {version!r}")
    sp = _field(obj, "", "spec", (dict,))
    spec = _construct("spec", RoomSpec, rows=_field(sp, "spec", "rows", (int,)),
                      cols=_field(sp, "spec", "cols", (int,)),
                      cell_m=_number(sp, "spec", "cell_m"))
    ns = _field(obj, "", "norm_stats", (dict,))
    stats = _construct("norm_stats", NormStats, **{
        k: _number(ns, "norm_stats", k)
        for k in ("mean_x", "mean_y", "std_x", "std_y")})
    ec = _field(_field(obj, "", "encoder", (dict,)), "encoder", "config", (dict,))
    enc_cfg = _construct(
        "encoder.config", EncoderConfig,
        input_dim=_field(ec, "encoder.config", "input_dim", (int,)),
        max_people=_field(ec, "encoder.config", "max_people", (int,)),
        layer_widths=_ints(ec, "encoder.config", "layer_widths"))
    hc = _field(_field(obj, "", "head", (dict,)), "head", "config", (dict,))
    head_cfg = _construct(
        "head.config", HeadConfig,
        input_dim=_field(hc, "head.config", "input_dim", (int,)),
        hidden_widths=_ints(hc, "head.config", "hidden_widths"),
        output_dim=_field(hc, "head.config", "output_dim", (int,)))
    if head_cfg.output_dim != spec.n_cells:
        raise ValueError(
            f"checkpoint head layer {len(head_cfg.dims) - 2}: output "
            f"{head_cfg.output_dim} != grid cells {spec.n_cells}")
    return ModelWeights(encoder=EncoderWeights(enc_cfg), head=HeadWeights(head_cfg),
                        norm_stats=stats, stride_m=_number(obj, "", "stride_m"),
                        seed=_field(obj, "", "seed", (int,)), spec=spec)


def _checked_layers(section: str, pairs, dims) -> list[Dense]:
    """Layers from (W, b) arrays checked against the widths ``dims`` of their
    config, and for finite weights."""
    if len(pairs) != len(dims) - 1:
        raise ValueError(f"checkpoint {section}: {len(pairs)} layers, config "
                         f"has {len(dims) - 1}")
    layers = []
    for i, (W, b) in enumerate(pairs):
        if W.shape != (dims[i], dims[i + 1]) or b.shape != (dims[i + 1],):
            raise ValueError(
                f"checkpoint {section} layer {i}: W{W.shape} b{b.shape}, config "
                f"needs W{(dims[i], dims[i + 1])} b{(dims[i + 1],)}")
        if not (np.isfinite(W).all() and np.isfinite(b).all()):
            raise ValueError(f"checkpoint {section} layer {i}: non-finite weight")
        layers.append(Dense(W, b))
    return layers


def _v1_pairs(obj, section: str) -> list:
    """The (W, b) arrays of one section of a v1 checkpoint object."""
    pairs = []
    for i, o in enumerate(_field(obj[section], section, "layers", (list,))):
        where = f"{section} layer {i}"
        W, b = (_field(o, where, k, (list,)) for k in ("W", "b"))
        try:
            pairs.append((np.array(W, dtype=float), np.array(b, dtype=float)))
        except (TypeError, ValueError) as e:  # ragged or non-numeric entries
            raise ValueError(f"checkpoint {where}: {e}") from None
    return pairs


def model_from_obj(obj) -> ModelWeights:
    """The model in a v1 checkpoint: one JSON object, weights as nested lists."""
    model = _model_shell(obj, _V1_VERSION)
    for weights, section in ((model.encoder, "encoder"), (model.head, "head")):
        weights.layers = _checked_layers(section, _v1_pairs(obj, section),
                                         weights.config.dims)
    return model


def _header_obj(model: ModelWeights, blob_bytes: int, sha256: str) -> dict:
    return {
        "version": CHECKPOINT_VERSION,
        "spec": {
            "rows": model.spec.rows,
            "cols": model.spec.cols,
            "cell_m": model.spec.cell_m,
        },
        "stride_m": model.stride_m,
        "seed": model.seed,
        "norm_stats": {
            "mean_x": model.norm_stats.mean_x,
            "mean_y": model.norm_stats.mean_y,
            "std_x": model.norm_stats.std_x,
            "std_y": model.norm_stats.std_y,
        },
        "encoder": {
            "config": {
                "input_dim": model.encoder.config.input_dim,
                "max_people": model.encoder.config.max_people,
                "layer_widths": list(model.encoder.config.layer_widths),
            },
        },
        "head": {
            "config": {
                "input_dim": model.head.config.input_dim,
                "hidden_widths": list(model.head.config.hidden_widths),
                "output_dim": model.head.config.output_dim,
            },
        },
        "blob_bytes": blob_bytes,
        "sha256": sha256,
    }


def _n_params(dims) -> int:
    return sum(d_in * d_out + d_out for d_in, d_out in zip(dims, dims[1:]))


def _blob_pairs(flat: np.ndarray, dims, start: int):
    """(W, b) views of ``flat`` for the layers ``dims`` from ``start`` on;
    returns them and the offset after the last one."""
    pairs = []
    for d_in, d_out in zip(dims, dims[1:]):
        W = flat[start:start + d_in * d_out].reshape(d_in, d_out)
        start += d_in * d_out
        pairs.append((W, flat[start:start + d_out]))
        start += d_out
    return pairs, start


def save_model(model: ModelWeights, path) -> None:
    """Write ``model`` as a v2 checkpoint (see the module docstring)."""
    arrays = [np.ascontiguousarray(a, dtype=_BLOB_DTYPE)
              for layer in model.encoder.layers + model.head.layers
              for a in (layer.W, layer.b)]
    digest = hashlib.sha256()
    for a in arrays:
        digest.update(a)
    header = _header_obj(model, sum(a.nbytes for a in arrays), digest.hexdigest())
    with open(path, "wb") as f:
        f.write(_MAGIC)
        f.write(json.dumps(header, separators=(",", ":")).encode("utf-8") + b"\n")
        for a in arrays:
            f.write(memoryview(a))


def _load_v2(f) -> ModelWeights:
    """The model in a v2 checkpoint whose magic line ``f`` has just read."""
    try:
        header = json.loads(f.readline())
    except ValueError as e:  # bad JSON or bad UTF-8
        raise ValueError(f"checkpoint header: not a line of JSON ({e})") from None
    model = _model_shell(header, CHECKPOINT_VERSION)
    blob_bytes = _field(header, "", "blob_bytes", (int,))
    sha256 = _field(header, "", "sha256", (str,))
    need = _BLOB_DTYPE.itemsize * sum(_n_params(w.config.dims)
                                      for w in (model.encoder, model.head))
    if blob_bytes != need:
        raise ValueError(f"checkpoint blob_bytes: {blob_bytes}, the configs "
                         f"need {need}")
    # Sized from the file before anything is allocated for it.
    size = os.fstat(f.fileno()).st_size - f.tell()
    if size != blob_bytes:
        what = "truncated" if size < blob_bytes else "trailing bytes"
        raise ValueError(f"checkpoint blob: {size} bytes after the header, "
                         f"blob_bytes is {blob_bytes} ({what})")
    buf = bytearray(blob_bytes)  # writable, and the vector's only copy
    if f.readinto(buf) != blob_bytes or f.read(1):
        raise ValueError("checkpoint blob: file changed while being read")
    if hashlib.sha256(buf).hexdigest() != sha256:
        raise ValueError("checkpoint blob: sha256 mismatch (corrupted file)")
    flat = np.frombuffer(buf, dtype=_BLOB_DTYPE)
    start = 0
    for weights, section in ((model.encoder, "encoder"), (model.head, "head")):
        pairs, start = _blob_pairs(flat, weights.config.dims, start)
        weights.layers = _checked_layers(section, pairs, weights.config.dims)
    return model


def load_model(path) -> ModelWeights:
    """Read a checkpoint of either version; a bad one raises ValueError."""
    with open(path, "rb") as f:
        if f.read(len(_MAGIC)) == _MAGIC:
            return _load_v2(f)
        f.seek(0)
        try:
            obj = json.loads(f.read())
        except ValueError as e:  # bad JSON or bad UTF-8
            raise ValueError(f"checkpoint: neither a v2 file nor v1 JSON "
                             f"({e})") from None
    return model_from_obj(obj)
