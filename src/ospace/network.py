"""Fully-connected head, weighted MSE loss, and the training loop.

The head maps concat(room feature, pooled people encoding) through ReLU
hidden layers to rows*cols logits squashed by a logistic so predictions
live in (0,1) like the targets.  Loss is mean squared error, optionally
weighted per example to counter single-group/multi-group imbalance.

Training is plain minibatch gradient descent (SGD or Adam) with a fixed
seeded shuffle per epoch; everything is deterministic given the seed.  The
returned weights are the epoch snapshot with the lowest validation loss
(training loss stands in when no validation split is given).

``batch_forward`` is the only code that runs the encoder and head
together, in training, validation and prediction, and its cache keeps
activations only.  Validation and ``predict_heatmaps`` share one chunk
loop over it, ``_forward_chunks``: two or more scenes go in chunks of a
fixed number of scenes, the last chunk padded with one-person filler sets
that cost one encoder row each, so at the widths the tests and the CLI
use a scene's heatmap bits depend on that scene alone; one scene is a
chunk of one, the head at one row.  Only one chunk's activations are
alive at a time, so validation memory does not grow with the split.

``train`` runs on one flat parameter vector, the store ``layers.init_store``
allocates and draws the initial weights into: every layer's weights are
views of it, laid out by ``layers.view_layers`` in the checkpoint's order,
and backward assigns each step's gradients into a second vector of the same
layout (``layers.attach_grads``).  No layer has an array of its own at any
point, so nothing is copied into the store.  The optimizer updates the whole
vector, the best-epoch snapshot is a copy of it, and a checkpoint's blob is
its bytes.  Gradients exist only inside ``train``, which takes grad_W and
grad_b off every layer before it returns, so a trained model, like a loaded
one, holds its weights and nothing else; running backward outside ``train``
takes a ``layers.attach_grads`` (or ``flatten``) first.  Adam walks the
vector in fixed blocks of ``_ADAM_BLOCK`` elements, small enough that the
block's parameters, gradients, moments and two preallocated scratch blocks
stay in the L2 cache across its ufuncs, each of which writes with ``out=``
so a step allocates nothing.  The update is Kingma and Ba's efficient form,
with the bias corrections folded into a step size and an epsilon per step.
Adam skips a block whose gradients have all been exactly zero so far, which
changes no bit: its moments are still zero, so the update is
alpha_t 0 / (0 + eps_t) = 0.  A room vector of zeros makes the head's room
rows such blocks for the whole run, and since the moments start as
untouched zero pages, those rows cost no optimizer memory either.

A checkpoint (version 2, the only one read) is the magic line
``ospace-checkpoint-2``, then one line of JSON, the header (version, grid
spec, stride, seed, normalization stats, both configs, ``blob_bytes`` and the
``sha256`` of the blob), then the blob: every layer's W and then b, encoder
layers first, as little-endian float64 -- the layout of ``layers.view_layers``.
The header holds the spec, the stats and the configs in their ``jsondoc``
form, each dataclass's fields in declaration order, which
``jsondoc.from_obj`` reads back.  Saving writes the arrays' buffers as they
are, so a file is byte-identical across runs with the same seed; loading
reads the blob into one buffer that the layers are views of.  Loading checks
the magic line, the header's field types, the blob's size against the
configs and the file and its hash, the head's output against the room grid,
and that every weight is finite, so a corrupt file (or a version 1 file,
one JSON object) fails with a ValueError that names the field or layer
rather than at the first matmul.

The sha256 of the blob runs beside the file I/O, on one helper thread
(``_hasher``) that lives only inside ``save_model`` or ``load_model``:
saving hashes while it writes and then writes the header again with the
digest, and loading hashes each chunk of ``_READ_CHUNK`` bytes while it
reads the next.  Neither changes a byte of the format or the order of the
checks.  Saving opens, and so truncates, the file before the digest is
known, so a save that fails in the hash, or is interrupted before the last
header write, leaves the placeholder digest: the file loads as a sha256
mismatch, and the checkpoint that was at the path is gone.
"""
from __future__ import annotations

import hashlib
import json
import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .core import (DEFAULT_SPEC, OSpaceMap, RoomSpec, Scene,
                   check_person_count, non_singleton_blocks)
from .dataset import NormStats, fit_norm_stats, scene_features
# nothing here calls ``encode`` or ``init_encoder``: they stay because
# perfbench's probe table names both as ``network`` attributes, and its
# traced-run test looks up every target
from .encoder import (  # noqa: F401
    EncoderConfig,
    EncoderWeights,
    encode,
    encode_batch,
    encode_batch_backward,
    init_encoder,
    pad_features,
    sort_rows,
)
from .groundtruth import DEFAULT_STRIDE_M, GaussianParams, scene_target
from .jsondoc import from_obj, get_field, get_number, to_obj
from .layers import (
    Dense,
    attach_grads,
    init_store,
    relu_stack_backward,
    relu_stack_forward,
    sigmoid,
    store_size,
    view_layers,
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
    "predict_heatmaps",
    "save_model",
    "load_model",
    "CHECKPOINT_VERSION",
]

CHECKPOINT_VERSION = "ospace-checkpoint-2"
_MAGIC = (CHECKPOINT_VERSION + "\n").encode("ascii")  # a checkpoint's first line
_BLOB_DTYPE = np.dtype("<f8")
_CKPT = "checkpoint"  # the document name in field errors

# Elements per Adam block: 32768 float64 values, 256 KiB per array.
_ADAM_BLOCK = 32768

# Bytes per read of a checkpoint's blob.  A blob of more than one chunk is
# hashed on a helper thread, a chunk behind the reads; one of at most one
# chunk is read and hashed inline, since a thread costs about 60 us to start
# and hides only the read, 0.15 ms at the acceptance widths' 1.15 MB.
_READ_CHUNK = 4 << 20

# Scenes per chunk of a multi-scene ``predict_heatmaps`` call.  Measured on a
# 2-vCPU Xeon with OpenBLAS, the time per scene of a full chunk is flat from
# 24 to 64 scenes at both the acceptance and the CLI default widths, and
# grows below 24 (default widths: 0.47-0.52 ms at 32, 0.65-0.67 ms at 8);
# a smaller chunk wastes less padding on a short last chunk.
_CHUNK = 32


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
        if not (math.isfinite(self.multi_group_weight)
                and self.multi_group_weight >= 1):
            raise ValueError(f"multi_group_weight must be finite and at least 1, "
                             f"got {self.multi_group_weight}")


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
    _, layers = init_store(_layer_shapes(config), rng)
    return HeadWeights(config, layers)


def _layer_shapes(*configs) -> list[tuple[int, int]]:
    """(d_in, d_out) of every layer of ``configs``, in checkpoint order."""
    return [shape for c in configs for shape in zip(c.dims, c.dims[1:])]


def _split(layers, enc_cfg: EncoderConfig, head_cfg: HeadConfig):
    """(EncoderWeights, HeadWeights) of a store's layers, encoder first."""
    n_enc = len(enc_cfg.layer_widths)
    return (EncoderWeights(enc_cfg, layers[:n_enc]),
            HeadWeights(head_cfg, layers[n_enc:]))


def head_forward(x: np.ndarray, weights: HeadWeights):
    """ReLU hidden layers, affine output, logistic squash. Returns (y, cache)."""
    if x.ndim != 2 or x.shape[1] != weights.config.input_dim:
        raise ValueError(
            f"head input shape {x.shape} does not match dim {weights.config.input_dim}"
        )
    xs = relu_stack_forward(x, weights.layers[:-1])
    z = xs[-1] @ weights.layers[-1].W
    z += weights.layers[-1].b
    y = sigmoid(z)
    return y, (xs, y)


def head_backward(upstream: np.ndarray, cache, weights: HeadWeights) -> np.ndarray:
    """Assign head gradients; returns gradient w.r.t. the concat input."""
    xs, y = cache
    g = upstream * y * (1.0 - y)
    last = weights.layers[-1]
    np.matmul(xs[-1].T, g, out=last.grad_W)
    np.sum(g, axis=0, out=last.grad_b)
    g = g @ last.W.T
    return relu_stack_backward(g, weights.layers[:-1], xs)


def forward(room: RoomFeature, people: np.ndarray, weights: HeadWeights) -> np.ndarray:
    """Single-example head output in (0,1).

    Nothing in ``ospace`` calls it; it stays because ``ospace`` exports it,
    tests use it as the head at one row and perfbench's probe table names it.
    """
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
    p -= alpha_t m / (sqrt(v) + eps_t), evaluated in that order, with
    c1 = 1 - b1^t, c2 = 1 - b2^t, alpha_t = lr sqrt(c2) / c1 and
    eps_t = eps sqrt(c2): the paper's efficient ordering (its section 2) of
    p -= lr (m / c1) / (sqrt(v / c2) + eps), equal to it in exact arithmetic
    and within a few ulps in floating point, with one divide per element
    instead of two.

    A block whose gradients have all been zero so far is skipped: its m and
    v are still +0.0, and a zero (or -0.0) gradient leaves them +0.0 and
    moves p by alpha_t 0 / (0 + eps_t) = +0.0, so walking it would change
    no bit (for a finite lr and eps > 0, as ``train`` uses, eps_t > 0).  The
    first non-zero gradient in a block (NaN, or one too small to square,
    included) makes it live for the rest of the run.
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
        # np.zeros, not zeros_like: its pages stay unmapped until a block
        # first goes live, and a block that never does costs no memory
        self._m = np.zeros(params.shape)
        self._v = np.zeros(params.shape)
        block = min(_ADAM_BLOCK, params.size)
        self._a = np.empty(block)
        self._b = np.empty(block)
        # one flag per block: True while every gradient it has seen was zero
        self._all_zero = [True] * -(-params.size // _ADAM_BLOCK)

    def step(self) -> None:
        self.t += 1
        b1, b2 = self.beta1, self.beta2
        c1 = 1.0 - b1 ** self.t
        c2 = 1.0 - b2 ** self.t
        alpha_t = self.lr * math.sqrt(c2) / c1
        eps_t = self.eps * math.sqrt(c2)
        n = self.params.size
        for k, lo in enumerate(range(0, n, _ADAM_BLOCK)):
            hi = min(lo + _ADAM_BLOCK, n)
            p, g = self.params[lo:hi], self.grads[lo:hi]
            if self._all_zero[k]:
                if not g.any():
                    continue
                self._all_zero[k] = False
            m, v = self._m[lo:hi], self._v[lo:hi]
            a, b = self._a[:hi - lo], self._b[:hi - lo]
            m *= b1
            np.multiply(g, 1.0 - b1, out=a)
            m += a
            v *= b2
            np.multiply(g, 1.0 - b2, out=a)
            a *= g
            v += a
            np.sqrt(v, out=a)
            a += eps_t
            np.multiply(m, alpha_t, out=b)
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
    # the encoder's layers and then the head's, drawn in that order into
    # the one store, as ``init_encoder`` and then ``init_head`` would
    params, layers = init_store(_layer_shapes(enc_cfg, head_cfg), rng)
    enc_w, head_w = _split(layers, enc_cfg, head_cfg)

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
        pred = _forward_chunks(val_feats, room.values, enc_w, head_w)
        return float(np.mean((pred - val_targets) ** 2))

    grads = attach_grads(layers)
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
        # the last step's activations are not kept through validation; a
        # step keeps its predecessor's until its own forward is done, since
        # freeing them earlier returns the pages and faults them back in
        del pred, cache
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
    for layer in layers:
        del layer.grad_W, layer.grad_b  # the model must not keep grads alive
    model = ModelWeights(encoder=enc_w, head=head_w, norm_stats=stats,
                         stride_m=stride_m, seed=cfg.seed, spec=spec)
    return model, trace


def _forward_chunks(feats, room_values: np.ndarray, enc_w: EncoderWeights,
                    head_w: HeadWeights) -> np.ndarray:
    """``batch_forward``'s (len(feats), out) predictions, chunk by chunk.

    One set is a chunk of one.  Two or more go in chunks of exactly
    ``_CHUNK``, the last one padded with one-person sets of zeros, each of
    which costs one encoder row and one head row.  Only one chunk's
    activations are alive at a time, however many sets there are.
    """
    filler = np.zeros((1, enc_w.config.input_dim))
    size = _CHUNK if len(feats) > 1 else 1
    pred = np.empty((len(feats), head_w.config.output_dim))
    for lo in range(0, len(feats), size):
        chunk = feats[lo:lo + size]
        n = len(chunk)
        # the cache is dropped here, before the next chunk's forward
        y = batch_forward(chunk + [filler] * (size - n), room_values,
                          enc_w, head_w)[0]
        pred[lo:lo + n] = y[:n]
    return pred


def predict_heatmaps(scenes, model: ModelWeights, room: RoomFeature) -> list[OSpaceMap]:
    """Network heatmaps for ``scenes``, in their order.

    Each scene's rows are sorted as ``encode`` sorts them, and the scenes
    go through ``_forward_chunks``, the chunk loop that validation uses
    too.  One scene is a chunk of one, unpadded: the bits of ``encode`` and
    ``forward``, the head at one row.  Two or more go in chunks of exactly
    ``_CHUNK``, the last one padded with one-person sets of zeros, so the
    head always runs at ``_CHUNK`` rows, and a filler set costs one encoder
    row.  At the encoder widths the tests and the CLI use, a scene's bits
    depend on that scene alone; they can differ in the last few places
    from a one-scene call's.  An unpadded last chunk would break that: on
    OpenBLAS a gemm of fewer than 9 rows, or the gemv of one, rounds
    differently, and a lone one-person scene would put the encoder at one
    row.

    A scene with no persons, or more than the encoder's ``max_people``,
    raises ValueError naming its frame before any network work.
    """
    scenes = list(scenes)
    for scene in scenes:
        check_person_count(len(scene.persons), model.encoder.config.max_people,
                           f"frame {scene.frame_id!r}")
    spec = model.spec
    feats = [sort_rows(scene_features(s, model.norm_stats)) for s in scenes]
    y = _forward_chunks(feats, room.values, model.encoder, model.head)
    return [OSpaceMap(row.reshape(spec.rows, spec.cols), spec) for row in y]


def predict_heatmap(scene: Scene, model: ModelWeights, room: RoomFeature) -> OSpaceMap:
    """Network heatmap for one scene: ``predict_heatmaps`` of that scene alone."""
    return predict_heatmaps([scene], model, room)[0]


def _object_at(obj, path: str) -> dict:
    """The JSON object at the dotted ``path`` in a checkpoint object."""
    where = ""
    for key in path.split("."):
        obj = get_field(obj, where, key, (dict,), _CKPT)
        where = f"{where}.{key}" if where else key
    return obj


def _model_shell(header) -> ModelWeights:
    """A checkpoint header's spec, stats and configs, as a model with no
    layers yet.

    The head's output is checked against the grid here, before any weight
    is read.
    """
    got = get_field(header, "", "version", (str,), _CKPT)
    if got != CHECKPOINT_VERSION:
        raise ValueError(f"checkpoint version {got!r}, expected "
                         f"{CHECKPOINT_VERSION!r}")
    spec, stats, enc_cfg, head_cfg = (
        from_obj(cls, _object_at(header, path), path, _CKPT)
        for cls, path in ((RoomSpec, "spec"), (NormStats, "norm_stats"),
                          (EncoderConfig, "encoder.config"),
                          (HeadConfig, "head.config")))
    if head_cfg.output_dim != spec.n_cells:
        raise ValueError(
            f"checkpoint head layer {len(head_cfg.dims) - 2}: output "
            f"{head_cfg.output_dim} != grid cells {spec.n_cells}")
    return ModelWeights(encoder=EncoderWeights(enc_cfg), head=HeadWeights(head_cfg),
                        norm_stats=stats,
                        stride_m=get_number(header, "", "stride_m", _CKPT),
                        seed=get_field(header, "", "seed", (int,), _CKPT), spec=spec)


def _hasher() -> ThreadPoolExecutor:
    """The one helper thread that hashes a checkpoint's blob beside its file
    I/O: hashlib releases the GIL while it hashes a buffer of 2 KiB or more.

    Submit the updates of one ``hashlib.sha256`` to it in blob order and
    read the digest with ``_digest``.  Use it in a ``with`` block, which
    joins the thread on every path, so no thread outlives ``save_model`` or
    ``load_model``.
    """
    return ThreadPoolExecutor(1, thread_name_prefix="ospace-checkpoint-sha256")


def _digest(sha, hashed) -> str:
    """The hex digest of ``sha`` once every task in ``hashed``, the futures of
    the submitted updates, has run; the first one that raised raises its
    exception again, the same object."""
    for future in hashed:
        future.result()
    return sha.hexdigest()


def save_model(model: ModelWeights, path) -> None:
    """Write ``model`` as a checkpoint (see the module docstring).

    The blob is hashed on a helper thread while it is written, after a
    header whose ``sha256`` is a placeholder of the digest's width; the real
    header then goes over it, so the file has the bytes it would have had
    with the digest written first.  A destination that cannot seek, a pipe,
    gets the digest before the header, in the same order.

    The file is truncated before the digest is known, so a save that fails
    in the hash, or is interrupted before the real header is written, leaves
    a file of full size whose header holds the placeholder: it loads as a
    sha256 mismatch, and the checkpoint that was at ``path`` is gone.
    """
    arrays = [np.ascontiguousarray(a, dtype=_BLOB_DTYPE)
              for layer in model.encoder.layers + model.head.layers
              for a in (layer.W, layer.b)]
    header = {"version": CHECKPOINT_VERSION, "spec": to_obj(model.spec),
              "stride_m": model.stride_m, "seed": model.seed,
              "norm_stats": to_obj(model.norm_stats),
              "encoder": {"config": to_obj(model.encoder.config)},
              "head": {"config": to_obj(model.head.config)},
              "blob_bytes": sum(a.nbytes for a in arrays),
              "sha256": None}

    def header_line(sha256: str) -> bytes:
        header["sha256"] = sha256
        return json.dumps(header, separators=(",", ":")).encode("utf-8") + b"\n"

    sha = hashlib.sha256()

    def hash_blob() -> None:
        for a in arrays:
            sha.update(a)

    with _hasher() as hasher:
        # the hashing starts first: opening an existing file truncates it,
        # which takes about as long as writing it again.  One task for the
        # whole blob: a task per array cost about 0.15 ms more per save at
        # the acceptance widths
        hashed = [hasher.submit(hash_blob)]
        with open(path, "wb") as f:
            seekable = f.seekable()
            f.write(_MAGIC)
            # 64 hex digits, the width of the digest that goes over them
            f.write(header_line("0" * 64 if seekable else _digest(sha, hashed)))
            for a in arrays:
                f.write(memoryview(a))
            if seekable:
                f.seek(len(_MAGIC))
                f.write(header_line(_digest(sha, hashed)))


def _cut_layers(model: ModelWeights, flat: np.ndarray) -> str | None:
    """Give ``model`` its layers as views of ``flat``, cut by the widths of
    its configs, which ``blob_bytes`` matched; returns the error naming the
    first layer with a non-finite weight, or None."""
    enc_cfg, head_cfg = model.encoder.config, model.head.config
    model.encoder, model.head = _split(
        view_layers(flat, _layer_shapes(enc_cfg, head_cfg)), enc_cfg, head_cfg)
    for section, weights in (("encoder", model.encoder), ("head", model.head)):
        for i, layer in enumerate(weights.layers):
            if not (np.isfinite(layer.W).all() and np.isfinite(layer.b).all()):
                return f"checkpoint {section} layer {i}: non-finite weight"
    return None


def load_model(path) -> ModelWeights:
    """Read a checkpoint (see the module docstring); a bad one raises ValueError.

    A blob of more than ``_READ_CHUNK`` bytes is hashed on a helper thread
    chunk by chunk as it is read, and its weights are checked for finiteness
    while the tail is hashed.  Errors come in one order whatever the path: a
    file that changed while being read, then a sha256 mismatch, then the
    first layer with a non-finite weight.
    """
    with open(path, "rb") as f:
        if f.read(len(_MAGIC)) != _MAGIC:
            raise ValueError(f"checkpoint: the first line is not {CHECKPOINT_VERSION}")
        try:
            header = json.loads(f.readline())
        except ValueError as e:  # bad JSON or bad UTF-8
            raise ValueError(f"checkpoint header: not a line of JSON ({e})") from None
        model = _model_shell(header)
        blob_bytes = get_field(header, "", "blob_bytes", (int,), _CKPT)
        sha256 = get_field(header, "", "sha256", (str,), _CKPT)
        need = _BLOB_DTYPE.itemsize * store_size(
            _layer_shapes(model.encoder.config, model.head.config))
        if blob_bytes != need:
            raise ValueError(f"checkpoint blob_bytes: {blob_bytes}, the configs "
                             f"need {need}")
        # Sized from the file before anything is allocated for it.
        size = os.fstat(f.fileno()).st_size - f.tell()
        if size != blob_bytes:
            what = "truncated" if size < blob_bytes else "trailing bytes"
            raise ValueError(f"checkpoint blob: {size} bytes after the header, "
                             f"blob_bytes is {blob_bytes} ({what})")
        # writable, and the vector's only copy; readinto fills every byte
        buf = np.empty(blob_bytes, np.uint8)
        sha, hashed = hashlib.sha256(), []
        with _hasher() as hasher:
            read = 0
            for lo in range(0, blob_bytes, _READ_CHUNK):
                chunk = buf[lo:lo + _READ_CHUNK]
                n = f.readinto(chunk)
                read += n
                if n != chunk.size:
                    break
                if chunk.size == blob_bytes:  # one chunk: no read to hide
                    sha.update(chunk)
                else:
                    hashed.append(hasher.submit(sha.update, chunk))
            if read != blob_bytes or f.read(1):
                raise ValueError("checkpoint blob: file changed while being read")
            # on this thread while the helper hashes the tail; a non-finite
            # weight is reported only once the hash has matched
            bad = _cut_layers(model, buf.view(_BLOB_DTYPE))
            if _digest(sha, hashed) != sha256:
                raise ValueError("checkpoint blob: sha256 mismatch (corrupted file)")
    if bad is not None:
        raise ValueError(bad)
    return model
