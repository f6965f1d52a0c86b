"""Weighted MSE loss, the training loop and chunked prediction.

The network is the set encoder (``encoder``) feeding the heatmap head
(``head``).  Loss is mean squared error, optionally weighted per example to
counter single-group/multi-group imbalance.  A trained model is a
``checkpoint.ModelWeights``, which ``checkpoint.save_model`` writes.

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
chunk of one, with no filler, the head at one row, and ``batch_forward``'s
prediction is the result, uncopied.  The head input is one array, the
room written into every row beside the pooled people.  Only one chunk's
activations are alive at a time, so validation memory does not grow with
the split.

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
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# nothing here calls ``save_model``, ``load_model``, ``encode``,
# ``init_encoder`` or ``init_head``: perfbench names them as ``network``
# attributes.  Its probe table wraps ``head_forward`` and ``head_backward``
# here too, so they are called through this module's globals.
from .checkpoint import (ModelWeights, load_model, save_model,  # noqa: F401
                         split_layers)
from .core import (DEFAULT_SPEC, OSpaceMap, RoomSpec, Scene,
                   check_person_count, non_singleton_blocks)
from .dataset import fit_norm_stats, scene_features
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
from .head import (HeadConfig, HeadWeights, head_backward,  # noqa: F401
                   head_forward, init_head)
from .layers import attach_grads, init_store, layer_shapes
from .room import RoomFeature

__all__ = [
    "TrainConfig",
    "TrainingDivergedError",
    "EpochStats",
    "forward",
    "example_weight",
    "batch_forward",
    "batch_loss",
    "batch_backward",
    "train",
    "predict_heatmap",
    "predict_heatmaps",
]

# Elements per Adam block: 32768 float64 values, 256 KiB per array.
_ADAM_BLOCK = 32768
# Adam's decay rates and epsilon, Kingma and Ba's defaults.
_ADAM_BETA1, _ADAM_BETA2, _ADAM_EPS = 0.9, 0.999, 1e-8

# Scenes per chunk of a multi-scene ``predict_heatmaps`` call.  Measured on a
# 2-vCPU Xeon with OpenBLAS, the time per scene of a full chunk is flat from
# 24 to 64 scenes at both the acceptance and the CLI default widths, and
# grows below 24 (default widths: 0.47-0.52 ms at 32, 0.65-0.67 ms at 8);
# a smaller chunk wastes less padding on a short last chunk.
_CHUNK = 32


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
        if self.seed < 0:
            raise ValueError(f"seed must be non-negative, got {self.seed}")


class TrainingDivergedError(RuntimeError):
    def __init__(self, epoch: int):
        super().__init__(f"training diverged: non-finite loss at epoch {epoch}")
        self.epoch = epoch


@dataclass(frozen=True)
class EpochStats:
    epoch: int
    train_loss: float
    val_loss: float | None


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
    rows, mask = pad_features(feats_list)
    people, enc_cache = encode_batch(rows, mask, enc_w)
    room_dim = room_values.shape[0]
    # the head input: the room in every row, then the pooled people
    x = np.empty((people.shape[0], room_dim + people.shape[1]))
    x[:, :room_dim] = room_values
    x[:, room_dim:] = people
    pred, head_cache = head_forward(x, head_w)
    return pred, (enc_cache, head_cache, room_dim)


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
    no bit (for a finite lr, since ``_ADAM_EPS`` > 0 makes eps_t > 0).  The
    first non-zero gradient in a block (NaN, or one too small to square,
    included) makes it live for the rest of the run.
    """

    def __init__(self, lr: float, params: np.ndarray, grads: np.ndarray):
        self.lr = lr
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
        b1, b2 = _ADAM_BETA1, _ADAM_BETA2
        c1 = 1.0 - b1 ** self.t
        c2 = 1.0 - b2 ** self.t
        alpha_t = self.lr * math.sqrt(c2) / c1
        eps_t = _ADAM_EPS * math.sqrt(c2)
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
    training loss decides.  Raises TrainingDivergedError on non-finite loss,
    and before any work a ValueError naming a training or validation frame
    with no persons or more than ``enc_cfg.max_people``.
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
    val_scenes = list(val_scenes or ())
    for scene in train_scenes + val_scenes:
        check_person_count(len(scene.persons), enc_cfg.max_people,
                           f"frame {scene.frame_id!r}")

    stats = fit_norm_stats(train_scenes)
    rng = np.random.default_rng(cfg.seed)
    # the encoder's layers and then the head's, drawn in that order into
    # the one store, as ``init_encoder`` and then ``init_head`` would
    params, layers = init_store(layer_shapes(enc_cfg, head_cfg), rng)
    enc_w, head_w = split_layers(layers, enc_cfg, head_cfg)

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

    One set is a chunk of one, with no filler: ``batch_forward``'s
    prediction is the result, uncopied.  Two or more go in chunks of
    exactly ``_CHUNK``, the last one padded with one-person sets of zeros,
    each of which costs one encoder row and one head row.  Only one chunk's
    activations are alive at a time, however many sets there are.
    """
    if len(feats) == 1:
        return batch_forward(feats, room_values, enc_w, head_w)[0]
    filler = np.zeros((1, enc_w.config.input_dim))
    pred = np.empty((len(feats), head_w.config.output_dim))
    for lo in range(0, len(feats), _CHUNK):
        chunk = feats[lo:lo + _CHUNK]
        n = len(chunk)
        # the cache is dropped here, before the next chunk's forward
        y = batch_forward(chunk + [filler] * (_CHUNK - n), room_values,
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

    A room feature of another width than ``model.room_dim``, or a scene
    with no persons or more than the encoder's ``max_people``, raises
    ValueError before any network work, naming both widths or the frame.
    """
    if room.dim != model.room_dim:
        raise ValueError(f"model takes a room of {model.room_dim} values, "
                         f"but the room feature holds {room.dim}")
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

