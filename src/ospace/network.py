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

Checkpoints are JSON.  Loading one checks every layer's shape against the
stored configs, the head's output against the room grid, and that every
weight is finite, so a corrupt file fails with a ValueError that names the
section and layer rather than at the first matmul.
"""
from __future__ import annotations

import json
import math
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
    "model_to_obj",
    "model_from_obj",
    "save_model",
    "load_model",
    "CHECKPOINT_VERSION",
]

CHECKPOINT_VERSION = "ospace-checkpoint-1"

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


def _layers_to_obj(layers) -> list[dict]:
    return [{"W": layer.W.tolist(), "b": layer.b.tolist()} for layer in layers]


def _layers_from_obj(objs, section: str, dims) -> list[Dense]:
    """Checkpoint layers checked against the widths ``dims`` of their config."""
    if len(objs) != len(dims) - 1:
        raise ValueError(f"checkpoint {section}: {len(objs)} layers, config "
                         f"has {len(dims) - 1}")
    layers = []
    for i, o in enumerate(objs):
        try:
            W = np.array(o["W"], dtype=float)
            b = np.array(o["b"], dtype=float)
        except (TypeError, ValueError) as e:  # ragged or non-numeric entries
            raise ValueError(f"checkpoint {section} layer {i}: {e}") from None
        if W.shape != (dims[i], dims[i + 1]) or b.shape != (dims[i + 1],):
            raise ValueError(
                f"checkpoint {section} layer {i}: W{W.shape} b{b.shape}, config "
                f"needs W{(dims[i], dims[i + 1])} b{(dims[i + 1],)}")
        if not (np.isfinite(W).all() and np.isfinite(b).all()):
            raise ValueError(f"checkpoint {section} layer {i}: non-finite weight")
        layers.append(Dense(W, b))
    return layers


def model_to_obj(model: ModelWeights) -> dict:
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
            "layers": _layers_to_obj(model.encoder.layers),
        },
        "head": {
            "config": {
                "input_dim": model.head.config.input_dim,
                "hidden_widths": list(model.head.config.hidden_widths),
                "output_dim": model.head.config.output_dim,
            },
            "layers": _layers_to_obj(model.head.layers),
        },
    }


def model_from_obj(obj: dict) -> ModelWeights:
    if obj.get("version") != CHECKPOINT_VERSION:
        raise ValueError(f"unsupported checkpoint version {obj.get('version')!r}")
    spec = RoomSpec(rows=int(obj["spec"]["rows"]), cols=int(obj["spec"]["cols"]),
                    cell_m=float(obj["spec"]["cell_m"]))
    ns = obj["norm_stats"]
    stats = NormStats(mean_x=float(ns["mean_x"]), mean_y=float(ns["mean_y"]),
                      std_x=float(ns["std_x"]), std_y=float(ns["std_y"]))
    ec = obj["encoder"]["config"]
    enc_cfg = EncoderConfig(input_dim=int(ec["input_dim"]),
                            max_people=int(ec["max_people"]),
                            layer_widths=tuple(int(w) for w in ec["layer_widths"]))
    enc_w = EncoderWeights(enc_cfg, _layers_from_obj(
        obj["encoder"]["layers"], "encoder", enc_cfg.dims))
    hc = obj["head"]["config"]
    head_cfg = HeadConfig(input_dim=int(hc["input_dim"]),
                          hidden_widths=tuple(int(w) for w in hc["hidden_widths"]),
                          output_dim=int(hc["output_dim"]))
    if head_cfg.output_dim != spec.n_cells:
        raise ValueError(
            f"checkpoint head layer {len(head_cfg.dims) - 2}: output "
            f"{head_cfg.output_dim} != grid cells {spec.n_cells}")
    head_w = HeadWeights(head_cfg, _layers_from_obj(
        obj["head"]["layers"], "head", head_cfg.dims))
    return ModelWeights(encoder=enc_w, head=head_w, norm_stats=stats,
                        stride_m=float(obj["stride_m"]), seed=int(obj["seed"]),
                        spec=spec)


def save_model(model: ModelWeights, path) -> None:
    with open(path, "w", encoding="utf-8") as f:
        json.dump(model_to_obj(model), f)
        f.write("\n")


def load_model(path) -> ModelWeights:
    with open(path, "r", encoding="utf-8") as f:
        return model_from_obj(json.load(f))
