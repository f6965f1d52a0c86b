"""Permutation-invariant set encoder for variable-size person sets.

A shared MLP maps every person's 18-dim feature through the same weights
(equivalent to 1x1 convolutions over the person axis), then max pooling per
output dimension collapses the set to one D-dim vector.  Pooling only ever
sees the real rows, so the result is independent of the padding capacity M;
M is just a hard cap on set size.

A BLAS matmul rounds a row differently depending on its position in the
matrix (blocked rows vs the remainder), so feeding a set's rows in input
order would leak that order into the low bits of the pooled vector.
``encode`` therefore sorts the rows lexicographically first: every
permutation of a set yields the same matrix, and so the same bits.

Backward routes each pooled dimension's gradient to its argmax person, ties
to the lowest index.  The batched path pads sets to a common length and
masks padded rows out of the max by writing -inf over them in place, in the
last layer's output.  The cache keeps that output and the pooled vector,
and backward finds the argmax from them.  A padded row is never selected,
so it receives zero gradient and the padding stays inert.  The pool is
``max(axis=1)``, and the argmax person is the first row equal to the max.
That is the row ``argmax`` picks, without its compare-and-branch per
element, because the ReLU output holds neither NaN nor -0.0 (see
``layers``): equality then singles out exactly the maximal values.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .layers import Dense, init_dense, relu_stack_backward, relu_stack_forward

__all__ = [
    "EncoderConfig",
    "EncoderWeights",
    "init_encoder",
    "encode",
    "encode_batch",
    "encode_batch_backward",
    "pad_features",
    "sort_rows",
]


@dataclass(frozen=True)
class EncoderConfig:
    input_dim: int = 18
    max_people: int = 25
    layer_widths: tuple[int, ...] = (64, 256, 1024)

    def __post_init__(self):
        object.__setattr__(self, "layer_widths", tuple(self.layer_widths))
        if self.input_dim < 1 or self.max_people < 1:
            raise ValueError("input_dim and max_people must be at least 1")
        if not self.layer_widths or any(w < 1 for w in self.layer_widths):
            raise ValueError(f"bad layer widths {self.layer_widths}")

    @property
    def output_dim(self) -> int:
        return self.layer_widths[-1]

    @property
    def dims(self) -> tuple[int, ...]:
        """Layer widths from the input on: layer i maps dims[i] to dims[i+1]."""
        return (self.input_dim,) + self.layer_widths


@dataclass
class EncoderWeights:
    config: EncoderConfig
    layers: list[Dense] = field(default_factory=list)


def init_encoder(config: EncoderConfig, rng: np.random.Generator) -> EncoderWeights:
    dims = config.dims
    layers = [init_dense(dims[i], dims[i + 1], rng) for i in range(len(dims) - 1)]
    return EncoderWeights(config, layers)


def pad_features(feature_sets) -> tuple[np.ndarray, np.ndarray]:
    """Stack variable-length (P_i, d) feature sets into (B, P_max, d) plus mask."""
    feature_sets = [np.asarray(f, dtype=float) for f in feature_sets]
    if not feature_sets:
        raise ValueError("empty batch")
    d = feature_sets[0].shape[1]
    p_max = max(f.shape[0] for f in feature_sets)
    batch = np.zeros((len(feature_sets), p_max, d))
    mask = np.zeros((len(feature_sets), p_max), dtype=bool)
    for i, f in enumerate(feature_sets):
        batch[i, : f.shape[0]] = f
        mask[i, : f.shape[0]] = True
    return batch, mask


def _check_batch(batch: np.ndarray, mask: np.ndarray, cfg: EncoderConfig) -> None:
    if batch.ndim != 3 or batch.shape[2] != cfg.input_dim:
        raise ValueError(f"bad feature batch shape {batch.shape}")
    if mask.dtype != bool or mask.shape != batch.shape[:2]:
        raise ValueError(f"mask must be bool of shape {batch.shape[:2]}, got "
                         f"{mask.dtype} of shape {mask.shape}")
    counts = mask.sum(axis=1)
    if np.any(counts < 1):
        raise ValueError("a scene has zero persons")
    if np.any(counts > cfg.max_people):
        raise ValueError(
            f"a scene has {int(counts.max())} persons, cap is {cfg.max_people}"
        )


def encode_batch(batch: np.ndarray, mask: np.ndarray, weights: EncoderWeights):
    """Encode (B, P_max, d) padded features; returns ((B, D) pooled, cache)."""
    _check_batch(batch, mask, weights.config)
    b, p_max, d = batch.shape
    xs = relu_stack_forward(batch.reshape(b * p_max, d), weights.layers)
    per_person = xs[-1].reshape(b, p_max, -1)
    per_person[~mask] = -np.inf
    pooled = per_person.max(axis=1)
    return pooled, (xs, pooled)


def encode_batch_backward(upstream: np.ndarray, cache, weights: EncoderWeights):
    """Assign layer gradients of <upstream, pooled>; returns input grads."""
    xs, pooled = cache
    b, d_out = pooled.shape
    per_person = xs[-1].reshape(b, -1, d_out)
    arg = (per_person == pooled[:, None, :]).argmax(axis=1)
    g = np.zeros(per_person.shape)
    np.put_along_axis(g, arg[:, None, :], upstream[:, None, :], axis=1)
    g = relu_stack_backward(g.reshape(-1, d_out), weights.layers, xs)
    return g.reshape(b, -1, weights.config.input_dim)


def sort_rows(features) -> np.ndarray:
    """A (P, d) feature set's rows in lexicographic order, column 0 first."""
    features = np.asarray(features, dtype=float)
    # column 0 is the primary key: lexsort sorts by its last key first
    return features[np.lexsort(features.T[::-1])]


def encode(features: np.ndarray, weights: EncoderWeights) -> np.ndarray:
    """Encode one (P, d) person-feature set into a D-dim vector."""
    rows = sort_rows(features)
    pooled, _ = encode_batch(rows[None], np.ones((1, rows.shape[0]), bool),
                             weights)
    return pooled[0]
