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

The batched path takes sets padded to a common length with a mask, but
only the input is padded: the stack runs over ``batch[mask]``, the real
rows packed in batch order, so no (B, P_max, D) activation exists, and
each set is pooled over its own contiguous rows by one ``max`` per set.
Pooling is exact, so it gives the bits of a padded forward whose padded
rows are masked out; the gemms do too at the widths the tests and the CLI
use.  At widths off the gemm kernel's blocking (``--enc-widths 27,18``, say)
OpenBLAS rounds a row by its position, and a multi-scene batch's bits may
then differ from a padded forward's, as they already depended on the
batch's largest set.  One set is never padded, so ``encode`` is unaffected.

Backward routes each pooled dimension's gradient to its argmax person,
ties to the lowest index, and runs on the packed rows the forward cached,
with no gather.  The routing is the one place padding is left: a uint8
flag per (set, rank, dimension), each set's rows at its first ranks, marks
the rows equal to the pooled value.  A flag's weight falls with its rank,
so the largest weighted flag is the first maximal row, the row ``argmax``
would pick, without its call per (set, dimension).  Equality singles out
exactly the maximal values because the ReLU output holds neither NaN nor
-0.0 (see ``layers``).  Padded rows get no gradient; the input gradient
returned for them is +0.0.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .layers import Dense, init_store, relu_stack_backward, relu_stack_forward

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
    _, layers = init_store(list(zip(config.dims, config.dims[1:])), rng)
    return EncoderWeights(config, layers)


def pad_features(feature_sets) -> tuple[np.ndarray, np.ndarray]:
    """Stack variable-length (P_i, d) feature sets into (B, P_max, d) plus mask."""
    feature_sets = [np.asarray(f, dtype=float) for f in feature_sets]
    if not feature_sets:
        raise ValueError("empty batch")
    counts = np.array([f.shape[0] for f in feature_sets])
    mask = np.arange(counts.max()) < counts[:, None]
    batch = np.zeros(mask.shape + (feature_sets[0].shape[1],))
    batch[mask] = np.concatenate(feature_sets)
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
    """Encode (B, P_max, d) padded features; returns ((B, D) pooled, cache).

    The stack runs over ``batch[mask]``, the real rows packed in batch
    order, and each set is pooled over its own contiguous rows.
    """
    _check_batch(batch, mask, weights.config)
    xs = relu_stack_forward(batch[mask], weights.layers)
    last = xs[-1]
    pooled = np.empty((batch.shape[0], last.shape[1]))
    ends = np.cumsum(mask.sum(axis=1)).tolist()
    for i, (lo, hi) in enumerate(zip([0] + ends[:-1], ends)):
        last[lo:hi].max(axis=0, out=pooled[i])
    return pooled, (xs, pooled, mask)


def _route(upstream: np.ndarray, cache) -> np.ndarray:
    """``upstream`` routed to the packed rows.

    Returns the (rows, D) gradient that holds each pooled dimension's
    upstream value at its set's argmax row and +0.0 everywhere else.
    """
    xs, pooled, mask = cache
    b, d_out = pooled.shape
    counts = mask.sum(axis=1)
    p = int(counts.max())
    # is_max[i, r]: set i's row r is maximal; rows past a set's count stay 0
    is_max = np.zeros((b, p, d_out), np.uint8)
    is_max[np.arange(p) < counts[:, None]] = (
        xs[-1] == np.repeat(pooled, counts, axis=0))
    # A row's weight falls with its rank, so the largest weight among a
    # dimension's maximal rows is that of the first: argmax's choice, without
    # its call per (set, dimension).
    weight = np.arange(p, 0, -1, dtype=np.min_scalar_type(p))
    arg = p - (is_max * weight[:, None]).max(axis=1).astype(np.intp)
    arg += (np.cumsum(counts) - counts)[:, None]  # each set's first row
    g = np.zeros((xs[-1].shape[0], d_out))
    g[arg, np.arange(d_out)] = upstream
    return g


def encode_batch_backward(upstream: np.ndarray, cache, weights: EncoderWeights):
    """Assign layer gradients of <upstream, pooled>; returns input grads.

    The forward cache holds the packed real rows only, so backward runs on
    them with no gather.  The last layer's ReLU mask at an argmax row is
    ``pooled > 0``, so that layer's output is never read for it.  Padded
    rows of the returned (B, P, d) input gradient are +0.0.
    """
    xs, pooled, mask = cache
    # bits of upstream where pooled > 0 and +0.0 elsewhere, as layers' masks do
    masked = np.multiply(upstream.view(np.int64), pooled > 0).view(np.float64)
    g = _route(masked, cache)
    *inner, last = weights.layers
    np.matmul(xs[-2].T, g, out=last.grad_W)
    np.sum(g, axis=0, out=last.grad_b)
    g = relu_stack_backward(g @ last.W.T, inner, xs[:-1])
    out = np.zeros(mask.shape + (weights.config.input_dim,))
    out[mask] = g
    return out


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
