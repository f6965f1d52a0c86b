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

The batched path takes the sets' rows packed in batch order, with a
(B, P_max) bool mask whose row i marks set i's slots; only how many it
marks is read.  The stack runs over those rows as given, so no padded array
exists, and each set is pooled over its own contiguous rows by one ``max``
per set.  Pooling is exact, so it gives the bits of a padded forward whose
padded rows are masked out; the gemms do too at the widths the tests and
the CLI use.  At widths off the gemm kernel's blocking (``--enc-widths
27,18``, say) OpenBLAS rounds a row by its position, and a multi-scene
batch's bits may then differ from a padded forward's, as they already
depended on the batch's largest set.  ``encode`` runs one set as a batch
of one.

``sort_rows`` orders a set by one argsort of column 0 when its values are
distinct, the order ``lexsort`` gives, and by ``lexsort`` otherwise.

Backward routes each pooled dimension's gradient to its argmax person,
ties to the lowest index, and runs on the packed rows the forward cached,
with no gather.  The routing is the one place padding is left: a uint8
flag per (set, rank, dimension), each set's rows at its first ranks, marks
the rows equal to the pooled value.  A flag's weight falls with its rank,
so the largest weighted flag is the first maximal row, the row ``argmax``
would pick, without its call per (set, dimension).  Equality singles out
exactly the maximal values because the ReLU output holds neither NaN nor
-0.0 (see ``layers``).  The input gradient comes back packed, as the rows
came in.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .layers import (Dense, dense_backward, init_store, layer_shapes, relu_mask,
                     relu_stack_backward, relu_stack_forward)

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
    _, layers = init_store(layer_shapes(config), rng)
    return EncoderWeights(config, layers)


def pad_features(feature_sets) -> tuple[np.ndarray, np.ndarray]:
    """Variable-length (P_i, d) feature sets as one (sum P_i, d) array of
    their rows in batch order, plus the (B, P_max) mask of the real slots."""
    feature_sets = [np.asarray(f, dtype=float) for f in feature_sets]
    if not feature_sets:
        raise ValueError("empty batch")
    counts = [f.shape[0] for f in feature_sets]
    return (np.concatenate(feature_sets),
            np.arange(max(counts)) < np.array(counts)[:, None])


def _check_batch(rows: np.ndarray, mask: np.ndarray,
                 cfg: EncoderConfig) -> list[int]:
    """Each set's row count, once the rows and mask are checked."""
    if rows.ndim != 2 or rows.shape[1] != cfg.input_dim:
        raise ValueError(f"bad feature rows shape {rows.shape}")
    if mask.dtype != bool or mask.ndim != 2:
        raise ValueError(f"mask must be a 2-D bool array, got {mask.dtype} "
                         f"of shape {mask.shape}")
    counts = mask.sum(axis=1).tolist()
    if sum(counts) != rows.shape[0]:
        raise ValueError(f"mask marks {sum(counts)} rows, got {rows.shape[0]}")
    if counts and min(counts) < 1:
        raise ValueError("a scene has zero persons")
    if counts and max(counts) > cfg.max_people:
        raise ValueError(
            f"a scene has {max(counts)} persons, cap is {cfg.max_people}"
        )
    return counts


def encode_batch(rows: np.ndarray, mask: np.ndarray, weights: EncoderWeights):
    """Encode B sets given as packed (rows, d) features and their (B, P_max)
    mask; returns ((B, D) pooled, cache).

    Set i is the ``mask[i].sum()`` rows after those of the sets before it.
    The stack runs over ``rows`` as given, and the cache holds them, so
    backward reads ``rows`` as they are then.
    """
    counts = _check_batch(rows, mask, weights.config)
    xs = relu_stack_forward(rows, weights.layers)
    last = xs[-1]
    pooled = np.empty((mask.shape[0], last.shape[1]))
    lo = 0
    for i, n in enumerate(counts):
        last[lo:lo + n].max(axis=0, out=pooled[i])
        lo += n
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
    """Assign layer gradients of <upstream, pooled>; returns the packed
    (rows, d) input gradient.

    Backward runs on the rows the forward cached.  The last layer's ReLU
    mask at an argmax row is ``pooled > 0``, so that layer's output is never
    read for it.
    """
    xs, pooled, _ = cache
    g = _route(relu_mask(upstream, pooled), cache)
    *inner, last = weights.layers
    return relu_stack_backward(dense_backward(g, xs[-2], last), inner, xs[:-1])


def sort_rows(features) -> np.ndarray:
    """A (P, d) feature set's rows in lexicographic order, column 0 first."""
    features = np.asarray(features, dtype=float)
    if features.ndim == 2 and features.shape[1]:
        # distinct values in column 0 order the rows alone; ties, -0.0
        # beside 0.0 and NaN fail the strict test and go to lexsort
        col = features[:, 0]
        order = np.argsort(col)
        key = col[order]
        if (key[1:] > key[:-1]).all():
            return features[order]
    # column 0 is the primary key: lexsort sorts by its last key first
    return features[np.lexsort(features.T[::-1])]


def encode(features: np.ndarray, weights: EncoderWeights) -> np.ndarray:
    """Encode one (P, d) person-feature set into a D-dim vector."""
    rows = sort_rows(features)
    pooled, _ = encode_batch(rows, np.ones((1, rows.shape[0]), bool), weights)
    return pooled[0]
