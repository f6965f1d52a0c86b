"""Fully-connected heatmap head.

The head maps concat(room feature, pooled people encoding) through ReLU
hidden layers to rows*cols logits squashed by a logistic so predictions
live in (0,1) like the targets.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .layers import Dense, init_store, relu_stack_backward, relu_stack_forward, sigmoid

__all__ = ["HeadConfig", "HeadWeights", "init_head", "head_forward", "head_backward"]


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


def init_head(config: HeadConfig, rng: np.random.Generator) -> HeadWeights:
    _, layers = init_store(list(zip(config.dims, config.dims[1:])), rng)
    return HeadWeights(config, layers)


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
