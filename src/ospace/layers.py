"""Minimal differentiable layers on bare numpy.

Everything here works on batches: inputs are (n, d_in), outputs (n, d_out).
A ReLU stack's forward returns the inputs and activation masks its backward
needs, and the caller passes them back, so the layers themselves hold no
per-batch state.  Parameters live in plain float64 arrays so an optimizer
can update them in place.
"""
from __future__ import annotations

import numpy as np

__all__ = ["Dense", "init_dense", "relu_stack_backward", "relu_stack_forward",
           "sigmoid"]


def sigmoid(z: np.ndarray) -> np.ndarray:
    """Numerically safe logistic function."""
    out = np.empty_like(z, dtype=float)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


class Dense:
    """Affine map y = x W + b with W of shape (d_in, d_out)."""

    def __init__(self, W: np.ndarray, b: np.ndarray):
        W = np.asarray(W, dtype=float)
        b = np.asarray(b, dtype=float)
        if W.ndim != 2 or b.shape != (W.shape[1],):
            raise ValueError(f"bad dense shapes W{W.shape} b{b.shape}")
        self.W = W
        self.b = b
        self.grad_W = np.zeros_like(W)
        self.grad_b = np.zeros_like(b)

    @property
    def d_in(self) -> int:
        return self.W.shape[0]

    @property
    def d_out(self) -> int:
        return self.W.shape[1]

    def zero_grad(self) -> None:
        self.grad_W[...] = 0.0
        self.grad_b[...] = 0.0


def relu_stack_forward(x: np.ndarray, layers):
    """Apply relu(x W + b) for each layer in turn.

    Returns (out, xs, masks): each layer's input and its ReLU mask, which
    ``relu_stack_backward`` takes back.
    """
    xs = []
    masks = []
    for layer in layers:
        xs.append(x)
        z = x @ layer.W + layer.b
        m = z > 0
        masks.append(m)
        x = np.where(m, z, 0.0)
    return x, xs, masks


def relu_stack_backward(g: np.ndarray, layers, xs, masks) -> np.ndarray:
    """Accumulate grad_W/grad_b of every layer; returns the input gradient."""
    for layer, x, m in zip(reversed(layers), reversed(xs), reversed(masks)):
        g = np.where(m, g, 0.0)
        layer.grad_W += x.T @ g
        layer.grad_b += g.sum(axis=0)
        g = g @ layer.W.T
    return g


def init_dense(d_in: int, d_out: int, rng: np.random.Generator) -> Dense:
    """Fan-in scaled uniform init: weights and bias from U(-1/sqrt(d_in), +)."""
    bound = 1.0 / np.sqrt(d_in)
    W = rng.uniform(-bound, bound, size=(d_in, d_out))
    b = rng.uniform(-bound, bound, size=d_out)
    return Dense(W, b)
