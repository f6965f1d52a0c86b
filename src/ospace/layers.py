"""Minimal differentiable layers on bare numpy.

Everything here works on batches: inputs are (n, d_in), outputs (n, d_out).
A ReLU stack's forward returns the inputs and activation masks its backward
needs, and the caller passes them back, so the layers themselves hold no
per-batch state.

Parameters live in float64 arrays that an optimizer updates in place.
``flatten`` moves a model's layers into one parameter store: every W and b
becomes a view of one contiguous vector, and every grad_W and grad_b a view
of a second one, so the optimizer step, the snapshot and the restore each
run over one array.  Backward assigns each layer's gradient (it does not
add to it), so the gradient buffers never need zeroing between steps.
"""
from __future__ import annotations

import numpy as np

__all__ = ["Dense", "flatten", "init_dense", "relu_stack_backward",
           "relu_stack_forward", "sigmoid"]


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


def flatten(layers) -> tuple[np.ndarray, np.ndarray]:
    """Move the layers' parameters into one contiguous store.

    Returns (params, grads), two float64 vectors holding each layer's W then
    b in layer order.  Every layer's W, b, grad_W and grad_b is rebound to a
    reshaped view of them, so writing either vector writes the layers.
    """
    params = np.concatenate([a.ravel() for l in layers for a in (l.W, l.b)])
    grads = np.zeros_like(params)
    start = 0
    for layer in layers:
        for name in ("W", "b"):
            a = getattr(layer, name)
            stop = start + a.size
            setattr(layer, name, params[start:stop].reshape(a.shape))
            setattr(layer, "grad_" + name, grads[start:stop].reshape(a.shape))
            start = stop
    return params, grads


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
    """Assign grad_W/grad_b of every layer; returns the input gradient."""
    for layer, x, m in zip(reversed(layers), reversed(xs), reversed(masks)):
        g = np.where(m, g, 0.0)
        np.matmul(x.T, g, out=layer.grad_W)
        np.sum(g, axis=0, out=layer.grad_b)
        g = g @ layer.W.T
    return g


def init_dense(d_in: int, d_out: int, rng: np.random.Generator) -> Dense:
    """Fan-in scaled uniform init: weights and bias from U(-1/sqrt(d_in), +)."""
    bound = 1.0 / np.sqrt(d_in)
    W = rng.uniform(-bound, bound, size=(d_in, d_out))
    b = rng.uniform(-bound, bound, size=d_out)
    return Dense(W, b)
