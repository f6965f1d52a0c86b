"""Minimal differentiable layers on bare numpy.

Everything here works on batches: inputs are (n, d_in), outputs (n, d_out).
A ReLU stack's forward returns its activations, input first and output
last, and the caller passes them back, so the layers themselves hold no
per-batch state.  Backward reads each layer's mask off its output, which
is > 0 exactly where z > 0 (see below), so no mask is stored.

Parameters live in float64 arrays that an optimizer updates in place.
A ``Dense`` holds its W and b and nothing else.  ``flatten`` moves a
model's layers into one parameter store: every W and b becomes a view of
one contiguous vector, and it gives every layer a grad_W and grad_b, views
of a second one, so the optimizer step, the snapshot and the restore each
run over one array.  ``flatten`` is the only place gradient storage is
made, so gradients exist only between a ``flatten`` and the end of
``network.train``, which takes them off the layers again; backward on a
layer that was never flattened raises AttributeError.  Backward assigns
each layer's gradient (it does not add to it), so the gradient buffers
never need zeroing between steps.

The ReLU and its mask are branch-free and work in place, and their bits
equal ``np.where(z > 0, z, 0.0)`` and ``np.where(m, g, 0.0)`` on every
float64.  ``where`` branches on every element, and on a ReLU's input the
branch goes either way about as often, so it mispredicts often and took
several times as long as ``fmax`` at the acceptance widths.  The forward
takes ``np.fmax(z, 0.0)``: it maps NaN to 0.0 as ``where`` does, where
``np.maximum`` would pass the NaN on.  It may return -0.0 for -0.0 (numpy's
scalar loop for the elements past the last SIMD block does), so an added
0.0 turns that into the +0.0 that ``where`` gives.  Backward multiplies
the gradient's bits, read as int64, by the mask: a bit-for-bit select that
keeps -0.0, NaN and inf where the mask is set and writes +0.0 elsewhere,
which a float product would not (-1.0 * 0.0 is -0.0, inf * 0.0 is NaN).
Backward never writes an array its caller passed in.
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
    """Affine map y = x W + b with W of shape (d_in, d_out).

    It holds no gradient buffers: ``flatten`` gives it grad_W and grad_b.
    """

    def __init__(self, W: np.ndarray, b: np.ndarray):
        W = np.asarray(W, dtype=float)
        b = np.asarray(b, dtype=float)
        if W.ndim != 2 or b.shape != (W.shape[1],):
            raise ValueError(f"bad dense shapes W{W.shape} b{b.shape}")
        self.W = W
        self.b = b


def flatten(layers) -> tuple[np.ndarray, np.ndarray]:
    """Move the layers' parameters into one contiguous store.

    Returns (params, grads), two float64 vectors holding each layer's W then
    b in layer order, grads zeroed.  Every layer's W and b is rebound to a
    reshaped view of params, and its grad_W and grad_b set to one of grads,
    so writing either vector writes the layers.
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


def _relu_in_place(z: np.ndarray) -> np.ndarray:
    """Overwrite z with max(z, 0), bit-equal to ``np.where(z > 0, z, 0.0)``."""
    np.fmax(z, 0.0, out=z)
    z += 0.0  # -0.0 to +0.0
    return z


def relu_stack_forward(x: np.ndarray, layers) -> list[np.ndarray]:
    """Apply relu(x W + b) for each layer in turn.

    Returns xs, every activation: ``x`` first, then each layer's output, so
    the stack's output is ``xs[-1]``.  ``relu_stack_backward`` takes it back.
    """
    xs = [x]
    for layer in layers:
        z = xs[-1] @ layer.W
        z += layer.b
        xs.append(_relu_in_place(z))
    return xs


def relu_stack_backward(g: np.ndarray, layers, xs) -> np.ndarray:
    """Assign grad_W/grad_b of every layer; returns the input gradient.

    Never writes ``g`` or any array in ``xs``: the first mask goes into a
    fresh buffer, and each later one into the fresh ``g @ W.T`` before it.
    """
    out = None
    for i, layer in reversed(list(enumerate(layers))):
        g = np.multiply(g.view(np.int64), xs[i + 1] > 0, out=out).view(np.float64)
        np.matmul(xs[i].T, g, out=layer.grad_W)
        np.sum(g, axis=0, out=layer.grad_b)
        g = g @ layer.W.T
        out = g.view(np.int64)
    return g


def init_dense(d_in: int, d_out: int, rng: np.random.Generator) -> Dense:
    """Fan-in scaled uniform init: weights and bias from U(-1/sqrt(d_in), +)."""
    bound = 1.0 / np.sqrt(d_in)
    W = rng.uniform(-bound, bound, size=(d_in, d_out))
    b = rng.uniform(-bound, bound, size=d_out)
    return Dense(W, b)
