"""Minimal differentiable layers on bare numpy.

Everything here works on batches: inputs are (n, d_in), outputs (n, d_out).
The affine rule lives here alone: ``dense_forward`` is x W + b, and
``dense_backward`` assigns a layer's gradients and returns g W^T.  The
ReLU stack, the head's output layer and the encoder's pooled layer call
them, and ``relu_mask`` is every ReLU mask, so no other module multiplies
by a layer's W or writes a gradient buffer.  A ReLU stack's forward
returns its activations, input first and output last, and the caller
passes them back, so the layers themselves hold no per-batch state.
Backward reads each layer's mask off its output, which is > 0 exactly
where z > 0 (see below), so no mask is stored.

Parameters live in float64 arrays that an optimizer updates in place.  A
``Dense`` holds its W and b and nothing else.  A model's parameters live in
one store: ``view_layers`` lays a list of (d_in, d_out) layers over one
contiguous float64 vector, each layer's W and then its b, in checkpoint
order, so the optimizer step, the snapshot, the restore and a checkpoint's
blob each run over one array.  ``init_store`` allocates a store and draws
every layer's weights straight into its views, the one init rule that
``encoder.init_encoder``, ``head.init_head`` and ``network.train`` share,
laid out by ``layer_shapes`` of their configs.
``attach_grads`` gives every layer a grad_W and grad_b, views of a second
vector of the same layout; ``flatten`` moves layers that live apart into a
new store and attaches gradients to them.  ``attach_grads`` is the only
place gradient storage is made, so gradients exist only inside
``network.train``, which takes them off the layers again, or where a
caller attached them; backward on a layer with no gradients raises
AttributeError.  Backward assigns each layer's gradient (it does not add
to it), so the gradient buffers never need zeroing between steps.

The ReLU and its mask are branch-free and work in place, and their bits
equal ``np.where(z > 0, z, 0.0)`` and ``np.where(m, g, 0.0)`` on every
float64.  ``where`` branches on every element, and on a ReLU's input the
branch goes either way about as often, so it mispredicts often and took
several times as long as ``fmax`` at the acceptance widths.  The forward
takes ``np.fmax(z, 0.0)``: it maps NaN to 0.0 as ``where`` does, where
``np.maximum`` would pass the NaN on.  It may return -0.0 for -0.0 (numpy's
scalar loop for the elements past the last SIMD block does), so an added
0.0 turns that into the +0.0 that ``where`` gives.  ``relu_mask`` multiplies
the gradient's bits, read as int64, by the mask: a bit-for-bit select that
keeps -0.0, NaN and inf where the mask is set and writes +0.0 elsewhere,
which a float product would not (-1.0 * 0.0 is -0.0, inf * 0.0 is NaN).
A stack's backward never writes an array its caller passed in.
"""
from __future__ import annotations

import numpy as np

__all__ = ["Dense", "attach_grads", "dense_backward", "dense_forward", "flatten",
           "init_store", "layer_shapes", "relu_mask", "relu_stack_backward",
           "relu_stack_forward", "sigmoid", "store_size", "view_layers"]


def sigmoid(z: np.ndarray) -> np.ndarray:
    """Numerically safe logistic function: 1 / (1 + e^-z) for z >= 0 and
    e^z / (1 + e^z) elsewhere, so ``exp`` never overflows."""
    pos = z >= 0
    e = np.exp(np.where(pos, -z, z))
    return np.where(pos, 1.0, e) / (1.0 + e)


class Dense:
    """Affine map y = x W + b with W of shape (d_in, d_out).

    It holds no gradient buffers: ``attach_grads`` gives it grad_W and grad_b.
    """

    def __init__(self, W: np.ndarray, b: np.ndarray):
        W = np.asarray(W, dtype=float)
        b = np.asarray(b, dtype=float)
        if W.ndim != 2 or b.shape != (W.shape[1],):
            raise ValueError(f"bad dense shapes W{W.shape} b{b.shape}")
        self.W = W
        self.b = b


def layer_shapes(*configs) -> list[tuple[int, int]]:
    """(d_in, d_out) of every layer of ``configs``, in order: each config's
    ``dims`` read pairwise, layer i mapping dims[i] to dims[i+1]."""
    return [shape for c in configs for shape in zip(c.dims, c.dims[1:])]


def store_size(shapes) -> int:
    """Parameters in a store of (d_in, d_out) layers: each W and b."""
    return sum(d_in * d_out + d_out for d_in, d_out in shapes)


def view_layers(flat: np.ndarray, shapes) -> list[Dense]:
    """Layers whose W and b are views of ``flat``, cut in store order: for
    each (d_in, d_out) in ``shapes``, W as (d_in, d_out), then b."""
    layers = []
    start = 0
    for d_in, d_out in shapes:
        W = flat[start:start + d_in * d_out].reshape(d_in, d_out)
        start += d_in * d_out
        layers.append(Dense(W, flat[start:start + d_out]))
        start += d_out
    return layers


def attach_grads(layers) -> np.ndarray:
    """Give every layer grad_W and grad_b, views of one zeroed vector in
    ``view_layers``' order; returns that vector."""
    shapes = [layer.W.shape for layer in layers]
    grads = np.zeros(store_size(shapes))
    for layer, grad in zip(layers, view_layers(grads, shapes)):
        layer.grad_W, layer.grad_b = grad.W, grad.b
    return grads


def flatten(layers) -> tuple[np.ndarray, np.ndarray]:
    """Move the layers' parameters into one contiguous store.

    Returns (params, grads), two float64 vectors in ``view_layers``' order,
    grads zeroed.  Every layer's W and b is rebound to a view of params, and
    its grad_W and grad_b set to one of grads, so writing either vector
    writes the layers.
    """
    params = np.concatenate([a.ravel() for l in layers for a in (l.W, l.b)])
    shapes = [layer.W.shape for layer in layers]
    for layer, view in zip(layers, view_layers(params, shapes)):
        layer.W, layer.b = view.W, view.b
    return params, attach_grads(layers)


def _relu_in_place(z: np.ndarray) -> np.ndarray:
    """Overwrite z with max(z, 0), bit-equal to ``np.where(z > 0, z, 0.0)``."""
    np.fmax(z, 0.0, out=z)
    z += 0.0  # -0.0 to +0.0
    return z


def dense_forward(x: np.ndarray, layer: Dense) -> np.ndarray:
    """x W + b, into a fresh array."""
    z = x @ layer.W
    z += layer.b
    return z


def dense_backward(g: np.ndarray, x: np.ndarray, layer: Dense) -> np.ndarray:
    """Assign the layer's grad_W = x^T g and grad_b = g's column sums;
    returns the input gradient g W^T, a fresh array."""
    np.matmul(x.T, g, out=layer.grad_W)
    np.sum(g, axis=0, out=layer.grad_b)
    return g @ layer.W.T


def relu_mask(g: np.ndarray, y: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """The bits of ``g`` where ``y > 0`` and +0.0 elsewhere, into ``out`` (a
    float64 array, ``g`` itself allowed) or a fresh array."""
    return np.multiply(g.view(np.int64), y > 0,
                       out=None if out is None else out.view(np.int64)).view(np.float64)


def relu_stack_forward(x: np.ndarray, layers) -> list[np.ndarray]:
    """Apply relu(x W + b) for each layer in turn.

    Returns xs, every activation: ``x`` first, then each layer's output, so
    the stack's output is ``xs[-1]``.  ``relu_stack_backward`` takes it back.
    """
    xs = [x]
    for layer in layers:
        xs.append(_relu_in_place(dense_forward(xs[-1], layer)))
    return xs


def relu_stack_backward(g: np.ndarray, layers, xs) -> np.ndarray:
    """Assign grad_W/grad_b of every layer; returns the input gradient.

    Never writes ``g`` or any array in ``xs``: the first mask goes into a
    fresh buffer, and each later one into the fresh ``g @ W.T`` before it.
    """
    out = None
    for i, layer in reversed(list(enumerate(layers))):
        g = out = dense_backward(relu_mask(g, xs[i + 1], out), xs[i], layer)
    return g


def init_store(shapes, rng: np.random.Generator) -> tuple[np.ndarray, list[Dense]]:
    """A new store of (d_in, d_out) layers, drawn in place; returns (params,
    its ``view_layers``).

    Fan-in scaled uniform init: each layer's W and then b from
    U(-1/sqrt(d_in), +), layer by layer.  ``rng.random`` fills each view,
    which is scaled and shifted in place as ``rng.uniform`` does, so the
    bits and the generator's state after the draw are ``rng.uniform``'s,
    and no array but the store is made.
    """
    params = np.empty(store_size(shapes))
    layers = view_layers(params, shapes)
    for layer in layers:
        bound = 1.0 / np.sqrt(layer.W.shape[0])
        for a in (layer.W, layer.b):
            rng.random(out=a)
            a *= bound - (-bound)  # rng.uniform's high - low, then its low
            a += -bound
    return params, layers
