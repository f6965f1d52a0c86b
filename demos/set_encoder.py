# The person-set encoder is a function of the set, not the list
#
# Each person row goes through the same small MLP, then a per-dimension max
# pools the rows into one vector.  Shuffling the rows or padding the roster
# capacity must leave every bit of that vector unchanged, and the pooled
# gradient flows only into the winning row of each dimension.

import numpy as np

from ospace.encoder import (
    EncoderConfig,
    EncoderWeights,
    encode,
    encode_batch,
    encode_batch_backward,
    init_encoder,
)
from ospace.layers import Dense, attach_grads

rng = np.random.default_rng(0)

cfg = EncoderConfig(input_dim=5, max_people=6, layer_widths=(8, 12))
weights = init_encoder(cfg, rng)
feats = rng.standard_normal((4, 5))   # four people, five features each

pooled = encode(feats, weights)
print(f"pooled vector, first 6 of {pooled.shape[0]} dims: {pooled[:6]}")

# any ordering of the same people gives the identical bytes
for trial in range(5):
    perm = rng.permutation(4)
    shuffled = encode(feats[perm], weights)
    assert shuffled.tobytes() == pooled.tobytes()
print("5 shuffles: bit-identical")

# a roomier roster (same weights, higher capacity) changes nothing either
big = EncoderWeights(
    EncoderConfig(input_dim=5, max_people=30, layer_widths=(8, 12)),
    [Dense(l.W.copy(), l.b.copy()) for l in weights.layers],
)
assert encode(feats, big).tobytes() == pooled.tobytes()
print("capacity 6 -> 30: bit-identical")

# gradient provenance: each pooled dim belongs to exactly one person.
# Backward writes into gradient buffers, which a Dense does not hold:
# attach_grads gives each layer a grad_W and grad_b, views of one vector.
attach_grads(weights.layers)


def input_grad(rows):
    _, cache = encode_batch(rows, np.ones((1, len(rows)), bool), weights)
    return encode_batch_backward(np.ones((1, pooled.shape[0])), cache, weights)


in_grad = input_grad(feats)
rows_with_grad = np.nonzero(np.abs(in_grad).sum(axis=1))[0]
print(f"people receiving gradient: {rows_with_grad}")

# a person who never wins a max gets exactly zero gradient
clone = np.vstack([feats, feats[0]])       # duplicate of person 0 appended last
g = input_grad(clone)
print(f"duplicate row gradient is zero: {not g[-1].any()}")
assert not g[-1].any()
