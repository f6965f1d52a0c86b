import math
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from ospace import encoder
from ospace.encoder import (
    EncoderConfig,
    EncoderWeights,
    encode,
    encode_batch,
    encode_batch_backward,
    init_encoder,
    pad_features,
)
from ospace.layers import Dense, relu_stack_backward, relu_stack_forward


def _random_encoder(rng, input_dim=6, widths=(5, 4), max_people=8):
    cfg = EncoderConfig(input_dim=input_dim, max_people=max_people,
                        layer_widths=widths)
    return init_encoder(cfg, rng)


def _mlp(weights, x):
    for layer in weights.layers:
        x = np.maximum(x @ layer.W + layer.b, 0.0)
    return x


def test_config_validation():
    with pytest.raises(ValueError):
        EncoderConfig(layer_widths=())
    with pytest.raises(ValueError):
        EncoderConfig(layer_widths=(8, 0))
    with pytest.raises(ValueError):
        EncoderConfig(max_people=0)
    assert EncoderConfig().output_dim == 1024


def test_single_person_equals_plain_mlp():
    rng = np.random.default_rng(0)
    w = _random_encoder(rng)
    f = rng.standard_normal((1, 6))
    assert np.array_equal(encode(f, w), _mlp(w, f[0]))


def test_permutation_invariance_bit_exact():
    rng = np.random.default_rng(1)
    # at widths off the gemm kernel's blocking, OpenBLAS rounds a row by its
    # position, so these cases fail unless encode puts the rows in one order
    for w in (_random_encoder(rng),
              _random_encoder(rng, input_dim=18, widths=(27, 18))):
        d = w.config.input_dim
        for case in range(200):
            p = int(rng.integers(2, 8))
            f = rng.standard_normal((p, d))
            if case % 4 == 1:
                # duplicate rows
                f[rng.integers(0, p, size=p // 2)] = f[0]
            elif case % 4 == 2:
                # rows tie on the leading columns; later columns decide the order
                k = int(rng.integers(1, d))
                f[:, :k] = f[0, :k]
            perm = rng.permutation(p)
            ref = encode(f, w).tobytes()
            assert ref == encode(f[perm], w).tobytes()
            if case % 4 == 3:
                # memory layout of the input must not matter either
                assert ref == encode(np.asfortranarray(f[perm]), w).tobytes()
                strided = np.zeros((p, 2 * d))
                strided[:, ::2] = f[perm]
                assert ref == encode(strided[:, ::2], w).tobytes()


def test_padding_capacity_does_not_change_output():
    rng = np.random.default_rng(2)
    cfg_small = EncoderConfig(input_dim=6, max_people=3, layer_widths=(5, 4))
    w_small = init_encoder(cfg_small, np.random.default_rng(7))
    w_large = EncoderWeights(
        EncoderConfig(input_dim=6, max_people=25, layer_widths=(5, 4)),
        [Dense(l.W.copy(), l.b.copy()) for l in w_small.layers],
    )
    f = rng.standard_normal((3, 6))
    assert encode(f, w_small).tobytes() == encode(f, w_large).tobytes()


def test_batched_encode_matches_single():
    rng = np.random.default_rng(3)
    w = _random_encoder(rng)
    sets = [rng.standard_normal((int(rng.integers(1, 7)), 6)) for _ in range(9)]
    batch, mask = pad_features(sets)
    pooled, _ = encode_batch(batch, mask, w)
    for i, f in enumerate(sets):
        # matmul over a differently shaped batch may land on another BLAS
        # kernel, so agreement is to rounding, not to the bit
        assert np.allclose(pooled[i], encode(f, w), rtol=1e-12, atol=1e-14)


def test_empty_set_rejected():
    w = _random_encoder(np.random.default_rng(4))
    with pytest.raises(ValueError):
        encode(np.zeros((0, 6)), w)


def test_oversized_set_rejected():
    w = _random_encoder(np.random.default_rng(5), max_people=3)
    with pytest.raises(ValueError):
        encode(np.zeros((4, 6)), w)


def test_integer_mask_rejected():
    # ~mask of 0/1 integers is -1/-2: it would index rows, not mask them
    w = _random_encoder(np.random.default_rng(11))
    batch, mask = pad_features([np.ones((p, 6)) for p in (2, 1, 3)])
    with pytest.raises(ValueError, match=re.escape(
            "mask must be bool of shape (3, 3), got int64 of shape (3, 3)")):
        encode_batch(batch, mask.astype(np.int64), w)


@pytest.mark.parametrize("shape", [(3, 2), (2, 3), (3,), (3, 3, 1)])
def test_mask_of_another_shape_rejected(shape):
    w = _random_encoder(np.random.default_rng(12))
    batch, _ = pad_features([np.ones((p, 6)) for p in (2, 1, 3)])
    with pytest.raises(ValueError, match=re.escape(
            f"mask must be bool of shape (3, 3), got bool of shape {shape}")):
        encode_batch(batch, np.ones(shape, bool), w)


def test_identity_layer_pools_elementwise_max():
    cfg = EncoderConfig(input_dim=4, max_people=5, layer_widths=(4,))
    w = EncoderWeights(cfg, [Dense(np.eye(4), np.zeros(4))])
    f = np.array([[0.1, 0.9, 0.2, 0.0],
                  [0.5, 0.3, 0.2, 0.7]])
    assert np.array_equal(encode(f, w), np.maximum(f[0], f[1]))


def _backward(f, w, upstream):
    """Input gradient of <upstream, pooled> for one set, via the batched path."""
    _, cache = encode_batch(f[None], np.ones((1, f.shape[0]), bool), w)
    return encode_batch_backward(upstream[None], cache, w)[0]


def test_backward_zero_upstream_gives_zero_grads():
    rng = np.random.default_rng(6)
    w = _random_encoder(rng)
    f = rng.standard_normal((3, 6))
    in_grad = _backward(f, w, np.zeros(4))
    assert all(np.all(l.grad_W == 0) and np.all(l.grad_b == 0) for l in w.layers)
    assert np.all(in_grad == 0)


def test_tie_breaks_to_lowest_person_index():
    rng = np.random.default_rng(8)
    w = _random_encoder(rng)
    row = rng.standard_normal(6)
    f = np.stack([row, row])  # identical persons, every dimension ties
    in_grad = _backward(f, w, np.ones(4))
    assert np.any(in_grad[0] != 0)
    assert np.all(in_grad[1] == 0)


def _numeric_input_grad(f, w, upstream, h=1e-6):
    num = np.zeros_like(f)
    for i in range(f.shape[0]):
        for j in range(f.shape[1]):
            fp = f.copy()
            fp[i, j] += h
            fm = f.copy()
            fm[i, j] -= h
            num[i, j] = (upstream @ encode(fp, w) - upstream @ encode(fm, w)) / (2 * h)
    return num


def test_gradient_matches_finite_differences():
    rng = np.random.default_rng(9)
    checked = 0
    while checked < 20:
        w = _random_encoder(rng)
        p = int(rng.integers(1, 5))
        f = rng.standard_normal((p, 6))
        pooled, (xs, _) = encode_batch(f[None], np.ones((1, p), bool), w)
        # stay away from ReLU kinks and pooling ties, where the derivative jumps
        pre = [x @ l.W + l.b for x, l in zip(xs, w.layers)]
        if min(np.abs(z).min() for z in pre) < 1e-4:
            continue
        if p > 1:
            top2 = np.sort(xs[-1], axis=0)[-2:]
            if np.min(top2[1] - top2[0]) < 1e-4:
                continue
        upstream = rng.standard_normal(4)
        analytic = _backward(f, w, upstream)
        numeric = _numeric_input_grad(f, w, upstream)
        denom = np.maximum(np.maximum(np.abs(analytic), np.abs(numeric)), 1e-6)
        assert np.max(np.abs(analytic - numeric) / denom) < 1e-4
        checked += 1


def test_lipschitz_no_blowup():
    rng = np.random.default_rng(10)
    w = _random_encoder(rng)
    f = rng.standard_normal((4, 6))
    base = encode(f, w)
    bound = np.prod([np.linalg.norm(l.W, 2) for l in w.layers])
    for eps in (1e-3, 1e-5):
        f2 = f.copy()
        f2[2, 3] += eps
        delta = np.linalg.norm(encode(f2, w) - base)
        assert delta <= bound * eps * (1 + 1e-9)


def where_pool(batch, mask, weights):
    """Reference: the pooling as a masked copy and its argmax computed it."""
    b, p_max, d = batch.shape
    x = relu_stack_forward(batch.reshape(b * p_max, d), weights.layers)[-1]
    masked = np.where(mask[:, :, None], x.reshape(b, p_max, -1), -np.inf)
    arg = masked.argmax(axis=1)
    return np.take_along_axis(masked, arg[:, None, :], axis=1)[:, 0, :], arg


def routed_backward(upstream, batch, mask, weights):
    """Reference: ``upstream`` routed to ``where_pool``'s argmax rows, then
    back through the stack, activations unmasked.  Returns the routed
    gradient and the input gradient."""
    b, p_max, d = batch.shape
    _, arg = where_pool(batch, mask, weights)
    g = np.zeros((b, p_max, weights.config.output_dim))
    np.put_along_axis(g, arg[:, None, :], upstream[:, None, :], axis=1)
    xs = relu_stack_forward(batch.reshape(b * p_max, d), weights.layers)
    g_in = relu_stack_backward(g.reshape(b * p_max, -1), weights.layers, xs)
    return g, g_in.reshape(b, p_max, d)


# zeros of both signs, subnormals, the smallest normal and the non-finite
SPECIAL = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, math.inf,
           -math.inf, math.nan]
VALUES = st.one_of(st.sampled_from(SPECIAL), st.floats(-4, 4))


@st.composite
def padded_batches(draw):
    """Sets of 1-P persons padded to P rows anywhere, and a 1-2 layer encoder
    of random widths."""
    widths = tuple(draw(st.lists(st.integers(1, 9), min_size=1, max_size=2)))
    d = draw(st.integers(1, 5))
    b, p_max = draw(st.integers(1, 5)), draw(st.integers(1, 7))
    batch = draw(hnp.arrays(float, (b, p_max, d), elements=VALUES))
    mask = draw(hnp.arrays(bool, (b, p_max)))
    mask[np.arange(b), draw(hnp.arrays(np.intp, b,
                                       elements=st.integers(0, p_max - 1)))] = True
    dims = (d,) + widths
    layers = [Dense(draw(hnp.arrays(float, (m, n), elements=VALUES)),
                    draw(hnp.arrays(float, n, elements=VALUES)))
              for m, n in zip(dims, dims[1:])]
    return batch, mask, EncoderWeights(EncoderConfig(d, p_max, widths), layers)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(case=padded_batches(), data=st.data())
def test_pooling_is_bit_equal_to_masked_argmax(case, data):
    batch, mask, w = case
    before = batch.copy()
    with np.errstate(all="ignore"):
        pooled, cache = encode_batch(batch, mask, w)
        want, _ = where_pool(batch, mask, w)
    assert pooled.tobytes() == want.tobytes() and pooled.shape == want.shape
    assert batch.tobytes() == before.tobytes()
    # Backward finds the argmax.  Distinct non-zero upstream values make the
    # routed gradient name the argmax row of every pooled dimension; drawn
    # ones carry zeros of both signs, NaN and inf through the stack.
    for upstream in (np.arange(1.0, pooled.size + 1).reshape(pooled.shape),
                     data.draw(hnp.arrays(float, pooled.shape,
                                          elements=VALUES))):
        ref = EncoderWeights(w.config, [Dense(l.W.copy(), l.b.copy())
                                        for l in w.layers])
        routed = []

        def spy(g, *args):
            routed.append(g.copy())
            return relu_stack_backward(g, *args)

        with pytest.MonkeyPatch.context() as mp, np.errstate(all="ignore"):
            mp.setattr(encoder, "relu_stack_backward", spy)
            got = encode_batch_backward(upstream, cache, w)
            want_routed, want_in = routed_backward(upstream, batch, mask, ref)
        assert routed[0].tobytes() == want_routed.tobytes()
        assert got.tobytes() == want_in.tobytes() and got.shape == want_in.shape
        for layer, r in zip(w.layers, ref.layers):
            assert layer.grad_W.tobytes() == r.grad_W.tobytes()
            assert layer.grad_b.tobytes() == r.grad_b.tobytes()
