import math
import re
import tracemalloc

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
from ospace.layers import Dense, flatten, relu_stack_backward, relu_stack_forward


def _random_encoder(rng, input_dim=6, widths=(5, 4), max_people=8):
    """A random encoder, flattened so backward has gradient buffers."""
    cfg = EncoderConfig(input_dim=input_dim, max_people=max_people,
                        layer_widths=widths)
    weights = init_encoder(cfg, rng)
    flatten(weights.layers)
    return weights


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
    rows, mask = pad_features(sets)
    pooled, _ = encode_batch(rows, mask, w)
    for i, f in enumerate(sets):
        # matmul over a differently shaped batch may land on another BLAS
        # kernel, so agreement is to rounding, not to the bit
        assert np.allclose(pooled[i], encode(f, w), rtol=1e-12, atol=1e-14)


def test_empty_set_rejected():
    w = _random_encoder(np.random.default_rng(4))
    with pytest.raises(ValueError, match="^a scene has zero persons$"):
        encode(np.zeros((0, 6)), w)


def test_oversized_set_rejected():
    w = _random_encoder(np.random.default_rng(5), max_people=3)
    with pytest.raises(ValueError, match="^a scene has 4 persons, cap is 3$"):
        encode(np.zeros((4, 6)), w)
    rows, mask = pad_features([np.ones((p, 6)) for p in (2, 5, 4)])
    with pytest.raises(ValueError, match="^a scene has 5 persons, cap is 3$"):
        encode_batch(rows, mask, w)


def test_batch_of_no_sets_encodes_to_no_rows():
    w = _random_encoder(np.random.default_rng(6))
    pooled, _ = encode_batch(np.zeros((0, 6)), np.zeros((0, 3), bool), w)
    assert pooled.shape == (0, 4) and pooled.dtype == np.float64


def test_one_set_pads_to_a_copy_of_itself():
    f = np.random.default_rng(7).standard_normal((3, 6))
    rows, mask = pad_features([f])
    assert rows.shape == (3, 6) and rows.tobytes() == f.tobytes()
    assert mask.dtype == bool and mask.shape == (1, 3) and mask.all()
    rows[0, 0] = 9.0
    assert f[0, 0] != 9.0


def test_pad_features_packs_the_rows_in_batch_order():
    rng = np.random.default_rng(7)
    sets = [rng.standard_normal((c, 6)) for c in (2, 1, 3)]
    rows, mask = pad_features(sets)
    assert rows.shape == (6, 6) and rows.tobytes() == np.vstack(sets).tobytes()
    assert mask.tolist() == [[True, True, False], [True, False, False],
                             [True, True, True]]


def test_integer_mask_rejected():
    # ~mask of 0/1 integers is -1/-2: it would index rows, not mask them
    w = _random_encoder(np.random.default_rng(11))
    rows, mask = pad_features([np.ones((p, 6)) for p in (2, 1, 3)])
    with pytest.raises(ValueError, match=re.escape(
            "mask must be a 2-D bool array, got int64 of shape (3, 3)")):
        encode_batch(rows, mask.astype(np.int64), w)


@pytest.mark.parametrize("shape", [(3, 2), (2, 3), (3,), (3, 3, 1)])
def test_mask_of_another_shape_rejected(shape):
    # five rows: a mask of six slots marks another row count
    w = _random_encoder(np.random.default_rng(12))
    rows, _ = pad_features([np.ones((p, 6)) for p in (2, 1, 2)])
    message = ("mask marks 6 rows, got 5" if len(shape) == 2 else
               f"mask must be a 2-D bool array, got bool of shape {shape}")
    with pytest.raises(ValueError, match=re.escape(message)):
        encode_batch(rows, np.ones(shape, bool), w)


@pytest.mark.parametrize("shape", [(6,), (6, 5), (2, 3, 6)])
def test_rows_of_another_shape_rejected(shape):
    w = _random_encoder(np.random.default_rng(12))
    with pytest.raises(ValueError, match=re.escape(
            f"bad feature rows shape {shape}")):
        encode_batch(np.ones(shape), np.ones((1, 6), bool), w)


def test_identity_layer_pools_elementwise_max():
    cfg = EncoderConfig(input_dim=4, max_people=5, layer_widths=(4,))
    w = EncoderWeights(cfg, [Dense(np.eye(4), np.zeros(4))])
    f = np.array([[0.1, 0.9, 0.2, 0.0],
                  [0.5, 0.3, 0.2, 0.7]])
    assert np.array_equal(encode(f, w), np.maximum(f[0], f[1]))


def _backward(f, w, upstream):
    """Input gradient of <upstream, pooled> for one set, via the batched path."""
    _, cache = encode_batch(f, np.ones((1, f.shape[0]), bool), w)
    return encode_batch_backward(upstream[None], cache, w)


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
        pooled, (xs, _, _) = encode_batch(f, np.ones((1, p), bool), w)
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


def route(upstream, batch, mask, weights):
    """Reference: ``upstream`` routed to ``where_pool``'s argmax rows, as a
    (B, P, D) gradient."""
    _, arg = where_pool(batch, mask, weights)
    g = np.zeros(batch.shape[:2] + (weights.config.output_dim,))
    np.put_along_axis(g, arg[:, None, :], upstream[:, None, :], axis=1)
    return g


def routed_backward(upstream, batch, mask, weights):
    """Reference: the padded backward.  ``route``'s gradient goes back
    through the stack over every row, padded ones included.  Assigns the
    layer gradients and returns the input gradient."""
    b, p_max, d = batch.shape
    g = route(upstream, batch, mask, weights)
    xs = relu_stack_forward(batch.reshape(b * p_max, d), weights.layers)
    g_in = relu_stack_backward(g.reshape(b * p_max, -1), weights.layers, xs)
    return g_in.reshape(b, p_max, d)


def magnitudes(upstream, batch, mask, weights):
    """``routed_backward`` in magnitudes: |upstream| back through |W| and
    |activations|, masked alike.  Returns each layer's (grad_W, grad_b)
    scale and the input gradient's: the sums of the terms' magnitudes,
    which bound how far two orders of the same sums can round apart."""
    b, p_max, d = batch.shape
    g = route(np.abs(upstream), batch, mask, weights).reshape(b * p_max, -1)
    xs = relu_stack_forward(batch.reshape(b * p_max, d), weights.layers)
    scales = []
    for i in reversed(range(len(weights.layers))):
        g = g * (xs[i + 1] > 0)
        scales.append((np.abs(xs[i]).T @ g, g.sum(axis=0)))
        g = g @ np.abs(weights.layers[i].W).T
    return scales[::-1], g.reshape(b, p_max, d)


ULPS = 4


def assert_close(got, want, scale):
    """Within ``ULPS`` ulps of ``scale``, plus as many of the smallest
    subnormal for sums that underflow."""
    assert got.shape == want.shape
    assert np.all(np.abs(got - want)
                  <= ULPS * (np.finfo(float).eps * scale + 5e-324))


def _copy(weights):
    """A flattened copy of ``weights``."""
    copy = EncoderWeights(weights.config, [Dense(l.W.copy(), l.b.copy())
                                           for l in weights.layers])
    flatten(copy.layers)
    return copy


def padded(rows, mask):
    """The (B, P_max, d) batch of packed ``rows``, zeros in the slots
    ``mask`` leaves out: the padded forward's input."""
    batch = np.zeros(mask.shape + rows.shape[1:])
    batch[mask] = rows
    return batch


def check_against_padded_backward(batch, mask, w, upstream):
    """Backward of ``batch``'s real rows, packed, against
    ``routed_backward`` of the whole batch, for finite inputs."""
    ref = _copy(w)
    _, cache = encode_batch(batch[mask], mask, w)
    got = encode_batch_backward(upstream, cache, w)
    want = routed_backward(upstream, batch, mask, ref)
    scales, in_scale = magnitudes(upstream, batch, mask, ref)
    assert_close(got, want[mask], in_scale[mask])
    for layer, r, (scale_W, scale_b) in zip(w.layers, ref.layers, scales):
        assert_close(layer.grad_W, r.grad_W, scale_W)
        assert_close(layer.grad_b, r.grad_b, scale_b)


# zeros of both signs, subnormals, the smallest normal and the non-finite
SPECIAL = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, math.inf,
           -math.inf, math.nan]
VALUES = st.one_of(st.sampled_from(SPECIAL), st.floats(-4, 4))
FINITE = st.one_of(st.sampled_from(SPECIAL[:5]), st.floats(-4, 4))


@st.composite
def padded_batches(draw, elements=VALUES):
    """Sets of 1-P persons padded to P rows anywhere, and a 1-2 layer encoder
    of random widths."""
    widths = tuple(draw(st.lists(st.integers(1, 9), min_size=1, max_size=2)))
    d = draw(st.integers(1, 5))
    b, p_max = draw(st.integers(1, 5)), draw(st.integers(1, 7))
    batch = draw(hnp.arrays(float, (b, p_max, d), elements=elements))
    mask = draw(hnp.arrays(bool, (b, p_max)))
    mask[np.arange(b), draw(hnp.arrays(np.intp, b,
                                       elements=st.integers(0, p_max - 1)))] = True
    dims = (d,) + widths
    layers = [Dense(draw(hnp.arrays(float, (m, n), elements=elements)),
                    draw(hnp.arrays(float, n, elements=elements)))
              for m, n in zip(dims, dims[1:])]
    flatten(layers)
    return batch, mask, EncoderWeights(EncoderConfig(d, p_max, widths), layers)


# the drawn batches hold NaN and inf, and ``route`` runs them through the
# stack outside an errstate
@pytest.mark.filterwarnings(
    "ignore:invalid value encountered in matmul:RuntimeWarning")
@pytest.mark.filterwarnings(
    "ignore:invalid value encountered in add:RuntimeWarning")
@settings(max_examples=200, deadline=None, derandomize=True)
@given(case=padded_batches(), data=st.data())
def test_pooling_is_bit_equal_to_masked_argmax(case, data):
    batch, mask, w = case
    # the padded slots hold drawn values too, which only the references read
    rows = batch[mask]
    before = rows.copy()
    with np.errstate(all="ignore"):
        pooled, cache = encode_batch(rows, mask, w)
        want, _ = where_pool(batch, mask, w)
    assert pooled.tobytes() == want.tobytes() and pooled.shape == want.shape
    assert rows.tobytes() == before.tobytes()
    # Backward finds the argmax among the real rows.  Distinct non-zero
    # upstream values make the routed gradient name the argmax row of every
    # pooled dimension; drawn ones carry zeros of both signs, NaN and inf.
    for upstream in (np.arange(1.0, pooled.size + 1).reshape(pooled.shape),
                     data.draw(hnp.arrays(float, pooled.shape,
                                          elements=VALUES))):
        routed = encoder._route(upstream, cache)
        # the cache holds the rows as given
        assert cache[0][0] is rows
        want_routed = route(upstream, batch, mask, w)[mask]
        assert routed.tobytes() == want_routed.tobytes()
        assert routed.shape == want_routed.shape
        ref = _copy(w)
        with np.errstate(all="ignore"):
            got = encode_batch_backward(upstream, cache, w)
            routed_backward(upstream, batch, mask, ref)
        assert got.shape == rows.shape
        # the last layer's mask, read off the pooled values, is the padded
        # stack's: its grad_b sums the same values, in the same order, and
        # only the padded rows' zeros between them (so up to zero signs)
        assert np.array_equal(w.layers[-1].grad_b, ref.layers[-1].grad_b,
                              equal_nan=True)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(case=padded_batches(FINITE), data=st.data())
def test_packed_backward_is_close_to_the_padded_backward(case, data):
    batch, mask, w = case
    upstream = data.draw(hnp.arrays(float, (batch.shape[0], w.config.output_dim),
                                    elements=FINITE))
    with np.errstate(under="ignore", over="ignore"):
        check_against_padded_backward(batch, mask, w, upstream)


@pytest.mark.parametrize("counts", [(3, 3, 3), (4,), (1,), (1, 1, 1),
                                    (1, 5, 2)],
                         ids=["no padding", "one scene", "one person",
                              "one person each", "mixed"])
def test_packed_backward_layouts(counts):
    rng = np.random.default_rng(13)
    w = _random_encoder(rng, widths=(7, 5, 4))
    rows, mask = pad_features([rng.standard_normal((c, 6)) for c in counts])
    upstream = rng.standard_normal((len(counts), 4))
    check_against_padded_backward(padded(rows, mask), mask, w, upstream)


# The stack runs over the packed rows only: no forward pass builds a
# (B, P_max, D) activation.

def test_encode_batch_runs_the_stack_over_the_real_rows_only(monkeypatch):
    rng = np.random.default_rng(15)
    w = _random_encoder(rng, max_people=25)
    seen = []

    def spy(x, layers):
        seen.append(x)
        return relu_stack_forward(x, layers)

    monkeypatch.setattr(encoder, "relu_stack_forward", spy)
    for counts in ((25, 1, 1, 3), (2, 7), (1,)):
        rows, mask = pad_features([rng.standard_normal((c, 6)) for c in counts])
        encode_batch(rows, mask, w)
        # the rows as given, no copy
        assert seen[-1] is rows and len(rows) == mask.sum() == sum(counts)


# CLI default widths: one (B, P_max, D) float64 array of this batch is
# 32 * 25 * 1024 * 8 = 6.5 MB; its 56 real rows' activations are 0.6 MB
def test_encode_batch_allocates_less_than_one_padded_activation():
    rng = np.random.default_rng(16)
    w = init_encoder(EncoderConfig(layer_widths=(64, 256, 1024)), rng)
    counts = [25] + [1] * 31
    rows, mask = pad_features([rng.standard_normal((c, 18)) for c in counts])
    one_padded = mask.size * w.config.output_dim * 8
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base, _ = tracemalloc.get_traced_memory()
        encode_batch(rows, mask, w)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak - base < one_padded


@st.composite
def layouts(draw):
    """Set sizes for a batch: a lone one-person set, or up to 40 sets of
    1-25 persons with a run of one-row filler sets at the end."""
    if draw(st.booleans()):
        return [1]
    sizes = draw(st.lists(st.integers(1, 25), min_size=1, max_size=32))
    return sizes + [1] * draw(st.integers(0, 8))


@pytest.mark.parametrize("widths", [(64, 128, 256), (64, 256, 1024)],
                         ids=["acceptance", "cli-default"])
@settings(max_examples=100, deadline=None, derandomize=True)
@given(sizes=layouts(), seed=st.integers(0, 2**32 - 1))
def test_packed_pooling_is_bit_equal_to_the_padded_forward(widths, sizes, seed):
    rng = np.random.default_rng(seed)
    w = init_encoder(EncoderConfig(layer_widths=widths), np.random.default_rng(0))
    sets = [rng.standard_normal((c, 18)) for c in sizes]
    for k in range(len(sets)):
        if sizes[k] == 1 and rng.random() < 0.5:
            sets[k] = np.zeros((1, 18))  # a filler set, as prediction pads
    rows, mask = pad_features(sets)
    pooled, _ = encode_batch(rows, mask, w)
    # where_pool is the padded forward: every row through the stack
    assert pooled.tobytes() == where_pool(padded(rows, mask), mask, w)[0].tobytes()


# few distinct values, so rows tie in column 0 and beyond
ROW_VALUES = [0.0, -0.0, 1.0, -1.0, 0.5, math.inf, -math.inf, math.nan]


@settings(max_examples=300, deadline=None, derandomize=True)
@given(f=hnp.arrays(float, st.tuples(st.integers(0, 6), st.integers(1, 4)),
                    elements=st.one_of(st.sampled_from(ROW_VALUES),
                                       st.floats(-2, 2))))
def test_sort_rows_is_the_lexsort_order(f):
    # distinct column-0 values take one argsort; the rest lexsort itself
    assert encoder.sort_rows(f).tobytes() == f[np.lexsort(f.T[::-1])].tobytes()
