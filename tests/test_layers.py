import math

import numpy as np
from hypothesis import example, given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from ospace.layers import (
    Dense,
    _relu_in_place,
    flatten,
    init_dense,
    init_store,
    relu_stack_backward,
    relu_stack_forward,
    sigmoid,
)

# zeros of both signs, subnormals, the smallest normal and the non-finite
SPECIAL = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308,
           -2.2250738585072014e-308, math.inf, -math.inf, math.nan]


def where_forward(x, layers):
    """Reference: the ReLU stack as np.where computed it."""
    xs = []
    masks = []
    for layer in layers:
        xs.append(x)
        z = x @ layer.W + layer.b
        m = z > 0
        masks.append(m)
        x = np.where(m, z, 0.0)
    return x, xs, masks


def where_backward(g, layers, xs, masks):
    """Reference: the ReLU stack's backward as np.where computed it."""
    for layer, x, m in zip(reversed(layers), reversed(xs), reversed(masks)):
        g = np.where(m, g, 0.0)
        np.matmul(x.T, g, out=layer.grad_W)
        np.sum(g, axis=0, out=layer.grad_b)
        g = g @ layer.W.T
    return g


def values(finite=False):
    specials = [v for v in SPECIAL if math.isfinite(v) or not finite]
    return st.one_of(st.sampled_from(specials), st.floats(-4, 4))


@st.composite
def relu_stacks(draw, finite=False):
    """A batch of rows and a stack of 1-3 layers, all of random shape."""
    dims = draw(st.lists(st.integers(1, 11), min_size=2, max_size=4))
    x = draw(hnp.arrays(float, (draw(st.integers(1, 13)), dims[0]),
                        elements=values(finite)))
    layers = [Dense(draw(hnp.arrays(float, (a, b), elements=values(finite))),
                    draw(hnp.arrays(float, b, elements=values(finite))))
              for a, b in zip(dims, dims[1:])]
    return x, layers


def _same(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def test_sigmoid_extremes_safe():
    with np.errstate(over="raise"):
        y = sigmoid(np.array([-1000.0, -30.0, 0.0, 30.0, 1000.0]))
    assert y[0] == 0.0
    assert y[2] == 0.5
    assert y[4] == 1.0
    assert 0 < y[1] < 1e-12
    assert 1 - 1e-12 < y[3] < 1


def test_sigmoid_symmetry():
    z = np.linspace(-30, 30, 101)
    assert np.allclose(sigmoid(z) + sigmoid(-z), 1.0, atol=1e-15)


def test_sigmoid_matches_naive_in_safe_range():
    z = np.linspace(-20, 20, 41)
    assert np.allclose(sigmoid(z), 1 / (1 + np.exp(-z)), rtol=1e-15)


def masked_sigmoid(z):
    """Reference: the logistic as boolean-mask gathers and scatters computed it."""
    out = np.empty_like(z, dtype=float)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def logits():
    return st.one_of(st.sampled_from(SPECIAL), st.floats(-1000, 1000),
                     st.floats(allow_nan=True, allow_infinity=True))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(z=hnp.arrays(float, hnp.array_shapes(max_dims=2, max_side=40),
                    elements=logits()))
@example(z=np.array(SPECIAL + [-n for n in SPECIAL] + [-1000.0, 1000.0]))
def test_sigmoid_is_bit_equal_to_the_masked_form(z):
    with np.errstate(all="ignore"):
        assert _same(sigmoid(z), masked_sigmoid(z))


def test_sigmoid_is_bit_equal_to_the_masked_form_on_any_bit_pattern():
    z = np.frombuffer(np.random.default_rng(0).bytes(8 << 16), np.float64)
    nan = np.isnan(z)
    assert nan.any() and np.signbit(z[nan]).any() and not np.signbit(z[nan]).all()
    with np.errstate(all="ignore"):
        assert _same(sigmoid(z), masked_sigmoid(z))


def test_flatten_makes_layers_views_of_two_vectors():
    rng = np.random.default_rng(1)
    layers = [init_dense(3, 4, rng), init_dense(4, 2, rng)]
    # a Dense holds W and b only: flatten is what makes gradient buffers
    assert not any(hasattr(l, "grad_W") or hasattr(l, "grad_b") for l in layers)
    before = [(l.W.copy(), l.b.copy()) for l in layers]
    params, grads = flatten(layers)
    assert params.shape == grads.shape == (3 * 4 + 4 + 4 * 2 + 2,)
    assert params.tobytes() == b"".join(w.tobytes() + b.tobytes()
                                        for w, b in before)
    assert np.all(grads == 0)
    for layer, (w, b) in zip(layers, before):
        assert layer.W.shape == layer.grad_W.shape == w.shape
        assert layer.b.shape == layer.grad_b.shape == b.shape
    params[...] = 7.0
    grads[...] = 5.0
    for layer in layers:
        assert np.all(layer.W == 7.0) and np.all(layer.b == 7.0)
        assert np.all(layer.grad_W == 5.0) and np.all(layer.grad_b == 5.0)


def test_relu_stack_backward_overwrites_gradient_buffers():
    rng = np.random.default_rng(2)
    layers = [init_dense(5, 6, rng), init_dense(6, 3, rng)]
    flatten(layers)
    x = rng.standard_normal((4, 5))
    xs = relu_stack_forward(x, layers)
    _, _, masks = where_forward(x, layers)
    g = rng.standard_normal(xs[-1].shape)
    for layer in layers:
        layer.grad_W.fill(np.nan)
        layer.grad_b.fill(np.nan)
    relu_stack_backward(g, layers, xs)
    g1 = np.where(masks[1], g, 0.0)
    g0 = np.where(masks[0], g1 @ layers[1].W.T, 0.0)
    assert np.array_equal(layers[1].grad_W, xs[1].T @ g1)
    assert np.array_equal(layers[1].grad_b, g1.sum(axis=0))
    assert np.array_equal(layers[0].grad_W, xs[0].T @ g0)
    assert np.array_equal(layers[0].grad_b, g0.sum(axis=0))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(z=hnp.arrays(float, hnp.array_shapes(max_dims=2, max_side=40),
                    elements=values()))
def test_relu_kernel_is_bit_equal_to_where(z):
    want = np.where(z > 0, z, 0.0)
    out = z.copy()
    assert _relu_in_place(out) is out
    assert _same(out, want)
    # backward reads the mask off the output: it must be z > 0 everywhere
    assert np.array_equal(out > 0, z > 0)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(stack=relu_stacks())
def test_relu_stack_forward_is_bit_equal_to_where(stack):
    x, layers = stack
    x_before = x.copy()
    with np.errstate(all="ignore"):
        xs = relu_stack_forward(x, layers)
        want, want_xs, want_masks = where_forward(x, layers)
    assert len(xs) == len(layers) + 1
    assert _same(xs[-1], want)
    assert all(_same(a, b) for a, b in zip(xs, want_xs))
    # the masks backward reads off the outputs are the pre-activation ones
    assert all(_same(a > 0, m) for a, m in zip(xs[1:], want_masks))
    assert xs[0] is x and _same(x, x_before)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(stack=relu_stacks(finite=True), data=st.data())
def test_relu_stack_backward_is_bit_equal_to_where(stack, data):
    x, layers = stack
    xs = relu_stack_forward(x, layers)
    _, want_xs, masks = where_forward(x, layers)
    # the gradient may hold NaN and inf too: the bit select keeps them
    # where the mask is set and writes +0.0 elsewhere, as np.where does
    g = data.draw(hnp.arrays(float, xs[-1].shape, elements=values()))
    g_before = g.copy()
    xs_before = [a.copy() for a in xs]
    ref = [Dense(l.W.copy(), l.b.copy()) for l in layers]
    flatten(layers)
    flatten(ref)
    with np.errstate(all="ignore"):
        # the kernel reads its masks off xs, the oracle takes z > 0
        got = relu_stack_backward(g, layers, xs)
        want = where_backward(g, ref, want_xs, masks)
    assert _same(got, want)
    for layer, r in zip(layers, ref):
        assert _same(layer.grad_W, r.grad_W) and _same(layer.grad_b, r.grad_b)
    assert _same(g, g_before)
    assert all(_same(a, b) for a, b in zip(xs, xs_before))


def test_init_dense_fan_in_bounds():
    rng = np.random.default_rng(0)
    layer = init_dense(16, 8, rng)
    bound = 1 / np.sqrt(16)
    assert layer.W.shape == (16, 8)
    assert layer.b.shape == (8,)
    assert np.all(np.abs(layer.W) <= bound)
    assert np.all(np.abs(layer.b) <= bound)
    assert np.std(layer.W) > 0


def test_init_dense_deterministic():
    a = init_dense(5, 4, np.random.default_rng(3))
    b = init_dense(5, 4, np.random.default_rng(3))
    assert a.W.tobytes() == b.W.tobytes()
    assert a.b.tobytes() == b.b.tobytes()


def uniform_reference(dims, rng):
    """Reference: every layer's W and b drawn by ``rng.uniform`` into an
    array of its own."""
    arrays = []
    for d_in, d_out in zip(dims, dims[1:]):
        bound = 1.0 / np.sqrt(d_in)
        arrays.append(rng.uniform(-bound, bound, size=(d_in, d_out)))
        arrays.append(rng.uniform(-bound, bound, size=d_out))
    return arrays


@settings(max_examples=150, deadline=None, derandomize=True)
@given(dims=st.lists(st.integers(1, 40), min_size=2, max_size=5),
       seed=st.integers(0, 2**32 - 1))
@example(dims=[1, 1], seed=0)
@example(dims=[1, 7, 1], seed=5)
@example(dims=[27, 18], seed=0)
@example(dims=[33, 17, 9], seed=0)
def test_init_store_draws_the_bits_and_state_of_rng_uniform(dims, seed):
    rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    params, layers = init_store(list(zip(dims, dims[1:])), rng)
    want = uniform_reference(dims, ref_rng)
    assert params.tobytes() == b"".join(a.tobytes() for a in want)
    got = [a for layer in layers for a in (layer.W, layer.b)]
    assert all(_same(a, b) and a.base is params for a, b in zip(got, want))
    # the generator is left where rng.uniform leaves it
    assert rng.bit_generator.state == ref_rng.bit_generator.state
    first = init_dense(dims[0], dims[1], np.random.default_rng(seed))
    assert _same(first.W, want[0]) and _same(first.b, want[1])
