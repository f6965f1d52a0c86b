import numpy as np

from ospace.layers import (
    flatten,
    init_dense,
    relu_stack_backward,
    relu_stack_forward,
    sigmoid,
)


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


def test_flatten_makes_layers_views_of_two_vectors():
    rng = np.random.default_rng(1)
    layers = [init_dense(3, 4, rng), init_dense(4, 2, rng)]
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
    x = rng.standard_normal((4, 5))
    out, xs, masks = relu_stack_forward(x, layers)
    g = rng.standard_normal(out.shape)
    for layer in layers:
        layer.grad_W.fill(np.nan)
        layer.grad_b.fill(np.nan)
    relu_stack_backward(g, layers, xs, masks)
    g1 = np.where(masks[1], g, 0.0)
    g0 = np.where(masks[0], g1 @ layers[1].W.T, 0.0)
    assert np.array_equal(layers[1].grad_W, xs[1].T @ g1)
    assert np.array_equal(layers[1].grad_b, g1.sum(axis=0))
    assert np.array_equal(layers[0].grad_W, xs[0].T @ g0)
    assert np.array_equal(layers[0].grad_b, g0.sum(axis=0))


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
