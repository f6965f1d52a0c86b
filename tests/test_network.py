import json
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from ospace import encoder, synthetic, tuning
from ospace.core import DEFAULT_SPEC, Person, RoomSpec, Scene
from ospace.dataset import scene_features
from ospace.encoder import EncoderConfig, encode, init_encoder
from ospace.layers import Dense, flatten, relu_stack_forward
from ospace import network
from ospace.checkpoint import CHECKPOINT_VERSION
from ospace.network import (
    _ADAM_BLOCK,
    HeadConfig,
    HeadWeights,
    ModelWeights,
    TrainConfig,
    TrainingDivergedError,
    batch_backward,
    batch_forward,
    batch_loss,
    example_weight,
    forward,
    head_backward,
    head_forward,
    init_head,
    load_model,
    predict_heatmap,
    predict_heatmaps,
    save_model,
    train,
    _Adam,
    _Sgd,
)
from ospace.postprocess import predict_scene
from ospace.room import RoomFeature

ROOM4 = RoomFeature(np.zeros(4))
ENC_CFG = EncoderConfig(input_dim=18, max_people=25, layer_widths=(8, 16))
HEAD_CFG = HeadConfig(input_dim=20, hidden_widths=(16,), output_dim=120)


def _scenes(n=6):
    out = []
    for i in range(n):
        out.append(Scene(
            f"s{i}",
            (Person(1.0 + 0.3 * i, 1.0, 0.0),
             Person(2.0, 2.0 + 0.2 * i, 90.0),
             Person(3.0, 1.5, 180.0)),
            ((0, 1, 2),),
        ))
    return out


def test_train_config_validation():
    with pytest.raises(ValueError):
        TrainConfig(epochs=-1)
    with pytest.raises(ValueError):
        TrainConfig(batch_size=0)
    with pytest.raises(ValueError):
        TrainConfig(learning_rate=-0.1)
    with pytest.raises(ValueError):
        TrainConfig(optimizer="rmsprop")
    with pytest.raises(ValueError):
        TrainConfig(multi_group_weight=0.5)
    for bad in (float("nan"), float("inf")):
        with pytest.raises(ValueError, match="finite"):
            TrainConfig(multi_group_weight=bad)
    TrainConfig(epochs=0, learning_rate=0.0)  # both legal


def test_head_config_validation():
    with pytest.raises(ValueError):
        HeadConfig(input_dim=0)
    with pytest.raises(ValueError):
        HeadConfig(hidden_widths=(10, 0))
    assert HeadConfig(hidden_widths=()).hidden_widths == ()


def test_forward_hand_trace():
    cfg = HeadConfig(input_dim=2, hidden_widths=(), output_dim=1)
    w = HeadWeights(cfg, [Dense(np.ones((2, 1)), np.zeros(1))])
    y = forward(RoomFeature(np.array([1.0])), np.array([1.0]), w)
    assert y[0] == 1.0 / (1.0 + np.exp(-2.0))
    assert abs(y[0] - 0.8807970779778823) < 1e-15


def test_forward_output_range():
    rng = np.random.default_rng(0)
    w = init_head(HeadCfg := HeadConfig(input_dim=7, hidden_widths=(9,),
                                        output_dim=120), rng)
    y = forward(RoomFeature(rng.standard_normal(3)), rng.standard_normal(4), w)
    assert y.shape == (120,)
    assert np.all((y > 0) & (y < 1))


def test_head_forward_shape_check():
    w = init_head(HeadConfig(input_dim=5, hidden_widths=(), output_dim=2),
                  np.random.default_rng(1))
    with pytest.raises(ValueError):
        head_forward(np.zeros((3, 4)), w)
    with pytest.raises(ValueError):
        head_forward(np.zeros(5), w)


def test_example_weight():
    p = tuple(Person(1.0 + 0.5 * i, 1.0, 0.0) for i in range(5))
    one_group = Scene("a", p, ((0, 1, 2), (3,), (4,)))
    two_groups = Scene("b", p, ((0, 1, 2), (3, 4)))
    assert example_weight(one_group, 3.0) == 1.0
    assert example_weight(two_groups, 3.0) == 3.0
    assert example_weight(two_groups, 1.0) == 1.0


def test_batch_loss_is_mean_of_weighted_mse():
    rng = np.random.default_rng(2)
    pred = rng.uniform(0, 1, size=(4, 6))
    target = rng.uniform(0, 1, size=(4, 6))
    wv = np.array([1.0, 3.0, 1.0, 2.0])
    want = np.mean(wv * np.mean((pred - target) ** 2, axis=1))
    assert np.isclose(batch_loss(pred, target, wv), want, rtol=1e-15)


def test_batch_gradients_match_finite_differences():
    rng = np.random.default_rng(3)
    enc_cfg = EncoderConfig(input_dim=5, max_people=6, layer_widths=(3, 4))
    head_cfg = HeadConfig(input_dim=6, hidden_widths=(5,), output_dim=6)
    enc_w = init_encoder(enc_cfg, rng)
    head_w = init_head(head_cfg, rng)
    flatten(enc_w.layers + head_w.layers)
    feats = [rng.standard_normal((int(rng.integers(1, 5)), 5)) for _ in range(3)]
    room = rng.standard_normal(2)
    targets = rng.uniform(0.2, 0.8, size=(3, 6))
    wv = np.array([1.0, 2.0, 1.0])

    def loss():
        pred, _ = batch_forward(feats, room, enc_w, head_w)
        return batch_loss(pred, targets, wv)

    pred, cache = batch_forward(feats, room, enc_w, head_w)
    for layer in enc_w.layers + head_w.layers:
        layer.grad_W.fill(np.nan)
        layer.grad_b.fill(np.nan)
    batch_backward(pred, targets, wv, cache, enc_w, head_w)

    h = 1e-6
    checked = 0
    for layer in enc_w.layers + head_w.layers:
        for arr, grad in ((layer.W, layer.grad_W), (layer.b, layer.grad_b)):
            flat = arr.reshape(-1)
            gflat = grad.reshape(-1)
            for k in range(0, flat.size, max(1, flat.size // 5)):
                orig = flat[k]
                flat[k] = orig + h
                up = loss()
                flat[k] = orig - h
                down = loss()
                flat[k] = orig
                numeric = (up - down) / (2 * h)
                denom = max(abs(numeric), abs(gflat[k]), 1e-6)
                assert abs(numeric - gflat[k]) / denom < 1e-4
                checked += 1
    assert checked > 30


def test_head_backward_overwrites_gradient_buffers():
    rng = np.random.default_rng(4)
    w = init_head(HeadConfig(input_dim=5, hidden_widths=(6, 4), output_dim=3),
                  rng)
    flatten(w.layers)
    x = rng.standard_normal((7, 5))
    up = rng.standard_normal((7, 3))
    y, cache = head_forward(x, w)
    head_backward(up, cache, w)
    want = [(l.grad_W.copy(), l.grad_b.copy()) for l in w.layers]
    for layer in w.layers:
        layer.grad_W.fill(np.nan)
        layer.grad_b.fill(np.nan)
    head_backward(up, cache, w)
    for layer, (gw, gb) in zip(w.layers, want):
        assert layer.grad_W.tobytes() == gw.tobytes()
        assert layer.grad_b.tobytes() == gb.tobytes()


class _ReferenceAdam:
    """The per-array Adam loop the flat, blocked _Adam must reproduce: Kingma
    and Ba's efficient form, p -= alpha_t m / (sqrt(v) + eps_t)."""

    def __init__(self, lr, beta1=0.9, beta2=0.999, eps=1e-8):
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.t = 0
        self._m = None
        self._v = None

    def step(self, layers):
        if self._m is None:
            self._m = [(np.zeros_like(l.W), np.zeros_like(l.b)) for l in layers]
            self._v = [(np.zeros_like(l.W), np.zeros_like(l.b)) for l in layers]
        self.t += 1
        c1 = 1.0 - self.beta1 ** self.t
        c2 = 1.0 - self.beta2 ** self.t
        alpha = self.lr * math.sqrt(c2) / c1
        eps = self.eps * math.sqrt(c2)
        for layer, (mw, mb), (vw, vb) in zip(layers, self._m, self._v):
            for p, g, m, v in ((layer.W, layer.grad_W, mw, vw),
                               (layer.b, layer.grad_b, mb, vb)):
                m *= self.beta1
                m += (1.0 - self.beta1) * g
                v *= self.beta2
                v += (1.0 - self.beta2) * g * g
                p -= alpha * m / (np.sqrt(v) + eps)


def _textbook_adam_step(p, g, m, v, t, lr, beta1=0.9, beta2=0.999, eps=1e-8):
    """Adam as Kingma and Ba's Algorithm 1 writes it, bias-corrected moments
    first."""
    m *= beta1
    m += (1.0 - beta1) * g
    v *= beta2
    v += (1.0 - beta2) * g * g
    m_hat = m / (1.0 - beta1 ** t)
    v_hat = v / (1.0 - beta2 ** t)
    p -= lr * m_hat / (np.sqrt(v_hat) + eps)


def test_efficient_adam_is_within_ulps_of_the_textbook_form():
    rng = np.random.default_rng(17)
    n = 1000
    # gradients over several decades, a few of them zero at every step
    scale = 10.0 ** rng.uniform(-6, 2, n)
    params, want = np.zeros(n), np.zeros(n)
    m, v = np.zeros(n), np.zeros(n)
    opt = _Adam(1e-3, params, np.zeros(n))
    for t in range(1, 51):
        opt.grads[...] = scale * rng.standard_normal(n)
        opt.grads[rng.integers(0, n, 10)] = 0.0
        # from zero, a parameter after the step is minus its update, exactly
        params.fill(0.0)
        want.fill(0.0)
        opt.step()
        _textbook_adam_step(want, opt.grads, m, v, t, 1e-3)
        assert opt._m.tobytes() == m.tobytes() and opt._v.tobytes() == v.tobytes()
        # within a few relative ulps from step 1 (c2 = 0.001) on: the two
        # forms round their updates in about a dozen half-ulp steps between them
        assert np.all(np.abs(params - want) <= 8 * np.finfo(float).eps * np.abs(want))


class _ReferenceSgd:
    def __init__(self, lr):
        self.lr = lr

    def step(self, layers):
        for layer in layers:
            layer.W -= self.lr * layer.grad_W
            layer.b -= self.lr * layer.grad_b


@pytest.mark.parametrize("flat_cls, ref_cls", [(_Adam, _ReferenceAdam),
                                               (_Sgd, _ReferenceSgd)])
def test_flat_optimizer_matches_per_array_reference(flat_cls, ref_cls):
    rng = np.random.default_rng(5)
    shapes = [(18, 64), (64, 300), (300, 257), (257, 120)]
    init = [(rng.standard_normal(s), rng.standard_normal(s[1])) for s in shapes]
    ref = [Dense(W.copy(), b.copy()) for W, b in init]
    flat = [Dense(W.copy(), b.copy()) for W, b in init]
    flatten(ref)  # the reference steps per array; this gives it gradients
    params, grads = flatten(flat)
    # several whole blocks plus a partial one
    assert params.size > 2 * _ADAM_BLOCK and params.size % _ADAM_BLOCK
    opt, ref_opt = flat_cls(1e-2, params, grads), ref_cls(1e-2)
    for _ in range(5):
        grads[...] = rng.standard_normal(grads.size)
        grads[_ADAM_BLOCK:2 * _ADAM_BLOCK] = 0.0  # one whole block never moves
        _copy_grads(flat, ref)
        opt.step()
        ref_opt.step(ref)
        for r, f in zip(ref, flat):
            assert f.W.tobytes() == r.W.tobytes()
            assert f.b.tobytes() == r.b.tobytes()
    if flat_cls is _Adam:
        assert opt._all_zero == [False, True, False, False]


def _copy_grads(src, dst):
    for s, d in zip(src, dst):
        d.grad_W[...] = s.grad_W
        d.grad_b[...] = s.grad_b


_KINDS = ("zero", "negative zero", "live", "turns live", "partly zero",
          "square underflows", "nan")


def _fill_block(g, kind, at, step, rng):
    """Block gradient ``g`` (zeroed) at ``step``; ``at`` times the kind's event."""
    if kind == "negative zero":
        g.fill(-0.0)
    elif kind == "live" or (kind == "turns live" and step >= at):
        g[...] = rng.standard_normal(g.size)
    elif kind == "partly zero":
        g[g.size // 2:] = rng.standard_normal(g.size - g.size // 2)
    elif kind == "square underflows" and step == at:
        g[at] = 1e-200
    elif kind == "nan" and step == at:
        g[at] = np.nan


_STEPS = 6


@settings(max_examples=30, deadline=None, derandomize=True)
@given(schedule=st.lists(st.tuples(st.sampled_from(_KINDS),
                                   st.integers(0, _STEPS - 1)),
                         min_size=4, max_size=4),
       seed=st.integers(0, 2**32 - 1))
def test_adam_block_skip_matches_reference(schedule, seed):
    """Skipping all-zero blocks gives the reference's W, b, m and v bits."""
    rng = np.random.default_rng(seed)
    shapes = [(18, 64), (64, 300), (300, 257), (257, 120)]
    init = [(rng.standard_normal(s), rng.standard_normal(s[1])) for s in shapes]
    ref = [Dense(W.copy(), b.copy()) for W, b in init]
    flat = [Dense(W.copy(), b.copy()) for W, b in init]
    flatten(ref)  # the reference steps per array; this gives it gradients
    params, grads = flatten(flat)
    assert -(-params.size // _ADAM_BLOCK) == len(schedule)
    opt, ref_opt = _Adam(1e-2, params, grads), _ReferenceAdam(1e-2)
    seen = [False] * len(schedule)
    for step in range(_STEPS):
        grads.fill(0.0)
        for k, (kind, at) in enumerate(schedule):
            g = grads[k * _ADAM_BLOCK:(k + 1) * _ADAM_BLOCK]
            _fill_block(g, kind, at, step, rng)
            seen[k] = seen[k] or bool(g.any())
        _copy_grads(flat, ref)
        opt.step()
        ref_opt.step(ref)
        assert opt._all_zero == [not s for s in seen]
        for r, f in zip(ref, flat):
            assert f.W.tobytes() == r.W.tobytes()
            assert f.b.tobytes() == r.b.tobytes()
        for moment, ref_moment in ((opt._m, ref_opt._m), (opt._v, ref_opt._v)):
            want = np.concatenate([a.ravel() for pair in ref_moment for a in pair])
            assert moment.tobytes() == want.tobytes()


def test_trained_layers_share_one_contiguous_vector(tmp_path):
    model, _ = train(_scenes(), ROOM4, ENC_CFG, HEAD_CFG, _quick_cfg(epochs=1))
    arrays = [a for l in model.encoder.layers + model.head.layers
              for a in (l.W, l.b)]
    store = arrays[0].base
    assert store.ndim == 1 and store.flags.c_contiguous
    assert store.size == sum(a.size for a in arrays)
    assert all(a.base is store for a in arrays)
    # the store is laid out in checkpoint order: the blob is its bytes
    blob = _checkpoint_bytes(model, tmp_path / "m").split(b"\n", 2)[2]
    assert blob == store.astype("<f8").tobytes()


def test_trained_model_holds_no_gradients_until_flattened():
    model, _ = train(_scenes(), ROOM4, ENC_CFG, HEAD_CFG, _quick_cfg(epochs=1))
    layers = model.encoder.layers + model.head.layers
    assert not any(hasattr(l, "grad_W") or hasattr(l, "grad_b") for l in layers)
    weights = [(l.W.copy(), l.b.copy()) for l in layers]
    params, grads = flatten(layers)
    assert np.all(grads == 0)
    for layer, (W, b) in zip(layers, weights):
        assert layer.W.tobytes() == W.tobytes() and layer.b.tobytes() == b.tobytes()
        assert layer.grad_W.shape == W.shape and layer.grad_b.shape == b.shape
        assert layer.grad_W.base is grads and layer.grad_b.base is grads


def _checkpoint_bytes(model, path) -> bytes:
    save_model(model, path)
    return path.read_bytes()


def _quick_cfg(**kw):
    base = dict(epochs=3, batch_size=4, learning_rate=1e-3, optimizer="adam",
                seed=0)
    base.update(kw)
    return TrainConfig(**base)


def test_train_epoch_zero_returns_seeded_init(tmp_path):
    model, trace = train(_scenes(), ROOM4, ENC_CFG, HEAD_CFG,
                         _quick_cfg(epochs=0))
    assert trace == []
    rng = np.random.default_rng(0)
    enc_ref = init_encoder(ENC_CFG, rng)
    head_ref = init_head(HEAD_CFG, rng)
    for got, want in zip(model.encoder.layers + model.head.layers,
                         enc_ref.layers + head_ref.layers):
        assert got.W.tobytes() == want.W.tobytes()
        assert got.b.tobytes() == want.b.tobytes()
    # train draws into its one store what the two initializers draw apart
    ref = ModelWeights(enc_ref, head_ref, model.norm_stats, seed=0)
    assert (_checkpoint_bytes(model, tmp_path / "trained")
            == _checkpoint_bytes(ref, tmp_path / "init"))


def test_train_zero_learning_rate_keeps_weights():
    model, trace = train(_scenes(), ROOM4, ENC_CFG, HEAD_CFG,
                         _quick_cfg(epochs=4, learning_rate=0.0,
                                    optimizer="sgd"))
    base, _ = train(_scenes(), ROOM4, ENC_CFG, HEAD_CFG, _quick_cfg(epochs=0))
    for got, want in zip(model.encoder.layers + model.head.layers,
                         base.encoder.layers + base.head.layers):
        assert got.W.tobytes() == want.W.tobytes()
    losses = [e.train_loss for e in trace]
    assert len(losses) == 4
    assert all(l == losses[0] for l in losses)


def test_train_same_seed_reproducible(tmp_path):
    a, ta = train(_scenes(), ROOM4, ENC_CFG, HEAD_CFG, _quick_cfg())
    b, tb = train(_scenes(), ROOM4, ENC_CFG, HEAD_CFG, _quick_cfg())
    assert ta == tb
    assert _checkpoint_bytes(a, tmp_path / "a") == _checkpoint_bytes(b, tmp_path / "b")
    c, tc = train(_scenes(), ROOM4, ENC_CFG, HEAD_CFG, _quick_cfg(seed=1))
    assert ta != tc


def test_train_zero_room_skips_its_blocks_with_the_same_bytes(tmp_path,
                                                             monkeypatch):
    room_dim = 1024  # W_room (1024 x 64) covers whole Adam blocks
    room = RoomFeature(np.zeros(room_dim))
    head_cfg = HeadConfig(input_dim=room_dim + 16, hidden_widths=(64,),
                          output_dim=120)
    init, _ = train(_scenes(), room, ENC_CFG, head_cfg, _quick_cfg(epochs=0))
    opts = []

    class SpyAdam(_Adam):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            opts.append(self)

    class WalkEveryBlock(_Adam):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            self._all_zero = [False] * len(self._all_zero)

    monkeypatch.setattr(network, "_Adam", SpyAdam)
    skipped, _ = train(_scenes(), room, ENC_CFG, head_cfg, _quick_cfg())
    assert any(opts[0]._all_zero)
    got, want = skipped.head.layers[0].W, init.head.layers[0].W
    assert got[:room_dim].tobytes() == want[:room_dim].tobytes()
    assert got[room_dim:].tobytes() != want[room_dim:].tobytes()
    monkeypatch.setattr(network, "_Adam", WalkEveryBlock)
    walked, _ = train(_scenes(), room, ENC_CFG, head_cfg, _quick_cfg())
    assert _checkpoint_bytes(skipped, tmp_path / "skipped") == \
        _checkpoint_bytes(walked, tmp_path / "walked")


def test_train_loss_decreases_on_memorizable_data():
    model, trace = train(_scenes(8), ROOM4, ENC_CFG, HEAD_CFG,
                         _quick_cfg(epochs=60, learning_rate=3e-3))
    assert trace[-1].train_loss < 0.25 * trace[0].train_loss
    assert trace[-1].train_loss < 0.02


def test_train_best_epoch_by_validation_loss(tmp_path):
    scenes = _scenes(8)
    val = _scenes(3)
    cfg = _quick_cfg(epochs=12, learning_rate=3e-3)
    model, trace = train(scenes, ROOM4, ENC_CFG, HEAD_CFG, cfg,
                         val_scenes=val)
    assert all(e.val_loss is not None for e in trace)
    k = int(np.argmin([e.val_loss for e in trace])) + 1
    short, st = train(scenes, ROOM4, ENC_CFG, HEAD_CFG,
                      _quick_cfg(epochs=k, learning_rate=3e-3),
                      val_scenes=val)
    assert [e.val_loss for e in st] == [e.val_loss for e in trace[:k]]
    assert _checkpoint_bytes(short, tmp_path / "short") == \
        _checkpoint_bytes(model, tmp_path / "full")


def test_train_divergence_raises_with_epoch():
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(TrainingDivergedError) as exc:
            train(_scenes(), ROOM4, ENC_CFG, HEAD_CFG,
                  _quick_cfg(epochs=5, learning_rate=1e120, optimizer="sgd"))
    assert exc.value.epoch == 2
    assert "non-finite loss at epoch 2" in str(exc.value)


def test_train_validates_dimensions():
    bad_head = HeadConfig(input_dim=21, hidden_widths=(16,), output_dim=120)
    with pytest.raises(ValueError):
        train(_scenes(), ROOM4, ENC_CFG, bad_head, _quick_cfg())
    bad_out = HeadConfig(input_dim=20, hidden_widths=(16,), output_dim=100)
    with pytest.raises(ValueError):
        train(_scenes(), ROOM4, ENC_CFG, bad_out, _quick_cfg())
    with pytest.raises(ValueError):
        train([], ROOM4, ENC_CFG, HEAD_CFG, _quick_cfg())


@pytest.mark.parametrize("split", ["train", "val"])
@pytest.mark.parametrize("size,message", [
    (0, "frame 'bad': 0 persons, a model needs at least 1"),
    (26, "frame 'bad': 26 persons, cap is 25"),
], ids=["no persons", "over the cap"])
def test_train_names_the_frame_a_model_cannot_read(split, size, message,
                                                   monkeypatch):
    def no_work(*args):
        raise AssertionError("training work ran")

    monkeypatch.setattr(network, "fit_norm_stats", no_work)
    scenes = {"train": _scenes(4), "val": _scenes(3)}
    bad = _random_scenes([size], seed=0)[0]
    scenes[split][1] = Scene("bad", bad.persons, bad.groups)
    with pytest.raises(ValueError) as exc:
        train(scenes["train"], ROOM4, ENC_CFG, HEAD_CFG, _quick_cfg(),
              val_scenes=scenes["val"])
    assert str(exc.value) == message


def test_predict_heatmap_well_formed():
    model, _ = train(_scenes(), ROOM4, ENC_CFG, HEAD_CFG, _quick_cfg(epochs=1))
    m = predict_heatmap(_scenes()[0], model, ROOM4)
    assert m.values.shape == (10, 12)
    assert np.all((m.values > 0) & (m.values < 1))


def test_predict_heatmap_person_order_invariant():
    model, _ = train(_scenes(), ROOM4, ENC_CFG, HEAD_CFG, _quick_cfg(epochs=1))
    s = _scenes()[2]
    swapped = Scene(s.frame_id, (s.persons[2], s.persons[0], s.persons[1]),
                    ((0, 1, 2),))
    a = predict_heatmap(s, model, ROOM4)
    b = predict_heatmap(swapped, model, ROOM4)
    assert a.values.tobytes() == b.values.tobytes()


def test_checkpoint_roundtrip_bit_exact(tmp_path):
    model, _ = train(_scenes(), ROOM4, ENC_CFG, HEAD_CFG, _quick_cfg())
    p1 = tmp_path / "a.json"
    p2 = tmp_path / "b.json"
    save_model(model, p1)
    back = load_model(p1)
    save_model(back, p2)
    assert p1.read_bytes() == p2.read_bytes()
    for got, want in zip(back.encoder.layers + back.head.layers,
                         model.encoder.layers + model.head.layers):
        assert got.W.tobytes() == want.W.tobytes()
        assert got.b.tobytes() == want.b.tobytes()
    assert back.norm_stats == model.norm_stats
    assert back.stride_m == model.stride_m
    assert back.spec == model.spec
    a = predict_heatmap(_scenes()[0], model, ROOM4)
    b = predict_heatmap(_scenes()[0], back, ROOM4)
    assert a.values.tobytes() == b.values.tobytes()


def test_zero_wide_room_trains_round_trips_and_predicts(tmp_path):
    room = RoomFeature(np.zeros(0))  # what the CLI trains on without a room
    head_cfg = HeadConfig(input_dim=ENC_CFG.output_dim, hidden_widths=(16,),
                          output_dim=120)
    model, trace = train(_scenes(), room, ENC_CFG, head_cfg, _quick_cfg())
    assert len(trace) == 3
    save_model(model, tmp_path / "m.ckpt")
    back = load_model(tmp_path / "m.ckpt")
    assert back.head.config.input_dim == ENC_CFG.output_dim
    scene = _scenes()[0]
    heatmap, _, groups = predict_scene(scene, back, room)
    assert heatmap.values.tobytes() == \
        predict_heatmap(scene, model, room).values.tobytes()
    assert sorted(i for g in groups for i in g) == list(range(len(scene.persons)))


def _edit_header(path, edit) -> None:
    """Rewrite the checkpoint at ``path`` with ``edit`` applied to its header."""
    magic, header, blob = path.read_bytes().split(b"\n", 2)
    header = json.loads(header)
    edit(header)
    path.write_bytes(magic + b"\n" + json.dumps(header).encode() + b"\n" + blob)


def test_checkpoint_version_tag(tmp_path):
    model, _ = train(_scenes(), ROOM4, ENC_CFG, HEAD_CFG, _quick_cfg(epochs=0))
    path = tmp_path / "m.ckpt"
    save_model(model, path)
    magic, header, _ = path.read_bytes().split(b"\n", 2)
    assert magic.decode() == CHECKPOINT_VERSION
    assert json.loads(header)["version"] == CHECKPOINT_VERSION
    for version in ("ospace-checkpoint-0", "ospace-checkpoint-1"):
        save_model(model, path)
        _edit_header(path, lambda h: h.update(version=version))
        with pytest.raises(ValueError, match="checkpoint version"):
            load_model(path)


def test_checkpoint_custom_spec(tmp_path):
    spec = RoomSpec(rows=4, cols=5, cell_m=1.0)
    enc = EncoderConfig(input_dim=18, max_people=10, layer_widths=(6,))
    head = HeadConfig(input_dim=10, hidden_widths=(), output_dim=20)
    scenes = [Scene("x", (Person(1.0, 1.0, 0.0), Person(2.0, 1.0, 180.0)),
                    ((0, 1),))]
    model, _ = train(scenes, ROOM4, enc, head,
                     _quick_cfg(epochs=1), spec=spec, stride_m=0.4)
    save_model(model, tmp_path / "m.ckpt")
    back = load_model(tmp_path / "m.ckpt")
    assert back.spec == spec
    assert back.stride_m == 0.4
    m = predict_heatmap(scenes[0], back, ROOM4)
    assert m.values.shape == (4, 5)


def _checkpoint_model():
    model, _ = train(_scenes(), ROOM4, ENC_CFG, HEAD_CFG, _quick_cfg(epochs=0))
    return model


def test_checkpoint_rejects_head_output_off_grid(tmp_path):
    path = tmp_path / "m.ckpt"
    save_model(_checkpoint_model(), path)
    _edit_header(path, lambda h: h["spec"].update(cols=11))
    with pytest.raises(ValueError, match="head layer 1.*grid cells 110"):
        load_model(path)


def test_checkpoint_rejects_non_finite_weight(tmp_path):
    path = tmp_path / "m.ckpt"
    for value in (float("nan"), float("inf")):
        for section, i, name, index in (("encoder", 1, "W", (3, 2)),
                                        ("head", 0, "b", 0)):
            model = _checkpoint_model()
            getattr(getattr(model, section).layers[i], name)[index] = value
            save_model(model, path)  # hashes the blob as it is
            with pytest.raises(ValueError,
                               match=f"{section} layer {i}: non-finite"):
                load_model(path)


# predict_heatmaps at the acceptance widths, where the BLAS paths that the
# chunking steers around (a head gemm under 9 rows, an encoder at one row)
# give other bits
CHUNK = network._CHUNK
ACC_ENC = EncoderConfig(input_dim=18, max_people=25, layer_widths=(64, 128, 256))
ACC_HEAD = HeadConfig(input_dim=16 + 256, hidden_widths=(256,), output_dim=120)
ROOM16 = RoomFeature(np.linspace(-1.0, 1.0, 16))
ACCEPTANCE_MODEL, _ = train(_scenes(), ROOM16, ACC_ENC, ACC_HEAD,
                            _quick_cfg(epochs=0))


def _random_scenes(sizes, seed):
    """One scene per size, persons at uniform places and headings."""
    rng = np.random.default_rng(seed)
    return [Scene(f"r{i}", [Person(*xy, yaw) for xy, yaw in
                            zip(rng.uniform((0, 0), (6, 5), (n, 2)),
                                rng.uniform(-180, 180, n))],
                  [(k,) for k in range(n)])
            for i, n in enumerate(sizes)]


def _bits(heatmaps):
    return [h.values.tobytes() for h in heatmaps]


@settings(max_examples=25, deadline=None, derandomize=True)
@given(n=st.sampled_from([CHUNK - 1, CHUNK, CHUNK + 1, 2 * CHUNK - 1,
                          2 * CHUNK, 2 * CHUNK + 1]),
       seed=st.integers(0, 2**32 - 1), lone=st.integers(0, 10**6),
       crowd=st.integers(0, 10**6), cut=st.integers(0, 10**6))
@example(n=CHUNK + 1, seed=0, lone=CHUNK, crowd=0, cut=CHUNK - 1)
@example(n=2 * CHUNK + 1, seed=1, lone=2 * CHUNK, crowd=CHUNK, cut=2)
def test_batched_heatmap_bits_depend_on_the_scene_alone(n, seed, lone, crowd, cut):
    """A scene's heatmap bytes from a multi-scene call are the same whatever
    scenes share the call: shuffled, or split into two calls at a cut."""
    model = ACCEPTANCE_MODEL
    rng = np.random.default_rng(seed)
    sizes = rng.integers(1, ACC_ENC.max_people + 1, n)
    lone %= n  # with n = kC + 1 and lone = kC, alone in the last chunk
    sizes[lone] = 1
    sizes[(lone + 1 + crowd % (n - 1)) % n] = ACC_ENC.max_people
    scenes = _random_scenes(sizes, seed)
    want = _bits(predict_heatmaps(scenes, model, ROOM16))
    order = rng.permutation(n)
    shuffled = _bits(predict_heatmaps([scenes[i] for i in order], model, ROOM16))
    assert [shuffled[k] for k in np.argsort(order)] == want
    cut = 2 + cut % (n - 3)  # both calls hold two or more scenes
    split = (_bits(predict_heatmaps(scenes[:cut], model, ROOM16))
             + _bits(predict_heatmaps(scenes[cut:], model, ROOM16)))
    assert split == want


def _one_scene_oracle(scene, model, room):
    """``predict_heatmap`` as it was before ``predict_heatmaps``: the
    scene's features through ``encode`` and ``forward``."""
    people = encode(scene_features(scene, model.norm_stats), model.encoder)
    y = forward(room, people, model.head)
    return y.reshape(model.spec.rows, model.spec.cols)


def test_one_scene_call_keeps_the_encode_forward_bits():
    model = ACCEPTANCE_MODEL
    scenes = _random_scenes([1, 2, 7, 25], seed=3)
    batched = predict_heatmaps(scenes, model, ROOM16)
    for scene, multi in zip(scenes, batched):
        want = _one_scene_oracle(scene, model, ROOM16)
        (alone,) = predict_heatmaps([scene], model, ROOM16)
        assert alone.values.tobytes() == want.tobytes()
        assert predict_heatmap(scene, model, ROOM16).values.tobytes() == \
            want.tobytes()
        # a multi-scene call may round otherwise, by a few ulps at most
        np.testing.assert_allclose(multi.values, want, rtol=0,
                                   atol=16 * np.finfo(float).eps)


def test_predict_heatmaps_of_no_scenes_is_empty():
    assert predict_heatmaps([], ACCEPTANCE_MODEL, ROOM16) == []


@pytest.mark.parametrize("size,message", [
    (0, "frame 'bad': 0 persons, a model needs at least 1"),
    (26, "frame 'bad': 26 persons, cap is 25"),
], ids=["no persons", "over the cap"])
def test_grid_search_error_names_the_frame(size, message):
    model, _ = train(_scenes(), ROOM4, ENC_CFG, HEAD_CFG, _quick_cfg(epochs=0))
    scenes = _scenes(2 * CHUNK + 8)
    bad = _random_scenes([size], seed=0)[0]
    scenes[CHUNK + 5] = Scene("bad", bad.persons, bad.groups)  # middle chunk
    with pytest.raises(ValueError) as exc:
        tuning.grid_search(model, scenes, ROOM4, tuning.Grid(), 1)
    assert str(exc.value) == message
    with pytest.raises(ValueError, match="empty validation set"):
        tuning.grid_search(model, [], ROOM4, tuning.Grid(), 1)


@pytest.mark.parametrize("width", [0, 5, 7])
def test_a_room_of_another_width_is_named_before_any_network_work(width,
                                                                  monkeypatch):
    model, _ = train(_scenes(), ROOM4, ENC_CFG, HEAD_CFG, _quick_cfg(epochs=0))
    assert model.room_dim == 4
    room = RoomFeature(np.zeros(width))

    def no_work(*args):
        raise AssertionError("network work ran")

    monkeypatch.setattr(network, "scene_features", no_work)
    monkeypatch.setattr(network, "_forward_chunks", no_work)
    scenes = _scenes(2)
    for call in (lambda: predict_heatmaps(scenes, model, room),
                 lambda: predict_scene(scenes[0], model, room),
                 lambda: tuning.grid_search(model, scenes, room, tuning.Grid(), 1)):
        with pytest.raises(ValueError) as exc:
            call()
        assert str(exc.value) == ("model takes a room of 4 values, but the "
                                  f"room feature holds {width}")


# Validation and prediction share one chunk loop, and the encoder stack
# runs over the real rows only: a filler set costs one row.

def _synth(n, seed):
    scenes, _ = synthetic.generate(synthetic.SynthConfig(seed=seed, n_scenes=n))
    return scenes


def test_train_and_predict_run_the_encoder_over_the_real_rows_only(monkeypatch):
    rows = []

    def spy(x, layers):
        rows.append(x.shape[0])
        return relu_stack_forward(x, layers)

    monkeypatch.setattr(encoder, "relu_stack_forward", spy)
    scenes, val = _synth(4, seed=4), _synth(CHUNK + 5, seed=5)
    persons = [len(s.persons) for s in val]
    last = sum(persons[CHUNK:]) + CHUNK - 5  # 27 filler sets of one row
    # one training step over all four scenes, then validation in two chunks
    train(scenes, ROOM16, ACC_ENC, ACC_HEAD, _quick_cfg(epochs=1),
          val_scenes=val)
    assert rows == [sum(len(s.persons) for s in scenes),
                    sum(persons[:CHUNK]), last]
    rows.clear()
    predict_heatmaps(val, ACCEPTANCE_MODEL, ROOM16)
    assert rows == [sum(persons[:CHUNK]), last]


def test_validation_memory_does_not_grow_with_the_split():
    # one wide layer over crowded scenes: a chunk's activations (800 rows of
    # 2048) are 13 MB and dwarf the weights, the steps and the features
    enc = EncoderConfig(input_dim=18, max_people=25, layer_widths=(2048,))
    head = HeadConfig(input_dim=4 + 2048, hidden_widths=(8,), output_dim=120)
    scenes = _random_scenes([2, 3], seed=6)
    val = _random_scenes([25] * (3 * CHUNK), seed=7)
    peaks = []
    for n in (CHUNK, 3 * CHUNK):
        tracemalloc.start()
        try:
            train(scenes, ROOM4, enc, head, _quick_cfg(epochs=1),
                  val_scenes=val[:n])
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] < 1.05 * peaks[0], peaks


def test_validation_holds_no_training_step_activations(monkeypatch):
    """The last step's forward cache is dropped before validation: a train
    with a validation split peaks at most one validation chunk's
    activations, as ``predict_heatmaps`` of the split measures them, above
    what was alive when its first step began."""
    # crowded training scenes through three wide layers: the step's cache
    # (200 rows of 3 x 256) outweighs a validation chunk of two small scenes
    enc = EncoderConfig(input_dim=18, max_people=25, layer_widths=(256,) * 3)
    head = HeadConfig(input_dim=4 + 256, hidden_widths=(8,), output_dim=120)
    scenes, val = _random_scenes([25] * 8, seed=10), _random_scenes([3, 2], 11)
    traced = {}

    def step_spy(*args, _real=network.batch_forward):
        traced.setdefault("first step", tracemalloc.get_traced_memory()[0])
        return _real(*args)

    def validation_spy(*args, _real=network._forward_chunks):
        tracemalloc.reset_peak()
        out = _real(*args)
        traced["validation peak"] = tracemalloc.get_traced_memory()[1]
        return out

    monkeypatch.setattr(network, "batch_forward", step_spy)
    monkeypatch.setattr(network, "_forward_chunks", validation_spy)
    tracemalloc.start()
    try:
        model, _ = train(scenes, ROOM4, enc, head,
                         _quick_cfg(epochs=1, batch_size=8), val_scenes=val)
    finally:
        tracemalloc.stop()
    monkeypatch.undo()
    tracemalloc.start()
    try:
        predict_heatmaps(val, model, ROOM4)
        chunk = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # 64 KiB covers the loss's (2, 120) temporaries and the epoch's
    # bookkeeping; the dropped cache alone is over 1 MB
    assert traced["validation peak"] - traced["first step"] <= chunk + 2 ** 16, \
        (traced, chunk)


def test_chunked_validation_keeps_the_unchunked_bits(tmp_path, monkeypatch):
    scenes, val = _synth(12, seed=8), _synth(2 * CHUNK + 5, seed=9)
    cfg = _quick_cfg(epochs=4, learning_rate=3e-3)
    model, trace = train(scenes, ROOM16, ACC_ENC, ACC_HEAD, cfg, val_scenes=val)

    def unchunked(feats, room_values, enc_w, head_w):
        """Oracle: the whole split through one ``batch_forward``."""
        return batch_forward(feats, room_values, enc_w, head_w)[0]

    monkeypatch.setattr(network, "_forward_chunks", unchunked)
    want, want_trace = train(scenes, ROOM16, ACC_ENC, ACC_HEAD, cfg,
                             val_scenes=val)
    assert [repr(e.val_loss) for e in trace] == \
        [repr(e.val_loss) for e in want_trace]
    assert trace == want_trace
    assert _checkpoint_bytes(model, tmp_path / "chunked") == \
        _checkpoint_bytes(want, tmp_path / "unchunked")
