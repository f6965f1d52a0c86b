import json

import numpy as np
import pytest

from ospace.core import DEFAULT_SPEC, Person, RoomSpec, Scene
from ospace.encoder import EncoderConfig, init_encoder
from ospace.layers import Dense, flatten
from ospace.network import (
    _ADAM_BLOCK,
    CHECKPOINT_VERSION,
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
    model_from_obj,
    model_to_obj,
    predict_heatmap,
    save_model,
    train,
    _Adam,
    _Sgd,
)
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
    """The per-array Adam loop the flat, blocked _Adam must reproduce."""

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
        for layer, (mw, mb), (vw, vb) in zip(layers, self._m, self._v):
            for p, g, m, v in ((layer.W, layer.grad_W, mw, vw),
                               (layer.b, layer.grad_b, mb, vb)):
                m *= self.beta1
                m += (1.0 - self.beta1) * g
                v *= self.beta2
                v += (1.0 - self.beta2) * g * g
                p -= self.lr * (m / c1) / (np.sqrt(v / c2) + self.eps)


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
    params, grads = flatten(flat)
    # several whole blocks plus a partial one
    assert params.size > 2 * _ADAM_BLOCK and params.size % _ADAM_BLOCK
    opt, ref_opt = flat_cls(1e-2, params, grads), ref_cls(1e-2)
    for _ in range(5):
        for r, f in zip(ref, flat):
            r.grad_W[...] = f.grad_W[...] = rng.standard_normal(r.W.shape)
            r.grad_b[...] = f.grad_b[...] = rng.standard_normal(r.b.shape)
        opt.step()
        ref_opt.step(ref)
        for r, f in zip(ref, flat):
            assert f.W.tobytes() == r.W.tobytes()
            assert f.b.tobytes() == r.b.tobytes()


def test_trained_layers_share_one_contiguous_vector():
    model, _ = train(_scenes(), ROOM4, ENC_CFG, HEAD_CFG, _quick_cfg(epochs=1))
    arrays = [a for l in model.encoder.layers + model.head.layers
              for a in (l.W, l.b)]
    store = arrays[0].base
    assert store.ndim == 1 and store.flags.c_contiguous
    assert store.size == sum(a.size for a in arrays)
    assert all(a.base is store for a in arrays)


def _quick_cfg(**kw):
    base = dict(epochs=3, batch_size=4, learning_rate=1e-3, optimizer="adam",
                seed=0)
    base.update(kw)
    return TrainConfig(**base)


def test_train_epoch_zero_returns_seeded_init():
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


def test_train_same_seed_reproducible():
    a, ta = train(_scenes(), ROOM4, ENC_CFG, HEAD_CFG, _quick_cfg())
    b, tb = train(_scenes(), ROOM4, ENC_CFG, HEAD_CFG, _quick_cfg())
    assert ta == tb
    assert json.dumps(model_to_obj(a)) == json.dumps(model_to_obj(b))
    c, tc = train(_scenes(), ROOM4, ENC_CFG, HEAD_CFG, _quick_cfg(seed=1))
    assert ta != tc


def test_train_loss_decreases_on_memorizable_data():
    model, trace = train(_scenes(8), ROOM4, ENC_CFG, HEAD_CFG,
                         _quick_cfg(epochs=60, learning_rate=3e-3))
    assert trace[-1].train_loss < 0.25 * trace[0].train_loss
    assert trace[-1].train_loss < 0.02


def test_train_best_epoch_by_validation_loss():
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
    assert json.dumps(model_to_obj(short)) == json.dumps(model_to_obj(model))


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


def test_checkpoint_version_tag():
    model, _ = train(_scenes(), ROOM4, ENC_CFG, HEAD_CFG, _quick_cfg(epochs=0))
    obj = model_to_obj(model)
    assert obj["version"] == CHECKPOINT_VERSION
    obj["version"] = "ospace-checkpoint-0"
    with pytest.raises(ValueError):
        model_from_obj(obj)


def test_checkpoint_custom_spec():
    spec = RoomSpec(rows=4, cols=5, cell_m=1.0)
    enc = EncoderConfig(input_dim=18, max_people=10, layer_widths=(6,))
    head = HeadConfig(input_dim=10, hidden_widths=(), output_dim=20)
    scenes = [Scene("x", (Person(1.0, 1.0, 0.0), Person(2.0, 1.0, 180.0)),
                    ((0, 1),))]
    model, _ = train(scenes, ROOM4, enc, head,
                     _quick_cfg(epochs=1), spec=spec, stride_m=0.4)
    obj = model_to_obj(model)
    back = model_from_obj(obj)
    assert back.spec == spec
    assert back.stride_m == 0.4
    m = predict_heatmap(scenes[0], back, ROOM4)
    assert m.values.shape == (4, 5)


def _checkpoint_obj():
    model, _ = train(_scenes(), ROOM4, ENC_CFG, HEAD_CFG, _quick_cfg(epochs=0))
    return model_to_obj(model)


def test_checkpoint_rejects_layer_shape_off_config():
    obj = _checkpoint_obj()
    obj["head"]["layers"][1]["W"].pop()  # (16, 120) loses a row
    with pytest.raises(ValueError, match="head layer 1"):
        model_from_obj(obj)
    obj = _checkpoint_obj()
    obj["encoder"]["layers"][0]["b"].append(0.0)
    with pytest.raises(ValueError, match="encoder layer 0"):
        model_from_obj(obj)
    for bad in ({"x": 1.0}, [[1.0, 2.0], [3.0]], "w"):
        obj = _checkpoint_obj()
        obj["encoder"]["layers"][1]["W"] = bad
        with pytest.raises(ValueError, match="encoder layer 1"):
            model_from_obj(obj)
    obj = _checkpoint_obj()
    del obj["encoder"]["layers"][1]
    with pytest.raises(ValueError, match="checkpoint encoder"):
        model_from_obj(obj)


def test_checkpoint_rejects_head_output_off_grid():
    obj = _checkpoint_obj()
    obj["spec"]["cols"] = 11
    with pytest.raises(ValueError, match="head layer 1.*grid cells 110"):
        model_from_obj(obj)


def test_checkpoint_rejects_non_finite_weight():
    for value in (float("nan"), float("inf")):
        obj = _checkpoint_obj()
        obj["encoder"]["layers"][1]["W"][3][2] = value
        with pytest.raises(ValueError, match="encoder layer 1: non-finite"):
            model_from_obj(obj)
        obj = _checkpoint_obj()
        obj["head"]["layers"][0]["b"][0] = value
        with pytest.raises(ValueError, match="head layer 0: non-finite"):
            model_from_obj(obj)
