"""End-to-end acceptance checks.

Run with -v for one pass/fail line per check; each test also prints its
measured numbers.  The learning benchmark trains a real model and is the
only slow test here (tens of seconds).
"""
import json
import time
from fractions import Fraction

import numpy as np
import pytest

from ospace.cli import main
from ospace.core import DEFAULT_SPEC, Person, Scene, canonical_partition
from ospace.dataset import SplitRatios, flip_scene, sequential_split
from ospace.encoder import (
    EncoderConfig,
    EncoderWeights,
    encode,
    encode_batch,
    init_encoder,
    pad_features,
)
from ospace.evaluation import aggregate, match_scene
from ospace.groundtruth import scene_target
from ospace.layers import Dense, flatten
from ospace.network import (
    HeadConfig,
    TrainConfig,
    batch_backward,
    batch_forward,
    batch_loss,
    init_head,
    train,
)
from ospace.postprocess import AssignParams, assign_groups, nms, predict_scene
from ospace.room import PcaModel, pca_fit
from ospace.synthetic import SynthConfig, generate
from ospace.tuning import Grid, grid_search

T23 = Fraction(2, 3)
T1 = Fraction(1)


def _dyadic_scene(rng, spec=DEFAULT_SPEC):
    n = int(rng.integers(2, 7))
    persons = tuple(
        Person(int(rng.integers(0, 16 * spec.width_m + 1)) / 16.0,
               int(rng.integers(0, 16 * spec.height_m + 1)) / 16.0,
               22.5 * int(rng.integers(0, 16)))
        for _ in range(n)
    )
    split = int(rng.integers(2, n + 1))
    groups = [tuple(range(split))] + [(i,) for i in range(split, n)]
    return Scene("f", persons, tuple(groups))


def _tiny_model(seed=0):
    scenes, _ = generate(SynthConfig(seed=5, n_scenes=16, groups_per_scene=(1, 2),
                                     group_size=(2, 4)))
    from ospace.room import RoomFeature
    room = RoomFeature(np.zeros(4))
    enc_cfg = EncoderConfig(input_dim=18, max_people=25, layer_widths=(8, 16))
    head_cfg = HeadConfig(input_dim=20, hidden_widths=(16,), output_dim=120)
    cfg = TrainConfig(epochs=2, batch_size=8, learning_rate=1e-3,
                      optimizer="adam", seed=seed)
    model, _ = train(scenes, room, enc_cfg, head_cfg, cfg)
    return model, room, scenes


def test_encoder_invariances():
    t0 = time.monotonic()
    rng = np.random.default_rng(0)

    for case in range(1000):
        d = int(rng.integers(3, 19))
        widths = tuple(int(w) for w in
                       rng.integers(4, 33, size=int(rng.integers(1, 4))))
        p = int(rng.integers(1, 9))
        w = init_encoder(EncoderConfig(input_dim=d, max_people=p,
                                       layer_widths=widths), rng)
        f = rng.standard_normal((p, d))
        ref = encode(f, w)
        # permutation invariance, bit-exact
        assert ref.tobytes() == encode(f[rng.permutation(p)], w).tobytes()
        # padding invariance: larger capacity, same weights, same bits
        roomier = EncoderWeights(
            EncoderConfig(input_dim=d, max_people=p + int(rng.integers(1, 20)),
                          layer_widths=widths),
            [Dense(l.W.copy(), l.b.copy()) for l in w.layers])
        assert ref.tobytes() == encode(f, roomier).tobytes()
        if case % 10 == 0 and p >= 2:
            # batched path: a mask with extra all-False columns, a wider
            # padding of the same sets, gives the same bits
            rows, mask = pad_features([f, f[: p - 1]])
            tight, _ = encode_batch(rows, mask, w)
            wider = np.zeros((2, p + int(rng.integers(1, 20))), bool)
            wider[:, :p] = mask
            loose, _ = encode_batch(rows, wider, w)
            assert tight.tobytes() == loose.tobytes()

    # flip involutions on dyadic coordinates are exact
    for _ in range(200):
        s = _dyadic_scene(rng)
        for axis in ("horizontal", "vertical", "both"):
            assert flip_scene(flip_scene(s, axis), axis) == s
        assert flip_scene(flip_scene(s, "vertical"), "horizontal") == \
            flip_scene(s, "both")

    # person order must not change predictions
    model, room, scenes = _tiny_model()
    scene = next(s for s in scenes if len(s.persons) >= 4)
    base_map, base_det, base_groups = predict_scene(scene, model, room)
    for _ in range(20):
        perm = rng.permutation(len(scene.persons))
        inv_groups = tuple(
            tuple(int(np.nonzero(perm == i)[0][0]) for i in block)
            for block in base_groups
        )
        shuffled = Scene(scene.frame_id,
                         tuple(scene.persons[i] for i in perm),
                         canonical_partition(inv_groups))
        m, det, groups = predict_scene(shuffled, model, room)
        assert m.values.tobytes() == base_map.values.tobytes()
        assert det == base_det
        relabeled = canonical_partition(
            tuple(tuple(int(perm[j]) for j in block) for block in groups))
        assert relabeled == base_groups

    dt = time.monotonic() - t0
    print(f"\ninvariance: 1000 bit-exact permutation/padding cases, "
          f"200 flip involutions, 20 order shuffles in {dt:.2f}s")
    assert dt < 10.0


def _margins_ok(feats, room, enc_w, head_w):
    rows, mask = pad_features(feats)
    b = mask.shape[0]
    x = rows
    for layer in enc_w.layers:
        z = x @ layer.W + layer.b
        if np.abs(z).min() < 1e-3:
            return False
        x = np.where(z > 0, z, 0.0)
    for vals in np.split(x, np.cumsum(mask.sum(axis=1))[:-1]):
        if vals.shape[0] >= 2:
            top2 = np.sort(vals, axis=0)[-2:]
            if (top2[1] - top2[0]).min() < 1e-3:
                return False
    pooled, _ = encode_batch(rows, mask, enc_w)
    hx = np.concatenate(
        [np.broadcast_to(room, (b, room.shape[0])), pooled], axis=1)
    for layer in head_w.layers[:-1]:
        z = hx @ layer.W + layer.b
        if np.abs(z).min() < 1e-3:
            return False
        hx = np.maximum(z, 0.0)
    return True


def test_full_model_gradients_match_finite_differences():
    t0 = time.monotonic()
    rng = np.random.default_rng(1)
    h = 1e-5
    worst = 0.0
    configs_done = 0
    while configs_done < 50:
        d = int(rng.integers(3, 7))
        enc_widths = tuple(int(w) for w in
                           rng.integers(3, 7, size=int(rng.integers(1, 3))))
        room_dim = int(rng.integers(1, 4))
        hidden = tuple(int(w) for w in
                       rng.integers(3, 7, size=int(rng.integers(0, 2))))
        out_dim = int(rng.integers(4, 9))
        enc_cfg = EncoderConfig(input_dim=d, max_people=8,
                                layer_widths=enc_widths)
        head_cfg = HeadConfig(input_dim=room_dim + enc_widths[-1],
                              hidden_widths=hidden, output_dim=out_dim)
        enc_w = init_encoder(enc_cfg, rng)
        head_w = init_head(head_cfg, rng)
        flatten(enc_w.layers + head_w.layers)
        room = rng.standard_normal(room_dim)

        ok = False
        for _ in range(50):
            feats = [rng.standard_normal((int(rng.integers(1, 5)), d))
                     for _ in range(int(rng.integers(1, 4)))]
            if _margins_ok(feats, room, enc_w, head_w):
                ok = True
                break
        if not ok:
            continue
        targets = rng.uniform(0.2, 0.8, size=(len(feats), out_dim))
        wv = rng.choice([1.0, 3.0], size=len(feats))

        def loss():
            pred, _ = batch_forward(feats, room, enc_w, head_w)
            return batch_loss(pred, targets, wv)

        pred, cache = batch_forward(feats, room, enc_w, head_w)
        for layer in enc_w.layers + head_w.layers:
            layer.grad_W.fill(np.nan)
            layer.grad_b.fill(np.nan)
        batch_backward(pred, targets, wv, cache, enc_w, head_w)
        # max() below would pass over a NaN left in a buffer
        assert all(np.isfinite(l.grad_W).all() and np.isfinite(l.grad_b).all()
                   for l in enc_w.layers + head_w.layers)

        for layer in enc_w.layers + head_w.layers:
            for arr, grad in ((layer.W, layer.grad_W), (layer.b, layer.grad_b)):
                flat = arr.reshape(-1)
                gflat = grad.reshape(-1)
                for k in range(flat.size):
                    orig = flat[k]
                    flat[k] = orig + h
                    up = loss()
                    flat[k] = orig - h
                    down = loss()
                    flat[k] = orig
                    numeric = (up - down) / (2 * h)
                    rel = abs(numeric - gflat[k]) / max(
                        abs(numeric) + abs(gflat[k]), 1e-4)
                    worst = max(worst, rel)
        configs_done += 1

    dt = time.monotonic() - t0
    print(f"\ngradients: 50 random models, max relative error "
          f"{worst:.3e} in {dt:.1f}s")
    assert worst < 1e-4
    assert dt < 60.0


def _random_partition(rng, n):
    idx = list(rng.permutation(n))
    blocks = []
    while idx:
        k = int(rng.integers(1, min(5, len(idx)) + 1))
        blocks.append(tuple(idx[:k]))
        idx = idx[k:]
    return blocks


def test_group_matching_metrics():
    # hand-derived cases
    assert match_scene([(0, 1, 3), (2, 4)], [(0, 1, 2), (3, 4)], T23) == (1, 1, 1)
    assert match_scene([(0, 1, 3), (2, 4)], [(0, 1, 2), (3, 4)], T1) == (0, 2, 2)
    assert match_scene([(0, 1), (2, 3, 4)], [(2, 3, 4), (0, 1)], T1) == (2, 0, 0)
    assert match_scene([], [(0, 1), (2,)], T1) == (0, 0, 1)
    assert match_scene([(0, 1, 9)], [(0, 1, 2)], T23) == (1, 0, 0)
    assert match_scene([(0, 8, 9)], [(0, 1, 2)], T23) == (0, 1, 1)
    assert match_scene([(0, 1, 2, 3, 4, 5)], [(0, 1, 2, 3), (4, 5)], T23) \
        == (1, 0, 1)

    # T=1 is exactly set equality of the non-singleton blocks
    rng = np.random.default_rng(2)
    for trial in range(10_000):
        n = int(rng.integers(2, 11))
        gt = _random_partition(rng, n)
        if trial % 2 == 0:
            pred = [tuple(rng.permutation(b)) for b in gt]
            rng.shuffle(pred)
        else:
            pred = _random_partition(rng, n)
        gs = {frozenset(b) for b in gt if len(b) >= 2}
        ps = {frozenset(b) for b in pred if len(b) >= 2}
        want = (len(ps & gs), len(ps - gs), len(gs - ps))
        assert match_scene(pred, gt, T1) == want
    print("\nmetrics: hand cases plus 10000 random partitions at T=1")


def test_pca_agrees_with_dense_eigendecomposition():
    rng = np.random.default_rng(3)
    worst_val = 0.0
    worst_vec = 0.0
    for _ in range(30):
        d = int(rng.integers(2, 9))
        n = int(rng.integers(12, 61))
        data = rng.standard_normal((n, d)) @ rng.standard_normal((d, d))
        model = pca_fit(data, d)
        centered = data - data.mean(axis=0)
        evals, evecs = np.linalg.eigh(centered.T @ centered / (n - 1))
        evals, evecs = evals[::-1], evecs[:, ::-1]
        worst_val = max(worst_val,
                        float(np.abs(model.explained_variances - evals).max()))
        for j in range(d):
            u = evecs[:, j]
            v = model.components[j]
            worst_vec = max(worst_vec, min(np.linalg.norm(v - u),
                                           np.linalg.norm(v + u)))
    print(f"\npca: 30 matrices up to 8x8, eigenvalue error {worst_val:.2e}, "
          f"eigenvector error {worst_vec:.2e}")
    assert worst_val < 1e-8
    assert worst_vec < 1e-6


def test_ground_truth_pipeline_recovers_groups_exactly():
    scenes, _ = generate(SynthConfig(seed=7, n_scenes=200,
                                     groups_per_scene=(1, 3),
                                     group_size=(2, 6),
                                     min_intergroup_dist_m=2.0,
                                     singleton_count=(0, 2)))
    params = AssignParams()
    counts = []
    for s in scenes:
        heatmap = scene_target(s, params.stride_m)
        groups = assign_groups(s.persons, nms(heatmap, params), params)
        counts.append(match_scene(groups, s.groups, T1))
    m = aggregate(counts, T1)
    print(f"\nground-truth short circuit: 200 scenes, tp={m.tp} fp={m.fp} "
          f"fn={m.fn} F1={m.f1}")
    assert m.f1 == 1.0


def test_learning_benchmark_on_synthetic_scenes():
    from ospace.room import RoomFeature
    t0 = time.monotonic()
    scenes, _ = generate(SynthConfig(seed=42, n_scenes=1000,
                                     groups_per_scene=(1, 3),
                                     group_size=(2, 6), jitter_m=0.05,
                                     jitter_deg=5.0, singleton_count=(0, 2)))
    train_s, tune_s, test_s = sequential_split(scenes, SplitRatios(0.8, 0.1, 0.1))
    assert (len(train_s), len(tune_s), len(test_s)) == (800, 100, 100)

    room = RoomFeature(np.zeros(16))
    enc_cfg = EncoderConfig(input_dim=18, max_people=25,
                            layer_widths=(64, 128, 256))
    head_cfg = HeadConfig(input_dim=272, hidden_widths=(256,), output_dim=120)
    cfg = TrainConfig(epochs=60, batch_size=32, learning_rate=1e-3,
                      optimizer="adam", seed=0)
    model, trace = train(train_s, room, enc_cfg, head_cfg, cfg,
                         val_scenes=tune_s)
    assert trace[-1].train_loss < trace[0].train_loss

    params, _, _ = grid_search(model, tune_s, room, Grid(), T23)

    scores = {}
    for tol, label in ((T23, "2/3"), (T1, "1")):
        counts = []
        for s in test_s:
            _, _, groups = predict_scene(s, model, room, params)
            counts.append(match_scene(groups, s.groups, tol))
        scores[label] = aggregate(counts, tol)
    dt = time.monotonic() - t0
    print(f"\nlearning benchmark: test F1 {scores['2/3'].f1:.3f} at T=2/3, "
          f"{scores['1'].f1:.3f} at T=1 in {dt:.1f}s")
    assert scores["2/3"].f1 >= 0.90
    assert scores["1"].f1 >= 0.75
    assert dt < 600.0


def test_multi_group_weighting_helps_imbalanced_training():
    from ospace.room import RoomFeature

    def synth(seed, n, groups):
        return generate(SynthConfig(seed=seed, n_scenes=n,
                                    groups_per_scene=groups, group_size=(2, 6),
                                    jitter_m=0.05, jitter_deg=5.0,
                                    singleton_count=(0, 2)))[0]

    train_s = synth(100, 300, (1, 1)) + synth(101, 100, (2, 3))
    test_s = synth(102, 100, (2, 3))
    room = RoomFeature(np.zeros(16))
    enc_cfg = EncoderConfig(input_dim=18, max_people=25,
                            layer_widths=(64, 128, 256))
    head_cfg = HeadConfig(input_dim=272, hidden_widths=(256,), output_dim=120)
    params = AssignParams(nms_threshold=0.3, min_group_separation_m=1.5,
                          max_assign_dist_m=1.5, stride_m=1.0)

    def run(weight):
        cfg = TrainConfig(epochs=40, batch_size=32, learning_rate=1e-3,
                          optimizer="adam", multi_group_weight=weight, seed=0)
        model, _ = train(train_s, room, enc_cfg, head_cfg, cfg)
        counts = []
        for s in test_s:
            _, _, groups = predict_scene(s, model, room, params)
            counts.append(match_scene(groups, s.groups, T23))
        return aggregate(counts, T23).f1

    base = run(1.0)
    weighted = run(3.0)
    print(f"\nimbalance: multi-group-scene F1 {weighted:.3f} with weight 3 "
          f"vs {base:.3f} unweighted")
    assert weighted >= base


def test_determinism_checkpoints_and_metric_tables(tmp_path, capsys):
    scenes = tmp_path / "scenes.jsonl"
    args_synth = ["synth", "-o", str(scenes), "--seed", "11", "--scenes", "24",
                  "--groups", "1", "2", "--group-size", "2", "4"]
    assert main(args_synth) == 0

    def chain(tag):
        model = tmp_path / f"model-{tag}.json"
        pred = tmp_path / f"pred-{tag}.jsonl"
        metrics = tmp_path / f"metrics-{tag}.csv"
        table = tmp_path / f"table-{tag}.csv"
        assert main(["train", str(scenes), "-o", str(model),
                     "--epochs", "3", "--batch", "8", "--seed", "9",
                     "--enc-widths", "8,16", "--hidden", "16"]) == 0
        assert main(["tune", str(model), str(scenes), "-T", "2/3",
                     "--thresholds", "0.3,0.5", "--separations", "1.0,1.5",
                     "--assign-dists", "0.8,1.5", "--strides", "0.7,1.0",
                     "--table", str(table)]) == 0
        assert main(["predict", str(model), str(scenes),
                     "-o", str(pred)]) == 0
        assert main(["eval", "--pred", str(pred), "--gt", str(scenes),
                     "-o", str(metrics)]) == 0
        return model.read_bytes(), table.read_bytes(), \
            pred.read_bytes(), metrics.read_bytes()

    a = chain("a")
    b = chain("b")
    capsys.readouterr()
    names = ("checkpoint", "tuning table", "predictions", "metrics table")
    for name, x, y in zip(names, a, b):
        assert x == y, f"{name} differs between identically seeded runs"
    print("\ndeterminism: checkpoint, tuning table, predictions and metrics "
          "byte-identical across reruns")
