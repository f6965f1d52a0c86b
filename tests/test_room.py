import numpy as np
import pytest

from ospace.core import DEFAULT_SPEC, RoomSpec
from ospace.room import (
    OCCUPANCY_CLASSES,
    PYRAMID_LEVELS,
    LayoutMap,
    PcaModel,
    RoomFeature,
    extract_layout_features,
    layout_from_obj,
    load_layout,
    load_precomputed,
    pca_fit,
    pca_project,
    room_feature_from_layout,
    save_layout,
    save_precomputed,
)


def _uniform_layout(cls="free", spec=DEFAULT_SPEC):
    cells = tuple(tuple(cls for _ in range(spec.cols)) for _ in range(spec.rows))
    return LayoutMap(spec=spec, cells=cells)


def test_layout_validation():
    with pytest.raises(ValueError):
        LayoutMap(spec=DEFAULT_SPEC, cells=(("free",) * 12,) * 9)
    bad = [["free"] * 12 for _ in range(10)]
    bad[3][4] = "lava"
    with pytest.raises(ValueError):
        LayoutMap(spec=DEFAULT_SPEC, cells=tuple(tuple(r) for r in bad))


def test_pyramid_dimension():
    # levels 1x1 + 2x3 + 5x6 + 10x12 blocks, 4 classes each
    n_blocks = sum(r * c for r, c in PYRAMID_LEVELS)
    feats = extract_layout_features(_uniform_layout())
    assert feats.shape == ((1 + 6 + 30 + 120) * 4,)
    assert feats.shape == (n_blocks * len(OCCUPANCY_CLASSES),)


def test_uniform_layout_gives_indicator_fractions():
    feats = extract_layout_features(_uniform_layout("table"))
    idx = OCCUPANCY_CLASSES.index("table")
    per_block = feats.reshape(-1, 4)
    assert np.all(per_block[:, idx] == 1.0)
    assert np.all(np.delete(per_block, idx, axis=1) == 0.0)


def test_block_fractions_sum_to_one():
    rng = np.random.default_rng(0)
    cells = tuple(
        tuple(OCCUPANCY_CLASSES[rng.integers(4)] for _ in range(12))
        for _ in range(10)
    )
    feats = extract_layout_features(LayoutMap(spec=DEFAULT_SPEC, cells=cells))
    sums = feats.reshape(-1, 4).sum(axis=1)
    assert np.allclose(sums, 1.0, atol=1e-12)


def test_half_wall_layout_coarse_block():
    # left half walls, right half free: the 1x1 level sees a 50/50 split
    cells = tuple(
        tuple("wall" if c < 6 else "free" for c in range(12)) for _ in range(10)
    )
    feats = extract_layout_features(LayoutMap(spec=DEFAULT_SPEC, cells=cells))
    free_i = OCCUPANCY_CLASSES.index("free")
    wall_i = OCCUPANCY_CLASSES.index("wall")
    assert feats[free_i] == 0.5
    assert feats[wall_i] == 0.5
    # finest level: blocks are single cells, so fractions are 0/1
    finest = feats[-480:].reshape(120, 4)
    assert set(np.unique(finest)) == {0.0, 1.0}


def test_levels_clamp_to_small_grid():
    spec = RoomSpec(rows=3, cols=4)
    cells = tuple(tuple("free" for _ in range(4)) for _ in range(3))
    feats = extract_layout_features(LayoutMap(spec=spec, cells=cells))
    # (1,1) + (2,3) + (3,4) + (3,4) blocks
    assert feats.shape == ((1 + 6 + 12 + 12) * 4,)


def test_layout_json_roundtrip(tmp_path):
    rng = np.random.default_rng(1)
    cells = tuple(
        tuple(OCCUPANCY_CLASSES[rng.integers(4)] for _ in range(12))
        for _ in range(10)
    )
    layout = LayoutMap(spec=DEFAULT_SPEC, cells=cells)
    path = tmp_path / "layout.json"
    save_layout(layout, path)
    back = load_layout(path)
    assert back.cells == layout.cells
    assert back.spec == layout.spec


def test_layout_from_obj_errors():
    with pytest.raises(ValueError):
        layout_from_obj({"cells": ["free"] * 119})


def test_room_feature_from_layout_is_the_pyramid_as_it_is():
    layout = _uniform_layout("table")
    raw = extract_layout_features(layout)
    feat = room_feature_from_layout(layout)
    assert feat.dim == 628
    assert feat.values.tobytes() == raw.tobytes()
    samples = np.stack([raw, extract_layout_features(_uniform_layout())])
    pca = pca_fit(samples, 1)
    reduced = room_feature_from_layout(layout, pca)
    assert reduced.values.tobytes() == pca_project(pca, raw).tobytes()


def test_feature_file_roundtrip(tmp_path):
    rng = np.random.default_rng(2)
    values = rng.standard_normal(17)
    path = tmp_path / "room.feat"
    save_precomputed(RoomFeature(values), path)
    back = load_precomputed(path.read_text())
    assert back.values.tobytes() == values.tobytes()


def test_feature_file_header_errors():
    with pytest.raises(ValueError):
        load_precomputed("dim 3\n1.0\n2.0\n")
    with pytest.raises(ValueError):
        load_precomputed("size 3\n1.0\n2.0\n3.0\n")
    with pytest.raises(ValueError):
        load_precomputed("dim 2\n1.0\nnan\n")
    with pytest.raises(ValueError):
        load_precomputed("dim 2\ninf\n1.0\n")
    assert load_precomputed("dim 1\n0.5\n").values.tolist() == [0.5]


def _random_spd_data(rng, n, d):
    a = rng.standard_normal((d, d))
    base = rng.standard_normal((n, d))
    return base @ a


def test_pca_matches_eigh():
    for seed in range(6):
        rng = np.random.default_rng(seed)
        d = int(rng.integers(2, 9))
        data = _random_spd_data(rng, 40, d)
        k = int(rng.integers(1, d + 1))
        model = pca_fit(data, k)
        centered = data - data.mean(axis=0)
        cov = centered.T @ centered / (data.shape[0] - 1)
        evals, evecs = np.linalg.eigh(cov)
        evals, evecs = evals[::-1], evecs[:, ::-1]
        assert np.allclose(model.explained_variances, evals[:k], atol=1e-8)
        for j in range(k):
            dot = abs(model.components[j] @ evecs[:, j])
            assert dot > 1 - 1e-6


def test_pca_components_orthonormal():
    rng = np.random.default_rng(11)
    data = _random_spd_data(rng, 60, 7)
    model = pca_fit(data, 5)
    gram = model.components @ model.components.T
    assert np.allclose(gram, np.eye(5), atol=1e-9)


def test_pca_deterministic():
    rng = np.random.default_rng(12)
    data = _random_spd_data(rng, 30, 6)
    a = pca_fit(data, 4)
    b = pca_fit(data, 4)
    assert a.components.tobytes() == b.components.tobytes()
    assert a.mean.tobytes() == b.mean.tobytes()


def test_pca_rank_deficient():
    rng = np.random.default_rng(13)
    low = rng.standard_normal((50, 2))
    lift = rng.standard_normal((2, 5))
    data = low @ lift  # rank 2 in 5 dims
    model = pca_fit(data, 4)
    var = model.explained_variances
    assert np.all(var >= 0)
    assert np.all(var[:-1] >= var[1:] - 1e-12)
    assert np.allclose(var[2:], 0.0, atol=1e-8)


def test_pca_project_single_vector():
    rng = np.random.default_rng(14)
    data = _random_spd_data(rng, 40, 5)
    model = pca_fit(data, 3)
    v = data[7]
    proj = pca_project(model, v)
    assert proj.shape == (3,)
    manual = model.components @ (v - model.mean)
    assert np.allclose(proj, manual)
    with pytest.raises(ValueError):
        pca_project(model, np.zeros(4))


def test_pca_model_validation():
    comps = np.array([[1.0, 0.0], [1.0, 0.0]])
    with pytest.raises(ValueError):
        PcaModel(mean=np.zeros(2), components=comps,
                 explained_variances=np.array([2.0, 1.0]))
    with pytest.raises(ValueError):
        PcaModel(mean=np.zeros(2), components=np.eye(2),
                 explained_variances=np.array([1.0, 2.0]))


def test_pca_fit_validation():
    rng = np.random.default_rng(15)
    data = rng.standard_normal((10, 4))
    with pytest.raises(ValueError):
        pca_fit(data, 0)
    with pytest.raises(ValueError):
        pca_fit(data, 5)
    with pytest.raises(ValueError):
        pca_fit(data[:1], 2)
