import hashlib

import numpy as np
import pytest

from ospace.core import DEFAULT_SPEC, Point2, RoomSpec, non_singleton_blocks
from ospace.groundtruth import group_ospace, propose_centers
from ospace.synthetic import SynthConfig, SynthesisError, _sample_point, generate


def test_config_validation():
    with pytest.raises(ValueError):
        SynthConfig(group_size=(1, 4))
    with pytest.raises(ValueError):
        SynthConfig(groups_per_scene=(3, 1))
    with pytest.raises(ValueError):
        SynthConfig(circle_radius_m=0.0)
    with pytest.raises(ValueError):
        SynthConfig(jitter_m=-0.1)
    with pytest.raises(ValueError):
        SynthConfig(n_scenes=-1)
    for name in ("min_intergroup_dist_m", "jitter_m", "jitter_deg"):
        for bad in (float("nan"), float("inf")):
            with pytest.raises(ValueError, match=f"{name} must be finite"):
                SynthConfig(**{name: bad})


def test_deterministic_by_seed():
    cfg = SynthConfig(seed=7, n_scenes=5, jitter_m=0.05, jitter_deg=3.0)
    a, ca = generate(cfg)
    b, cb = generate(cfg)
    assert a == b
    assert ca == cb
    c, _ = generate(SynthConfig(seed=8, n_scenes=5))
    assert a != c


def test_frame_ids():
    scenes, _ = generate(SynthConfig(seed=3, n_scenes=3))
    assert [s.frame_id for s in scenes] == [
        "synth-3-00000", "synth-3-00001", "synth-3-00002"]


def test_counts_within_ranges():
    cfg = SynthConfig(seed=0, n_scenes=40, groups_per_scene=(1, 3),
                      group_size=(2, 4), singleton_count=(0, 2))
    scenes, centers = generate(cfg)
    assert len(scenes) == 40
    for s, cs in zip(scenes, centers):
        groups = non_singleton_blocks(s)
        assert 1 <= len(groups) <= 3
        assert len(cs) == len(groups)
        assert all(2 <= len(g) <= 4 for g in groups)
        singles = [b for b in s.groups if len(b) == 1]
        assert 0 <= len(singles) <= 2
        assert sum(len(b) for b in s.groups) == len(s.persons)


def test_members_on_circle_facing_center():
    cfg = SynthConfig(seed=1, n_scenes=10)
    scenes, centers = generate(cfg)
    for s, cs in zip(scenes, centers):
        for block, c in zip(non_singleton_blocks(s), cs):
            for i in block:
                p = s.persons[i]
                r = np.hypot(p.x - c.x, p.y - c.y)
                assert abs(r - 0.7) < 1e-9
                x, y = propose_centers([p], 0.7)[0]
                assert abs(x - c.x) < 1e-9
                assert abs(y - c.y) < 1e-9
            members = [s.persons[i] for i in block]
            o = group_ospace(members, 0.7)
            assert abs(o.x - c.x) < 1e-9 and abs(o.y - c.y) < 1e-9


def test_positions_inside_room():
    cfg = SynthConfig(seed=2, n_scenes=30, jitter_m=0.5)
    scenes, _ = generate(cfg)
    for s in scenes:
        for p in s.persons:
            assert 0.0 <= p.x <= DEFAULT_SPEC.width_m
            assert 0.0 <= p.y <= DEFAULT_SPEC.height_m


def test_min_intergroup_distance():
    cfg = SynthConfig(seed=4, n_scenes=30, groups_per_scene=(2, 3),
                      singleton_count=(1, 2))
    scenes, centers = generate(cfg)
    for s, cs in zip(scenes, centers):
        for i, a in enumerate(cs):
            for b in cs[i + 1:]:
                assert np.hypot(a.x - b.x, a.y - b.y) >= 2.0
        for block in s.groups:
            if len(block) == 1:
                p = s.persons[block[0]]
                for c in cs:
                    assert np.hypot(p.x - c.x, p.y - c.y) >= 2.0


def test_jitter_magnitude_changes_geometry_not_structure():
    clean, cc = generate(SynthConfig(seed=5, n_scenes=8))
    noisy, cn = generate(SynthConfig(seed=5, n_scenes=8, jitter_m=0.05,
                                     jitter_deg=5.0))
    assert cc == cn  # same stream: centers are drawn before jitter
    for a, b in zip(clean, noisy):
        assert a.groups == b.groups
        assert a.frame_id == b.frame_id
        moved = [np.hypot(pa.x - pb.x, pa.y - pb.y)
                 for pa, pb in zip(a.persons, b.persons)
                 if any(len(blk) > 1 and pa in [a.persons[i] for i in blk]
                        for blk in a.groups)]
        assert any(m > 0 for m in moved)


def test_infeasible_raises():
    # 3 groups at 4 m separation cannot fit the centers' 4.6 x 3.6 box
    cfg = SynthConfig(seed=0, n_scenes=1, groups_per_scene=(3, 3),
                      min_intergroup_dist_m=4.0)
    with pytest.raises(SynthesisError):
        generate(cfg)
    tiny = RoomSpec(rows=2, cols=2)
    with pytest.raises(SynthesisError):
        generate(SynthConfig(seed=0, n_scenes=1), tiny)


def test_sample_point_measures_offsets_whose_square_overflows():
    # a 1.2e201 x 1e201 m room: most offsets square past the largest float
    spec = RoomSpec(cell_m=1e200)
    center = [Point2(6e200, 5e200)]
    for min_dist in (2.0, 1e200):
        rng = np.random.default_rng(0)
        p = _sample_point(rng, SynthConfig(min_intergroup_dist_m=min_dist), spec,
                          0.0, center, "a point")
        assert np.hypot(p.x - 6e200, p.y - 5e200) >= min_dist
    # no point of the room lies 1e300 m from its center
    with pytest.raises(SynthesisError, match="a point after 1000 attempts"):
        _sample_point(np.random.default_rng(0),
                      SynthConfig(min_intergroup_dist_m=1e300), spec, 0.0,
                      center, "a point")
    # a 1.2e154 x 1e154 m room: offsets from its corner square finitely, but
    # their sums, and the limits' squares, may overflow
    spec = RoomSpec(cell_m=1e153)
    corner = [Point2(0.0, 0.0)]
    for min_dist in (1e154, 1.3e154):
        p = _sample_point(np.random.default_rng(0),
                          SynthConfig(min_intergroup_dist_m=min_dist), spec,
                          0.0, corner, "a point")
        assert np.hypot(p.x, p.y) >= min_dist
    # the room's diagonal is 1.56e154
    with pytest.raises(SynthesisError, match="a point after 1000 attempts"):
        _sample_point(np.random.default_rng(0),
                      SynthConfig(min_intergroup_dist_m=1.6e154), spec, 0.0,
                      corner, "a point")


def test_zero_scenes():
    scenes, centers = generate(SynthConfig(seed=0, n_scenes=0))
    assert scenes == [] and centers == []


def _stream_digest(scenes, centers) -> str:
    """sha256 of every coordinate, yaw and block of ``generate``'s output,
    floats by their hex form, so one changed bit changes it."""
    h = hashlib.sha256()
    for s, cs in zip(scenes, centers, strict=True):
        h.update(s.frame_id.encode())
        for p in s.persons:
            h.update(f"{p.x.hex()} {p.y.hex()} {p.yaw_deg.hex()};".encode())
        h.update(repr(s.groups).encode())
        for c in cs:
            h.update(f"{float(c.x).hex()} {float(c.y).hex()};".encode())
    return h.hexdigest()


def test_jittered_stream_keeps_its_bits():
    """With jitter on, every normal draw reaches a coordinate or a yaw, so
    this digest pins the order of the random stream that the zero-jitter
    golden chain cannot."""
    scenes, centers = generate(SynthConfig(seed=5, n_scenes=60, group_size=(2, 6),
                                           singleton_count=(0, 3), jitter_m=0.3,
                                           jitter_deg=20.0))
    assert _stream_digest(scenes, centers) == (
        "78f3bd92052314da65bc3fb10952477781f0f7cd8704da54e4f4a23fc716a981")
