import json
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ospace.core import DEFAULT_SPEC, Person, RoomSpec, Scene
from ospace.dataset import (
    NormStats,
    SceneParseError,
    SplitRatios,
    augment,
    bucket_yaw,
    fit_norm_stats,
    flip_scene,
    load_scenes,
    parse_scenes,
    person_feature,
    save_scenes,
    scene_features,
    sequential_split,
)

LINE = ('{"frame_id": "a", "persons": [{"x": 1.0, "y": 2.0, "yaw_deg": 0.0}, '
        '{"x": 2.0, "y": 2.0, "yaw_deg": 180.0}], "groups": [[0, 1]]}')


def test_parse_single_line():
    scenes = parse_scenes(LINE)
    assert len(scenes) == 1
    s = scenes[0]
    assert s.frame_id == "a"
    assert len(s.persons) == 2
    assert s.groups == ((0, 1),)


def test_parse_empty_source():
    assert parse_scenes("") == []
    assert parse_scenes("\n\n  \n") == []


def test_parse_materializes_implicit_singletons():
    line = ('{"frame_id": "a", "persons": [{"x": 1, "y": 1, "yaw_deg": 0}, '
            '{"x": 2, "y": 1, "yaw_deg": 0}, {"x": 3, "y": 1, "yaw_deg": 0}], '
            '"groups": [[0, 2]]}')
    s = parse_scenes(line)[0]
    assert s.groups == ((0, 2), (1,))


def test_parse_missing_groups_means_all_singletons():
    line = '{"frame_id": "a", "persons": [{"x": 1, "y": 1, "yaw_deg": 0}]}'
    assert parse_scenes(line)[0].groups == ((0,),)


def test_parse_accepts_bytes():
    assert len(parse_scenes(LINE.encode())) == 1


@pytest.mark.parametrize("line,fragment", [
    ("not json", "line 1"),
    ('{"persons": []}', "frame_id"),
    ('{"frame_id": "a"}', "persons"),
    ('{"frame_id": "a", "persons": [{"x": 1, "y": 1}]}', "yaw_deg"),
    ('{"frame_id": "a", "persons": [{"x": "1", "y": 1, "yaw_deg": 0}]}', "number"),
    ('{"frame_id": "a", "persons": [{"x": 1, "y": 1, "yaw_deg": 0}], '
     '"groups": [[0, 0]]}', "line 1 groups.0: person 0 repeats"),
    ('{"frame_id": "a", "persons": [{"x": 1, "y": 1, "yaw_deg": 0}], '
     '"groups": [[1]]}', "line 1 groups.0: person 1 is not in the 1-person frame"),
    ('{"frame_id": "a", "persons": [{"x": 99, "y": 1, "yaw_deg": 0}]}', "outside"),
    pytest.param('{"frame_id": "a", "persons": [{"x": 1' + "0" * 400
                 + ', "y": 1, "yaw_deg": 0}]}', "line 1 persons.0.x: out of range",
                 id="huge integer-out of range"),
    ('{"frame_id": "a", "persons": [{"x": true, "y": 1, "yaw_deg": 0}]}',
     "line 1 persons.0.x: expected number or integer, got boolean"),
    ('{"frame_id": "a", "persons": [{"x": 1, "y": NaN, "yaw_deg": 0}]}',
     "line 1 persons.0: non-finite y: nan"),
    ('{"frame_id": "a", "persons": [], "groups": {"0": [0]}}',
     "line 1 groups: expected array, got object"),
    (b'{"frame_id": "\xff", "persons": []}', "line 1: not UTF-8 (byte 15: "),
    pytest.param("[" * 100_000 + "]" * 100_000,
                 "line 1: invalid JSON (maximum recursion", id="nested too deep"),
    pytest.param('{"frame_id": "a", "persons": [{"x": 1' + "0" * 5000
                 + ', "y": 1, "yaw_deg": 0}]}', "line 1: invalid JSON (Exceeds the "
                 "limit", id="5001-digit integer"),
])
def test_parse_errors_carry_line_number(line, fragment):
    with pytest.raises(SceneParseError) as exc:
        parse_scenes(line)
    assert "line 1" in str(exc.value)
    assert fragment in str(exc.value)


def test_parse_error_names_later_line():
    source = LINE + "\n" + "garbage"
    with pytest.raises(SceneParseError, match="line 2"):
        parse_scenes(source)


def test_save_load_roundtrip(tmp_path):
    scenes = parse_scenes(LINE)
    path = tmp_path / "scenes.jsonl"
    save_scenes(scenes, path)
    assert load_scenes(path) == scenes


def test_save_writes_numpy_group_indices_as_integers(tmp_path):
    scene = Scene("a", (Person(1, 1, 0), Person(2, 1, 0)),
                  ((np.int64(1), np.int32(0)),))
    save_scenes([scene], tmp_path / "s.jsonl")
    assert load_scenes(tmp_path / "s.jsonl") == [scene]


PERSONS = st.lists(st.builds(
    Person, st.floats(0.0, DEFAULT_SPEC.width_m),
    st.floats(0.0, DEFAULT_SPEC.height_m),
    st.floats(allow_nan=False, allow_infinity=False)), max_size=8)


@st.composite
def _scenes(draw):
    """A scene of arbitrary valid persons under an arbitrary partition."""
    persons = draw(PERSONS)
    n = len(persons)
    order = draw(st.permutations(range(n)))
    cuts = sorted(draw(st.sets(st.integers(1, n - 1)))) if n > 1 else []
    bounds = [0, *cuts, n]
    groups = [tuple(order[a:b]) for a, b in zip(bounds, bounds[1:]) if b > a]
    return Scene(draw(st.text()), tuple(persons), tuple(groups))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.lists(_scenes(), max_size=4))
def test_save_load_round_trip_arbitrary_scenes(tmp_path_factory, scenes):
    path = tmp_path_factory.getbasetemp() / "round_trip.jsonl"
    save_scenes(scenes, path)
    assert load_scenes(path) == scenes


def test_load_scenes_enforces_max_people(tmp_path):
    scenes = parse_scenes(LINE)
    n = len(scenes[0].persons)
    path = tmp_path / "scenes.jsonl"
    save_scenes(scenes * 2, path)
    assert load_scenes(path, max_people=n) == scenes * 2
    with pytest.raises(SceneParseError) as exc:
        load_scenes(path, max_people=n - 1)
    assert str(exc.value) == f"{path} line 1: {n} persons, cap is {n - 1}"


def test_max_people_also_rejects_an_empty_frame():
    line = '{"frame_id": "e", "persons": []}\n'
    assert parse_scenes(line)[0].persons == ()  # no model, no cap: accepted
    with pytest.raises(SceneParseError) as exc:
        parse_scenes(LINE + "\n" + line, max_people=25, name="s.jsonl")
    assert str(exc.value) == "s.jsonl line 2: 0 persons, a model needs at least 1"


def test_parse_respects_room_spec():
    small = RoomSpec(rows=2, cols=2, cell_m=0.5)
    with pytest.raises(SceneParseError):
        parse_scenes(LINE, small)


def _dummy_scenes(n):
    return [Scene(f"s{i}", (Person(1.0, 1.0, 0.0),), ((0,),)) for i in range(n)]


def test_split_sizes_320():
    tr, va, te = sequential_split(_dummy_scenes(320))
    assert (len(tr), len(va), len(te)) == (256, 32, 32)


def test_split_sizes_10():
    tr, va, te = sequential_split(_dummy_scenes(10))
    assert (len(tr), len(va), len(te)) == (8, 1, 1)


def test_split_sizes_3():
    tr, va, te = sequential_split(_dummy_scenes(3))
    assert (len(tr), len(va), len(te)) == (2, 0, 1)


def test_split_preserves_order_and_concatenation():
    scenes = _dummy_scenes(17)
    tr, va, te = sequential_split(scenes, SplitRatios(0.5, 0.25, 0.25))
    assert tr + va + te == scenes


def test_split_ratios_validation():
    with pytest.raises(ValueError):
        SplitRatios(0.8, 0.1, 0.2)
    with pytest.raises(ValueError):
        SplitRatios(-0.1, 0.6, 0.5)
    SplitRatios(0.8, 0.1, 0.1)  # float sum is fine despite rounding


def test_bucket_yaw_examples():
    assert bucket_yaw(0.0) == 0
    assert bucket_yaw(359.0) == 15
    assert bucket_yaw(22.5) == 1
    assert bucket_yaw(22.4999) == 0
    assert bucket_yaw(360.0) == 0
    assert bucket_yaw(-1.0) == 15


def test_bucket_yaw_surjective():
    buckets = {bucket_yaw(k * 22.5 + 11.0) for k in range(16)}
    assert buckets == set(range(16))


def test_bucket_yaw_total_on_circle():
    for yaw in np.linspace(0, 360, 14401):
        assert 0 <= bucket_yaw(float(yaw)) <= 15


def test_bucket_yaw_rejects_non_finite():
    with pytest.raises(ValueError):
        bucket_yaw(float("nan"))


def _scene_at(xs, ys):
    persons = tuple(Person(x, y, 0.0) for x, y in zip(xs, ys))
    return Scene("s", persons, tuple((i,) for i in range(len(persons))))


def test_norm_stats_simple():
    stats = fit_norm_stats([_scene_at([1.0, 3.0], [1.0, 3.0])])
    assert stats.mean_x == 2.0 and stats.std_x == 1.0
    assert stats.mean_y == 2.0 and stats.std_y == 1.0


def test_norm_stats_population_formula():
    stats = fit_norm_stats([_scene_at([0.0, 2.0, 4.0], [1.0, 1.0, 1.0])])
    assert math.isclose(stats.std_x, math.sqrt(8.0 / 3.0), rel_tol=1e-12)
    assert stats.mean_x == 2.0


def test_norm_stats_degenerate_fallback():
    stats = fit_norm_stats([_scene_at([1.5], [2.5])])
    assert stats.std_x == 1.0 and stats.std_y == 1.0


def test_norm_stats_no_persons():
    empty = Scene("e", (), ())
    with pytest.raises(ValueError):
        fit_norm_stats([empty])


def test_norm_stats_rejects_bad_values():
    with pytest.raises(ValueError):
        NormStats(0.0, 0.0, 0.0, 1.0)


def test_person_feature_at_mean():
    stats = NormStats(2.0, 1.0, 1.0, 1.0)
    f = person_feature(Person(2.0, 1.0, 0.0), stats)
    assert f.shape == (18,)
    assert f[0] == 0.0 and f[1] == 0.0
    assert f[2] == 1.0 and f[2:].sum() == 1.0


def test_person_feature_one_std_out():
    stats = NormStats(2.0, 1.0, 0.5, 1.0)
    f = person_feature(Person(2.5, 1.0, 0.0), stats)
    assert f[0] == 1.0


def test_person_feature_yaw_bucket_slot():
    stats = NormStats(2.0, 1.0, 1.0, 1.0)
    f = person_feature(Person(3.0, 2.0, 100.0), stats)
    assert f[0] == 1.0 and f[1] == 1.0
    assert f[2 + 4] == 1.0 and f[2:].sum() == 1.0


def test_scene_features_shape():
    stats = NormStats(0.0, 0.0, 1.0, 1.0)
    feats = scene_features(_scene_at([1.0, 2.0, 3.0], [1.0, 1.0, 1.0]), stats)
    assert feats.shape == (3, 18)


def _features_per_person(scene, stats):
    """The oracle: the per-person rule ``scene_features`` stacked before it
    became one array pass, spelled out on Python floats."""
    rows = []
    for p in scene.persons:
        out = np.zeros(18)
        out[0] = (p.x - stats.mean_x) / stats.std_x
        out[1] = (p.y - stats.mean_y) / stats.std_y
        out[2 + min(int((p.yaw_deg % 360.0) / 22.5), 15)] = 1.0
        rows.append(out)
    return np.stack(rows) if rows else np.zeros((0, 18))


# each bucket edge, the float just below it, and the largest yaw below 360
_EDGE_YAWS = ([k * 22.5 for k in range(16)]
              + [math.nextafter(k * 22.5, -math.inf) for k in range(17)]
              + [359.99999999999994])


@settings(max_examples=200, deadline=None, derandomize=True)
@given(persons=st.lists(st.builds(
           Person,
           st.one_of(st.sampled_from([0.0, DEFAULT_SPEC.width_m]),
                     st.floats(0, DEFAULT_SPEC.width_m)),
           st.one_of(st.sampled_from([0.0, DEFAULT_SPEC.height_m]),
                     st.floats(0, DEFAULT_SPEC.height_m)),
           st.one_of(st.sampled_from(_EDGE_YAWS), st.floats(-720, 720))),
           max_size=25),
       stats=st.builds(NormStats, st.floats(-10, 10), st.floats(-10, 10),
                       st.floats(1e-3, 10), st.floats(1e-3, 10)))
def test_scene_features_equal_per_person_oracle(persons, stats):
    scene = Scene("s", persons, tuple((i,) for i in range(len(persons))))
    want = _features_per_person(scene, stats)
    got = scene_features(scene, stats)
    assert got.shape == want.shape == (len(persons), 18)
    assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
    for p, row in zip(persons, want):
        assert person_feature(p, stats).tobytes() == row.tobytes()


def test_scene_features_at_every_edge_yaw():
    stats = NormStats(3.0, 2.5, 1.5, 1.25)
    edges = [(0.0, 0.0), (DEFAULT_SPEC.width_m, DEFAULT_SPEC.height_m),
             (0.0, DEFAULT_SPEC.height_m), (DEFAULT_SPEC.width_m, 0.0)]
    persons = tuple(Person(*edges[i % 4], yaw)
                    for i, yaw in enumerate(_EDGE_YAWS))
    scene = Scene("edges", persons, tuple((i,) for i in range(len(persons))))
    got = scene_features(scene, stats)
    assert got.tobytes() == _features_per_person(scene, stats).tobytes()
    assert [bucket_yaw(p.yaw_deg) for p in persons] == \
        np.argmax(got[:, 2:], axis=1).tolist()
    empty = scene_features(Scene("none", (), ()), stats)
    assert empty.shape == (0, 18) and empty.dtype == np.float64


def test_flip_horizontal_example():
    s = Scene("f", (Person(1.0, 2.0, 0.0),), ((0,),))
    p = flip_scene(s, "horizontal").persons[0]
    assert (p.x, p.y, p.yaw_deg) == (5.0, 2.0, 180.0)


def test_flip_vertical():
    s = Scene("f", (Person(1.0, 2.0, 90.0),), ((0,),))
    p = flip_scene(s, "vertical").persons[0]
    assert (p.x, p.y, p.yaw_deg) == (1.0, 3.0, 270.0)


def test_flip_both_composes():
    s = Scene("f", (Person(1.0, 2.0, 30.0),), ((0,),))
    b = flip_scene(s, "both")
    hv = flip_scene(flip_scene(s, "horizontal"), "vertical")
    assert b == hv
    assert b.persons[0].yaw_deg == 210.0


def test_flip_unknown_axis():
    s = Scene("f", (Person(1.0, 2.0, 0.0),), ((0,),))
    with pytest.raises(ValueError):
        flip_scene(s, "diagonal")


def test_flip_involution():
    rng = np.random.default_rng(3)
    for _ in range(200):
        # dyadic coordinates and yaws make the mirror arithmetic exact
        x = rng.integers(0, 6 * 1024 + 1) / 1024
        y = rng.integers(0, 5 * 1024 + 1) / 1024
        yaw = rng.integers(0, 360 * 8) / 8
        s = Scene("f", (Person(x, y, yaw),), ((0,),))
        for axis in ("horizontal", "vertical", "both"):
            assert flip_scene(flip_scene(s, axis), axis) == s


def test_flip_involution_arbitrary_floats_close():
    rng = np.random.default_rng(4)
    for _ in range(200):
        s = Scene("f", (Person(rng.uniform(0, 6), rng.uniform(0, 5),
                               rng.uniform(0, 360)),), ((0,),))
        for axis in ("horizontal", "vertical"):
            p = flip_scene(flip_scene(s, axis), axis).persons[0]
            q = s.persons[0]
            assert abs(p.x - q.x) < 1e-12 and abs(p.y - q.y) < 1e-12
            assert min(abs(p.yaw_deg - q.yaw_deg),
                       360 - abs(p.yaw_deg - q.yaw_deg)) < 1e-12


def test_flip_preserves_groups_and_distances():
    s = Scene("f", (Person(1, 1, 10), Person(2, 3, 200), Person(4, 2, 90)),
              ((0, 2), (1,)))
    for axis in ("horizontal", "vertical", "both"):
        fs = flip_scene(s, axis)
        assert fs.groups == s.groups
        for i in range(3):
            for j in range(i + 1, 3):
                d0 = math.hypot(s.persons[i].x - s.persons[j].x,
                                s.persons[i].y - s.persons[j].y)
                d1 = math.hypot(fs.persons[i].x - fs.persons[j].x,
                                fs.persons[i].y - fs.persons[j].y)
                assert math.isclose(d0, d1, rel_tol=0, abs_tol=1e-12)


def test_feature_space_flip_with_symmetric_stats():
    stats = NormStats(mean_x=3.0, mean_y=2.5, std_x=1.0, std_y=1.0)
    p = Person(1.0, 1.5, 45.0)
    f = person_feature(p, stats)
    fh = person_feature(flip_scene(Scene("s", (p,), ((0,),)),
                                   "horizontal").persons[0], stats)
    assert fh[0] == -f[0] and fh[1] == f[1]
    assert fh[2 + bucket_yaw(180.0 - 45.0)] == 1.0


def test_augment_counts_and_order():
    s = Scene("f", (Person(1.0, 2.0, 0.0),), ((0,),))
    out = augment([s])
    assert len(out) == 4
    assert out[0] == s
    for flip, axis, frame_id in zip(out[1:], ("horizontal", "vertical", "both"),
                                    ("f-h", "f-v", "f-hv")):
        assert flip == replace(flip_scene(s, axis), frame_id=frame_id)
    assert augment([]) == []
    assert len(augment(_dummy_scenes(320))) == 1280
