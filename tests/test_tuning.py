from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ospace import tuning
from ospace.core import DEFAULT_SPEC, OSpaceMap, Person, Scene
from ospace.evaluation import aggregate, match_scene, snap_tolerance
from ospace.groundtruth import scene_target
from ospace.postprocess import (
    AssignParams,
    assign_groups,
    nearest_detections,
    nms,
    propose_centers,
)
from ospace.tuning import Grid, GridResult, grid_search_heatmaps


def test_grid_validation():
    with pytest.raises(ValueError):
        Grid(nms_thresholds=())
    with pytest.raises(ValueError):
        Grid(nms_thresholds=(0.5, 1.2))
    with pytest.raises(ValueError):
        Grid(strides_m=(-0.1,))
    g = Grid(nms_thresholds=[0.5], separations_m=[1])
    assert g.nms_thresholds == (0.5,)
    assert g.separations_m == (1.0,)


def _dyad_scene(frame="a"):
    return Scene(frame, (Person(1.0, 1.0, 0.0), Person(2.4, 1.0, 180.0)),
                 ((0, 1),))


def test_table_covers_grid_in_order():
    s = _dyad_scene()
    h = scene_target(s, 0.7)
    grid = Grid(nms_thresholds=(0.3, 0.6), separations_m=(1.0,),
                assign_dists_m=(0.5, 1.0), strides_m=(0.7,))
    _, _, table = grid_search_heatmaps([h], [s], grid, 1)
    assert len(table) == 4
    combos = [(r.params.nms_threshold, r.params.max_assign_dist_m)
              for r in table]
    assert combos == [(0.3, 0.5), (0.3, 1.0), (0.6, 0.5), (0.6, 1.0)]
    assert all(isinstance(r, GridResult) for r in table)


def test_ground_truth_heatmaps_reach_perfect_f1():
    scenes = [
        _dyad_scene("a"),
        Scene("b", (
            Person(1.0, 1.0, 0.0), Person(2.4, 1.0, 180.0),
            Person(4.0, 4.0, 0.0), Person(5.4, 4.0, 180.0),
        ), ((0, 1), (2, 3))),
    ]
    heatmaps = [scene_target(s, 0.7) for s in scenes]
    params, f1, _ = grid_search_heatmaps(heatmaps, scenes, Grid(), 1)
    assert f1 == 1.0
    # many combinations are perfect on these easy scenes; ties resolve to
    # the highest threshold, widest separation, then tightest assignment
    assert (params.nms_threshold, params.min_group_separation_m,
            params.max_assign_dist_m, params.stride_m) == (0.8, 1.5, 0.5, 0.4)


def test_tie_breaks_prefer_higher_threshold():
    s = _dyad_scene()
    h = scene_target(s, 0.7)
    grid = Grid(nms_thresholds=(0.3, 0.5), separations_m=(0.5, 1.0),
                assign_dists_m=(0.5, 1.0), strides_m=(0.7,))
    params, f1, table = grid_search_heatmaps([h], [s], grid, 1)
    assert f1 == 1.0
    best_f1 = max(r.metrics.f1 for r in table)
    ties = [r.params for r in table if r.metrics.f1 == best_f1]
    assert params.nms_threshold == max(p.nms_threshold for p in ties)
    at_thr = [p for p in ties if p.nms_threshold == params.nms_threshold]
    assert params.min_group_separation_m == max(
        p.min_group_separation_m for p in at_thr)
    at_sep = [p for p in at_thr
              if p.min_group_separation_m == params.min_group_separation_m]
    assert params.max_assign_dist_m == min(p.max_assign_dist_m for p in at_sep)


def test_input_length_mismatch():
    s = _dyad_scene()
    h = scene_target(s)
    with pytest.raises(ValueError):
        grid_search_heatmaps([h, h], [s], Grid(), 1)
    with pytest.raises(ValueError):
        grid_search_heatmaps([], [], Grid(), 1)


def test_flat_heatmap_yields_zero_f1():
    s = _dyad_scene()
    flat = OSpaceMap(np.zeros((10, 12)), DEFAULT_SPEC)
    grid = Grid(nms_thresholds=(0.5,), separations_m=(1.0,),
                assign_dists_m=(0.8,), strides_m=(0.7,))
    _, f1, table = grid_search_heatmaps([flat], [s], grid, 1)
    assert f1 == 0.0
    m = table[0].metrics
    assert (m.tp, m.fp, m.fn) == (0, 0, 1)


def _per_point_search(heatmaps, scenes, grid, tolerance):
    """The reference: NMS per threshold and separation, then assign_groups
    and match_scene for every scene at every grid point."""
    t = snap_tolerance(tolerance)
    table = []
    for thr in grid.nms_thresholds:
        for sep in grid.separations_m:
            base = AssignParams(nms_threshold=thr, min_group_separation_m=sep)
            detections = [nms(h, base) for h in heatmaps]
            for ad in grid.assign_dists_m:
                for st in grid.strides_m:
                    params = AssignParams(nms_threshold=thr,
                                          min_group_separation_m=sep,
                                          max_assign_dist_m=ad, stride_m=st)
                    counts = [
                        match_scene(assign_groups(s.persons, d, params),
                                    s.groups, t)
                        for s, d in zip(scenes, detections)
                    ]
                    table.append(GridResult(params, aggregate(counts, t)))
    best = min(table, key=lambda r: (-r.metrics.f1, -r.params.nms_threshold,
                                     -r.params.min_group_separation_m,
                                     r.params.max_assign_dist_m,
                                     r.params.stride_m))
    return best.params, best.metrics.f1, table


def _random_scene(rng, frame):
    persons = [Person(*rng.uniform((0, 0, -180), (6, 5, 180)))
               for _ in range(rng.integers(1, 9))]
    order = rng.permutation(len(persons)).tolist()
    cuts = sorted(rng.choice(range(1, len(persons) + 1), rng.integers(1, 4)))
    blocks = [order[a:b] for a, b in zip([0] + cuts, cuts) if a < b]
    blocks.append(order[cuts[-1]:])
    return Scene(frame, persons, [b for b in blocks if b])


def _peak_map(cells):
    v = np.zeros((DEFAULT_SPEC.rows, DEFAULT_SPEC.cols))
    for r, c in cells:
        v[r, c] = 0.9
    return OSpaceMap(v, DEFAULT_SPEC)


def _exact_scenes():
    """Scenes whose proposals sit exactly on a grid distance or midway
    between two detections (cell centers lie on multiples of 0.25 m)."""
    dyad = Scene("exact", (Person(1.25, 2.25, 0.0), Person(3.25, 2.25, 180.0)),
                 ((0, 1),))
    # at stride 0.5 person 0's proposal (2.25, 2.25) is 1.0 m from both peaks
    tie = Scene("tie", (Person(1.75, 2.25, 0.0), Person(0.75, 2.25, 0.0),
                        Person(3.75, 2.25, 180.0)), ((0, 1), (2,)))
    return ([dyad, tie], [_peak_map([(4, 4)]), _peak_map([(4, 2), (4, 6)])])


def _flat_scenes():
    """Equal-sized scenes with no peaks but different ground truth, and an
    empty scene: their assignment vectors coincide."""
    flat = OSpaceMap(np.full((DEFAULT_SPEC.rows, DEFAULT_SPEC.cols), 0.1),
                     DEFAULT_SPEC)
    persons = tuple(Person(1.0 + i, 1.0, 0.0) for i in range(4))
    return ([Scene("one", persons, ((0, 1), (2, 3))),
             Scene("two", persons, ((0, 1, 2, 3),)),
             Scene("none", (), ())], [flat, flat, flat])


@pytest.mark.parametrize("tolerance", [Fraction(2, 3), 1])
def test_search_equals_per_point_reference(tolerance):
    rng = np.random.default_rng(7)
    scenes, heatmaps = _exact_scenes()
    flat_scenes, flat_maps = _flat_scenes()
    scenes += flat_scenes
    heatmaps += flat_maps
    for i in range(14):
        s = _random_scene(rng, f"r{i}")
        if i % 2:
            v = rng.uniform(0, 1, (DEFAULT_SPEC.rows, DEFAULT_SPEC.cols))
        else:
            v = np.clip(scene_target(s, 0.7).values
                        + rng.normal(0, 0.15, (DEFAULT_SPEC.rows,
                                               DEFAULT_SPEC.cols)), 0, 1)
        scenes.append(s)
        heatmaps.append(OSpaceMap(v, DEFAULT_SPEC))
    axes = dict(assign_dists_m=(1.0, 0.5, 0.25, 0.5, 1.5),
                strides_m=(0.4, 0.5, 0.7, 0.7, 1.0))
    grids = [
        # duplicate values on every axis; 0.5 and 1.0 are exact on the peaks
        Grid(nms_thresholds=(0.3, 0.5, 0.5, 0.8),
             separations_m=(0.5, 1.0, 1.0), **axes),
        # unsorted, so the lowest threshold is not the first, with both
        # ends of [0, 1]: every cell clears 0.0, only an exact 1.0 clears 1.0
        Grid(nms_thresholds=(0.7, 0.0, 0.5, 1.0, 0.5),
             separations_m=(1.0, 0.5, 1.0), **axes),
    ]
    for grid in grids:
        got = grid_search_heatmaps(heatmaps, scenes, grid, tolerance)
        want = _per_point_search(heatmaps, scenes, grid, tolerance)
        assert got[2] == want[2]
        assert got[:2] == want[:2]
        # the constructed cases did decide something: both peak scenes are
        # matched at some point and missed at another
        for k in range(2):
            table = _per_point_search([heatmaps[k]], [scenes[k]], grid,
                                      tolerance)[2]
            assert {r.metrics.tp for r in table} == {0, 1}


def test_nms_runs_once_per_scene_and_separation(monkeypatch):
    """Each threshold reads its detections off one NMS at the lowest."""
    calls = []

    def spy(heatmap, params):
        calls.append(params.nms_threshold)
        return nms(heatmap, params)

    monkeypatch.setattr(tuning, "nms", spy)
    rng = np.random.default_rng(9)
    scenes = [_random_scene(rng, f"r{i}") for i in range(3)]
    heatmaps = [OSpaceMap(rng.uniform(0, 1, (DEFAULT_SPEC.rows,
                                             DEFAULT_SPEC.cols)), DEFAULT_SPEC)
                for _ in scenes]
    grid = Grid()
    _, _, table = grid_search_heatmaps(heatmaps, scenes, grid, 1)
    assert len(table) == 216
    assert calls == [min(grid.nms_thresholds)] * (len(scenes)
                                                  * len(grid.separations_m))


def _oracle_misses(heatmaps, scenes, grid):
    """What the search must compute, counted grid point by grid point:
    the distinct (scene, key row) and (scene, partition) pairs."""
    rows, partitions = set(), set()
    for thr in grid.nms_thresholds:
        for sep in grid.separations_m:
            base = AssignParams(nms_threshold=thr, min_group_separation_m=sep)
            for i, (h, s) in enumerate(zip(heatmaps, scenes)):
                dets = nms(h, base)
                for ad in grid.assign_dists_m:
                    for st_m in grid.strides_m:
                        near, dist = nearest_detections(
                            propose_centers(s.persons, st_m), dets)
                        rows.add((i, tuple(np.where(dist <= ad, near, -1))))
                        params = AssignParams(thr, sep, ad, st_m)
                        partitions.add((i, assign_groups(s.persons, dets,
                                                         params)))
    return len(rows), len(partitions)


def test_misses_run_once_per_distinct_key_row_and_partition(monkeypatch):
    """assign_groups runs once per distinct (scene, key row) and
    match_scene once per distinct (scene, partition), so a trace's call
    counts say how much assignment and matching the search really did."""
    rng = np.random.default_rng(3)
    scenes, heatmaps = _exact_scenes()
    flat_scenes, flat_maps = _flat_scenes()
    scenes += flat_scenes
    heatmaps += flat_maps
    for i in range(6):
        s = _random_scene(rng, f"r{i}")
        scenes.append(s)
        heatmaps.append(OSpaceMap(np.clip(
            scene_target(s, 0.7).values
            + rng.normal(0, 0.15, (DEFAULT_SPEC.rows, DEFAULT_SPEC.cols)),
            0, 1), DEFAULT_SPEC))
    grid = Grid(nms_thresholds=(0.3, 0.5, 0.7), separations_m=(0.5, 1.0),
                assign_dists_m=(0.5, 1.0, 1.5), strides_m=(0.4, 0.7))
    calls = Counter()
    for name in ("assign_groups", "match_scene"):
        def spy(*args, _real=getattr(tuning, name), _name=name):
            calls[_name] += 1
            return _real(*args)
        monkeypatch.setattr(tuning, name, spy)
    got = grid_search_heatmaps(heatmaps, scenes, grid, Fraction(2, 3))
    assert got == _per_point_search(heatmaps, scenes, grid, Fraction(2, 3))
    n_rows, n_partitions = _oracle_misses(heatmaps, scenes, grid)
    assert (calls["assign_groups"], calls["match_scene"]) == (n_rows,
                                                              n_partitions)
    # the case is not degenerate: some key rows share a partition
    assert n_partitions < n_rows


_COORDS = st.floats(0, 1, allow_nan=False)


@st.composite
def _search_cases(draw):
    """Scenes with a zero-person scene among them, each with a heatmap of
    noise over its own ground truth, in drawn order; a grid with at least
    one repeated axis value."""
    scenes, heatmaps = [], []
    for i in range(draw(st.integers(1, 4))):
        n = draw(st.integers(1, 6))
        persons = tuple(Person(6 * draw(_COORDS), 5 * draw(_COORDS),
                               draw(st.sampled_from((0.0, 90.0, 180.0, 270.0)))
                               + draw(st.floats(-30, 30)))
                        for _ in range(n))
        labels = draw(st.lists(st.integers(0, 2), min_size=n, max_size=n))
        blocks = {}
        for k, label in enumerate(labels):
            blocks.setdefault(label, []).append(k)
        scenes.append(Scene(f"s{i}", persons, tuple(blocks.values())))
    scenes.insert(draw(st.integers(0, len(scenes))), Scene("none", (), ()))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    for s in scenes:
        noise = rng.normal(0, draw(st.sampled_from((0.1, 0.3))),
                           (DEFAULT_SPEC.rows, DEFAULT_SPEC.cols))
        heatmaps.append(OSpaceMap(np.clip(scene_target(s, 0.7).values + noise,
                                          0, 1), DEFAULT_SPEC))
    order = draw(st.permutations(range(len(scenes))))
    axes = [draw(st.lists(st.sampled_from(values), min_size=1, max_size=2))
            for values in ((0.3, 0.5, 0.7), (0.5, 1.0, 1.5),
                           (0.5, 1.0, 1.5), (0.4, 0.7, 1.0))]
    repeated = draw(st.integers(0, 3))
    axes[repeated] = axes[repeated] + axes[repeated][:1]
    return [heatmaps[k] for k in order], [scenes[k] for k in order], axes


@pytest.mark.parametrize("tolerance", [Fraction(2, 3), 1, 0.7])
@settings(max_examples=20, deadline=None, derandomize=True)
@given(case=_search_cases())
def test_search_equals_per_point_reference_property(case, tolerance):
    heatmaps, scenes, axes = case
    grid = Grid(*axes)
    assert (grid_search_heatmaps(heatmaps, scenes, grid, tolerance)
            == _per_point_search(heatmaps, scenes, grid, tolerance))
    # the one-point grid of the wide workload's shape
    point = Grid(*([values[0]] for values in axes))
    assert (grid_search_heatmaps(heatmaps, scenes, point, tolerance)
            == _per_point_search(heatmaps, scenes, point, tolerance))
