import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from ospace.core import (DEFAULT_SPEC, OSpaceMap, Person, Point2, RoomSpec,
                         canonical_partition, cell_center)
from ospace.groundtruth import group_ospace, headings, propose_centers, step_ahead
from ospace.postprocess import (
    AssignParams,
    Detection,
    assign_groups,
    nearest_detections,
    nms,
    partition_from_claims,
    thin,
)

P = AssignParams()


def _map(cells):
    v = np.zeros((10, 12))
    for (r, c), s in cells.items():
        v[r, c] = s
    return OSpaceMap(v, DEFAULT_SPEC)


def test_params_validation():
    with pytest.raises(ValueError):
        AssignParams(nms_threshold=1.5)
    with pytest.raises(ValueError):
        AssignParams(nms_threshold=-0.1)
    with pytest.raises(ValueError):
        AssignParams(min_group_separation_m=-1.0)
    with pytest.raises(ValueError):
        AssignParams(max_assign_dist_m=float("nan"))


def test_nms_single_peak():
    dets = nms(_map({(2, 3): 0.9}), P)
    assert len(dets) == 1
    assert (dets[0].center.x, dets[0].center.y) == (1.75, 1.25)
    assert dets[0].score == 0.9


def test_nms_threshold_filters():
    dets = nms(_map({(2, 3): 0.4}), P)
    assert dets == []
    dets = nms(_map({(2, 3): 0.5}), P)  # >= threshold passes
    assert len(dets) == 1


def test_nms_zero_map_with_zero_threshold_keeps_flat_peaks():
    # every cell ties with its neighbours, so all survive the peak test;
    # greedy separation then thins them
    dets = nms(OSpaceMap(np.zeros((10, 12)), DEFAULT_SPEC),
               AssignParams(nms_threshold=0.0))
    assert len(dets) > 0
    for i, a in enumerate(dets):
        for b in dets[i + 1:]:
            d = np.hypot(a.center.x - b.center.x, a.center.y - b.center.y)
            assert d >= P.min_group_separation_m - 1e-12


def test_nms_non_maximum_suppressed():
    # 0.8 next to 0.9: not >= its stronger neighbour, so not a candidate
    dets = nms(_map({(2, 3): 0.9, (2, 4): 0.8}), P)
    assert len(dets) == 1
    assert dets[0].score == 0.9


def test_nms_far_peaks_both_kept_sorted_by_score():
    dets = nms(_map({(2, 3): 0.7, (7, 9): 0.95}), P)
    assert [d.score for d in dets] == [0.95, 0.7]


def test_nms_close_peaks_weaker_dropped():
    # equal diagonal neighbours both pass the peak test (>= ties) but sit
    # 0.707 m apart, so separation keeps only the row-major first
    dets = nms(_map({(2, 3): 0.9, (3, 4): 0.9}), P)
    assert len(dets) == 1
    assert (dets[0].center.x, dets[0].center.y) == (1.75, 1.25)
    # widen the radius: peaks 1.0 m apart now get thinned too
    dets = nms(_map({(2, 3): 0.9, (2, 5): 0.8}),
               AssignParams(min_group_separation_m=1.5))
    assert [d.score for d in dets] == [0.9]


def test_nms_separation_boundary_inclusive():
    dets = nms(_map({(2, 3): 0.9, (2, 5): 0.8}), P)
    # the two centers are exactly 1.0 m apart and min separation is 1.0,
    # so >= keeps both
    assert len(dets) == 2


def test_nms_tie_broken_row_major():
    dets = nms(_map({(2, 3): 0.9, (2, 4): 0.9}), P)
    assert len(dets) == 1
    assert (dets[0].center.x, dets[0].center.y) == (1.75, 1.25)


def test_nms_corner_cells_can_peak():
    dets = nms(_map({(0, 0): 0.6, (9, 11): 0.7}), P)
    assert len(dets) == 2
    assert {(d.center.x, d.center.y) for d in dets} == {(0.25, 0.25), (5.75, 4.75)}


def test_assign_empty_inputs():
    assert assign_groups([], [Detection(Point2(1.0, 1.0), 0.9)], P) == ()
    persons = [Person(1.0, 1.0, 0.0), Person(2.0, 2.0, 0.0)]
    assert assign_groups(persons, [], P) == ((0,), (1,))


def test_assign_dyad_to_single_detection():
    persons = [Person(1.0, 1.0, 0.0), Person(2.4, 1.0, 180.0)]
    det = [Detection(Point2(1.7, 1.0), 0.9)]
    assert assign_groups(persons, det, P) == ((0, 1),)


def test_assign_too_far_stays_singleton():
    persons = [Person(1.0, 1.0, 0.0), Person(2.4, 1.0, 180.0)]
    det = [Detection(Point2(1.7, 2.9), 0.9)]  # 1.9 m from both proposals
    assert assign_groups(persons, det, P) == ((0,), (1,))


def test_assign_boundary_distance_inclusive():
    person = [Person(1.0, 1.0, 0.0), Person(1.0, 1.0, 0.0)]
    det = [Detection(Point2(1.7 + 0.8, 1.0), 0.9)]  # exactly max_assign_dist
    assert assign_groups(person, det, P) == ((0, 1),)
    det = [Detection(Point2(1.7 + 0.8 + 1e-9, 1.0), 0.9)]
    assert assign_groups(person, det, P) == ((0,), (1,))


def test_assign_lone_member_dissolves():
    persons = [Person(1.0, 1.0, 0.0)]
    det = [Detection(Point2(1.7, 1.0), 0.9)]
    assert assign_groups(persons, det, P) == ((0,),)


def test_assign_two_detections_split_people():
    persons = [
        Person(1.0, 1.0, 0.0), Person(2.4, 1.0, 180.0),
        Person(4.0, 4.0, 0.0), Person(5.4, 4.0, 180.0),
    ]
    dets = [Detection(Point2(1.7, 1.0), 0.95), Detection(Point2(4.7, 4.0), 0.9)]
    assert assign_groups(persons, dets, P) == ((0, 1), (2, 3))


def test_assign_tie_goes_to_first_listed_detection():
    # proposal lands exactly between two detections; argmin takes index 0,
    # which is the higher-score detection by construction of nms output
    persons = [Person(1.0, 1.0, 0.0), Person(1.0, 1.0, 0.0)]
    dets = [Detection(Point2(2.0, 1.0), 0.9), Detection(Point2(1.4, 1.0), 0.8)]
    got = assign_groups(persons, dets, P)
    assert got == ((0, 1),)
    # both proposals at (1.7, 1.0), 0.3 from each detection: joined at dets[0]


def test_assign_custom_stride():
    persons = [Person(1.0, 1.0, 0.0), Person(1.8, 1.0, 180.0)]
    params = AssignParams(stride_m=0.4, max_assign_dist_m=0.05)
    det = [Detection(Point2(1.4, 1.0), 0.9)]
    assert assign_groups(persons, det, params) == ((0, 1),)


def test_assign_output_is_canonical():
    persons = [
        Person(4.0, 4.0, 0.0), Person(5.4, 4.0, 180.0),
        Person(1.0, 1.0, 0.0), Person(2.4, 1.0, 180.0),
    ]
    dets = [Detection(Point2(1.7, 1.0), 0.95), Detection(Point2(4.7, 4.0), 0.9)]
    got = assign_groups(persons, dets, P)
    assert got == ((0, 1), (2, 3))
    assert all(got[i][0] < got[i + 1][0] for i in range(len(got) - 1))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(claims=st.integers(0, 4).flatmap(
    lambda k: st.lists(st.integers(-1, k), max_size=12)))
def test_partition_from_claims_property(claims):
    """Claimants of one detection form a block when there are two or more;
    everyone else, unclaiming or a lone claimant, is a singleton."""
    partition = partition_from_claims(claims)
    assert sorted(m for block in partition for m in block) == list(
        range(len(claims)))
    assert partition == canonical_partition(partition)
    claimants = {}
    for i, j in enumerate(claims):
        claimants.setdefault(j, []).append(i)
    groups = {tuple(members) for j, members in claimants.items()
              if j >= 0 and len(members) >= 2}
    assert {block for block in partition if len(block) >= 2} == groups
    grouped = {m for block in groups for m in block}
    assert ({block for block in partition if len(block) == 1}
            == {(i,) for i in range(len(claims)) if i not in grouped})


def test_threshold_monotonicity():
    rng = np.random.default_rng(4)
    v = rng.uniform(0, 1, size=(10, 12))
    m = OSpaceMap(v, DEFAULT_SPEC)
    prev = None
    for thr in (0.2, 0.4, 0.6, 0.8):
        dets = nms(m, AssignParams(nms_threshold=thr))
        centers = {(d.center.x, d.center.y) for d in dets}
        if prev is not None:
            assert centers <= prev
        prev = centers


def _nms_reference(heatmap, params):
    """The np.pad and Python-sort NMS that nms replaced."""
    v = heatmap.values
    padded = np.pad(v, 1, constant_values=-np.inf)
    shifts = [padded[1 + dr: 1 + dr + v.shape[0], 1 + dc: 1 + dc + v.shape[1]]
              for dr in (-1, 0, 1) for dc in (-1, 0, 1) if (dr, dc) != (0, 0)]
    is_peak = np.all([v >= s for s in shifts], axis=0) & (v >= params.nms_threshold)
    rows, cols = np.nonzero(is_peak)
    order = sorted(range(len(rows)), key=lambda i: (-v[rows[i], cols[i]], rows[i], cols[i]))
    kept = []
    min_sep_sq = params.min_group_separation_m ** 2
    for i in order:
        c = cell_center(int(rows[i]), int(cols[i]), heatmap.spec)
        if all((c.x - d.center.x) ** 2 + (c.y - d.center.y) ** 2 >= min_sep_sq
               for d in kept):
            kept.append(Detection(c, float(v[rows[i], cols[i]])))
    return kept


def test_nms_matches_reference():
    rng = np.random.default_rng(8)
    for i in range(600):
        kind = i % 3
        if kind == 0:
            v = rng.uniform(0, 1, (10, 12))
        elif kind == 1:  # few levels: plateaus and exact score ties
            v = rng.integers(0, 4, (10, 12)) / 3.0
        else:
            v = np.full((10, 12), rng.choice([0.0, 0.5, 1.0]))
        m = OSpaceMap(v, DEFAULT_SPEC)
        params = AssignParams(
            nms_threshold=float(rng.choice([0.0, 1 / 3, 0.5, 2 / 3, 1.0])),
            min_group_separation_m=float(rng.choice([0.0, 0.5, 1.0, 1.5])))
        assert nms(m, params) == _nms_reference(m, params)


def test_a_separation_past_the_largest_square_keeps_the_first_only():
    # 1e308 ** 2 overflows a float: no two detections are that far apart
    m = _map({(1, 1): 0.9, (8, 10): 0.8})
    assert len(nms(m, AssignParams(min_group_separation_m=0.0))) == 2
    kept = nms(m, AssignParams(min_group_separation_m=1e308))
    assert [d.score for d in kept] == [0.9]
    assert thin(nms(m, AssignParams(min_group_separation_m=0.0)), 1e308) == kept


def test_thin_compares_offsets_whose_square_overflows():
    # (1e200) ** 2 overflows a float: such an offset is measured, not squared
    dets = [Detection(Point2(x, 0.0), 0.5) for x in (0.0, 1e200, 2e200, 1.0)]
    assert thin(dets, 0.5) == dets
    assert thin(dets, 2.0) == dets[:3]
    assert thin(dets, 1.5e200) == [dets[0], dets[2]]
    assert thin(dets, 1e300) == dets[:1]
    # 1e154 ** 2 is finite, but the sum of two is not, and neither is the
    # limit's square: the offset, 1.414e154, is measured against 1.5e154
    dets = [Detection(Point2(0.0, 0.0), 0.9), Detection(Point2(1e154, 1e154), 0.8)]
    assert thin(dets, 1.5e154) == dets[:1]
    assert thin(dets, 1.4e154) == dets


def test_thin_compares_offsets_whose_square_underflows():
    # (1e-200) ** 2 and (1.5e-200) ** 2 both underflow to 0: the offset is
    # measured, so 1e-200 is closer than 1.5e-200
    dets = [Detection(Point2(0, 0), .9), Detection(Point2(1e-200, 0), .8)]
    assert thin(dets, 1.5e-200) == dets[:1]
    assert thin(dets, 0.5e-200) == dets
    assert thin(dets, 0.0) == dets


@pytest.mark.parametrize("rows,cols", [(1, 1), (1, 5), (4, 1), (2, 3), (7, 9)])
def test_nms_matches_reference_on_any_grid(rows, cols):
    # one-row and one-column grids have cells with neighbors on one side only
    rng = np.random.default_rng(rows * 10 + cols)
    spec = RoomSpec(rows, cols, 0.5)
    for i in range(200):
        v = rng.integers(0, 4, (rows, cols)) / 3.0 if i % 2 else rng.uniform(
            0, 1, (rows, cols))
        m = OSpaceMap(v, spec)
        params = AssignParams(
            nms_threshold=float(rng.choice([0.0, 1 / 3, 0.5, 1.0])),
            min_group_separation_m=float(rng.choice([0.0, 0.5, 1.5])))
        assert nms(m, params) == _nms_reference(m, params)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.data())
def test_nms_threshold_takes_a_score_prefix(data):
    """Raising the threshold cuts a tail off the lower threshold's
    detections, the rule the grid search's shared NMS relies on."""
    levels = data.draw(st.lists(st.floats(0, 1), min_size=1, max_size=4))
    idx = data.draw(hnp.arrays(np.intp, (10, 12),
                               elements=st.integers(0, len(levels) - 1)))
    m = OSpaceMap(np.array(levels)[idx], DEFAULT_SPEC)
    threshold = st.one_of(st.sampled_from(levels + [0.0, 1.0]), st.floats(0, 1))
    lo, hi = sorted((data.draw(threshold), data.draw(threshold)))
    sep = data.draw(st.floats(0, 8))
    low = nms(m, AssignParams(nms_threshold=lo, min_group_separation_m=sep))
    high = nms(m, AssignParams(nms_threshold=hi, min_group_separation_m=sep))
    assert [d for d in low if d.score >= hi] == high


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.data())
def test_thinning_separation_zero_candidates_is_nms(data):
    """NMS at separation 0 keeps every candidate in visiting order, so
    ``thin`` of that list at each separation is NMS at it: the grid search
    runs one NMS per heatmap and thins it per separation."""
    levels = data.draw(st.lists(st.floats(0, 1), min_size=1, max_size=4))
    idx = data.draw(hnp.arrays(np.intp, (10, 12),
                               elements=st.integers(0, len(levels) - 1)))
    m = OSpaceMap(np.array(levels)[idx], DEFAULT_SPEC)  # plateaus and ties
    threshold = data.draw(st.one_of(st.sampled_from(levels + [0.0, 1.0]),
                                    st.floats(0, 1)))
    candidates = nms(m, AssignParams(nms_threshold=threshold,
                                     min_group_separation_m=0.0))
    # separations on and between the grid's cell spacings, 0.5 m
    for sep in (0.0, 0.5, 0.7071067811865476, 1.0, 1.5, 2.5,
                data.draw(st.floats(0, 8))):
        want = nms(m, AssignParams(nms_threshold=threshold,
                                   min_group_separation_m=sep))
        assert thin(candidates, sep) == want


def _proposal(person, stride_m):
    """One person's o-space proposal in scalar arithmetic, the oracle for
    ``groundtruth``'s array rule."""
    rad = math.radians(person.yaw_deg)
    return (person.x + stride_m * math.cos(rad),
            person.y + stride_m * math.sin(rad))


def _nearest_per_person(persons, detections, stride_m):
    """The per-person loop assign_groups ran before it was vectorised."""
    centers = np.array([[d.center.x, d.center.y] for d in detections])
    out = []
    for person in persons:
        px, py = _proposal(person, stride_m)
        dist = np.hypot(centers[:, 0] - px, centers[:, 1] - py)
        j = int(np.argmin(dist))
        out.append((j, float(dist[j])))
    return out


def test_nearest_detections_matches_per_person_loop():
    rng = np.random.default_rng(5)
    for _ in range(300):
        persons = [Person(*rng.uniform((0, 0, -180), (6, 5, 180)))
                   for _ in range(rng.integers(0, 8))]
        # few distinct cells, so repeated centers tie argmin exactly
        cells = rng.integers((0, 0), (3, 4), size=(rng.integers(1, 7), 2))
        dets = [Detection(cell_center(int(r), int(c)), 0.9) for r, c in cells]
        stride = float(rng.choice([0.0, 0.4, 0.7, 1.0]))
        near, dist = nearest_detections(propose_centers(persons, stride), dets)
        got = [(int(j), float(d)) for j, d in zip(near, dist)]
        assert got == _nearest_per_person(persons, dets, stride)
    # a proposal exactly midway between two distinct centers takes the first
    dets = [Detection(Point2(2.25, 2.25), 0.9), Detection(Point2(1.25, 2.25), 0.9)]
    near, dist = nearest_detections(
        propose_centers([Person(1.25, 2.25, 0.0)], 0.5), dets)
    assert (near.tolist(), dist.tolist()) == ([0], [0.5])


def test_nearest_detections_without_detections():
    near, dist = nearest_detections(
        propose_centers([Person(1.0, 1.0, 0.0)] * 3, 0.7), [])
    assert near.tolist() == [-1, -1, -1]
    assert np.isinf(dist).all()
    near, dist = nearest_detections(propose_centers([], 0.7), [])
    assert near.shape == dist.shape == (0,)


def _bits(a) -> list[bytes]:
    return [np.float64(v).tobytes() for v in np.ravel(a)]


@settings(max_examples=100, deadline=None, derandomize=True)
@given(persons=st.lists(st.builds(
           Person, st.floats(-50, 50), st.floats(-50, 50),
           st.one_of(st.floats(-720, 720),
                     st.integers(-8, 8).map(lambda k: 90.0 * k))),
           max_size=8),
       stride=st.one_of(st.just(0.0), st.floats(0, 5)))
def test_propose_centers_equals_propose_center_bit_for_bit(persons, stride):
    """Every proposal, one person's or a group's mean, has the bits of the
    scalar oracle."""
    got = propose_centers(persons, stride)
    assert got.shape == (len(persons), 2)
    want = [_proposal(person, stride) for person in persons]
    for row, person, w in zip(got, persons, want):
        one = propose_centers([person], stride)[0]
        assert _bits(row) == _bits(one) == _bits(w)
    if persons:
        c = group_ospace(persons, stride)
        assert _bits((c.x, c.y)) == _bits([sum(v) / len(v) for v in zip(*want)])


@settings(max_examples=100, deadline=None, derandomize=True)
@given(persons=st.lists(st.builds(
           Person, st.floats(-50, 50), st.floats(-50, 50),
           st.one_of(st.floats(-720, 720),
                     st.integers(-8, 8).map(lambda k: 90.0 * k))),
           max_size=8),
       strides=st.lists(st.one_of(st.just(0.0), st.floats(0, 5)),
                        min_size=1, max_size=4))
def test_one_heading_read_serves_every_stride(persons, strides):
    """``step_ahead`` of one ``headings`` read gives each stride's
    ``propose_centers`` bit for bit, as the grid search uses it."""
    xy, heading = headings(persons)
    for stride in strides:
        assert (step_ahead(xy, heading, stride).tobytes()
                == propose_centers(persons, stride).tobytes())


def test_step_ahead_raises_what_propose_centers_raises():
    huge = [Person(1.0, 1.0, 0.0), Person(1.7e308, 2.0, 0.0),
            Person(2.0, -1.7e308, 270.0)]
    xy, heading = headings(huge)
    for stride in (1e308, -0.5):
        with pytest.raises(ValueError) as want:
            propose_centers(huge, stride)
        with pytest.raises(ValueError) as got:
            step_ahead(xy, heading, stride)
        assert str(got.value) == str(want.value)
    assert str(got.value) == "stride must be non-negative, got -0.5"
    assert step_ahead(*headings([]), -0.5).shape == (0, 2)


def test_propose_centers_raises_what_propose_center_raises():
    huge = [Person(1.0, 1.0, 0.0), Person(1.7e308, 2.0, 0.0)]
    with pytest.raises(ValueError) as want:
        [propose_centers([p], 1e308)[0] for p in huge]
    with pytest.raises(ValueError) as got:
        propose_centers(huge, 1e308)
    assert str(got.value) == str(want.value) == "non-finite point (inf, 2.0)"
    with pytest.raises(ValueError, match="stride must be non-negative"):
        propose_centers(huge, -0.5)
    assert propose_centers([], -0.5).shape == (0, 2)
