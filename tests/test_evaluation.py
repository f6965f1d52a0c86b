import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ospace.evaluation import (
    _thresholds,
    aggregate,
    format_tolerance,
    match_counts,
    match_scene,
    max_false,
    required_correct,
    snap_tolerance,
)

T23 = Fraction(2, 3)


def test_snap_tolerance():
    assert snap_tolerance(2 / 3) == T23
    assert snap_tolerance(0.6666666666666666) == T23
    assert snap_tolerance(0.5) == Fraction(1, 2)
    assert snap_tolerance(1) == Fraction(1)
    assert snap_tolerance(Fraction(3, 4)) == Fraction(3, 4)
    with pytest.raises(ValueError):
        snap_tolerance(0)
    with pytest.raises(ValueError):
        snap_tolerance(1.2)
    with pytest.raises(ValueError):
        snap_tolerance(-0.5)


def test_thresholds_exact_arithmetic():
    # float ceil would see 2/3 * 3 = 2.0000000000000004 and demand 3
    assert required_correct(3, snap_tolerance(2 / 3)) == 2
    assert max_false(3, T23) == 1
    assert required_correct(2, T23) == 2
    assert max_false(2, T23) == 1
    assert required_correct(5, T23) == 4
    assert max_false(5, T23) == 2
    assert required_correct(4, Fraction(1)) == 4
    assert max_false(4, Fraction(1)) == 0


def test_group_matches_examples():
    """One predicted block against one true block: (1, 0, 0) when it
    matches, (0, 1, 1) when it does not."""
    hit, miss = (1, 0, 0), (0, 1, 1)
    assert match_scene([(0, 1, 2)], [(0, 1, 2)], 1) == hit
    assert match_scene([(0, 1, 2, 3)], [(0, 1, 2)], 1) == miss
    assert match_scene([(0, 1)], [(0, 1, 2)], 1) == miss
    # size 3 at 2/3: two of three members and at most one outsider
    assert match_scene([(0, 1, 9)], [(0, 1, 2)], T23) == hit
    assert match_scene([(0, 8, 9)], [(0, 1, 2)], T23) == miss
    assert match_scene([(0, 1, 8, 9)], [(0, 1, 2)], T23) == miss
    with pytest.raises(ValueError, match=r"^predicted groups\.0: empty$"):
        match_scene([()], [(0, 1)], T23)
    with pytest.raises(ValueError, match=r"^ground-truth groups\.0: empty$"):
        match_scene([(0, 1)], [()], T23)


def test_match_scene_crossed_pair():
    gt = [(0, 1, 2), (3, 4)]
    pred = [(0, 1, 3), (2, 4)]
    assert match_scene(pred, gt, T23) == (1, 1, 1)
    assert match_scene(pred, gt, Fraction(1)) == (0, 2, 2)


def test_match_scene_perfect():
    gt = [(0, 1), (2, 3, 4)]
    pred = [(2, 3, 4), (0, 1)]
    assert match_scene(pred, gt, Fraction(1)) == (2, 0, 0)


def test_match_scene_singletons_ignored():
    gt = [(0, 1), (2,), (3,)]
    pred = [(0, 1), (2,)]
    assert match_scene(pred, gt, Fraction(1)) == (1, 0, 0)
    assert match_scene([], gt, Fraction(1)) == (0, 0, 1)
    assert match_scene([(5,), (6,)], [(7,)], Fraction(1)) == (0, 0, 0)


def test_match_scene_each_pred_claimed_once():
    gt = [(0, 1, 2, 3), (4, 5)]
    pred = [(0, 1, 2, 3, 4, 5)]
    # the big pred matches gt's size-4 group at 2/3 (4 correct, 2 outsiders
    # allowed is ceil(4/3)=2); the dyad then has nothing left to claim
    assert match_scene(pred, gt, T23) == (1, 0, 1)


def test_match_scene_greedy_order_big_groups_first():
    gt = [(0, 1), (2, 3, 4, 5, 6, 7)]
    pred = [(2, 3, 4, 5, 0, 1)]
    # pred matches the size-6 gt at 2/3 (4 of 6 correct, 2 outsiders);
    # gt groups are visited in descending size so the hexad claims it
    assert match_scene(pred, gt, T23) == (1, 0, 1)


def test_match_scene_rejects_overlap():
    with pytest.raises(ValueError):
        match_scene([(0, 1), (1, 2)], [(0, 1)], Fraction(1))
    with pytest.raises(ValueError):
        match_scene([(0, 1)], [(0, 1), (1, 2)], Fraction(1))


def test_aggregate_micro_average():
    m = aggregate([(1, 1, 1), (2, 0, 1)], T23)
    assert (m.tp, m.fp, m.fn) == (3, 1, 2)
    assert m.precision == 0.75
    assert m.recall == 0.6
    assert np.isclose(m.f1, 2 * 0.75 * 0.6 / 1.35)
    assert m.tolerance == T23


def test_aggregate_zero_denominators():
    m = aggregate([(0, 0, 0)], Fraction(1))
    assert m.precision == 0.0 and m.recall == 0.0 and m.f1 == 0.0
    m = aggregate([(0, 3, 0)], Fraction(1))
    assert m.precision == 0.0 and m.f1 == 0.0
    m = aggregate([(0, 0, 2)], Fraction(1))
    assert m.recall == 0.0 and m.f1 == 0.0


def test_format_tolerance():
    assert format_tolerance(Fraction(2, 3)) == "2/3"
    assert format_tolerance(Fraction(1)) == "1"
    assert format_tolerance(Fraction(1, 2)) == "1/2"


def _random_partition(rng, n):
    idx = list(rng.permutation(n))
    blocks = []
    while idx:
        k = int(rng.integers(1, min(5, len(idx)) + 1))
        blocks.append(tuple(idx[:k]))
        idx = idx[k:]
    return blocks


def test_tolerance_one_is_set_equality():
    rng = np.random.default_rng(5)
    for _ in range(300):
        n = int(rng.integers(2, 12))
        gt = _random_partition(rng, n)
        pred = [tuple(rng.permutation(b)) for b in gt]
        rng.shuffle(pred)
        n_groups = sum(1 for b in gt if len(b) >= 2)
        assert match_scene(pred, gt, Fraction(1)) == (n_groups, 0, 0)
        # swap one member across two non-singleton blocks: both break
        big = [i for i, b in enumerate(gt) if len(b) >= 2]
        if len(big) >= 2:
            a, b = big[0], big[1]
            mut = [list(x) for x in gt]
            mut[a][0], mut[b][0] = mut[b][0], mut[a][0]
            mut = [tuple(x) for x in mut]
            tp, fp, fn = match_scene(mut, gt, Fraction(1))
            assert tp == n_groups - 2
            assert fp == fn == 2


@st.composite
def partitions(draw, n):
    """A partition of range(n) as blocks in arbitrary order, members
    unsorted, singletons kept or dropped."""
    order = draw(st.permutations(range(n)))
    labels = draw(st.lists(st.integers(0, 4), min_size=n, max_size=n))
    blocks: dict[int, list[int]] = {}
    for i, label in zip(order, labels):
        blocks.setdefault(label, []).append(i)
    keep_singletons = draw(st.booleans())
    return [tuple(b) for b in blocks.values() if keep_singletons or len(b) >= 2]


def _greedy_over_sets(pred, gt, num, den):
    """match_scene spelled out on Python sets with integer ceilings."""
    def order(blocks):
        return sorted((set(b) for b in blocks if len(b) >= 2),
                      key=lambda b: (-len(b), min(b)))
    pred, gt = order(pred), order(gt)
    free = list(range(len(pred)))
    tp = 0
    for g in gt:
        need = -(-num * len(g) // den)
        allow = -(-(den - num) * len(g) // den)
        for i in free:
            if len(pred[i] & g) >= need and len(pred[i] - g) <= allow:
                free.remove(i)
                tp += 1
                break
    return tp, len(pred) - tp, len(gt) - tp


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.integers(0, 12).flatmap(
           lambda n: st.tuples(partitions(n), partitions(n))),
       # below 1/2 one predicted group can match several true ones, so
       # claiming and the matching order decide the counts
       st.sampled_from([(2, 3), (1, 1), (1, 2), (1, 3)]))
def test_match_scene_equals_greedy_set_algebra(pair, tolerance):
    pred, gt = pair
    num, den = tolerance
    assert match_scene(pred, gt, Fraction(num, den)) == \
        _greedy_over_sets(pred, gt, num, den)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.integers(0, 10).flatmap(
           lambda n: st.tuples(st.lists(partitions(n), max_size=5),
                               partitions(n))),
       st.sampled_from([(2, 3), (1, 1), (1, 2), (1, 3)]))
def test_match_counts_equals_match_scene_per_partition(case, tolerance):
    """One ground truth, checked and ordered once, matched against many
    partitions gives each partition's own ``match_scene`` counts."""
    preds, gt = case
    num, den = tolerance
    counts = match_counts(iter(preds), gt, Fraction(num, den))
    assert counts == [match_scene(p, gt, Fraction(num, den)) for p in preds]
    assert counts == [_greedy_over_sets(p, gt, num, den) for p in preds]


def test_match_counts_checks_the_predicted_side_first():
    bad_pred, bad_gt = [(0, 1), (1, 2)], [(0, 1), (1, 3)]
    with pytest.raises(ValueError, match="^predicted groups.1: person 1 repeats"):
        match_scene(bad_pred, bad_gt, T23)
    # every predicted partition, the last one too, before the ground truth
    with pytest.raises(ValueError, match="^predicted groups.1: person 1 repeats"):
        match_counts([[(0, 1)], bad_pred], bad_gt, T23)
    with pytest.raises(ValueError, match="^ground-truth groups.1: person 1 repeats"):
        match_counts([[(0, 1)], [(2, 3)]], bad_gt, T23)
    with pytest.raises(ValueError, match="^ground-truth groups.1: person 1 repeats"):
        match_counts([], bad_gt, T23)
    assert match_counts([], [(0, 1)], T23) == []


@pytest.mark.parametrize("t", [Fraction(1, 3), Fraction(1, 2), T23,
                               Fraction(1), Fraction(7, 10)])
def test_cached_thresholds_equal_exact_formula(t):
    for size in range(1, 61):
        exact = (math.ceil(t * size), math.ceil((1 - t) * size))
        assert _thresholds(size, t.numerator, t.denominator) == exact
        assert (required_correct(size, t), max_false(size, t)) == exact


def test_snap_tolerance_rejects_booleans_and_non_numbers():
    for bad in (True, False, np.True_):
        with pytest.raises(ValueError, match="boolean"):
            snap_tolerance(bad)
    for bad in (None, [0.5], 0.5j, object()):
        with pytest.raises(ValueError, match="is not a number") as err:
            snap_tolerance(bad)
        assert repr(bad) in str(err.value)
    # a string Fraction rejects, by ValueError or ZeroDivisionError alike
    for bad in ("1/0", "-1/0", "nan", "inf", "1/0x"):
        with pytest.raises(ValueError) as err:
            snap_tolerance(bad)
        assert str(err.value) == f"tolerance {bad!r} is not a number"
    for bad in (float("nan"), float("inf"), np.float32("inf"), "1.5"):
        with pytest.raises(ValueError):
            snap_tolerance(bad)


def test_snap_tolerance_numpy_and_string_inputs():
    assert snap_tolerance(np.float32(0.7)) == Fraction(7, 10)
    assert snap_tolerance(np.float64(2 / 3)) == T23
    assert snap_tolerance(np.int64(1)) == Fraction(1)
    assert snap_tolerance("2/3") == T23
    assert snap_tolerance("0.7") == Fraction(7, 10)
    assert snap_tolerance(Fraction(3, 4)) == Fraction(3, 4)
