import dataclasses
import itertools
import math
import struct
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from ospace.core import (
    DEFAULT_SPEC,
    OSpaceMap,
    Person,
    Point2,
    RoomSpec,
    Scene,
    apart,
    canonical_partition,
    cell_center,
    grid_centers,
    non_singleton_blocks,
    point_to_cell,
    validate_positions,
)


def test_default_spec_geometry():
    assert DEFAULT_SPEC.rows == 10
    assert DEFAULT_SPEC.cols == 12
    assert DEFAULT_SPEC.cell_m == 0.5
    assert DEFAULT_SPEC.n_cells == 120
    assert DEFAULT_SPEC.width_m == 6.0
    assert DEFAULT_SPEC.height_m == 5.0


@pytest.mark.parametrize("kwargs", [
    {"rows": 0}, {"cols": 0}, {"cell_m": 0.0}, {"cell_m": -1.0},
    {"cell_m": float("nan")}, {"cell_m": 1e308}, {"rows": 10 ** 400},
])
def test_bad_spec_rejected(kwargs):
    with pytest.raises(ValueError):
        RoomSpec(**kwargs)


def test_cell_center_examples():
    assert cell_center(0, 0) == Point2(0.25, 0.25)
    assert cell_center(9, 11) == Point2(5.75, 4.75)
    assert cell_center(4, 6) == Point2(3.25, 2.25)


def test_cell_center_out_of_range():
    for row, col in [(-1, 0), (0, -1), (10, 0), (0, 12)]:
        with pytest.raises(ValueError):
            cell_center(row, col)


def test_point_to_cell_examples():
    assert point_to_cell(Point2(0.25, 0.25)) == (0, 0)
    assert point_to_cell(Point2(5.9999, 4.9999)) == (9, 11)
    assert point_to_cell(Point2(3.0, 2.0)) == (4, 6)


def test_point_to_cell_boundary_clamps_into_last_cell():
    assert point_to_cell(Point2(6.0, 5.0)) == (9, 11)


def test_point_to_cell_outside_room():
    for x, y in [(-0.01, 1.0), (1.0, -0.01), (6.01, 1.0), (1.0, 5.01)]:
        with pytest.raises(ValueError):
            point_to_cell(Point2(x, y))


def test_cell_roundtrip_exhaustive():
    for r in range(DEFAULT_SPEC.rows):
        for c in range(DEFAULT_SPEC.cols):
            assert point_to_cell(cell_center(r, c)) == (r, c)


def test_grid_centers_match_cell_center():
    xs, ys = grid_centers()
    assert xs.shape == (12,) and ys.shape == (10,)
    for r in range(10):
        for c in range(12):
            p = cell_center(r, c)
            assert xs[c] == p.x and ys[r] == p.y


def test_point2_requires_finite():
    with pytest.raises(ValueError):
        Point2(float("inf"), 0.0)


def test_person_normalizes_yaw():
    assert Person(1, 1, 360.0).yaw_deg == 0.0
    assert Person(1, 1, -90.0).yaw_deg == 270.0
    assert Person(1, 1, 725.0).yaw_deg == 5.0
    # -1e-20 % 360.0 rounds to 360.0; the normalized yaw stays below 360
    assert Person(1, 1, -1e-20).yaw_deg == 0.0
    assert isinstance(Person(1, 1, 0).x, float)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(yaw=st.floats(allow_nan=False, allow_infinity=False))
@example(yaw=-1e-300)
@example(yaw=-0.0)
@example(yaw=359.99999999999994)
def test_a_yaw_reduced_before_person_keeps_its_bits(yaw):
    """Reducing a yaw before ``Person`` does changes nothing, so no caller
    needs to: a tiny negative yaw's ``% 360.0`` is 360.0, which ``Person``
    folds to 0.0."""
    assert repr(Person(0, 0, yaw).yaw_deg) == repr(Person(0, 0, yaw % 360.0).yaw_deg)


def test_person_rejects_non_finite():
    with pytest.raises(ValueError):
        Person(float("nan"), 0, 0)
    with pytest.raises(ValueError):
        Person(0, 0, float("inf"))


# The record contract: the slotted one-pass Person and Point2 keep the
# fields and errors of the rule they replaced, written out here.

def _old_person(x, y, yaw_deg):
    """The former ``Person.__post_init__``: each value checked and made a
    float in turn, then the yaw folded."""
    out = {}
    for name, v in (("x", x), ("y", y), ("yaw_deg", yaw_deg)):
        if not math.isfinite(v):
            raise ValueError(f"non-finite {name}: {v}")
        out[name] = float(v)
    out["yaw_deg"] = out["yaw_deg"] % 360.0 % 360.0
    return out


def _old_point(x, y):
    if not (math.isfinite(x) and math.isfinite(y)):
        raise ValueError(f"non-finite point ({x}, {y})")
    return {"x": x, "y": y}


def _bits(v):
    return type(v), struct.pack("<d", v)


_finite = st.floats(allow_nan=False, allow_infinity=False)
_numbers = st.one_of(
    _finite,
    st.integers(-10 ** 300, 10 ** 300),
    _finite.map(np.float64),
    st.floats(width=32, allow_nan=False, allow_infinity=False).map(np.float32),
    st.integers(-2 ** 63, 2 ** 63 - 1).map(np.int64),
)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(x=_numbers, y=_numbers, yaw=_numbers)
@example(x=0.0, y=0.0, yaw=-1e-300)
@example(x=0.0, y=0.0, yaw=-0.0)
@example(x=0.0, y=0.0, yaw=359.99999999999994)
def test_person_and_point_fields_keep_the_old_rule_bits(x, y, yaw):
    p = Person(x, y, yaw)
    want = _old_person(x, y, yaw)
    assert [_bits(getattr(p, k)) for k in want] == [_bits(v) for v in want.values()]
    q = Point2(x, y)
    for k, v in _old_point(x, y).items():  # a point keeps its values as given
        got = getattr(q, k)
        assert type(got) is type(v) and got == v
        assert struct.pack("<d", got) == struct.pack("<d", v)


_BAD = (1.0, math.nan, math.inf, -math.inf, "1", 10 ** 400)


def _raised(make, *args):
    try:
        make(*args)
    except (ValueError, TypeError, OverflowError) as e:
        return type(e), str(e)
    return None


def test_person_and_point_raise_the_old_rule_errors():
    """NaN and inf are ValueErrors naming the first bad field, a string a
    TypeError and an integer past the largest float an OverflowError, in
    field order, as before."""
    for args in itertools.product(_BAD, repeat=3):
        assert _raised(Person, *args) == _raised(_old_person, *args), args
    for args in itertools.product(_BAD, repeat=2):
        assert _raised(Point2, *args) == _raised(_old_point, *args), args
    assert _raised(Person, 0, 0, math.nan) == (ValueError, "non-finite yaw_deg: nan")
    assert _raised(Person, "1", math.nan, 0)[0] is TypeError
    assert _raised(Person, 10 ** 400, 0, 0)[0] is OverflowError


def test_records_are_frozen_and_slotted():
    p, q = Person(1, 2, -90), Point2(1.0, 2.0)
    for record, field in ((p, "x"), (p, "yaw_deg"), (q, "y")):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(record, field, 0.0)
        assert not hasattr(record, "__dict__")
    assert Person(x=1, y=2, yaw_deg=-90) == p and p.yaw_deg == 270.0
    assert Point2(y=2.0, x=1.0) == q
    # replace builds through the same rule: the new yaw is folded too
    assert dataclasses.replace(p, yaw_deg=-45.0) == Person(1.0, 2.0, 315.0)
    assert dataclasses.replace(q, x=3.0) == Point2(3.0, 2.0)
    with pytest.raises(ValueError, match="^non-finite y: inf$"):
        dataclasses.replace(p, y=math.inf)
    assert hash(p) == hash(Person(1.0, 2.0, 270.0))


def _persons(n):
    return tuple(Person(0.5 * i + 0.5, 1.0, 0.0) for i in range(n))


def test_scene_partition_valid():
    s = Scene("f", _persons(3), ((0, 1), (2,)))
    assert s.groups == ((0, 1), (2,))


@pytest.mark.parametrize("groups", [
    ((0, 1),),            # misses person 2
    ((0, 1), (1, 2)),     # duplicate member
    ((0, 1, 2), ()),      # empty block
    ((0, 1), (2, 3)),     # out of range
])
def test_scene_partition_invalid(groups):
    with pytest.raises(ValueError):
        Scene("f", _persons(3), groups)


def test_scene_rejects_bool_indices():
    with pytest.raises(ValueError):
        Scene("f", _persons(2), ((True, 0),))


def test_ospace_map_validation():
    good = OSpaceMap(np.zeros((10, 12)))
    assert good.values.shape == (10, 12)
    with pytest.raises(ValueError, match=r"^map shape \(12, 10\) does not match "
                       r"grid 10x12$"):
        OSpaceMap(np.zeros((12, 10)))


NON_FINITE = "map contains non-finite values"
OUT_OF_RANGE = r"map values must lie in \[0, 1\]"


@pytest.mark.parametrize("cells,message", [
    ([np.nan], NON_FINITE), ([np.inf], NON_FINITE), ([-np.inf], NON_FINITE),
    ([-0.1], OUT_OF_RANGE), ([1.5], OUT_OF_RANGE),
    # a non-finite value is named first, wherever it sits
    ([np.nan, 1.5], NON_FINITE), ([1.5, np.nan], NON_FINITE),
    ([-0.1, np.inf], NON_FINITE),
])
def test_ospace_map_names_its_first_fault(cells, message):
    bad = np.zeros((10, 12))
    bad.reshape(-1)[[0, 119][:len(cells)]] = cells
    with pytest.raises(ValueError, match=f"^{message}$"):
        OSpaceMap(bad)


def test_ospace_map_takes_the_ends_of_its_range():
    values = np.zeros((10, 12))
    values[0, 0], values[9, 11], values[5, 5] = 1.0, -0.0, 5e-324
    assert OSpaceMap(values).values.tobytes() == values.tobytes()


def test_ospace_map_is_read_only():
    m = OSpaceMap(np.zeros((10, 12)))
    with pytest.raises(ValueError):
        m.values[0, 0] = 1.0


def test_flatten_row_major():
    rng = np.random.default_rng(0)
    vals = rng.uniform(size=(10, 12))
    flat = OSpaceMap(vals).flatten()
    assert flat.shape == (120,)
    for r in range(10):
        for c in range(12):
            assert flat[r * 12 + c] == vals[r, c]


def test_canonical_partition_sorts_blocks_and_members():
    assert canonical_partition([(3, 1), (2,), (0, 5, 4)]) == \
        ((0, 4, 5), (1, 3), (2,))


def test_non_singleton_blocks():
    s = Scene("f", _persons(4), ((0, 2), (1,), (3,)))
    assert non_singleton_blocks(s) == ((0, 2),)


def test_validate_positions_closed_bounds():
    ok = Scene("f", (Person(0.0, 0.0, 0), Person(6.0, 5.0, 0)), ((0,), (1,)))
    validate_positions(ok)
    bad = Scene("f", (Person(6.0001, 1.0, 0),), ((0,),))
    with pytest.raises(ValueError):
        validate_positions(bad)


# ``apart``: the one minimum-separation test, of NMS and of synthesis.

def _squared_apart(x, y, points, limit):
    """The inline test ``thin`` and ``_sample_point`` made before ``apart``,
    or None when a square overflows, where it read the sum as inf, or
    underflows below the smallest normal float, where it lost the offset."""
    try:
        limit_sq = limit ** 2
    except OverflowError:
        limit_sq = math.inf
    if limit_sq < sys.float_info.min:
        return None
    close = False
    for px, py in points:
        try:
            d_sq = (x - px) ** 2 + (y - py) ** 2
        except OverflowError:
            return None
        if not sys.float_info.min <= d_sq < math.inf:
            return None
        close = close or d_sq < limit_sq
    return not close


COORDS = st.one_of(st.floats(-10, 10), st.floats(-1e160, 1e160),
                   st.floats(allow_nan=False, allow_infinity=False))


@settings(max_examples=500, deadline=None, derandomize=True)
@given(x=COORDS, y=COORDS, points=st.lists(st.tuples(COORDS, COORDS), max_size=4),
       limit=st.one_of(st.floats(0, 20), st.floats(0, 1e160),
                       st.floats(0, allow_infinity=False)))
def test_apart_agrees_with_the_squared_test_on_finite_sums(x, y, points, limit):
    want = _squared_apart(x, y, points, limit)
    if want is not None:
        assert apart(x, y, points, limit) is want


# 2 ** -700 scales a value of 16 or less to about 1e-210, whose square is 0
TINY = 2.0 ** -700
# multiples of 1/64: their offsets, and those scaled by TINY, are exact
SMALL = st.integers(-640, 640).map(lambda k: k / 64)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(x=SMALL, y=SMALL, points=st.lists(st.tuples(SMALL, SMALL), max_size=4),
       limit=st.integers(0, 1024).map(lambda k: k / 64))
def test_apart_measures_offsets_whose_square_underflows(x, y, points, limit):
    # a power of two scales every offset and its hypot exactly
    want = all(math.hypot(x - px, y - py) >= limit for px, py in points)
    assert apart(x * TINY, y * TINY, [(px * TINY, py * TINY) for px, py in points],
                 limit * TINY) is want


def test_apart_measures_a_square_that_raises():
    # (1e200) ** 2 raises: the offset is measured by hypot, not squared
    assert apart(0.0, 0.0, [(1e200, 0.0)], 2.0)
    assert not apart(0.0, 0.0, [(1e200, 0.0)], 1.5e200)
    assert apart(0.0, 0.0, [(1.0, 1.0), (1e200, 0.0)], 1.0)
    assert not apart(0.0, 0.0, [(1e200, 0.0), (0.5, 0.0)], 1.0)


def test_apart_with_a_limit_whose_square_overflows():
    # 1e300 ** 2 raises: every finite sum of squares is closer
    assert not apart(0.0, 0.0, [(1e150, 1e150)], 1e300)
    # the sum overflows to inf without raising: 1.414e154 is measured
    assert not apart(0.0, 0.0, [(1e154, 1e154)], 1.5e154)
    assert apart(0.0, 0.0, [(1e154, 1e154)], 1.4e154)
    assert not apart(0.0, 0.0, [(-1e300, 0.0)], 1.5e300)
    assert apart(1.7e308, 0.0, [(-1.7e308, 0.0)], 1e300)  # inf apart
    assert apart(0.0, 0.0, [], 1e300)
