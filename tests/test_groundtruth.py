import math

import numpy as np
import pytest

from ospace.core import DEFAULT_SPEC, Person, Point2, RoomSpec, Scene, point_to_cell
from ospace.dataset import flip_scene
from ospace.groundtruth import (
    GaussianParams,
    clamp_to_room,
    group_ospace,
    propose_center,
    render_heatmap,
    scene_centers,
    scene_target,
)


def test_propose_center_along_positive_x():
    p = propose_center(Person(1.0, 1.0, 0.0), 0.7)
    assert math.isclose(p.x, 1.7, abs_tol=1e-12)
    assert math.isclose(p.y, 1.0, abs_tol=1e-12)


def test_propose_center_zero_stride():
    p = propose_center(Person(2.5, 3.5, 123.0), 0.0)
    assert (p.x, p.y) == (2.5, 3.5)


def test_propose_center_along_positive_y():
    p = propose_center(Person(1.0, 1.0, 90.0), 0.5)
    assert math.isclose(p.x, 1.0, abs_tol=1e-12)
    assert math.isclose(p.y, 1.5, abs_tol=1e-12)


def test_propose_center_rejects_negative_stride():
    with pytest.raises(ValueError):
        propose_center(Person(1, 1, 0), -0.1)


def test_proposal_errors_name_the_stride_or_the_first_bad_member():
    huge = [Person(1.0, 1.0, 0.0), Person(1.7e308, 2.0, 0.0),
            Person(1.7e308, 3.0, 0.0)]
    for call in (lambda s: propose_center(huge[1], s),
                 lambda s: group_ospace(huge, s)):
        with pytest.raises(ValueError, match=r"^non-finite point \(inf, 2.0\)$"):
            call(1e308)
        with pytest.raises(ValueError, match="^stride must be non-negative, got -0.5$"):
            call(-0.5)
    with pytest.raises(ValueError, match="^group has no members$"):
        group_ospace([], -0.5)


def test_group_ospace_face_to_face_dyad():
    a = Person(0.0, 0.0, 0.0)
    b = Person(1.4, 0.0, 180.0)
    c = group_ospace([a, b], 0.7)
    assert math.isclose(c.x, 0.7, abs_tol=1e-12)
    assert math.isclose(c.y, 0.0, abs_tol=1e-12)


def test_group_ospace_of_finite_proposals_whose_sum_overflows():
    # each proposal's y is about 0.98e308; their sum is past a float, so
    # each is halved before the sum, and the centroid clamps onto the wall
    a, b = Person(1.0, 1.0, 80.0), Person(2.0, 1.0, 100.0)
    pa, pb = propose_center(a, 1e308), propose_center(b, 1e308)
    assert math.isinf(pa.y + pb.y)
    c = group_ospace([a, b], 1e308)
    assert c == Point2((pa.x + pb.x) / 2, pa.y / 2 + pb.y / 2)
    assert clamp_to_room(c).y == DEFAULT_SPEC.height_m


def test_group_ospace_singleton_is_own_proposal():
    p = Person(2.0, 2.0, 45.0)
    assert group_ospace([p], 0.7) == propose_center(p, 0.7)


def test_group_ospace_empty_group():
    with pytest.raises(ValueError):
        group_ospace([], 0.7)


def test_group_ospace_circle_recovers_center():
    cx, cy, r = 3.0, 2.0, 0.7
    members = []
    for k in range(3):
        ang = 2 * math.pi * k / 3 + 0.3
        px, py = cx + r * math.cos(ang), cy + r * math.sin(ang)
        yaw = math.degrees(math.atan2(cy - py, cx - px))
        members.append(Person(px, py, yaw))
    c = group_ospace(members, r)
    assert math.isclose(c.x, cx, abs_tol=1e-9)
    assert math.isclose(c.y, cy, abs_tol=1e-9)


def test_group_ospace_translation_equivariance():
    members = [Person(1.0, 1.0, 30.0), Person(2.0, 1.5, 200.0)]
    moved = [Person(p.x + 0.8, p.y + 0.3, p.yaw_deg) for p in members]
    c0 = group_ospace(members, 0.7)
    c1 = group_ospace(moved, 0.7)
    assert math.isclose(c1.x, c0.x + 0.8, abs_tol=1e-12)
    assert math.isclose(c1.y, c0.y + 0.3, abs_tol=1e-12)


def test_clamp_to_room():
    assert clamp_to_room(Point2(-1.0, 2.0)) == Point2(0.0, 2.0)
    assert clamp_to_room(Point2(7.0, 9.0)) == Point2(6.0, 5.0)
    assert clamp_to_room(Point2(3.0, 4.0)) == Point2(3.0, 4.0)


def test_render_no_centers_is_zero():
    m = render_heatmap([])
    assert m.values.sum() == 0.0


def test_render_peak_at_cell_center_is_one():
    m = render_heatmap([Point2(3.25, 2.25)])
    assert m.values[4, 6] == 1.0
    assert m.values.max() == 1.0


def test_render_half_meter_value():
    m = render_heatmap([Point2(3.25, 2.25)], GaussianParams(sigma_m=0.5))
    assert math.isclose(m.values[5, 6], math.exp(-0.5), rel_tol=1e-12)
    assert math.isclose(m.values[4, 7], math.exp(-0.5), rel_tol=1e-12)


def test_render_values_decrease_with_distance():
    c = Point2(3.25, 2.25)
    m = render_heatmap([c]).values
    xs = (np.arange(12) + 0.5) * 0.5
    ys = (np.arange(10) + 0.5) * 0.5
    d = np.hypot(xs[None, :] - c.x, ys[:, None] - c.y)
    order = np.argsort(d.reshape(-1))
    v = m.reshape(-1)[order]
    assert np.all(np.diff(v) <= 1e-15)


def test_render_max_combination_never_decreases():
    a = render_heatmap([Point2(1.0, 1.0)]).values
    both = render_heatmap([Point2(1.0, 1.0), Point2(5.0, 4.0)]).values
    assert np.all(both >= a)


def test_render_clamps_outside_centers():
    m = render_heatmap([Point2(6.0, 5.0)])
    inside = render_heatmap([clamp_to_room(Point2(6.0, 5.0))])
    assert np.array_equal(m.values, inside.values)


def test_scene_centers_skip_singletons():
    s = Scene("f", (Person(1, 1, 0), Person(2.4, 1, 180), Person(5, 4, 90)),
              ((0, 1), (2,)))
    centers = scene_centers(s, 0.7)
    assert len(centers) == 1
    assert centers[0].group == (0, 1)
    assert math.isclose(centers[0].center.x, 1.7, abs_tol=1e-12)


def test_scene_target_all_singletons_is_zero():
    s = Scene("f", (Person(1, 1, 0), Person(4, 4, 90)), ((0,), (1,)))
    assert scene_target(s).values.sum() == 0.0


def test_scene_target_dyad_peak_location():
    # y = 1.1 keeps the o-space center off cell boundaries, so the peak
    # cell is unique
    s = Scene("f", (Person(1.0, 1.1, 0.0), Person(2.4, 1.1, 180.0)), ((0, 1),))
    m = scene_target(s, 0.7)
    r, c = np.unravel_index(m.values.argmax(), m.values.shape)
    assert (r, c) == point_to_cell(Point2(1.7, 1.1))


def test_scene_target_two_separated_groups_two_peaks():
    s = Scene("f", (
        Person(1.0, 1.0, 0.0), Person(2.4, 1.0, 180.0),
        Person(4.0, 4.0, 0.0), Person(5.4, 4.0, 180.0),
    ), ((0, 1), (2, 3)))
    m = scene_target(s, 0.7).values
    # centers (1.7, 1.0) and (4.7, 4.0) sit 0.065 m^2 from their cell centers
    want = np.exp(-0.065 / (2 * 0.25))
    assert np.isclose(m[point_to_cell(Point2(1.7, 1.0))], want, atol=1e-12)
    assert np.isclose(m[point_to_cell(Point2(4.7, 4.0))], want, atol=1e-12)


def test_scene_target_flip_mirrors_grid():
    s = Scene("f", (
        Person(1.0, 1.25, 10.0), Person(2.25, 1.5, 170.0),
        Person(4.5, 3.75, 250.0), Person(4.0, 4.25, 300.0),
    ), ((0, 1), (2, 3)))
    base = scene_target(s).values
    h = scene_target(flip_scene(s, "horizontal")).values
    v = scene_target(flip_scene(s, "vertical")).values
    assert np.allclose(h, base[:, ::-1], atol=1e-12, rtol=0)
    assert np.allclose(v, base[::-1, :], atol=1e-12, rtol=0)


def test_gaussian_params_validation():
    with pytest.raises(ValueError):
        GaussianParams(sigma_m=0.0)
    with pytest.raises(ValueError):
        GaussianParams(sigma_m=-1.0)


@pytest.mark.parametrize("sigma", [1e308, 1e154, 9.5e153, 1e-154, 1e-300,
                                   5e-324, math.inf, math.nan])
def test_a_sigma_whose_two_sigma_squared_is_not_a_normal_float_is_rejected(sigma):
    with pytest.raises(ValueError, match="^sigma must be positive, with 2 "
                                         "sigma\\^2 a normal float, got "):
        GaussianParams(sigma_m=sigma)


@pytest.mark.parametrize("sigma", [0.5, 0.3, 1.7, 9.4e153, 1.1e-154])
def test_render_divides_by_the_params_two_sigma_squared(sigma):
    params = GaussianParams(sigma_m=sigma)
    assert params.two_sigma_sq == 2.0 * sigma ** 2
    centers = [Point2(0.1, 0.1), Point2(4.0, 3.0)]
    xs = (np.arange(12) + 0.5) * 0.5
    ys = (np.arange(10) + 0.5) * 0.5
    want = np.zeros((10, 12))
    for c in centers:
        d_sq = (xs[None, :] - c.x) ** 2 + (ys[:, None] - c.y) ** 2
        with np.errstate(over="ignore"):  # the far cells of 1.1e-154
            want = np.maximum(want, np.exp(-d_sq / (2.0 * sigma ** 2)))
    # no warning: tier-1 turns a RuntimeWarning into an error
    assert render_heatmap(centers, params).values.tobytes() == want.tobytes()


def test_render_respects_custom_spec():
    spec = RoomSpec(rows=4, cols=4, cell_m=1.0)
    m = render_heatmap([Point2(0.5, 0.5)], spec=spec)
    assert m.values.shape == (4, 4)
    assert m.values[0, 0] == 1.0
