"""Ground-truth o-space centers and Gaussian target heatmaps.

Each person proposes an o-space center one stride ahead along their gaze:
``propose_centers``, split into ``headings`` and ``step_ahead`` for the
grid search, is the one proposal rule, and assignment uses it too.  A
group's o-space is the least-squares point for its members' proposals,
which is just their centroid.  Targets put an unnormalized Gaussian bump
(peak 1) at every group center and combine overlapping bumps with max so
values stay in [0, 1].  Singleton blocks contribute no center.
"""
from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field

import numpy as np

from .core import DEFAULT_SPEC, OSpaceMap, Point2, RoomSpec, Scene, grid_centers

__all__ = [
    "GaussianParams",
    "DEFAULT_STRIDE_M",
    "headings",
    "step_ahead",
    "propose_centers",
    "group_ospace",
    "clamp_to_room",
    "scene_centers",
    "render_heatmap",
    "scene_target",
]

DEFAULT_STRIDE_M = 0.7


@dataclass(frozen=True)
class GaussianParams:
    """The width of a target's Gaussian bump.  Its ``2 sigma ** 2``, which
    ``render_heatmap`` divides by, is ``two_sigma_sq``: a positive normal
    float, or the sigma is a ValueError."""

    sigma_m: float = 0.5
    two_sigma_sq: float = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        sigma = self.sigma_m
        # below 1e154 the square cannot overflow (raise); twice it still may
        two_sigma_sq = 2.0 * sigma ** 2 if 0 < sigma < 1e154 else math.nan
        if not sys.float_info.min <= two_sigma_sq < math.inf:
            raise ValueError(f"sigma must be positive, with 2 sigma^2 a normal "
                             f"float, got {sigma}")
        object.__setattr__(self, "two_sigma_sq", two_sigma_sq)


def headings(persons) -> tuple[np.ndarray, np.ndarray]:
    """Every person's position and unit heading, as two (n, 2) arrays.

    The heading is ``(cos(rad), sin(rad))`` of ``math``; numpy's float64
    trig kernels differ from libm on some builds.
    """
    cos, sin, radians = math.cos, math.sin, math.radians
    rows = np.array([v for p in persons for rad in (radians(p.yaw_deg),)
                     for v in (p.x, p.y, cos(rad), sin(rad))],
                    float).reshape(-1, 4)
    return rows[:, :2], rows[:, 2:]


def step_ahead(xy: np.ndarray, heading: np.ndarray, stride_m: float) -> np.ndarray:
    """``xy + stride_m * heading``, each row one stride ahead of a person.

    One multiply and one add per coordinate.  A negative stride (with any
    person) or a non-finite proposal is a ValueError, the first such
    proposal's coordinates in its message.
    """
    if len(xy) and stride_m < 0:
        raise ValueError(f"stride must be non-negative, got {stride_m}")
    with np.errstate(over="ignore", invalid="ignore"):  # reported below
        out = xy + stride_m * heading
    if not np.isfinite(out).all():
        x, y = out[np.argmin(np.isfinite(out).all(axis=1))].tolist()
        raise ValueError(f"non-finite point ({x}, {y})")
    return out


def propose_centers(persons, stride_m: float) -> np.ndarray:
    """Every person's o-space proposal at one stride, as an (n, 2) array:
    ``step_ahead`` of ``headings``."""
    return step_ahead(*headings(persons), stride_m)


def group_ospace(members, stride_m: float = DEFAULT_STRIDE_M) -> Point2:
    """Least-squares o-space of a group: centroid of the member proposals,
    each taken over the count first where their sum overflows."""
    members = list(members)
    if not members:
        raise ValueError("group has no members")
    xs, ys = propose_centers(members, stride_m).T.tolist()
    return Point2(_mean(xs), _mean(ys))


def _mean(values: list[float]) -> float:
    total = sum(values)
    if math.isinf(total):
        return sum(v / len(values) for v in values)
    return total / len(values)


def clamp_to_room(p: Point2, spec: RoomSpec = DEFAULT_SPEC) -> Point2:
    return Point2(min(max(p.x, 0.0), spec.width_m),
                  min(max(p.y, 0.0), spec.height_m))


def scene_centers(scene: Scene, stride_m: float = DEFAULT_STRIDE_M,
                  spec: RoomSpec = DEFAULT_SPEC) -> tuple[Point2, ...]:
    """O-space centers of the non-singleton blocks, in block order, clamped
    into the room."""
    return tuple(clamp_to_room(group_ospace([scene.persons[i] for i in block],
                                            stride_m), spec)
                 for block in scene.groups if len(block) >= 2)


def render_heatmap(centers, params: GaussianParams = GaussianParams(),
                   spec: RoomSpec = DEFAULT_SPEC) -> OSpaceMap:
    """Max of unit-peak Gaussians at the given centers, sampled at cell centers.

    Each bump is built in place in one grid, ``exp((-d_sq) / 2 sigma^2)``,
    which has the bits of ``exp(-(d_sq / 2 sigma^2))``: at most two grids
    are held while drawing.
    """
    values = np.zeros((spec.rows, spec.cols))
    xs, ys = grid_centers(spec)
    # under a narrow sigma the quotient of a far cell may overflow to inf;
    # its value, exp(-inf) = 0, is then exact
    with np.errstate(over="ignore"):
        for c in centers:
            np.maximum(values, _bump(xs, ys, clamp_to_room(c, spec),
                                     params.two_sigma_sq), out=values)
    return OSpaceMap(values, spec)


def _bump(xs: np.ndarray, ys: np.ndarray, c: Point2, two_sigma_sq: float) -> np.ndarray:
    """The unit-peak Gaussian at ``c`` over the cell centers, in one grid."""
    g = (xs[None, :] - c.x) ** 2 + (ys[:, None] - c.y) ** 2
    np.negative(g, out=g)
    np.divide(g, two_sigma_sq, out=g)
    return np.exp(g, out=g)


def scene_target(scene: Scene, stride_m: float = DEFAULT_STRIDE_M,
                 params: GaussianParams = GaussianParams(),
                 spec: RoomSpec = DEFAULT_SPEC) -> OSpaceMap:
    """Ground-truth heatmap of a labeled scene."""
    return render_heatmap(scene_centers(scene, stride_m, spec), params, spec)
