"""Heatmap to groups: thresholded non-maximal suppression, then greedy
assignment of each person's proposed o-space to the nearest detection.

NMS keeps cells that dominate their 8-neighborhood, clear the threshold,
and sit at least min_group_separation_m from every stronger kept peak:
its candidates, then one greedy ``thin``, which the grid search also
applies per separation to one NMS at separation 0.  The candidates take
one comparison of the map with its 3x3 window max, the threshold folded
into the max, and one stable sort of their flat indices by score; a
separation whose square overflows a float keeps the strongest peak only.
Each person's proposal is one stride ahead along their heading:
``headings`` reads the positions and headings once, and ``step_ahead`` is
the one proposal expression at any stride.  A person whose proposal is
farther than max_assign_dist_m from every detection stays a singleton,
and a detection claimed by fewer than two people dissolves: one person is
not a conversation.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from operator import itemgetter

import numpy as np

from .checkpoint import ModelWeights
from .core import OSpaceMap, Point2, Scene
from .groundtruth import DEFAULT_STRIDE_M
from .network import predict_heatmap
from .room import RoomFeature

__all__ = ["Detection", "AssignParams", "nms", "thin", "headings", "step_ahead",
           "propose_centers", "nearest_detections", "partition_from_claims",
           "assign_groups", "predict_scene"]


@dataclass(frozen=True)
class Detection:
    center: Point2
    score: float


@dataclass(frozen=True)
class AssignParams:
    nms_threshold: float = 0.5
    min_group_separation_m: float = 1.0
    max_assign_dist_m: float = 0.8
    stride_m: float = DEFAULT_STRIDE_M

    def __post_init__(self):
        if not 0.0 <= self.nms_threshold <= 1.0:
            raise ValueError(f"threshold {self.nms_threshold} outside [0, 1]")
        for name in ("min_group_separation_m", "max_assign_dist_m", "stride_m"):
            v = getattr(self, name)
            if not (math.isfinite(v) and v >= 0):
                raise ValueError(f"{name} must be finite non-negative, got {v}")


def nms(heatmap: OSpaceMap, params: AssignParams) -> list[Detection]:
    """Local maxima above threshold, greedily thinned to the separation radius.

    Candidates are cells >= all 8 neighbors (cells past the border do not
    count) and >= nms_threshold, visited in descending score with row-major
    tie order; ``thin`` keeps each that lies at least
    min_group_separation_m from every already-kept center.  Result is
    sorted by descending score.  Centers are
    ``core.cell_center``'s expressions.  At separation 0 every candidate is
    kept, so ``thin`` of that list at a separation is NMS at it.
    """
    v = heatmap.values
    n_cols = v.shape[1]
    # each cell's 3x3 window max, with the threshold, one axis at a time:
    # v and the threshold hold no NaN, so a cell is >= that max iff it is
    # >= all 8 neighbors and >= nms_threshold
    row = np.maximum(v, params.nms_threshold)
    np.maximum(row[:, 1:], v[:, :-1], out=row[:, 1:])
    np.maximum(row[:, :-1], v[:, 1:], out=row[:, :-1])
    win = row.copy()
    np.maximum(win[1:], row[:-1], out=win[1:])
    np.maximum(win[:-1], row[1:], out=win[:-1])
    cells = (v >= win).reshape(-1).nonzero()[0]  # row-major
    # descending score; sorted is stable, so ties keep row-major order
    ranked = sorted(zip(v.reshape(-1)[cells].tolist(), cells.tolist()),
                    key=itemgetter(0), reverse=True)
    cell_m = heatmap.spec.cell_m
    candidates = [Detection(Point2((c + 0.5) * cell_m, (r + 0.5) * cell_m), score)
                  for score, cell in ranked for r, c in (divmod(cell, n_cols),)]
    return thin(candidates, params.min_group_separation_m)


def thin(detections, min_sep_m: float) -> list[Detection]:
    """Greedy thinning in the given order: each detection is kept iff it
    lies at least ``min_sep_m`` from every one kept before it."""
    kept: list[tuple[float, float]] = []
    out = []
    try:
        min_sep_sq = min_sep_m ** 2
    except OverflowError:  # past the largest float: any finite square is closer
        min_sep_sq = math.inf
    for d in detections:
        x, y = d.center.x, d.center.y
        for kx, ky in kept:
            try:
                close = (x - kx) ** 2 + (y - ky) ** 2 < min_sep_sq
            except OverflowError:  # a square past the largest float
                close = math.hypot(x - kx, y - ky) < min_sep_m
            if close:
                break
        else:
            kept.append((x, y))
            out.append(d)
    return out


def headings(persons) -> tuple[np.ndarray, np.ndarray]:
    """Every person's position and unit heading, as two (n, 2) arrays.

    The heading is ``(cos(rad), sin(rad))`` of ``math``, as
    ``groundtruth.propose_center`` reads it; numpy's float64 trig kernels
    differ from libm on some builds.
    """
    cos, sin, radians = math.cos, math.sin, math.radians
    rows = np.array([v for p in persons for rad in (radians(p.yaw_deg),)
                     for v in (p.x, p.y, cos(rad), sin(rad))],
                    float).reshape(-1, 4)
    return rows[:, :2], rows[:, 2:]


def step_ahead(xy: np.ndarray, heading: np.ndarray, stride_m: float) -> np.ndarray:
    """``xy + stride_m * heading``, each row one stride ahead of a person.

    One multiply and one add per coordinate, the two roundings of
    ``groundtruth.propose_center``, so each row equals it bit for bit.  A
    negative stride (with any person) or a non-finite proposal is a
    ValueError, the first such proposal's coordinates in its message.
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
    ``step_ahead`` of ``headings``, so row i is
    ``groundtruth.propose_center(persons[i], stride_m)`` bit for bit and the
    same ValueError rises for a negative stride or a non-finite proposal.
    """
    return step_ahead(*headings(persons), stride_m)


def nearest_detections(props: np.ndarray, detections):
    """For each proposal row, the index of its nearest detection and the
    distance to it.

    Ties go to the lower index (``argmin``'s first minimum).  With no
    detections every index is -1 and every distance inf.
    """
    if not detections:
        return np.full(len(props), -1, dtype=np.intp), np.full(len(props), np.inf)
    centers = np.array([[d.center.x, d.center.y] for d in detections])
    dist = np.hypot(centers[:, 0] - props[:, :1], centers[:, 1] - props[:, 1:])
    return np.argmin(dist, axis=1), dist.min(axis=1)


def partition_from_claims(claims):
    """The partition fixed by each person's claimed detection index, or -1
    for none: the claimants of one detection form a block, and a detection
    claimed by fewer than two persons dissolves into singletons.

    Returns a canonical full partition (singletons included): blocks sorted
    by smallest member, members ascending.
    """
    blocks: dict[int, list[int]] = {}
    for i, j in enumerate(claims):
        blocks.setdefault(j, []).append(i)
    groups = []
    for j, members in blocks.items():
        if j >= 0 and len(members) >= 2:
            groups.append(tuple(members))
        else:
            groups.extend((m,) for m in members)
    groups.sort()  # members already ascend: this is canonical_partition
    return tuple(groups)


def assign_groups(persons, detections, params: AssignParams):
    """Partition persons by nearest detection to each one's o-space
    proposal, within ``max_assign_dist_m``: ``partition_from_claims``."""
    near, dist = nearest_detections(
        propose_centers(persons, params.stride_m), detections)
    return partition_from_claims(
        np.where(dist <= params.max_assign_dist_m, near, -1).tolist())


def predict_scene(scene: Scene, model: ModelWeights, room: RoomFeature,
                  params: AssignParams = AssignParams()):
    """Full pipeline for one scene: forward, NMS, assignment.

    Returns (heatmap, detections, groups).
    """
    heatmap = predict_heatmap(scene, model, room)
    detections = nms(heatmap, params)
    groups = assign_groups(scene.persons, detections, params)
    return heatmap, detections, groups
