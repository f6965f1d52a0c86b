"""Heatmap to groups: thresholded non-maximal suppression, then greedy
assignment of each person's proposed o-space to the nearest detection.

NMS keeps cells that dominate their 8-neighborhood, clear the threshold,
and sit at least min_group_separation_m from every stronger kept peak.
A person whose proposal is farther than max_assign_dist_m from every
detection stays a singleton, and a detection claimed by fewer than two
people dissolves: one person is not a conversation.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import OSpaceMap, Point2, Scene
from .groundtruth import DEFAULT_STRIDE_M
from .network import ModelWeights, predict_heatmap
from .room import RoomFeature

__all__ = ["Detection", "AssignParams", "nms", "propose_centers", "nearest_detections",
           "partition_from_claims", "assign_groups", "predict_scene"]


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

    Candidates are cells >= all 8 neighbors (borders padded with -inf) and
    >= nms_threshold, visited in descending score with row-major tie order;
    each is kept iff it lies at least min_group_separation_m from every
    already-kept center.  Result is sorted by descending score.  Centers
    are ``core.cell_center``'s expressions; only a kept candidate becomes a
    ``Detection``.
    """
    v = heatmap.values
    n_rows, n_cols = v.shape
    framed = np.full((n_rows + 2, n_cols + 2), -np.inf)
    framed[1:-1, 1:-1] = v
    # each cell's 3x3 window max, one axis at a time: a cell is >= that
    # max iff it is >= all 8 neighbors
    win = np.maximum(np.maximum(framed[:, :-2], framed[:, 2:]), framed[:, 1:-1])
    win = np.maximum(np.maximum(win[:-2], win[2:]), win[1:-1])
    rows, cols = np.nonzero((v >= win) & (v >= params.nms_threshold))
    scores = v[rows, cols]
    order = np.argsort(-scores, kind="stable")  # nonzero is row-major

    kept: list[tuple[float, float, float]] = []
    cell_m = heatmap.spec.cell_m
    min_sep_sq = params.min_group_separation_m ** 2
    for r, c, score in zip(rows[order].tolist(), cols[order].tolist(),
                           scores[order].tolist()):
        x, y = (c + 0.5) * cell_m, (r + 0.5) * cell_m
        for kx, ky, _ in kept:
            if (x - kx) ** 2 + (y - ky) ** 2 < min_sep_sq:
                break
        else:
            kept.append((x, y, score))
    return [Detection(Point2(x, y), score) for x, y, score in kept]


def propose_centers(persons, stride_m: float) -> np.ndarray:
    """Every person's o-space proposal at one stride, as an (n, 2) array.

    Row i is ``groundtruth.propose_center(persons[i], stride_m)`` bit for
    bit, by the same ``math`` expressions, and the same ValueError rises
    for a negative stride or a non-finite proposal.
    """
    if len(persons) and stride_m < 0:
        raise ValueError(f"stride must be non-negative, got {stride_m}")
    cos, sin, radians = math.cos, math.sin, math.radians
    points = [(p.x + stride_m * cos(rad), p.y + stride_m * sin(rad))
              for p in persons for rad in (radians(p.yaw_deg),)]
    out = np.array(points).reshape(len(points), 2)
    if not np.isfinite(out).all():
        x, y = next(q for q in points if not all(map(math.isfinite, q)))
        raise ValueError(f"non-finite point ({x}, {y})")
    return out


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
        propose_centers(list(persons), params.stride_m), detections)
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
