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

from .core import (
    DEFAULT_SPEC,
    OSpaceMap,
    Point2,
    Scene,
    canonical_partition,
    cell_center,
)
from .groundtruth import DEFAULT_STRIDE_M, propose_center
from .network import ModelWeights, predict_heatmap
from .room import RoomFeature

__all__ = ["Detection", "AssignParams", "nms", "propose_centers", "nearest_detections",
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
                raise ValueError(f"{name} must be non-negative, got {v}")


def nms(heatmap: OSpaceMap, params: AssignParams) -> list[Detection]:
    """Local maxima above threshold, greedily thinned to the separation radius.

    Candidates are cells >= all 8 neighbors (borders padded with -inf) and
    >= nms_threshold, visited in descending score with row-major tie order;
    each is kept iff it lies at least min_group_separation_m from every
    already-kept center.  Result is sorted by descending score.
    """
    v = heatmap.values
    padded = np.pad(v, 1, constant_values=-np.inf)
    shifts = [padded[1 + dr: 1 + dr + v.shape[0], 1 + dc: 1 + dc + v.shape[1]]
              for dr in (-1, 0, 1) for dc in (-1, 0, 1) if (dr, dc) != (0, 0)]
    is_peak = np.all([v >= s for s in shifts], axis=0) & (v >= params.nms_threshold)
    rows, cols = np.nonzero(is_peak)
    order = sorted(range(len(rows)), key=lambda i: (-v[rows[i], cols[i]], rows[i], cols[i]))

    kept: list[Detection] = []
    min_sep_sq = params.min_group_separation_m ** 2
    for i in order:
        c = cell_center(int(rows[i]), int(cols[i]), heatmap.spec)
        if all((c.x - d.center.x) ** 2 + (c.y - d.center.y) ** 2 >= min_sep_sq
               for d in kept):
            kept.append(Detection(c, float(v[rows[i], cols[i]])))
    return kept


def propose_centers(persons, stride_m: float) -> np.ndarray:
    """Every person's o-space proposal at one stride, as an (n, 2) array."""
    out = np.empty((len(persons), 2))
    for i, person in enumerate(persons):
        prop = propose_center(person, stride_m)
        out[i] = prop.x, prop.y
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
    j = np.argmin(dist, axis=1)
    return j, dist[np.arange(len(props)), j]


def assign_groups(persons, detections, params: AssignParams):
    """Partition persons by nearest detection to each one's o-space proposal.

    Returns a canonical full partition (singletons included): blocks sorted
    by smallest member, members ascending.
    """
    persons = list(persons)
    if not persons:
        return ()
    near, dist = nearest_detections(propose_centers(persons, params.stride_m),
                                    detections)
    assigned = np.where(dist <= params.max_assign_dist_m, near, -1).tolist()

    blocks: dict[int, list[int]] = {}
    for i, j in enumerate(assigned):
        blocks.setdefault(j, []).append(i)
    groups = []
    for j, members in blocks.items():
        if j >= 0 and len(members) >= 2:
            groups.append(tuple(members))
        else:
            groups.extend((m,) for m in members)
    return canonical_partition(groups)


def predict_scene(scene: Scene, model: ModelWeights, room: RoomFeature,
                  params: AssignParams = AssignParams()):
    """Full pipeline for one scene: forward, NMS, assignment.

    Returns (heatmap, detections, groups).
    """
    heatmap = predict_heatmap(scene, model, room)
    detections = nms(heatmap, params)
    groups = assign_groups(scene.persons, detections, params)
    return heatmap, detections, groups
