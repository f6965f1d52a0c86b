"""Heatmap to groups: thresholded non-maximal suppression, then greedy
assignment of each person's proposed o-space to the nearest detection.

NMS keeps cells that dominate their 8-neighborhood, clear the threshold,
and sit at least min_group_separation_m from every stronger kept peak:
its candidates, then one greedy ``thin``, which the grid search also
applies per separation to one NMS at separation 0.  The candidates take
one comparison of the map with its 3x3 window max, the threshold folded
into the max, and one stable sort of their flat indices by score; the
separation test is ``core.apart``.  Each person's proposal is
``groundtruth.propose_centers``, the one proposal rule.  A person whose
proposal is farther than max_assign_dist_m from every detection stays a
singleton, and a detection claimed by fewer than two people dissolves: one
person is not a conversation.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from operator import itemgetter

import numpy as np

from .checkpoint import ModelWeights
from .core import OSpaceMap, Point2, Scene, apart
from .groundtruth import DEFAULT_STRIDE_M, propose_centers
from .network import predict_heatmap
from .room import RoomFeature

__all__ = ["Detection", "AssignParams", "nms", "thin", "nearest_detections",
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
    lies at least ``min_sep_m`` from every one kept before it
    (``core.apart``)."""
    kept: list[tuple[float, float]] = []
    out = []
    for d in detections:
        x, y = d.center.x, d.center.y
        if apart(x, y, kept, min_sep_m):
            kept.append((x, y))
            out.append(d)
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
