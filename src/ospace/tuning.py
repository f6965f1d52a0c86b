"""Grid search over the assignment hyperparameters on a validation set.

Each stage runs once per combination of the grid axes it depends on:

- heatmaps: once per scene (the forward pass ignores the parameters);
- proposals: once per scene and stride;
- NMS detections: once per scene, threshold and separation;
- each person's nearest detection and its distance: once per scene,
  threshold, separation and stride.

The assignment distance is then only a cutoff on that distance: the
vector ``where(dist <= max_assign_dist_m, nearest, -1)`` fixes the
partition ``assign_groups`` would return.  Its bytes key a per-scene memo
of ``match_scene`` counts, so ``assign_groups`` and ``match_scene`` run
once per distinct partition of a scene, not once per grid point.  The
table lists every grid point in grid order.  Ties on F1 break toward
higher threshold, larger separation, smaller assignment distance, then
smaller stride.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .evaluation import GroupMetrics, aggregate, match_scene, snap_tolerance
from .network import ModelWeights, predict_heatmap
from .parallel import thread_map
from .postprocess import (
    AssignParams,
    assign_groups,
    nearest_detections,
    nms,
    propose_centers,
)
from .room import RoomFeature

__all__ = ["Grid", "GridResult", "grid_search", "grid_search_heatmaps"]


@dataclass(frozen=True)
class Grid:
    nms_thresholds: tuple[float, ...] = (0.3, 0.4, 0.5, 0.6, 0.7, 0.8)
    separations_m: tuple[float, ...] = (0.5, 1.0, 1.5)
    assign_dists_m: tuple[float, ...] = (0.5, 1.0, 1.5, 2.0)
    strides_m: tuple[float, ...] = (0.4, 0.7, 1.0)

    def __post_init__(self):
        for name in ("nms_thresholds", "separations_m", "assign_dists_m",
                     "strides_m"):
            vals = tuple(float(v) for v in getattr(self, name))
            object.__setattr__(self, name, vals)
            if not vals:
                raise ValueError(f"{name} is empty")
            if any(not math.isfinite(v) or v < 0 for v in vals):
                raise ValueError(f"bad value in {name}: {vals}")
        if any(t > 1 for t in self.nms_thresholds):
            raise ValueError("nms thresholds must lie in [0, 1]")


@dataclass(frozen=True)
class GridResult:
    params: AssignParams
    metrics: GroupMetrics


def grid_search_heatmaps(heatmaps, scenes, grid: Grid, tolerance):
    """Search the grid given precomputed per-scene heatmaps.

    Returns (best AssignParams, best F1, [GridResult...] in grid order).
    """
    scenes = list(scenes)
    heatmaps = list(heatmaps)
    if len(heatmaps) != len(scenes):
        raise ValueError(f"{len(heatmaps)} heatmaps for {len(scenes)} scenes")
    if not scenes:
        raise ValueError("empty validation set")
    t = snap_tolerance(tolerance)

    props = [[propose_centers(s.persons, st) for st in grid.strides_m]
             for s in scenes]
    memos: list[dict[bytes, tuple[int, int, int]]] = [{} for _ in scenes]
    table: list[GridResult] = []
    for thr in grid.nms_thresholds:
        for sep in grid.separations_m:
            base = AssignParams(nms_threshold=thr, min_group_separation_m=sep)
            detections = [nms(h, base) for h in heatmaps]
            nearest = [[nearest_detections(p, d) for p in scene_props]
                       for scene_props, d in zip(props, detections)]
            for ad in grid.assign_dists_m:
                for k, st in enumerate(grid.strides_m):
                    params = AssignParams(nms_threshold=thr,
                                          min_group_separation_m=sep,
                                          max_assign_dist_m=ad, stride_m=st)
                    counts = []
                    for s, d, near, memo in zip(scenes, detections, nearest,
                                                memos):
                        j, dist = near[k]
                        key = np.where(dist <= ad, j, -1).tobytes()
                        if key not in memo:
                            memo[key] = match_scene(
                                assign_groups(s.persons, d, params), s.groups, t)
                        counts.append(memo[key])
                    table.append(GridResult(params, aggregate(counts, t)))

    best = min(table, key=lambda r: (-r.metrics.f1, -r.params.nms_threshold,
                                     -r.params.min_group_separation_m,
                                     r.params.max_assign_dist_m,
                                     r.params.stride_m))
    return best.params, best.metrics.f1, table


def grid_search(model: ModelWeights, val_scenes, room: RoomFeature,
                grid: Grid = Grid(), tolerance=1):
    """Search the grid using the model's predicted heatmaps."""
    scenes = list(val_scenes)
    heatmaps = thread_map(lambda s: predict_heatmap(s, model, room), scenes)
    return grid_search_heatmaps(heatmaps, scenes, grid, tolerance)
