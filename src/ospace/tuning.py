"""Grid search over the assignment hyperparameters on a validation set.

Each stage runs once per combination of the grid axes it depends on:

- heatmaps: once per scene (the forward pass ignores the parameters);
- proposals: once per scene and stride;
- NMS detections: once per scene and separation, at the grid's lowest
  threshold; each threshold takes the score prefix of that list.  NMS
  visits candidates in descending score with row-major ties, and whether
  it keeps one depends only on those it kept before, so raising the
  threshold only cuts off a tail of the visiting order;
- distances from proposals to those detections: once per scene,
  separation and stride.  A threshold's nearest detection is the argmin
  over the matrix's columns for its prefix, so ties still go to the lower
  index.

The assignment distance is then only a cutoff on that distance: the key
vector ``where(dist <= max_assign_dist_m, nearest, -1)`` fixes the
partition ``assign_groups`` would return.  Every grid point's key vector
is one row of a points x persons array.  Per scene, one ``np.unique`` over
its columns, each row viewed as raw bytes, finds the distinct key rows and
which one each grid point has; no Python loop runs per (grid point,
scene).  ``assign_groups`` then runs once per distinct (scene, key row), at
the row's first grid point, and ``match_scene`` once per distinct (scene,
partition): key rows that differ only in detection indices, or in a
detection one person alone claims, give one partition.  Each grid point's
``aggregate`` gets its (tp, fp, fn) summed over the scenes.  The table
lists every grid point in grid order.  Ties on F1 break toward higher
threshold, larger separation, smaller assignment distance, then smaller
stride.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .evaluation import GroupMetrics, aggregate, match_scene, snap_tolerance
from .network import ModelWeights, predict_heatmap
from .parallel import thread_map
from .postprocess import AssignParams, assign_groups, nms, propose_centers
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


def _prefix_candidates(heatmaps, sep, lowest, owner, props):
    """Detections at the lowest threshold and what every threshold reads
    from them, at one separation.

    Returns (detections per scene; their scores as a scenes x width matrix
    padded with -inf; per stride, the persons x width distances from each
    proposal to its own scene's detections, padded with inf).  Rows of
    ``owner`` and ``props`` are every scene's persons laid end to end.
    """
    base = AssignParams(nms_threshold=lowest, min_group_separation_m=sep)
    detections = [nms(h, base) for h in heatmaps]
    width = max(1, max(map(len, detections)))
    scores = np.full((len(detections), width), -np.inf)
    centers = np.full((len(detections), width, 2), np.inf)
    for i, dets in enumerate(detections):
        if dets:
            scores[i, :len(dets)] = [d.score for d in dets]
            centers[i, :len(dets)] = [(d.center.x, d.center.y) for d in dets]
    mine = centers[owner]
    dists = [np.hypot(mine[..., 0] - p[:, :1], mine[..., 1] - p[:, 1:])
             for p in props]
    return detections, scores, dists


def _distinct_rows(rows):
    """(index of each distinct row's first occurrence, each row's index
    into those) of a 2-D array, comparing rows as raw bytes."""
    if len(rows) == 1 or not rows.shape[1]:  # no void view of zero width
        return np.zeros(1, np.intp), np.zeros(len(rows), np.intp)
    rows = np.ascontiguousarray(rows)
    void = rows.view(np.dtype((np.void, rows.itemsize * rows.shape[1])))
    _, first, inverse = np.unique(void.ravel(), return_index=True,
                                  return_inverse=True)
    return first, inverse


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

    sizes = [len(s.persons) for s in scenes]
    bounds = np.cumsum([0] + sizes).tolist()
    owner = np.repeat(np.arange(len(scenes)), sizes)
    props = [np.concatenate([propose_centers(s.persons, st) for s in scenes])
             for st in grid.strides_m]
    lowest = min(grid.nms_thresholds)
    by_sep = [_prefix_candidates(heatmaps, sep, lowest, owner, props)
              for sep in grid.separations_m]

    # every grid point's key vector, in grid order: points x persons, in
    # the smallest signed type that holds -1 .. width - 1
    shape = (len(grid.nms_thresholds), len(grid.separations_m),
             len(grid.assign_dists_m), len(grid.strides_m))
    width = max(scores.shape[1] for _, scores, _ in by_sep)
    keys = np.empty(shape + (len(owner),), np.min_scalar_type(-width))
    n_live = np.empty(shape[:2] + (len(scenes),), np.intp)
    ads = np.array(grid.assign_dists_m)[:, None]
    for a, thr in enumerate(grid.nms_thresholds):
        for b, (_, scores, dists) in enumerate(by_sep):
            live = scores >= thr
            n_live[a, b] = np.count_nonzero(live, axis=1)
            live_rows = live[owner]
            for d, dist in enumerate(dists):
                dist = np.where(live_rows, dist, np.inf)
                keys[a, b, :, d] = np.where(dist.min(axis=1) <= ads,
                                            np.argmin(dist, axis=1), -1)
    keys = keys.reshape(-1, len(owner))
    points = [(AssignParams(nms_threshold=thr, min_group_separation_m=sep,
                            max_assign_dist_m=ad, stride_m=st), a, b)
              for a, thr in enumerate(grid.nms_thresholds)
              for b, sep in enumerate(grid.separations_m)
              for ad in grid.assign_dists_m for st in grid.strides_m]

    totals = np.zeros((len(points), 3), np.int64)
    for i, s in enumerate(scenes):
        first, inverse = _distinct_rows(keys[:, bounds[i]:bounds[i + 1]])
        matched: dict[tuple, tuple[int, int, int]] = {}
        counts = []
        for g in first.tolist():
            params, a, b = points[g]
            detections = by_sep[b][0][i][:n_live[a, b, i]]
            partition = assign_groups(s.persons, detections, params)
            if partition not in matched:
                matched[partition] = match_scene(partition, s.groups, t)
            counts.append(matched[partition])
        totals += np.array(counts, np.int64)[inverse]
    table = [GridResult(p, aggregate([c], t))
             for (p, _, _), c in zip(points, totals.tolist())]

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
