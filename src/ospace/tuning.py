"""Grid search over the assignment hyperparameters on a validation set.

Each stage runs once per combination of the grid axes it depends on:

- heatmaps: once per scene (the forward pass ignores the parameters), all
  scenes in one ``predict_heatmaps`` call, which runs them through the
  network in fixed-size chunks;
- NMS candidates: one ``nms`` per heatmap, at the grid's lowest threshold
  and separation 0, which keeps every candidate in visiting order;
- NMS detections: ``thin`` of those candidates once per scene and
  separation, which is ``nms`` at the lowest threshold; each threshold
  takes the score prefix of that list.  NMS visits candidates in
  descending score with row-major ties, and whether it keeps one depends
  only on those it kept before, so raising the threshold only cuts off a
  tail of the visiting order;
- headings: once per person (``groundtruth.headings``); each stride's
  proposals are one ``groundtruth.step_ahead`` over every person of every
  scene, the proposal rule ``assign_groups`` applies;
- distances from proposals to those detections, and their running
  minimum along the detections: once per separation and stride.  A
  threshold keeps a prefix of the detections, so each person's nearest
  live one is read off the running minimum at the prefix's last column,
  for every threshold at once; the first column that holds that minimum
  is argmin's tie rule, the lower index.

The assignment distance is then only a cutoff on that distance: the key
vector ``where(dist <= max_assign_dist_m, nearest, -1)`` holds each
person's claimed detection, the claims ``assign_groups`` would compute.
Every grid point's key vector is one row of a points x persons array.  Per
scene, one ``np.unique`` over its columns, each row viewed as raw bytes,
finds the distinct key rows and which one each grid point has; no Python
loop runs per (grid point, scene).  Each distinct (scene, key row) is
turned into its partition by ``partition_from_claims``, the rule
``assign_groups`` applies, once, and one ``match_counts`` per scene
matches all of that scene's partitions against its ground truth, which
it checks and orders once.  Each grid point's ``aggregate`` gets its (tp,
fp, fn) summed over the scenes.  The table lists every grid point in grid
order.  Ties on F1 break toward higher threshold, larger separation,
smaller assignment distance, then smaller stride.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .checkpoint import ModelWeights
from .evaluation import (GroupMetrics, aggregate, match_counts,  # noqa: F401
                         match_scene, snap_tolerance)
from .groundtruth import headings, step_ahead
from .network import predict_heatmap, predict_heatmaps  # noqa: F401
# grid_search calls none of predict_heatmap, thread_map, assign_groups and
# match_scene; the names stay only for perfbench's probe table, whose
# traced-run test looks up each one
from .parallel import thread_map  # noqa: F401
from .postprocess import (AssignParams, assign_groups,  # noqa: F401
                          nms, partition_from_claims, thin)
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


def _prefix_candidates(candidates, sep, owner, props):
    """What every threshold reads from the detections at the lowest
    threshold, at one separation: ``thin`` of each scene's ``candidates``.

    Returns (the detections' scores as a scenes x width matrix padded with
    -inf; per stride, ``_prefix_nearest`` of the persons x width distances
    from each proposal to its own scene's detections, padded with inf).
    Rows of ``owner`` and ``props`` are every scene's persons laid end to
    end.
    """
    detections = [thin(c, sep) for c in candidates]
    width = max(1, max(map(len, detections)))
    scores = np.full((len(detections), width), -np.inf)
    centers = np.full((len(detections), width, 2), np.inf)
    for i, dets in enumerate(detections):
        if dets:
            scores[i, :len(dets)] = [d.score for d in dets]
            centers[i, :len(dets)] = [(d.center.x, d.center.y) for d in dets]
    mine = centers[owner]
    return scores, [_prefix_nearest(np.hypot(mine[..., 0] - p[:, :1],
                                             mine[..., 1] - p[:, 1:]))
                    for p in props]


def _prefix_nearest(dist):
    """Column k of each result: the least distance among columns 0..k of
    ``dist``, and the first column that holds it, argmin's tie rule.

    A threshold keeps a prefix of the detections, so its nearest one is
    column (live count - 1) of these, with no pass over the matrix per
    threshold.
    """
    least = np.minimum.accumulate(dist, axis=1)
    moved = np.ones(dist.shape, bool)
    moved[:, 1:] = least[:, 1:] < least[:, :-1]
    arg = np.maximum.accumulate(
        np.where(moved, np.arange(dist.shape[1]), 0), axis=1)
    return least, arg


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
    xy, heading = headings([p for s in scenes for p in s.persons])
    props = [step_ahead(xy, heading, st) for st in grid.strides_m]
    base = AssignParams(nms_threshold=min(grid.nms_thresholds),
                        min_group_separation_m=0.0)
    candidates = [nms(h, base) for h in heatmaps]
    by_sep = [_prefix_candidates(candidates, sep, owner, props)
              for sep in grid.separations_m]

    # every grid point's key vector, in grid order: points x persons, in
    # the smallest signed type that holds -1 .. width - 1
    shape = (len(grid.nms_thresholds), len(grid.separations_m),
             len(grid.assign_dists_m), len(grid.strides_m))
    width = max(scores.shape[1] for scores, _ in by_sep)
    keys = np.empty(shape + (len(owner),), np.min_scalar_type(-width))
    ads = np.array(grid.assign_dists_m)[:, None]
    thresholds = np.array(grid.nms_thresholds)[:, None, None]
    person = np.arange(len(owner))
    for b, (scores, nearest) in enumerate(by_sep):
        # thresholds x persons: the last detection live for each person's
        # scene at each threshold, -1 for none
        last = (scores >= thresholds).sum(axis=2)[:, owner] - 1
        for d, (least, arg) in enumerate(nearest):
            dist = np.where(last >= 0, least[person, last], np.inf)
            keys[:, b, :, d] = np.where(dist[:, None] <= ads,
                                        arg[person, last][:, None], -1)
    keys = keys.reshape(-1, len(owner))
    points = [AssignParams(nms_threshold=thr, min_group_separation_m=sep,
                           max_assign_dist_m=ad, stride_m=st)
              for thr in grid.nms_thresholds for sep in grid.separations_m
              for ad in grid.assign_dists_m for st in grid.strides_m]

    totals = np.zeros((len(points), 3), np.int64)
    for i, s in enumerate(scenes):
        rows = keys[:, bounds[i]:bounds[i + 1]]
        first, inverse = _distinct_rows(rows)
        counts = match_counts([partition_from_claims(claims)
                               for claims in rows[first].tolist()], s.groups, t)
        totals += np.array(counts, np.int64)[inverse]
    table = [GridResult(p, aggregate([c], t))
             for p, c in zip(points, totals.tolist())]

    best = min(table, key=lambda r: (-r.metrics.f1, -r.params.nms_threshold,
                                     -r.params.min_group_separation_m,
                                     r.params.max_assign_dist_m,
                                     r.params.stride_m))
    return best.params, best.metrics.f1, table


def grid_search(model: ModelWeights, val_scenes, room: RoomFeature,
                grid: Grid = Grid(), tolerance=1):
    """Search the grid using the model's predicted heatmaps."""
    scenes = list(val_scenes)
    heatmaps = predict_heatmaps(scenes, model, room)
    return grid_search_heatmaps(heatmaps, scenes, grid, tolerance)
