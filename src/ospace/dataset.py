"""Scene ingestion, splitting, person features, and flip augmentation.

Scenes travel as JSON-Lines, one object per line:

    {"frame_id": "...",
     "persons": [{"x": 1.0, "y": 2.0, "yaw_deg": 90.0}, ...],
     "groups": [[0, 1], [2]]}

``groups`` may omit people, or be absent; anyone not mentioned becomes a
singleton block.  Its blocks must pass ``core.check_groups``: non-empty,
disjoint, and naming only the frame's persons.
Each line is decoded by ``jsondoc.decode`` and its fields are read through
``jsondoc``, so a bad record raises SceneParseError "<file> line N <field
path>: ...".
Person features are 18-dim: z-scored x and y (stats fit on the training
split) followed by a 16-slot one-hot of the bucketed yaw.  One array pass
builds a scene's (P, 18) matrix, ``scene_features``.
"""
from __future__ import annotations

import io
import json
import math
from dataclasses import dataclass

import numpy as np

from .core import (DEFAULT_SPEC, Person, RoomSpec, Scene, check_person_count,
                   validate_positions)
from .jsondoc import (decode, from_obj, get_field, get_int_arrays, read_lines,
                      write_lines)

__all__ = [
    "SceneParseError",
    "NormStats",
    "SplitRatios",
    "read_records",
    "parse_scenes",
    "load_scenes",
    "save_scenes",
    "sequential_split",
    "fit_norm_stats",
    "scene_features",
    "flip_scene",
    "augment",
]

YAW_BUCKETS = 16
BUCKET_DEG = 360.0 / YAW_BUCKETS
FEATURE_DIM = 2 + YAW_BUCKETS


class SceneParseError(ValueError):
    """Malformed scene record; message carries the 1-based line number, after
    the file name when read from a file."""


@dataclass(frozen=True)
class NormStats:
    """Per-axis z-score parameters fit on the training split."""

    mean_x: float
    mean_y: float
    std_x: float
    std_y: float

    def __post_init__(self):
        for name in ("mean_x", "mean_y", "std_x", "std_y"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"non-finite {name}")
        if self.std_x <= 0 or self.std_y <= 0:
            raise ValueError("std must be positive")


@dataclass(frozen=True)
class SplitRatios:
    train: float = 0.8
    val: float = 0.1
    test: float = 0.1

    def __post_init__(self):
        for name in ("train", "val", "test"):
            r = getattr(self, name)
            if not (0.0 <= r <= 1.0):
                raise ValueError(f"{name} ratio {r} outside [0, 1]")
        if abs(self.train + self.val + self.test - 1.0) > 1e-9:
            raise ValueError("split ratios must sum to 1")


def read_records(lines, parse, name=None) -> list:
    """``parse(obj, where)`` of each JSON value in the JSON-Lines ``lines``.

    ``lines`` yields bytes, as ``jsondoc.read_lines`` does; blank
    lines are skipped.  ``where`` is "line N", or "<name> line N" when a
    file name is given.  A line that is not UTF-8 or not JSON, and a
    ValueError from ``parse``, raise SceneParseError naming the line.
    """
    prefix = "" if name is None else f"{name} "
    records = []
    for line_no, line in enumerate(lines, start=1):
        if not line.strip():
            continue
        where = f"{prefix}line {line_no}"
        try:
            text = decode(line, where)
            try:
                obj = json.loads(text)
            except (ValueError, RecursionError) as e:  # bad JSON or too deep
                raise ValueError(f"{where}: invalid JSON "
                                 f"({getattr(e, 'msg', e)})") from None
            records.append(parse(obj, where))
        except ValueError as e:
            raise SceneParseError(str(e)) from None
    return records


def _parse_record(obj, where: str, spec: RoomSpec | None,
                  max_people: int | None) -> Scene:
    frame_id = get_field(obj, "", "frame_id", (str,), where)
    persons = tuple(from_obj(Person, p, f"persons.{i}", where) for i, p in
                    enumerate(get_field(obj, "", "persons", (list,), where)))
    if max_people is not None:
        check_person_count(len(persons), max_people, where)
    blocks = get_int_arrays(obj, "", "groups", where) if "groups" in obj else ()
    # anyone absent from every block is an implicit singleton; Scene checks
    # the blocks in order, so a fault in the given ones is named first
    mentioned = {i for b in blocks for i in b}
    blocks += tuple((i,) for i in range(len(persons)) if i not in mentioned)
    try:
        scene = Scene(frame_id, persons, blocks)
    except ValueError as e:  # "groups.J: ...", from core.check_groups
        raise ValueError(f"{where} {e}") from None
    if spec is not None:
        try:
            validate_positions(scene, spec)
        except ValueError as e:
            raise ValueError(f"{where}: {e}") from None
    return scene


def parse_scenes(source, spec: RoomSpec | None = DEFAULT_SPEC,
                 max_people: int | None = None, name=None) -> list[Scene]:
    """Parse JSON-Lines scenes from a string, bytes, or byte-line iterable.

    Persons must lie in the room of ``spec``, unless it is None (eval only
    needs group indices).  With ``max_people`` (a model reads the scenes), a
    scene with no persons or over that cap is an error at its line, so it
    fails where it breaks; ``name`` (a file) prefixes the line.
    """
    if isinstance(source, str):
        source = source.encode("utf-8")
    if isinstance(source, bytes):
        source = io.BytesIO(source)
    return read_records(source, lambda obj, where: _parse_record(
        obj, where, spec, max_people), name)


def load_scenes(path, spec: RoomSpec | None = DEFAULT_SPEC,
                max_people=None) -> list[Scene]:
    """Parse the JSON-Lines scene file ``path``; errors read "<path> line N"."""
    return parse_scenes(read_lines(path), spec, max_people, path)


# json.dumps's encoder: default=int writes numpy indices, which Scene
# takes, as plain ints
_SCENE_ENCODER = json.JSONEncoder(default=int)


def save_scenes(scenes, path) -> None:
    write_lines(path, (_SCENE_ENCODER.encode({
        "frame_id": s.frame_id,
        "persons": [{"x": p.x, "y": p.y, "yaw_deg": p.yaw_deg}
                    for p in s.persons],
        "groups": [list(b) for b in s.groups],
    }) for s in scenes))


def sequential_split(scenes, ratios: SplitRatios = SplitRatios()):
    """Contiguous prefix/middle/suffix split; sizes floor(N*r), remainder to test."""
    n = len(scenes)
    n_train = int(n * ratios.train + 1e-9)
    n_val = int(n * ratios.val + 1e-9)
    train = list(scenes[:n_train])
    val = list(scenes[n_train:n_train + n_val])
    test = list(scenes[n_train + n_val:])
    return train, val, test


def _yaw_buckets(yaw_deg: np.ndarray) -> np.ndarray:
    """Each yaw's bucket, ``min(int(yaw % 360 / 22.5), 15)``: numpy's float
    ``%`` is Python's, and a yaw just below 0 folds to 360, bucket 15."""
    return np.minimum((yaw_deg % 360.0 / BUCKET_DEG).astype(np.intp),
                      YAW_BUCKETS - 1)


def fit_norm_stats(train_scenes) -> NormStats:
    """Population mean/std of person coordinates; degenerate std falls back to 1."""
    xs = np.array([p.x for s in train_scenes for p in s.persons])
    ys = np.array([p.y for s in train_scenes for p in s.persons])
    if xs.size == 0:
        raise ValueError("cannot fit normalization stats on zero persons")
    std_x = float(xs.std())
    std_y = float(ys.std())
    return NormStats(
        mean_x=float(xs.mean()),
        mean_y=float(ys.mean()),
        std_x=std_x if std_x > 0 else 1.0,
        std_y=std_y if std_y > 0 else 1.0,
    )


def scene_features(scene: Scene, stats: NormStats) -> np.ndarray:
    """The (P, 18) person features, built in one array pass: (x - mean_x) /
    std_x, (y - mean_y) / std_y, then a 1 in slot 2 + the yaw's bucket."""
    n = len(scene.persons)
    a = np.array([v for p in scene.persons for v in (p.x, p.y, p.yaw_deg)],
                 float).reshape(n, 3)
    out = np.zeros((n, FEATURE_DIM))
    out[:, 0] = (a[:, 0] - stats.mean_x) / stats.std_x
    out[:, 1] = (a[:, 1] - stats.mean_y) / stats.std_y
    # row k's slot is flat index k * FEATURE_DIM + 2 + bucket
    out.reshape(-1)[np.arange(2, n * FEATURE_DIM, FEATURE_DIM)
                    + _yaw_buckets(a[:, 2])] = 1.0
    return out


def flip_scene(scene: Scene, axis: str, spec: RoomSpec = DEFAULT_SPEC) -> Scene:
    """Mirror a scene across the room's vertical axis ("horizontal" flip:
    x -> width-x, yaw -> 180-yaw), horizontal axis ("vertical" flip:
    y -> height-y, yaw -> -yaw), or "both". Group labels are unchanged."""
    return Scene(scene.frame_id, _flip_persons(scene.persons, axis, spec),
                 scene.groups)


def _flip_persons(persons, axis: str, spec: RoomSpec) -> tuple[Person, ...]:
    if axis == "both":
        return _flip_persons(_flip_persons(persons, "horizontal", spec),
                             "vertical", spec)
    # Person reduces each yaw to [0, 360)
    if axis == "horizontal":
        width = spec.width_m
        return tuple(Person(width - p.x, p.y, 180.0 - p.yaw_deg) for p in persons)
    if axis == "vertical":
        height = spec.height_m
        return tuple(Person(p.x, height - p.y, 360.0 - p.yaw_deg) for p in persons)
    raise ValueError(f"unknown flip axis {axis!r}")


def augment(scenes, spec: RoomSpec = DEFAULT_SPEC) -> list[Scene]:
    """Each scene followed by its horizontal, vertical, and double flips,
    whose frame_ids are the scene's plus "-h", "-v" and "-hv"."""
    out = []
    for s in scenes:
        h = _flip_persons(s.persons, "horizontal", spec)
        # the double flip is the vertical flip of the horizontal one, as in
        # flip_scene's "both"
        out += (s, Scene(s.frame_id + "-h", h, s.groups),
                Scene(s.frame_id + "-v", _flip_persons(s.persons, "vertical", spec),
                      s.groups),
                Scene(s.frame_id + "-hv", _flip_persons(h, "vertical", spec), s.groups))
    return out
