"""Scene ingestion, splitting, person features, and flip augmentation.

Scenes travel as JSON-Lines, one object per line:

    {"frame_id": "...",
     "persons": [{"x": 1.0, "y": 2.0, "yaw_deg": 90.0}, ...],
     "groups": [[0, 1], [2]]}

``groups`` may omit people; anyone not mentioned becomes a singleton block.
Person features are 18-dim: z-scored x and y (stats fit on the training
split) followed by a 16-slot one-hot of the bucketed yaw.
"""
from __future__ import annotations

import io
import json
import math
from dataclasses import dataclass

import numpy as np

from .core import DEFAULT_SPEC, Person, RoomSpec, Scene, validate_positions

__all__ = [
    "SceneParseError",
    "NormStats",
    "SplitRatios",
    "parse_groups",
    "read_records",
    "parse_scenes",
    "load_scenes",
    "save_scenes",
    "scene_to_obj",
    "sequential_split",
    "bucket_yaw",
    "fit_norm_stats",
    "person_feature",
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


def parse_groups(raw_groups, where: str) -> list[tuple]:
    """Group blocks from a record's ``groups`` array of integer arrays.

    Raises SceneParseError prefixed with ``where`` (e.g. "line 3").
    """
    if not isinstance(raw_groups, list):
        raise SceneParseError(f"{where}: groups is not an array")
    blocks = []
    for b in raw_groups:
        if not isinstance(b, list):
            raise SceneParseError(f"{where}: group block is not an array")
        for idx in b:
            if isinstance(idx, bool) or not isinstance(idx, int):
                raise SceneParseError(
                    f"{where}: group member {idx!r} is not an integer"
                )
        blocks.append(tuple(b))
    return blocks


def read_records(lines, name=None):
    """Yield (where, obj) for each JSON object in the JSON-Lines ``lines``.

    Blank lines are skipped.  ``where`` is "line N", or "<name> line N" when
    a file name is given; a line that is not JSON, or not a JSON object,
    raises SceneParseError prefixed with it.
    """
    prefix = "" if name is None else f"{name} "
    for line_no, line in enumerate(lines, start=1):
        if isinstance(line, bytes):
            line = line.decode("utf-8")
        if not line.strip():
            continue
        where = f"{prefix}line {line_no}"
        try:
            obj = json.loads(line)
        except json.JSONDecodeError as e:
            raise SceneParseError(f"{where}: invalid JSON ({e.msg})") from None
        if not isinstance(obj, dict):
            raise SceneParseError(f"{where}: record is not a JSON object")
        yield where, obj


def _parse_record(obj: dict, where: str, spec: RoomSpec) -> Scene:
    frame_id = obj.get("frame_id")
    if not isinstance(frame_id, str):
        raise SceneParseError(f"{where}: missing or non-string frame_id")
    raw_persons = obj.get("persons")
    if not isinstance(raw_persons, list):
        raise SceneParseError(f"{where}: missing persons array")
    persons = []
    for i, rp in enumerate(raw_persons):
        if not isinstance(rp, dict):
            raise SceneParseError(f"{where}: person {i} is not an object")
        try:
            x, y, yaw = rp["x"], rp["y"], rp["yaw_deg"]
        except KeyError as e:
            raise SceneParseError(
                f"{where}: person {i} missing field {e.args[0]!r}"
            ) from None
        for name, v in (("x", x), ("y", y), ("yaw_deg", yaw)):
            if isinstance(v, bool) or not isinstance(v, (int, float)):
                raise SceneParseError(
                    f"{where}: person {i} field {name} is not a number"
                )
        try:
            persons.append(Person(float(x), float(y), float(yaw)))
        except ValueError as e:
            raise SceneParseError(f"{where}: person {i}: {e}") from None

    blocks = parse_groups(obj.get("groups", []), where)
    mentioned = [i for b in blocks for i in b]
    # anyone absent from every block is an implicit singleton
    blocks.extend((i,) for i in range(len(persons)) if i not in set(mentioned))

    try:
        scene = Scene(frame_id, tuple(persons), tuple(blocks))
        validate_positions(scene, spec)
    except ValueError as e:
        raise SceneParseError(f"{where}: {e}") from None
    return scene


def parse_scenes(source, spec: RoomSpec = DEFAULT_SPEC) -> list[Scene]:
    """Parse JSON-Lines scenes from a string, bytes, or line iterable."""
    if isinstance(source, bytes):
        source = source.decode("utf-8")
    if isinstance(source, str):
        lines = io.StringIO(source)
    else:
        lines = source
    return [_parse_record(obj, where, spec) for where, obj in read_records(lines)]


def load_scenes(path, spec: RoomSpec = DEFAULT_SPEC,
                max_people: int | None = None) -> list[Scene]:
    """Parse the JSON-Lines scene file ``path``; errors read "<path> line N".

    With ``max_people``, a scene with more persons than that is an error
    too, so a model's cap is enforced at the line that breaks it.
    """
    scenes = []
    with open(path, "r", encoding="utf-8") as f:
        for where, obj in read_records(f, path):
            scene = _parse_record(obj, where, spec)
            if max_people is not None and len(scene.persons) > max_people:
                raise SceneParseError(f"{where}: {len(scene.persons)} persons, "
                                      f"cap is {max_people}")
            scenes.append(scene)
    return scenes


def scene_to_obj(scene: Scene) -> dict:
    return {
        "frame_id": scene.frame_id,
        "persons": [
            {"x": p.x, "y": p.y, "yaw_deg": p.yaw_deg} for p in scene.persons
        ],
        "groups": [list(b) for b in scene.groups],
    }


def save_scenes(scenes, path) -> None:
    with open(path, "w", encoding="utf-8") as f:
        for s in scenes:
            f.write(json.dumps(scene_to_obj(s)))
            f.write("\n")


def sequential_split(scenes, ratios: SplitRatios = SplitRatios()):
    """Contiguous prefix/middle/suffix split; sizes floor(N*r), remainder to test."""
    n = len(scenes)
    n_train = int(n * ratios.train + 1e-9)
    n_val = int(n * ratios.val + 1e-9)
    train = list(scenes[:n_train])
    val = list(scenes[n_train:n_train + n_val])
    test = list(scenes[n_train + n_val:])
    return train, val, test


def bucket_yaw(yaw_deg: float) -> int:
    """Index of the 22.5-degree bucket, half-open [k*22.5, (k+1)*22.5)."""
    if not math.isfinite(yaw_deg):
        raise ValueError(f"non-finite yaw {yaw_deg}")
    return min(int((yaw_deg % 360.0) / BUCKET_DEG), YAW_BUCKETS - 1)


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


def person_feature(person: Person, stats: NormStats) -> np.ndarray:
    """18-dim vector: normalized x, normalized y, one-hot yaw bucket."""
    out = np.zeros(FEATURE_DIM)
    out[0] = (person.x - stats.mean_x) / stats.std_x
    out[1] = (person.y - stats.mean_y) / stats.std_y
    out[2 + bucket_yaw(person.yaw_deg)] = 1.0
    return out


def scene_features(scene: Scene, stats: NormStats) -> np.ndarray:
    """Stack of person features, shape (P, 18)."""
    if not scene.persons:
        return np.zeros((0, FEATURE_DIM))
    return np.stack([person_feature(p, stats) for p in scene.persons])


def flip_scene(scene: Scene, axis: str, spec: RoomSpec = DEFAULT_SPEC) -> Scene:
    """Mirror a scene across the room's vertical axis ("horizontal" flip:
    x -> width-x, yaw -> 180-yaw), horizontal axis ("vertical" flip:
    y -> height-y, yaw -> -yaw), or "both". Group labels are unchanged."""
    if axis == "both":
        return flip_scene(flip_scene(scene, "horizontal", spec), "vertical", spec)
    if axis == "horizontal":
        persons = tuple(
            Person(spec.width_m - p.x, p.y, (180.0 - p.yaw_deg) % 360.0)
            for p in scene.persons
        )
    elif axis == "vertical":
        persons = tuple(
            Person(p.x, spec.height_m - p.y, (360.0 - p.yaw_deg) % 360.0)
            for p in scene.persons
        )
    else:
        raise ValueError(f"unknown flip axis {axis!r}")
    return Scene(scene.frame_id, persons, scene.groups)


def augment(scenes, spec: RoomSpec = DEFAULT_SPEC) -> list[Scene]:
    """Each scene followed by its horizontal, vertical, and double flips."""
    out = []
    for s in scenes:
        out.append(s)
        out.append(flip_scene(s, "horizontal", spec))
        out.append(flip_scene(s, "vertical", spec))
        out.append(flip_scene(s, "both", spec))
    return out
