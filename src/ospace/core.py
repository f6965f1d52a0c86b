"""Scene geometry and the grid convention shared by every other module.

The room floor is a ``rows x cols`` grid of square cells (default 10 x 12
cells of 0.5 m, i.e. a 5 m x 6 m, 30 m^2 room).  Coordinates are metric:
origin in a room corner, x rightward along the columns, y upward along the
rows, yaw in degrees counterclockwise from the +x axis.  Grid arrays are
indexed ``(row, col)`` with row varying along y, and flatten row-major.

Positions are accepted on the closed room rectangle: mirroring maps the 0
edge onto the far wall, so the boundary must be valid on both sides.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "RoomSpec",
    "DEFAULT_SPEC",
    "Point2",
    "Person",
    "Scene",
    "OSpaceMap",
    "apart",
    "cell_center",
    "point_to_cell",
    "grid_centers",
    "canonical_partition",
    "check_groups",
    "check_person_count",
    "non_singleton_blocks",
    "validate_positions",
]


@dataclass(frozen=True)
class RoomSpec:
    """Grid geometry of the room: ``rows x cols`` cells of ``cell_m`` meters."""

    rows: int = 10
    cols: int = 12
    cell_m: float = 0.5

    def __post_init__(self):
        if self.rows < 1 or self.cols < 1:
            raise ValueError(f"grid must be at least 1x1, got {self.rows}x{self.cols}")
        if not (math.isfinite(self.cell_m) and self.cell_m > 0):
            raise ValueError(f"cell size must be positive, got {self.cell_m}")
        try:
            finite = math.isfinite(self.width_m) and math.isfinite(self.height_m)
        except OverflowError:  # a row or column count past the largest float
            finite = False
        if not finite:
            raise ValueError(f"room size of a {self.rows}x{self.cols} grid of "
                             f"{self.cell_m} m cells overflows a float")

    @property
    def width_m(self) -> float:
        return self.cols * self.cell_m

    @property
    def height_m(self) -> float:
        return self.rows * self.cell_m

    @property
    def n_cells(self) -> int:
        return self.rows * self.cols


DEFAULT_SPEC = RoomSpec()


@dataclass(frozen=True)
class Point2:
    """A point on the floor, in meters."""

    x: float
    y: float

    def __post_init__(self):
        if not (math.isfinite(self.x) and math.isfinite(self.y)):
            raise ValueError(f"non-finite point ({self.x}, {self.y})")


@dataclass(frozen=True)
class Person:
    """Position in meters plus yaw in degrees, normalized to [0, 360)."""

    x: float
    y: float
    yaw_deg: float

    def __post_init__(self):
        for name in ("x", "y", "yaw_deg"):
            v = getattr(self, name)
            if not math.isfinite(v):
                raise ValueError(f"non-finite {name}: {v}")
            object.__setattr__(self, name, float(v))
        # a tiny negative yaw rounds up to 360.0 under one modulo; a second
        # folds that to 0.0, so a saved yaw reads back as the same value
        object.__setattr__(self, "yaw_deg", self.yaw_deg % 360.0 % 360.0)


@dataclass(frozen=True)
class Scene:
    """One annotated frame: people plus a full partition into groups.

    ``groups`` must cover every person index exactly once; singletons are
    their own one-person blocks.
    """

    frame_id: str
    persons: tuple[Person, ...]
    groups: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        object.__setattr__(self, "persons", tuple(self.persons))
        object.__setattr__(self, "groups", tuple(tuple(b) for b in self.groups))
        seen = check_groups(self.groups, len(self.persons))
        if len(seen) != len(self.persons):
            missing = sorted(set(range(len(self.persons))) - seen)
            raise ValueError(f"groups do not cover persons {missing}")


def check_groups(groups, n: int | None = None, what: str = "") -> set:
    """The persons named in ``groups``: non-empty blocks of integer (never
    boolean) indices, none repeated and, if the frame size ``n`` is given, all
    in ``0..n-1``.  Else ValueError "<what> groups.J: ...", J the block."""
    at = f"{what} groups" if what else "groups"
    seen: set = set()
    for j, block in enumerate(groups):
        if not len(block):
            raise ValueError(f"{at}.{j}: empty")
        for i in block:
            if type(i) is not int and not isinstance(i, np.integer):  # no bools
                raise ValueError(f"{at}.{j}: {i!r} is not a person index")
            if i in seen:
                raise ValueError(f"{at}.{j}: person {i} repeats")
            if n is not None and not 0 <= i < n:
                raise ValueError(f"{at}.{j}: person {i} is not in the {n}-person frame")
            seen.add(i)
    return seen


def check_person_count(n: int, max_people: int, where: str) -> None:
    """ValueError "<where>: N persons, ..." unless a model can read a frame
    of ``n`` persons: at least one, at most ``max_people``."""
    if not 0 < n <= max_people:
        limit = f"cap is {max_people}" if n else "a model needs at least 1"
        raise ValueError(f"{where}: {n} persons, {limit}")


@dataclass(frozen=True, eq=False)
class OSpaceMap:
    """Grid of o-space likelihoods in [0, 1] over the room cells."""

    values: np.ndarray
    spec: RoomSpec = DEFAULT_SPEC

    def __post_init__(self):
        arr = np.array(self.values, dtype=float)
        if arr.shape != (self.spec.rows, self.spec.cols):
            raise ValueError(
                f"map shape {arr.shape} does not match grid "
                f"{self.spec.rows}x{self.spec.cols}"
            )
        # min and max carry a NaN through, so one test clears a valid map;
        # only a failing one is scanned again to name the fault
        if not (arr.min() >= 0.0 and arr.max() <= 1.0):
            if not np.isfinite(arr).all():
                raise ValueError("map contains non-finite values")
            raise ValueError("map values must lie in [0, 1]")
        arr.setflags(write=False)
        object.__setattr__(self, "values", arr)

    def flatten(self) -> np.ndarray:
        """Row-major flattening (120 values for the default grid)."""
        return self.values.reshape(-1)


def apart(x: float, y: float, points, limit: float) -> bool:
    """Whether (x, y) lies at least ``limit`` from every (px, py) in ``points``.

    A finite sum of squares is compared with ``limit ** 2``; a square past
    the largest float, or a sum that overflows to inf, is measured by
    ``math.hypot`` against ``limit`` itself.  A ``limit ** 2`` past the
    largest float reads as inf.
    """
    try:
        limit_sq = limit ** 2
    except OverflowError:
        limit_sq = math.inf
    for px, py in points:
        try:
            d_sq = (x - px) ** 2 + (y - py) ** 2
        except OverflowError:
            d_sq = math.inf
        if d_sq < limit_sq or (d_sq == math.inf
                               and math.hypot(x - px, y - py) < limit):
            return False
    return True


def cell_center(row: int, col: int, spec: RoomSpec = DEFAULT_SPEC) -> Point2:
    """Metric center of grid cell (row, col)."""
    if not (0 <= row < spec.rows and 0 <= col < spec.cols):
        raise ValueError(
            f"cell ({row}, {col}) outside {spec.rows}x{spec.cols} grid"
        )
    return Point2((col + 0.5) * spec.cell_m, (row + 0.5) * spec.cell_m)


def point_to_cell(p: Point2, spec: RoomSpec = DEFAULT_SPEC) -> tuple[int, int]:
    """Grid cell containing ``p``; the far boundary clamps into the last cell."""
    if not (0.0 <= p.x <= spec.width_m and 0.0 <= p.y <= spec.height_m):
        raise ValueError(
            f"point ({p.x}, {p.y}) outside room "
            f"{spec.width_m} m x {spec.height_m} m"
        )
    col = min(int(p.x // spec.cell_m), spec.cols - 1)
    row = min(int(p.y // spec.cell_m), spec.rows - 1)
    return row, col


def grid_centers(spec: RoomSpec = DEFAULT_SPEC) -> tuple[np.ndarray, np.ndarray]:
    """Cell-center coordinates: (xs of shape (cols,), ys of shape (rows,))."""
    xs = (np.arange(spec.cols) + 0.5) * spec.cell_m
    ys = (np.arange(spec.rows) + 0.5) * spec.cell_m
    return xs, ys


def canonical_partition(groups) -> tuple[tuple[int, ...], ...]:
    """Order-free form of a partition: sorted blocks of sorted members."""
    return tuple(sorted(tuple(sorted(b)) for b in groups))


def non_singleton_blocks(scene: Scene) -> tuple[tuple[int, ...], ...]:
    """The conversational groups of a scene (blocks with two or more people)."""
    return tuple(b for b in scene.groups if len(b) >= 2)


def validate_positions(scene: Scene, spec: RoomSpec = DEFAULT_SPEC) -> None:
    """Raise if any person lies outside the (closed) room rectangle."""
    for i, p in enumerate(scene.persons):
        if not (0.0 <= p.x <= spec.width_m and 0.0 <= p.y <= spec.height_m):
            raise ValueError(
                f"person {i} at ({p.x}, {p.y}) outside room "
                f"{spec.width_m} m x {spec.height_m} m"
            )
