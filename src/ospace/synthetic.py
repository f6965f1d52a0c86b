"""Deterministic synthetic cocktail-party scenes with known o-space centers.

Groups are circles: members sit evenly spaced on a ring of circle_radius_m
around a sampled center, facing it exactly, so with stride equal to the
radius every member's proposal lands on the center and the ground-truth
machinery recovers it by construction.  Optional Gaussian jitter perturbs
positions and yaws.  Jitter noise is drawn even at zero magnitude, so the
random stream, and hence the geometry, is identical across jitter settings.

Placement is rejection sampling: group centers keep min_intergroup_dist_m
from each other, singletons keep it from every center.  An entity that
fails 1000 attempts raises SynthesisError.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import DEFAULT_SPEC, Person, Point2, RoomSpec, Scene, apart

__all__ = ["SynthConfig", "SynthesisError", "generate"]

MAX_ATTEMPTS = 1000


class SynthesisError(RuntimeError):
    pass


@dataclass(frozen=True)
class SynthConfig:
    seed: int = 0
    n_scenes: int = 100
    groups_per_scene: tuple[int, int] = (1, 3)
    group_size: tuple[int, int] = (2, 6)
    circle_radius_m: float = 0.7
    min_intergroup_dist_m: float = 2.0
    singleton_count: tuple[int, int] = (0, 2)
    jitter_m: float = 0.0
    jitter_deg: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "groups_per_scene", tuple(self.groups_per_scene))
        object.__setattr__(self, "group_size", tuple(self.group_size))
        object.__setattr__(self, "singleton_count", tuple(self.singleton_count))
        for name in ("groups_per_scene", "group_size", "singleton_count"):
            lo, hi = getattr(self, name)
            if lo > hi or lo < 0:
                raise ValueError(f"empty {name} range ({lo}, {hi})")
        if self.group_size[0] < 2:
            raise ValueError("groups need at least 2 members")
        if self.n_scenes < 0:
            raise ValueError("n_scenes must be non-negative")
        if not (math.isfinite(self.circle_radius_m) and self.circle_radius_m > 0):
            raise ValueError(f"bad circle radius {self.circle_radius_m}")
        for name in ("min_intergroup_dist_m", "jitter_m", "jitter_deg"):
            v = getattr(self, name)
            if not (math.isfinite(v) and v >= 0):
                raise ValueError(f"{name} must be finite and non-negative, got {v}")
        if self.seed < 0:
            raise ValueError(f"seed must be non-negative, got {self.seed}")


def _sample_point(rng, cfg: SynthConfig, spec: RoomSpec, margin: float, placed,
                  where: str) -> Point2:
    """A uniform point at least ``margin`` inside the walls and
    min_intergroup_dist_m from every point in ``placed`` (``core.apart``);
    ``where`` names it when none is found."""
    if spec.width_m < 2 * margin or spec.height_m < 2 * margin:
        raise SynthesisError(
            f"room {spec.width_m}x{spec.height_m} m cannot fit a circle of "
            f"radius {margin}"
        )
    points = [(c.x, c.y) for c in placed]
    # rng.uniform(low, high) is low + (high - low) * u, with u the stream's
    # next double: one draw of two doubles gives the same x and y
    span_x = (spec.width_m - margin) - margin
    span_y = (spec.height_m - margin) - margin
    for _ in range(MAX_ATTEMPTS):
        u, v = rng.random(2).tolist()
        x = margin + span_x * u
        y = margin + span_y * v
        if apart(x, y, points, cfg.min_intergroup_dist_m):
            return Point2(x, y)
    raise SynthesisError(f"{where} after {MAX_ATTEMPTS} attempts")


def generate(cfg: SynthConfig, spec: RoomSpec = DEFAULT_SPEC):
    """Generate scenes plus the true o-space centers of each scene's groups.

    Returns (scenes, centers) where centers[i] lists scene i's group centers
    in group order.  Raises SynthesisError when an entity finds no place,
    and OverflowError when a yaw jitter draw overflows a float.
    """
    rng = np.random.default_rng(cfg.seed)
    radius, jitter_m, jitter_deg = cfg.circle_radius_m, cfg.jitter_m, cfg.jitter_deg
    width, height = spec.width_m, spec.height_m
    scenes: list[Scene] = []
    all_centers: list[list[Point2]] = []
    for i in range(cfg.n_scenes):
        n_groups = int(rng.integers(cfg.groups_per_scene[0],
                                    cfg.groups_per_scene[1] + 1))
        n_single = int(rng.integers(cfg.singleton_count[0],
                                    cfg.singleton_count[1] + 1))
        persons: list[Person] = []
        blocks: list[tuple[int, ...]] = []
        centers: list[Point2] = []
        for _ in range(n_groups):
            size = int(rng.integers(cfg.group_size[0], cfg.group_size[1] + 1))
            c = _sample_point(rng, cfg, spec, radius, centers,
                              f"scene {i}: no room for group {len(centers)}")
            centers.append(c)
            # rng.uniform(0.0, high) is 0.0 + high * u: the same double
            phase = 2.0 * math.pi * rng.random()
            start = len(persons)
            # one draw per group: each member's dx, dy and yaw noise in turn,
            # the doubles that standard_normal(2) then standard_normal() give
            noise = rng.standard_normal(3 * size).tolist()
            for k in range(size):
                ang = phase + 2.0 * math.pi * k / size
                px = c.x + radius * math.cos(ang)
                py = c.y + radius * math.sin(ang)
                yaw = math.degrees(math.atan2(c.y - py, c.x - px))
                # Python floats: a product past the largest float is inf,
                # with no numpy warning, and the clamp puts it on the wall
                dx = noise[3 * k] * jitter_m
                dy = noise[3 * k + 1] * jitter_m
                yaw += noise[3 * k + 2] * jitter_deg
                if not math.isfinite(yaw):
                    raise OverflowError(f"scene {i}: a jittered yaw overflows a float")
                persons.append(Person(min(max(px + dx, 0.0), width),
                                      min(max(py + dy, 0.0), height), yaw))
            blocks.append(tuple(range(start, start + size)))
        for _ in range(n_single):
            p = _sample_point(rng, cfg, spec, 0.0, centers,
                              f"scene {i}: no room for a singleton")
            yaw = 360.0 * rng.random()  # rng.uniform(0.0, 360.0)'s double
            blocks.append((len(persons),))
            persons.append(Person(p.x, p.y, yaw))
        scenes.append(Scene(f"synth-{cfg.seed}-{i:05d}", tuple(persons),
                            tuple(blocks)))
        all_centers.append(centers)
    return scenes, all_centers
