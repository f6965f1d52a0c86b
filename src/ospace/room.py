"""Room-layout features: occupancy pyramid extraction, PCA reduction, and a
precomputed-feature file loader.

The head's room input is as wide as the room vector it was trained on.  Two
providers give one: a feature file written by some external extractor, or
an occupancy pyramid computed here from an annotated layout map (per-class
cell fractions pooled at four grid resolutions), optionally reduced with the
from-scratch PCA.  A model trained without a room takes a zero-wide vector.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .core import DEFAULT_SPEC, RoomSpec
from .jsondoc import from_obj, get_field, load, to_obj, write_lines

__all__ = [
    "OCCUPANCY_CLASSES",
    "PYRAMID_LEVELS",
    "LayoutMap",
    "RoomFeature",
    "PcaModel",
    "layout_from_obj",
    "load_layout",
    "save_layout",
    "extract_layout_features",
    "pca_fit",
    "pca_project",
    "load_precomputed",
    "save_precomputed",
    "room_feature_from_layout",
]

OCCUPANCY_CLASSES = ("free", "wall", "table", "furniture")
PYRAMID_LEVELS = ((1, 1), (2, 3), (5, 6), (10, 12))


@dataclass(frozen=True)
class LayoutMap:
    """Occupancy class of every grid cell, same geometry as the heatmaps."""

    cells: tuple[tuple[str, ...], ...]
    spec: RoomSpec = DEFAULT_SPEC

    def __post_init__(self):
        cells = tuple(tuple(row) for row in self.cells)
        if len(cells) != self.spec.rows or any(len(r) != self.spec.cols for r in cells):
            raise ValueError(
                f"layout is not {self.spec.rows}x{self.spec.cols}"
            )
        for row in cells:
            for name in row:
                if name not in OCCUPANCY_CLASSES:
                    raise ValueError(f"unknown occupancy class {name!r}")
        object.__setattr__(self, "cells", cells)


@dataclass(frozen=True, eq=False)
class RoomFeature:
    """Room descriptor fed to the network head; it may be zero-wide."""

    values: np.ndarray

    def __post_init__(self):
        arr = np.array(self.values, dtype=float)
        if arr.ndim != 1:
            raise ValueError(f"room feature must be a vector, got shape {arr.shape}")
        if not np.all(np.isfinite(arr)):
            raise ValueError("room feature contains non-finite values")
        arr.setflags(write=False)
        object.__setattr__(self, "values", arr)

    @property
    def dim(self) -> int:
        return self.values.shape[0]


def layout_from_obj(obj, what: str = "layout") -> LayoutMap:
    """A layout map from its JSON form; errors name ``what`` and the field.

    ``cells`` holds the class names row-major, and a bad one is named by its
    index (``cells.I``).  ``spec`` is optional, and fields missing from it
    take their values from ``DEFAULT_SPEC``.
    """
    cells = get_field(obj, "", "cells", (list,), what)
    given = get_field(obj, "", "spec", (dict,), what) if "spec" in obj else {}
    spec = from_obj(RoomSpec, to_obj(DEFAULT_SPEC) | given, "spec", what)
    if len(cells) != spec.n_cells:
        raise ValueError(f"{what} cells: {len(cells)} cells, the "
                         f"{spec.rows}x{spec.cols} grid has {spec.n_cells}")
    for i, name in enumerate(cells):
        # cell i is read as field "i" of an object, so its errors name cells.i
        get_field({str(i): name}, "cells", str(i), (str,), what)
        if name not in OCCUPANCY_CLASSES:
            raise ValueError(f"{what} cells.{i}: unknown occupancy class {name!r}")
    rows = tuple(
        tuple(cells[r * spec.cols: (r + 1) * spec.cols]) for r in range(spec.rows)
    )
    return LayoutMap(rows, spec)


def load_layout(path) -> LayoutMap:
    what = f"layout {path}"
    return layout_from_obj(load(path, what), what)


def save_layout(layout: LayoutMap, path) -> None:
    obj = {"spec": to_obj(layout.spec),
           "cells": [name for row in layout.cells for name in row]}
    write_lines(path, [json.dumps(obj)])


def _block_edges(n: int, parts: int) -> list[int]:
    return [(i * n) // parts for i in range(parts + 1)]


def extract_layout_features(layout: LayoutMap) -> np.ndarray:
    """Per-class occupancy fractions pooled at each pyramid level.

    Levels larger than the grid clamp to the grid, so the dimension is fixed
    for a given spec (628 for the default 10x12 room).  Order: level, then
    block in row-major order, then class.
    """
    spec = layout.spec
    idx = np.array(
        [[OCCUPANCY_CLASSES.index(c) for c in row] for row in layout.cells]
    )
    out = []
    for lr, lc in PYRAMID_LEVELS:
        lr = min(lr, spec.rows)
        lc = min(lc, spec.cols)
        r_edges = _block_edges(spec.rows, lr)
        c_edges = _block_edges(spec.cols, lc)
        for bi in range(lr):
            for bj in range(lc):
                block = idx[r_edges[bi]: r_edges[bi + 1], c_edges[bj]: c_edges[bj + 1]]
                counts = np.bincount(block.reshape(-1), minlength=len(OCCUPANCY_CLASSES))
                out.append(counts / block.size)
    return np.concatenate(out)


@dataclass(frozen=True, eq=False)
class PcaModel:
    mean: np.ndarray
    components: np.ndarray
    explained_variances: np.ndarray

    def __post_init__(self):
        mean = np.array(self.mean, dtype=float)
        comps = np.array(self.components, dtype=float)
        var = np.array(self.explained_variances, dtype=float)
        if comps.ndim != 2 or comps.shape[1] != mean.shape[0]:
            raise ValueError("component/mean dimension mismatch")
        if var.shape != (comps.shape[0],):
            raise ValueError("variance count does not match components")
        if np.any(var < 0) or np.any(np.diff(var) > 1e-12):
            raise ValueError("variances must be non-negative and non-increasing")
        gram = comps @ comps.T
        if not np.allclose(gram, np.eye(comps.shape[0]), atol=1e-8):
            raise ValueError("components are not orthonormal")
        for a in (mean, comps, var):
            a.setflags(write=False)
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "components", comps)
        object.__setattr__(self, "explained_variances", var)


def _orthogonal_unit(found: list[np.ndarray], n: int) -> np.ndarray:
    # deterministic vector orthogonal to everything found so far
    for j in range(n):
        v = np.zeros(n)
        v[j] = 1.0
        for u in found:
            v -= (u @ v) * u
        norm = np.linalg.norm(v)
        if norm > 1e-8:
            return v / norm
    raise ValueError("no orthogonal direction left")


def pca_fit(samples, k: int, tol: float = 1e-10, max_iter: int = 10_000) -> PcaModel:
    """Top-k principal components by power iteration with deflation."""
    x = np.asarray(samples, dtype=float)
    if x.ndim != 2 or x.shape[0] < 2:
        raise ValueError("need at least 2 samples")
    m, n = x.shape
    if not 1 <= k <= min(m, n):
        raise ValueError(f"k={k} out of range for {m} samples of dim {n}")
    mean = x.mean(axis=0)
    centered = x - mean
    cov = centered.T @ centered / (m - 1)

    rng = np.random.default_rng(0)
    components: list[np.ndarray] = []
    variances: list[float] = []
    deflated = cov.copy()
    for _ in range(k):
        if np.abs(deflated).max() < 1e-12:
            v = _orthogonal_unit(components, n)
            components.append(v)
            variances.append(0.0)
            continue
        v = rng.standard_normal(n)
        for u in components:
            v -= (u @ v) * u
        v /= np.linalg.norm(v)
        for _ in range(max_iter):
            w = deflated @ v
            for u in components:
                w -= (u @ w) * u
            norm = np.linalg.norm(w)
            if norm < 1e-14:
                break
            w /= norm
            if min(np.linalg.norm(w - v), np.linalg.norm(w + v)) < tol:
                v = w
                break
            v = w
        lam = max(float(v @ cov @ v), 0.0)
        components.append(v)
        variances.append(lam)
        deflated = deflated - lam * np.outer(v, v)

    order = np.argsort(-np.array(variances), kind="stable")
    comps = np.array([components[i] for i in order])
    var = np.array([variances[i] for i in order])
    return PcaModel(mean=mean, components=comps, explained_variances=var)


def pca_project(model: PcaModel, v: np.ndarray) -> np.ndarray:
    v = np.asarray(v, dtype=float)
    if v.shape != model.mean.shape:
        raise ValueError(f"vector dim {v.shape} does not match model {model.mean.shape}")
    return model.components @ (v - model.mean)


def load_precomputed(text: str) -> RoomFeature:
    """Read a feature file's text: header line ``dim N`` then N decimal floats.

    Errors say what is wrong and where, by value number from 1; the caller
    adds the file name.
    """
    tokens = text.split()
    if len(tokens) < 2 or tokens[0] != "dim":
        raise ValueError("feature file must start with a 'dim N' header")
    try:
        n = int(tokens[1])
    except ValueError:
        raise ValueError(f"bad dimension {tokens[1]!r} in feature header") from None
    if n < 1:
        raise ValueError(f"dimension must be positive, got {n}")
    vals = tokens[2:]
    if len(vals) != n:
        raise ValueError(f"feature file declares dim {n} but holds {len(vals)} values")
    arr = np.empty(n)
    for i, tok in enumerate(vals):  # in file order: the first bad value is named
        try:
            v = float(tok)
        except ValueError:
            raise ValueError(f"bad float value {i + 1}: {tok!r}") from None
        if not math.isfinite(v):
            raise ValueError(f"non-finite value {i + 1}: {tok}")
        arr[i] = v
    return RoomFeature(arr)


def save_precomputed(feature: RoomFeature, path) -> None:
    write_lines(path, [f"dim {feature.dim}",
                       *(repr(float(v)) for v in feature.values)])


def room_feature_from_layout(layout: LayoutMap,
                             pca: PcaModel | None = None) -> RoomFeature:
    """Occupancy pyramid, optionally reduced by ``pca``."""
    raw = extract_layout_features(layout)
    if pca is not None:
        raw = pca_project(pca, raw)
    return RoomFeature(raw)
