"""Loss-surface evaluation on grids and surface diagnostics.

evaluate_surface evaluates a fitted surrogate on a grid separably, from
per-axis kernel factors (surrogate.grid_values), with no N x M kernel
matrix.  make_report gives the diagnostics of one surface as a JSON-ready
dict.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .problem import GridSpec
# predict_values is held, not called: perfbench's TRACED wraps it in this module
from .surrogate import Surrogate, grid_values, predict_values


@dataclass(frozen=True)
class SurfaceGrid:
    """Values over a grid, stored (resolution, resolution) in C order.

    values[j, i] is the value at node (i, j), i.e. at (axis0[i], axis1[j]),
    so values.ravel() enumerates nodes in flat-index order.
    """

    grid: GridSpec
    values: np.ndarray

    def __post_init__(self):
        want = (self.grid.resolution, self.grid.resolution)
        if self.values.shape != want:
            raise ValueError(f"values shape {self.values.shape}, expected {want}")


def evaluate_surface(source, grid: GridSpec) -> SurfaceGrid:
    """Evaluate a surface source on every grid node.

    The source is a fitted Surrogate, evaluated by grid_values, or a
    callable taking an (n, 2) array of points and returning n values (e.g.
    the closed-form loss).
    """
    if isinstance(source, Surrogate):
        return SurfaceGrid(grid=grid, values=grid_values(source, grid))
    if not callable(source):
        raise TypeError(f"cannot evaluate a surface from {type(source).__name__}")
    pts = grid.points()
    flat = np.asarray(source(pts), dtype=np.float64)
    if flat.shape != (pts.shape[0],):
        raise ValueError(f"callable returned shape {flat.shape}, expected ({pts.shape[0]},)")
    return SurfaceGrid(grid=grid, values=flat.reshape(grid.resolution, grid.resolution))


def locate_min(surface: SurfaceGrid) -> tuple[np.ndarray, float]:
    """Node with the lowest value; ties resolved to the smallest flat index.

    The node is read off the two axes, points()[k] bit for bit, without
    building every point of the grid.
    """
    flat = surface.values.ravel()
    k = int(np.argmin(flat))
    j, i = divmod(k, surface.grid.resolution)
    return np.array([surface.grid.axis(0)[i], surface.grid.axis(1)[j]]), float(flat[k])


def count_local_minima(surface: SurfaceGrid) -> int:
    """Number of nodes strictly below all existing neighbours (8-connected)."""
    v = surface.values
    res = surface.grid.resolution
    padded = np.full((res + 2, res + 2), np.inf)
    padded[1:-1, 1:-1] = v
    neighbour_min = np.full_like(v, np.inf)
    for dj in (-1, 0, 1):
        for di in (-1, 0, 1):
            if dj or di:
                shifted = padded[1 + dj : 1 + dj + res, 1 + di : 1 + di + res]
                neighbour_min = np.minimum(neighbour_min, shifted)
    return int(np.sum(v < neighbour_min))


def negative_fraction(surface: SurfaceGrid) -> float:
    """Fraction of grid nodes with a strictly negative value."""
    return float(np.mean(surface.values < 0))


def surface_rmse(a: SurfaceGrid, b: SurfaceGrid) -> float:
    """Root-mean-square difference of two surfaces over the same grid."""
    if a.grid != b.grid:
        raise ValueError(f"grids differ: {a.grid} vs {b.grid}")
    d = a.values - b.values
    return float(np.sqrt(np.mean(d * d)))


def make_report(surface: SurfaceGrid, reference: SurfaceGrid | None = None) -> dict:
    """The standard diagnostics of one surface, ready for JSON.

    Keys in order: argmin, min_value, local_min_count, negative_fraction,
    and rmse_vs_reference only when a reference is given.
    """
    point, value = locate_min(surface)
    report = {
        "argmin": [float(point[0]), float(point[1])],
        "min_value": value,
        "local_min_count": count_local_minima(surface),
        "negative_fraction": negative_fraction(surface),
    }
    if reference is not None:
        report["rmse_vs_reference"] = surface_rmse(surface, reference)
    return report
