"""Basin counting for the acceptance gate.

`count_local_minima` counts nodes strictly below all their neighbours, so a
single basin whose bottom is two or four bitwise-tied nodes counts as none.
The helpers here count basins by flooding instead, so a plateau is one basin,
and can drop basins shallower than the depth the gradient data resolve.
"""

from __future__ import annotations

import math

import numpy as np

from gradsurf.analysis import SurfaceGrid
from gradsurf.problem import Dataset1D, GridSpec, Observations, full_batch_observations


def _neighbours(k: int, rows: int, cols: int):
    j, i = divmod(k, cols)
    for dj in (-1, 0, 1):
        for di in (-1, 0, 1):
            jj, ii = j + dj, i + di
            if (dj or di) and 0 <= jj < rows and 0 <= ii < cols:
                yield jj * cols + ii


def basin_depths(surface: SurfaceGrid) -> list[float]:
    """Depth of every basin of the surface, found by flooding it from below.

    Water rises through the node values one level at a time, nodes joining
    their 8-connected flooded neighbours.  A basin is born at each regional
    minimum: a connected set of equal nodes strictly below all its outer
    neighbours, so a plateau is one basin.  Where rising water joins two
    basins, the one with the higher floor ends, and its depth is that level
    minus its floor.  The basin that holds the global minimum never ends;
    its depth is inf.  Every finite depth is > 0.
    """
    values = surface.values
    rows, cols = values.shape
    flat = values.ravel()
    order = np.argsort(flat, kind="stable")
    parent = np.full(flat.size, -1, dtype=np.intp)  # -1: not yet flooded
    floor: dict[int, float | None] = {}  # root -> basin floor, None if not yet a basin
    depths: list[float] = []

    def find(k: int) -> int:
        root = k
        while parent[root] != root:
            root = parent[root]
        while parent[k] != root:
            parent[k], k = root, parent[k]
        return root

    def union(a: int, b: int, level: float):
        ra, rb = find(a), find(b)
        if ra == rb:
            return
        fa, fb = floor.pop(ra), floor.pop(rb)
        if fa is not None and fb is not None:
            depths.append(level - max(fa, fb))
            kept = min(fa, fb)
        else:
            kept = fa if fb is None else fb
        parent[rb] = ra
        floor[ra] = kept

    start = 0
    while start < flat.size:
        level = flat[order[start]]
        stop = start
        while stop < flat.size and flat[order[stop]] == level:
            stop += 1
        group = [int(k) for k in order[start:stop]]
        for k in group:
            parent[k] = k
            floor[k] = None
        for k in group:
            for nb in _neighbours(k, rows, cols):
                if parent[nb] != -1:
                    union(k, nb, float(level))
        for k in group:
            root = find(k)
            if floor[root] is None:  # touched no older basin: a regional minimum
                floor[root] = float(level)
        start = stop
    depths.extend(math.inf for _ in floor)
    return depths


def count_basins(surface: SurfaceGrid, resolution: float = 0.0) -> int:
    """Number of basins whose depth reaches `resolution`.

    The deepest basin always counts; at resolution 0 every basin counts.
    """
    return sum(depth >= resolution for depth in basin_depths(surface))


def gradient_resolution(observations: Observations, data: Dataset1D, grid: GridSpec) -> float:
    """sigma_g * h: the smallest height difference the gradient data resolve.

    sigma_g is the RMS, over the observation nodes and both components, of
    the observed batch gradient minus the full-batch gradient; h is the
    spacing of the training grid the observations sit on.  A gradient-only
    fit cannot tell a height difference below sigma_g * h between
    neighbouring training nodes from noise.
    """
    exact = full_batch_observations(grid, data)
    if not np.array_equal(observations.points, exact.points):
        raise ValueError("observations do not sit on the grid nodes in node order")
    sigma_g = float(np.sqrt(np.mean((observations.gradients - exact.gradients) ** 2)))
    h = (grid.upper[0] - grid.lower[0]) / (grid.resolution - 1)
    return sigma_g * h
