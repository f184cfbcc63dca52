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
from gradsurf.problem import GridSpec, Observations


def _neighbour_lists(rows: int, cols: int) -> list[list[int]]:
    """The 8-connected neighbours of every node of a rows x cols grid, by flat index."""
    lists = []
    for j in range(rows):
        for i in range(cols):
            lists.append(
                [
                    jj * cols + ii
                    for jj in range(max(j - 1, 0), min(j + 2, rows))
                    for ii in range(max(i - 1, 0), min(i + 2, cols))
                    if (jj, ii) != (j, i)
                ]
            )
    return lists


def basin_depths(surface: SurfaceGrid) -> list[float]:
    """Depth of every basin of the surface, found by flooding it from below.

    Water rises through the node values one level at a time, nodes joining
    their 8-connected flooded neighbours.  A basin is born at each regional
    minimum: a connected set of equal nodes strictly below all its outer
    neighbours, so a plateau is one basin.  Where rising water joins two
    basins, the one with the higher floor ends, and its depth is that level
    minus its floor.  The basin that holds the global minimum never ends;
    its depth is inf.  Every finite depth is > 0.  The flood runs on plain
    lists, which Python indexes much faster than numpy arrays.
    """
    values = surface.values
    rows, cols = values.shape
    flat = values.ravel().tolist()
    order = np.argsort(values.ravel(), kind="stable").tolist()
    neighbours = _neighbour_lists(rows, cols)
    parent = [-1] * len(flat)  # -1: not yet flooded
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
    while start < len(flat):
        level = flat[order[start]]
        stop = start
        while stop < len(flat) and flat[order[stop]] == level:
            stop += 1
        group = order[start:stop]
        for k in group:
            parent[k] = k
            floor[k] = None
        for k in group:
            for nb in neighbours[k]:
                if parent[nb] != -1:
                    union(k, nb, level)
        for k in group:
            root = find(k)
            if floor[root] is None:  # touched no older basin: a regional minimum
                floor[root] = level
        start = stop
    depths.extend(math.inf for _ in floor)
    return depths


def count_basins(surface: SurfaceGrid, resolution: float = 0.0) -> int:
    """Number of basins whose depth reaches `resolution`.

    The deepest basin always counts; at resolution 0 every basin counts.
    """
    return sum(depth >= resolution for depth in basin_depths(surface))


def gradient_resolution(observations: Observations, exact: Observations, grid: GridSpec) -> float:
    """sigma_g * h: the smallest height difference the gradient data resolve.

    sigma_g is the RMS, over the observation nodes and both components, of
    the observed batch gradient minus the full-batch gradient in exact (the
    grid's `full_batch_observations`, built once per grid by the caller); h
    is the spacing of the training grid the observations sit on.  A
    gradient-only fit cannot tell a height difference below sigma_g * h
    between neighbouring training nodes from noise.
    """
    if not np.array_equal(observations.points, exact.points):
        raise ValueError("observations do not sit on the grid nodes in node order")
    sigma_g = float(np.sqrt(np.mean((observations.gradients - exact.gradients) ** 2)))
    h = (grid.upper[0] - grid.lower[0]) / (grid.resolution - 1)
    return sigma_g * h
