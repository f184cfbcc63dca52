"""Artifact serialization: surface and observation CSVs, JSON documents.

All text artifacts are UTF-8 with "\n" newlines.  Floats are written with
repr, i.e. the shortest decimal that round-trips to the same double, so a
read-back reproduces values bit-exactly.
"""

from __future__ import annotations

import csv
import json
from pathlib import Path

import numpy as np

from .analysis import SurfaceGrid
from .problem import GridSpec, Observations

SURFACE_HEADER = "w1,w2,value"
OBSERVATIONS_HEADER = "w1,w2,b,loss,g1,g2"


def _open_out(path):
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    return open(path, "w", encoding="utf-8", newline="\n")


def write_surface_csv(surface: SurfaceGrid, path) -> None:
    """One row per grid node in flat order: w1,w2,value."""
    pts = surface.grid.points().tolist()
    flat = surface.values.ravel().tolist()
    with _open_out(path) as f:
        f.write(SURFACE_HEADER + "\n")
        for (w1, w2), v in zip(pts, flat):
            f.write(f"{w1!r},{w2!r},{v!r}\n")


def read_surface_csv(path) -> SurfaceGrid:
    """Parse a surface CSV back into a SurfaceGrid.

    The grid is reconstructed from the corner nodes and row count; the node
    coordinates in the file must match that grid exactly.
    """
    with open(path, encoding="utf-8", newline="") as f:
        reader = csv.reader(f)
        header = next(reader, None)
        if header != SURFACE_HEADER.split(","):
            raise ValueError(f"unexpected surface header {header}")
        rows = [(float(a), float(b), float(c)) for a, b, c in reader]
    n = len(rows)
    res = int(round(n**0.5))
    if res < 2 or res * res != n:
        raise ValueError(f"{n} rows do not form a square grid")
    lower = (rows[0][0], rows[0][1])
    upper = (rows[-1][0], rows[-1][1])
    grid = GridSpec(lower=lower, upper=upper, resolution=res)
    coords = np.array([(r[0], r[1]) for r in rows])
    if not np.array_equal(coords, grid.points()):
        raise ValueError("node coordinates are not the expected grid")
    values = np.array([r[2] for r in rows]).reshape(res, res)
    return SurfaceGrid(grid=grid, values=values)


def write_observations_csv(observations: Observations, path) -> None:
    """One row per observation: w1,w2,b,loss,g1,g2."""
    rows = zip(
        observations.points.tolist(),
        observations.batch_sizes.tolist(),
        observations.values.tolist(),
        observations.gradients.tolist(),
    )
    with _open_out(path) as f:
        f.write(OBSERVATIONS_HEADER + "\n")
        for (w1, w2), b, loss, (g1, g2) in rows:
            f.write(f"{w1!r},{w2!r},{b},{loss!r},{g1!r},{g2!r}\n")


def read_observations_csv(path) -> Observations:
    """Parse an observations CSV; the record checks the values it gets."""
    with open(path, encoding="utf-8", newline="") as f:
        reader = csv.reader(f)
        header = next(reader, None)
        if header != OBSERVATIONS_HEADER.split(","):
            raise ValueError(f"unexpected observations header {header}")
        points, batch_sizes, values, gradients = [], [], [], []
        for w1, w2, b, loss, g1, g2 in reader:
            points.append((float(w1), float(w2)))
            batch_sizes.append(int(b))
            values.append(float(loss))
            gradients.append((float(g1), float(g2)))
    return Observations(
        points=np.reshape(points, (-1, 2)),
        values=values,
        gradients=np.reshape(gradients, (-1, 2)),
        batch_sizes=batch_sizes,
    )


def surrogate_json(surrogate, mse: float) -> dict:
    """JSON-ready description of a fitted surrogate and its training MSE."""
    return {
        "mode": surrogate.mode.value,
        "shape": surrogate.params.shape,
        "offset": surrogate.offset,
        "training_mse": mse,
        "centres": [[float(a), float(b)] for a, b in surrogate.centres],
        "coefficients": [float(c) for c in surrogate.coefficients],
    }


def write_json(obj, path) -> None:
    with _open_out(path) as f:
        json.dump(obj, f, indent=2)
        f.write("\n")


def read_json(path):
    with open(path, encoding="utf-8") as f:
        return json.load(f)
