"""Artifact serialization: surface and observation CSVs, JSON documents
and SVG heatmaps.

All text artifacts are UTF-8 with "\n" newlines.  Floats are written with
repr, i.e. the shortest decimal that round-trips to the same double, so a
read-back reproduces values bit-exactly.  The CSV writers and the heatmap
make one write per block of rows: a grid row, or up to _BLOCK_ROWS
observations.
"""

from __future__ import annotations

import csv
import json
from itertools import chain, islice, repeat
from pathlib import Path

import numpy as np

from .analysis import SurfaceGrid
from .problem import GridSpec, Observations

SURFACE_HEADER = "w1,w2,value"
OBSERVATIONS_HEADER = "w1,w2,b,loss,g1,g2"
# observation rows per write; a study cell has 625
_BLOCK_ROWS = 1024
# heatmap colours at the surface's minimum and maximum
_LOW = np.array((13, 8, 135))
_HIGH = np.array((240, 249, 33))


def _open_out(path):
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    return open(path, "w", encoding="utf-8", newline="\n")


def write_surface_csv(surface: SurfaceGrid, path) -> None:
    """One row per grid node in flat order: w1,w2,value."""
    w1s = [repr(w) for w in surface.grid.axis(0).tolist()]
    w2s = [repr(w) for w in surface.grid.axis(1).tolist()]
    with _open_out(path) as f:
        f.write(SURFACE_HEADER + "\n")
        # one write per grid row: w2 is fixed along it, w1 runs fastest
        for w2, row in zip(w2s, surface.values.tolist()):
            f.write("".join(f"{w1},{w2},{v!r}\n" for w1, v in zip(w1s, row)))


def _read_rows(path, header: str, fields) -> list[tuple]:
    """The rows under a CSV's header, each field parsed by its entry of
    fields; a bad header, field count or field raises a ValueError that
    starts with path:line:."""
    with open(path, encoding="utf-8", newline="") as f:
        reader = csv.reader(f)
        try:
            if (got := next(reader, None)) != header.split(","):
                raise ValueError(f"unexpected header {got}, expected {header}")
            rows = []
            for row in reader:
                if len(row) != len(fields):
                    raise ValueError(f"{len(row)} fields, expected {len(fields)}")
                rows.append(tuple(parse(v) for parse, v in zip(fields, row)))
        except (ValueError, csv.Error) as e:
            raise ValueError(f"{path}:{max(reader.line_num, 1)}: {e}") from None
    return rows


def read_surface_csv(path) -> SurfaceGrid:
    """Parse a surface CSV back into a SurfaceGrid.

    The grid is reconstructed from the corner nodes and row count; the node
    coordinates in the file must match that grid exactly, and every value
    must be finite.
    """
    rows = _read_rows(path, SURFACE_HEADER, (float, float, float))
    n = len(rows)
    res = int(round(n**0.5))
    if res < 2 or res * res != n:
        raise ValueError(f"{n} rows do not form a square grid")
    grid = GridSpec(lower=rows[0][:2], upper=rows[-1][:2], resolution=res)
    coords = np.array([r[:2] for r in rows])
    if not np.array_equal(coords, grid.points()):
        raise ValueError("node coordinates are not the expected grid")
    values = np.array([r[2] for r in rows]).reshape(res, res)
    if not np.isfinite(values).all():
        raise ValueError("surface values must be finite")
    return SurfaceGrid(grid=grid, values=values)


def render_heatmap_svg(surface: SurfaceGrid, path) -> None:
    """Write surface as an SVG heatmap with its lowest node marked.

    One rectangle per grid node, coloured by linear interpolation between
    _LOW at the minimum and _HIGH at the maximum (a constant surface is all
    _LOW).  The vertical axis points up: larger w2 is drawn higher.  A red
    square marks the lowest node, the first in flat order on ties, as
    analysis.locate_min picks it.
    """
    res = surface.grid.resolution
    px = max(2, 600 // res)
    size = px * res
    values = surface.values
    if not np.isfinite(values).all():
        raise ValueError("cannot colour a surface with non-finite values")
    vmin = float(values.min())
    span = float(values.max()) - vmin
    t = np.zeros_like(values) if span == 0 else (values - vmin) / span
    # np.rint rounds half to even, as Python's round does; the three bytes
    # of a node in hex are its colour, six characters per node
    rgb = np.rint(_LOW + t[..., None] * (_HIGH - _LOW)).astype(np.uint8)
    colours = np.array([rgb.tobytes().hex()]).view("U6").reshape(res, res).tolist()
    heads = [f'<rect x="{i * px}" y="' for i in range(res)]
    tail = f'" width="{px}" height="{px}" fill="#'
    end = repeat('"/>\n')
    with _open_out(path) as f:
        f.write(
            f'<svg xmlns="http://www.w3.org/2000/svg" width="{size}" height="{size}" '
            f'viewBox="0 0 {size} {size}">\n'
        )
        # one write per grid row j, drawn at height (res - 1 - j) * px
        for j, row in enumerate(colours):
            mid = repeat(f"{(res - 1 - j) * px}{tail}")
            f.write("".join(chain.from_iterable(zip(heads, mid, row, end))))
        j, i = divmod(int(np.argmin(values)), res)
        inset = px // 6
        side = px - 2 * inset
        x = i * px + inset
        y = (res - 1 - j) * px + inset
        f.write(f'<rect x="{x}" y="{y}" width="{side}" height="{side}" fill="#ff0000"/>\n')
        f.write("</svg>\n")


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
        # one write per block of rows
        while block := "".join(
            f"{w1!r},{w2!r},{b},{loss!r},{g1!r},{g2!r}\n"
            for (w1, w2), b, loss, (g1, g2) in islice(rows, _BLOCK_ROWS)
        ):
            f.write(block)


def read_observations_csv(path) -> Observations:
    """Parse an observations CSV; the record checks the values it gets."""
    rows = _read_rows(path, OBSERVATIONS_HEADER, (float, float, int, float, float, float))
    return Observations(
        points=np.reshape([r[:2] for r in rows], (-1, 2)),
        values=[r[3] for r in rows],
        gradients=np.reshape([r[4:] for r in rows], (-1, 2)),
        batch_sizes=[r[2] for r in rows],
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
