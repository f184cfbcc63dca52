"""Static SVG heatmaps of surface grids.

One rectangle per grid node, coloured by linear interpolation between
rgb(13, 8, 135) at the grid minimum and rgb(240, 249, 33) at the maximum
(a constant surface renders entirely at the low colour).  The vertical
axis points up: larger w2 is drawn higher.  An optional marker draws a
red square on the given node, conventionally the lowest sampled value.
"""

from __future__ import annotations

from itertools import chain, repeat

import numpy as np

from .analysis import SurfaceGrid
from .artifacts import _open_out

_LOW = np.array((13, 8, 135))
_HIGH = np.array((240, 249, 33))


def _node_index(grid, point, axis: int) -> int:
    step = (grid.upper[axis] - grid.lower[axis]) / (grid.resolution - 1)
    k = int(round((float(point[axis]) - grid.lower[axis]) / step))
    return min(max(k, 0), grid.resolution - 1)


def render_heatmap_svg(surface: SurfaceGrid, path, marker=None) -> None:
    """Write surface as an SVG heatmap; marker is an optional (w1, w2) node."""
    grid = surface.grid
    res = grid.resolution
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
        if marker is not None:
            i = _node_index(grid, marker, 0)
            j = _node_index(grid, marker, 1)
            inset = px // 6
            side = px - 2 * inset
            x = i * px + inset
            y = (res - 1 - j) * px + inset
            f.write(f'<rect x="{x}" y="{y}" width="{side}" height="{side}" fill="#ff0000"/>\n')
        f.write("</svg>\n")
