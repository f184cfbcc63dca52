"""Artifact serialization: surface and observation CSVs, JSON documents
and SVG heatmaps.

All text artifacts are UTF-8 with "\n" newlines.  Floats are written with
repr, i.e. the shortest decimal that round-trips to the same double, so a
read-back reproduces values bit-exactly.

The writers build no Python string per node.  A CSV writer takes up to
_BLOCK_ROWS rows at a time and formats each distinct value of the block
once (values are told apart by bits, so 0.0 and -0.0 keep their own texts):
_decimals finds repr's text of most doubles with array arithmetic, and repr
itself formats the rest.  One row writer serves the CSVs and the heatmap:
it concatenates zero-padded byte pieces (texts, hex colours and literals
such as "," and "\n") into one row per CSV row or heatmap rectangle, and
writes their nonzero bytes about _CHUNK_ROWS rows at a time.  A JSON
document is written in one call.
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
# CSV rows per deduplicated block: a whole 101 x 101 report surface, so a
# value repeated anywhere in it is formatted once
_BLOCK_ROWS = 1 << 14
# CSV rows per write, and distinct values per formatting pass: they bound
# the memory a writer holds beyond its input and its block's texts
_CHUNK_ROWS = 1 << 11
# the longest repr of a float64 or int64: -1.7976931348623157e+308
_TEXT_WIDTH = 24
# heatmap colours at the surface's minimum and maximum
_LOW = np.array((13, 8, 135))
_HIGH = np.array((240, 249, 33))


def _open_out(path):
    try:
        return open(path, "wb")
    except FileNotFoundError:
        Path(path).parent.mkdir(parents=True, exist_ok=True)
        return open(path, "wb")


def _texts(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(table, index): repr of values[k] is row index[k] of table, ASCII
    padded with zero bytes.

    values is a float or integer array, formatted as float64 or int64.
    Each distinct bit pattern is formatted once, so 0.0 and -0.0 keep their
    own texts: by _decimals where it can, by repr otherwise.
    """
    floats = values.dtype.kind == "f"
    values = values.ravel().astype(np.float64 if floats else np.int64, copy=False)
    distinct, index = _distinct(values)
    table = np.zeros((distinct.size, _TEXT_WIDTH), np.uint8)
    width = 1
    for start in range(0, distinct.size, _CHUNK_ROWS):
        chunk = distinct[start : start + _CHUNK_ROWS]
        texts = table[start : start + _CHUNK_ROWS]
        rest = np.arange(chunk.size)
        if floats and chunk.size >= _DECIMALS_MIN:
            rest = rest[~_decimals(chunk, texts)]
        if rest.size:
            # repr of a list formats one element at a time; ", " is in no repr
            reprs = np.array(repr(chunk[rest].tolist())[1:-1].encode().split(b", "), "S")
            texts[rest, : reprs.itemsize] = reprs.view(np.uint8).reshape(rest.size, -1)
        width = max(width, np.count_nonzero(texts.any(axis=0)))
    return table[:, :width], index


def _distinct(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(distinct, index): values[k] has the bits of distinct[index[k]].

    Equal values are adjacent in float order, and each run of equal bits is
    one distinct value.  The sort's arrays are freed on return, before any
    text is formatted.
    """
    order = np.argsort(values.astype(np.float64, copy=False))
    bits = values.view(np.int64)[order]
    first = np.empty(bits.size, bool)
    first[:1] = True
    np.not_equal(bits[1:], bits[:-1], out=first[1:])
    index = np.empty(bits.size, np.intp)
    index[order] = np.cumsum(first) - 1
    return values[order[first]], index


# _decimals finds repr's digits of x with 1e-4 <= |x| < 1e15 in float64
# arithmetic.  For p = 15, 16 and 17 digits and k = p - 1 - floor(log10|x|),
# |x| * 10**k (with 10**k <= 1e20, an exact double) is split exactly into
# hi + lo by Dekker's product, then rounded to the integer r.  r / 10**k
# reads back as x when it lies strictly inside the half-ulp interval around
# |x|, so repr's digits are those of r for the least such p; at p = 15 at
# most one p-digit decimal lies inside, so trailing zeros of r are dropped,
# and at 16 or 17 two may, and repr takes the nearer one, which r is.  (A
# power of two has a lopsided interval, but in this range it is a decimal
# of at most 15 digits, which r then is.)  The sums carry a rounding error
# below 1e-13; a value whose r lies within _TIE_MARGIN of a rounding tie or
# of the interval's ends is left to repr.
_SPLIT = 2.0**27 + 1  # Veltkamp's splitter: 26-bit high and low halves
_POW10 = 10.0 ** np.arange(21)
_POW10_INT = 10 ** np.arange(18, dtype=np.int64)
_TIE_MARGIN = 1e-9
# below this many values, repr costs less than _decimals' fixed overhead
_DECIMALS_MIN = 512


def _split(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    c = _SPLIT * x
    high = c - (c - x)
    return high, x - high


def _rounded(a, a_split, half, k, digits):
    """(r, inside, sure) for a * 10**k, as the comment above describes."""
    b = _POW10[k]
    b_high, b_low = _split(b)
    a_high, a_low = a_split
    hi = a * b
    lo = ((a_high * b_high - hi) + a_high * b_low + a_low * b_high) + a_low * b_low
    r_hi = np.rint(hi)
    s = (hi - r_hi) + lo
    q = np.rint(s)
    d = np.abs(s - q)
    bound = half * b
    r = r_hi.astype(np.int64) + q.astype(np.int64)
    sure = (np.abs(d - 0.5) > _TIE_MARGIN) & (np.abs(d - bound) > _TIE_MARGIN)
    sure &= (r >= _POW10_INT[digits - 1]) & (r <= _POW10_INT[digits])
    return r, d < bound, sure


def _decimals(x: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Write repr(x[k]) into row k of out, ASCII padded with zero bytes,
    where _decimals can find it; returns the mask of the rows written."""
    a = np.abs(x)
    with np.errstate(divide="ignore", invalid="ignore"):
        e = np.floor(np.log10(a))
    done = (e >= -4) & (e <= 14)
    rows = np.flatnonzero(done)
    a, e = a[rows], e[rows].astype(np.int64)
    a_split = _split(a)
    # the gap to the next double up, as np.spacing(a) gives it, from
    # arithmetic the writers use anyway: np.spacing's code costs peak RSS
    half = ((a.view(np.int64) + 1).view(np.float64) - a) / 2
    # from 17 digits down, each p whose decimal reads back replaces the last
    m, inside, sure = _rounded(a, a_split, half, 16 - e, 17)
    p = np.full(a.size, 17)
    sure &= inside
    for digits in (16, 15):
        r, inside, certain = _rounded(a, a_split, half, digits - 1 - e, digits)
        m[inside] = r[inside]
        p[inside] = digits
        sure = certain & (inside | sure)
    # r = 10**p: the decimal has one digit, one place higher
    carry = m == _POW10_INT[p]
    m[carry] //= 10
    decpt = e + 1 + carry
    while (zeros := (m % 10 == 0) & (p > 1)).any():
        m[zeros] //= 10
        p[zeros] -= 1
    done[rows] = sure
    rows = rows[sure]
    _fixed_notation(m[sure], p[sure], decpt[sure], np.signbit(x[rows]), out, rows)
    return done


def _fixed_notation(m, p, decpt, negative, out, rows) -> None:
    """Write into out[rows] repr's text of the decimals 0.d * 10**decpt,
    where d is the p digits of m, -3 <= decpt <= 16, negated where
    negative."""
    # led by four "0"s, the digits of m left-aligned to 17 places; the
    # leading "0"s are the integer part of 0.<digits> * 10**decpt, decpt < 1
    digits = np.full((m.size, 21), ord("0"), np.uint8)
    high, low = np.divmod(m * _POW10_INT[17 - p], 10**9)
    for part, places, first in ((high, 8, 4), (low, 9, 12)):
        part = part.astype(np.uint32)
        for c in range(places):
            digit = part // 10 ** (places - 1 - c) % 10 + ord("0")
            digits[:, first + c] = digit.astype(np.uint8)
    # the integer part, ".", then at least one fraction digit
    whole = np.maximum(decpt, 1)
    length = negative + whole + 1 + np.maximum(p - decpt, 1)
    texts = np.zeros((m.size, _TEXT_WIDTH), np.uint8)
    # runs of rows that share sign and decpt share a layout
    group = negative * 32 + decpt
    starts = np.flatnonzero(np.diff(group, prepend=99, append=99))
    for start, stop in zip(starts[:-1].tolist(), starts[1:].tolist()):
        sign, point, width = int(negative[start]), int(decpt[start]), int(whole[start])
        text = texts[start:stop]
        text[:, :sign] = ord("-")
        text[:, sign : sign + width] = digits[start:stop, 4 + point - width : 4 + point]
        text[:, sign + width] = ord(".")
        fraction = min(_TEXT_WIDTH - sign - width - 1, 17 - point)
        text[:, sign + width + 1 : sign + width + 1 + fraction] = digits[
            start:stop, 4 + point : 4 + point + fraction
        ]
    texts[np.arange(_TEXT_WIDTH) >= length[:, None]] = 0
    out[rows] = texts


def _write_rows(f, pieces) -> None:
    """Write rows, each the concatenation of pieces: bytes literals and
    zero-padded byte arrays, broadcast to one shape but the last axis; the
    zero bytes are not written."""
    pieces = [np.frombuffer(p, np.uint8) if isinstance(p, bytes) else p for p in pieces]
    shape = np.broadcast_shapes(*(p.shape[:-1] for p in pieces))
    rows = np.concatenate([np.broadcast_to(p, (*shape, p.shape[-1])) for p in pieces], axis=-1)
    f.write(rows[rows != 0])


def _write_csv_rows(f, fields) -> None:
    """Write CSV rows: the fields, pieces as _write_rows takes them, joined
    by "," and ended by "\n"."""
    _write_rows(f, [p for field in fields for p in (b",", field)][1:] + [b"\n"])


def write_surface_csv(surface: SurfaceGrid, path) -> None:
    """One row per grid node in flat order: w1,w2,value."""
    res = surface.grid.resolution
    w1, i_index = _texts(surface.grid.axis(0))
    w2, j_index = _texts(surface.grid.axis(1))
    w1, w2 = w1[i_index], w2[j_index][:, None]
    values = np.asarray(surface.values)
    # whole grid rows per block and per write; along a grid row w2 is fixed
    # and w1 runs fastest
    block, chunk = (max(1, rows // res) for rows in (_BLOCK_ROWS, _CHUNK_ROWS))
    with _open_out(path) as f:
        f.write(SURFACE_HEADER.encode() + b"\n")
        for j in range(0, res, block):
            table, index = _texts(values[j : j + block])
            index, w2s = index.reshape(-1, res), w2[j : j + block]
            for k in range(0, len(index), chunk):
                _write_csv_rows(f, (w1, w2s[k : k + chunk], table[index[k : k + chunk]]))


def _read_rows(path, header: str, fields) -> list[tuple]:
    """The rows under a CSV's header, each field parsed by its entry of
    fields; a bad header, field count or field raises a ValueError that
    starts with path:line:.  Bytes that are not UTF-8 raise one that
    starts with path: alone, as the text layer decodes ahead of the line
    the reader is on."""
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
        except UnicodeDecodeError as e:
            raise ValueError(f"{path}: not UTF-8 text: {e.reason}") from None
        except (ValueError, csv.Error) as e:
            raise ValueError(f"{path}:{max(reader.line_num, 1)}: {e}") from None
    return rows


def read_surface_csv(path) -> SurfaceGrid:
    """Parse a surface CSV back into a SurfaceGrid.

    Every value must be finite, and the node coordinates must be a
    GridSpec's points() bit for bit (GridSpec.of), as write_surface_csv
    writes them.  A file that is neither raises a ValueError that starts
    with path:, as a bad row's starts with path:line:.
    """
    rows = _read_rows(path, SURFACE_HEADER, (float, float, float))
    values = np.array([r[2] for r in rows])
    if not np.isfinite(values).all():
        raise ValueError(f"{path}: surface values must be finite")
    grid = GridSpec.of(np.array([r[:2] for r in rows]))
    if grid is None:
        raise ValueError(f"{path}: {len(rows)} nodes do not form a square grid, w1 fastest")
    return SurfaceGrid(grid=grid, values=values.reshape(grid.resolution, -1))


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
    values = surface.values.ravel()
    if not np.isfinite(values).all():
        raise ValueError("cannot colour a surface with non-finite values")
    vmin = float(values.min())
    span = float(values.max()) - vmin
    t = np.zeros_like(values) if span == 0 else (values - vmin) / span
    # np.rint rounds half to even, as Python's round does; a node's colour
    # is its three bytes in lowercase hex; one channel at a time holds one
    # float per node, not three
    rgb = np.empty((values.size, 3), np.uint8)
    for channel, (low, high) in enumerate(zip(_LOW, _HIGH)):
        level = t * (high - low)
        level += low
        rgb[:, channel] = np.rint(level, out=level).astype(np.uint8)
    colours = np.frombuffer(rgb.tobytes().hex().encode(), np.uint8).reshape(res, res, 6)
    # grid row j is drawn at y = (res - 1 - j) * px
    x, i_index = _texts(np.arange(res) * px)
    y, j_index = _texts((res - 1 - np.arange(res)) * px)
    x, y = x[i_index], y[j_index][:, None]
    fill = f'" width="{px}" height="{px}" fill="#'.encode()
    chunk = max(1, _CHUNK_ROWS // res)
    j, i = divmod(int(np.argmin(values)), res)
    inset = px // 6
    side = px - 2 * inset
    with _open_out(path) as f:
        f.write(
            f'<svg xmlns="http://www.w3.org/2000/svg" width="{size}" height="{size}" '
            f'viewBox="0 0 {size} {size}">\n'.encode()
        )
        for k in range(0, res, chunk):
            rects = (b'<rect x="', x, b'" y="', y[k : k + chunk], fill, colours[k : k + chunk])
            _write_rows(f, rects + (b'"/>\n',))
        f.write(
            f'<rect x="{i * px + inset}" y="{(res - 1 - j) * px + inset}" '
            f'width="{side}" height="{side}" fill="#ff0000"/>\n</svg>\n'.encode()
        )


def write_observations_csv(observations: Observations, path) -> None:
    """One row per observation: w1,w2,b,loss,g1,g2."""
    floats = np.column_stack((observations.points, observations.values, observations.gradients))
    sizes = observations.batch_sizes
    with _open_out(path) as f:
        f.write(OBSERVATIONS_HEADER.encode() + b"\n")
        for start in range(0, sizes.size, _BLOCK_ROWS):
            table, index = _texts(floats[start : start + _BLOCK_ROWS])
            b, b_index = _texts(sizes[start : start + _BLOCK_ROWS])
            index = index.reshape(-1, 5)
            for k in range(0, len(index), _CHUNK_ROWS):
                w1, w2, loss, g1, g2 = table[index[k : k + _CHUNK_ROWS].T]
                _write_csv_rows(f, (w1, w2, b[b_index[k : k + _CHUNK_ROWS]], loss, g1, g2))


def read_observations_csv(path) -> Observations:
    """Parse an observations CSV; the record checks the values it gets, and
    a file it rejects raises a ValueError that starts with path:."""
    rows = _read_rows(path, OBSERVATIONS_HEADER, (float, float, int, float, float, float))
    try:
        return Observations(
            points=np.reshape([r[:2] for r in rows], (-1, 2)),
            values=[r[3] for r in rows],
            gradients=np.reshape([r[4:] for r in rows], (-1, 2)),
            batch_sizes=[r[2] for r in rows],
        )
    except ValueError as e:
        raise ValueError(f"{path}: {e}") from None


def surrogate_json(surrogate) -> dict:
    """JSON-ready description of a fitted surrogate and its training MSE."""
    return {
        "mode": surrogate.mode.value,
        "shape": surrogate.params.shape,
        "offset": surrogate.offset,
        "training_mse": surrogate.mse,
        "centres": [[float(a), float(b)] for a, b in surrogate.centres],
        "coefficients": [float(c) for c in surrogate.coefficients],
    }


def write_json(obj, path) -> None:
    with _open_out(path) as f:
        f.write((json.dumps(obj, indent=2) + "\n").encode())


def read_json(path):
    with open(path, encoding="utf-8") as f:
        return json.load(f)
