"""Quadratic curve-fitting problem whose loss surface gets surveyed.

The problem is fixed: the data are the DATASET_SIZE equispaced points of
y = a2*x**2 + a1*x on DATASET_INTERVAL, with (a2, a1) = COEFFICIENTS, and
the weights are surveyed over the box BOX x BOX.  The model is
f(x; w) = w1*x**2 + w2*x, so the full-batch MSE loss is an exact convex
quadratic in w with its minimum at (a2, a1).  Mini-batch losses and
gradients evaluated on a weight grid are the raw material for surrogate
fitting; the closed-form full-batch loss serves as reference surface.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .rng import Lanes, Stream, derive_keys

DATASET_SIZE = 121
DATASET_INTERVAL = (-2.0, 2.0)
COEFFICIENTS = (0.1, 0.1)
# both weights range over this interval
BOX = (-2.0, 2.0)


@dataclass(frozen=True)
class Dataset1D:
    """Sampled curve: xs, ys = a2*xs**2 + a1*xs, and the generating (a2, a1)."""

    xs: np.ndarray
    ys: np.ndarray
    coefficients: tuple[float, float]


@dataclass(frozen=True)
class MiniBatchPolicy:
    """Batch sizes are drawn uniformly from {1, ..., max_size}."""

    max_size: int

    def __post_init__(self):
        if self.max_size < 1:
            raise ValueError(f"max_size must be >= 1, got {self.max_size}")


@dataclass(frozen=True)
class Observations:
    """N loss observations, one row each: the weight point, the loss value,
    its gradient and the batch size it was observed with.

    points and gradients are (N, d) float arrays, values is (N,) and
    batch_sizes an (N,) integer array.  The record checks itself once, on
    construction: N >= 1, matching shapes, finite floats, batch sizes >= 1.
    """

    points: np.ndarray
    values: np.ndarray
    gradients: np.ndarray
    batch_sizes: np.ndarray

    def __post_init__(self):
        for name in ("points", "values", "gradients"):
            object.__setattr__(self, name, np.asarray(getattr(self, name), dtype=np.float64))
        object.__setattr__(self, "batch_sizes", np.asarray(self.batch_sizes))
        if self.values.ndim != 1 or self.values.size == 0:
            raise ValueError(f"need a nonempty (N,) array of values, got shape {self.values.shape}")
        n = self.values.size
        if not (
            self.points.ndim == 2
            and self.points.shape[0] == n
            and self.gradients.shape == self.points.shape
            and self.batch_sizes.shape == (n,)
        ):
            raise ValueError(
                f"shape mismatch: points {self.points.shape}, values {self.values.shape}, "
                f"gradients {self.gradients.shape}, batch_sizes {self.batch_sizes.shape}"
            )
        if not all(np.isfinite(a).all() for a in (self.points, self.values, self.gradients)):
            raise ValueError("observations must be finite")
        if self.batch_sizes.dtype.kind not in "iu" or self.batch_sizes.min() < 1:
            raise ValueError("batch sizes must be integers >= 1")


@dataclass(frozen=True)
class GridSpec:
    """Full-factorial grid over a weight-space box.

    Node (i, j) sits at lower + (i, j) * (upper - lower) / (resolution - 1).
    Flat enumeration is row-major with the first coordinate fastest, so node
    (i, j) has flat index j * resolution + i.
    """

    lower: tuple[float, float]
    upper: tuple[float, float]
    resolution: int

    def __post_init__(self):
        if self.resolution < 2:
            raise ValueError(f"resolution must be >= 2, got {self.resolution}")
        if not all(lo < hi for lo, hi in zip(self.lower, self.upper)):
            raise ValueError(f"need lower < upper, got {self.lower} vs {self.upper}")

    def axis(self, k: int) -> np.ndarray:
        return np.linspace(self.lower[k], self.upper[k], self.resolution)

    def points(self) -> np.ndarray:
        """All nodes as an (resolution**2, 2) array in flat-index order."""
        w1, w2 = np.meshgrid(self.axis(0), self.axis(1))
        return np.stack([w1.ravel(), w2.ravel()], axis=1)

    @classmethod
    def of(cls, points) -> GridSpec | None:
        """The grid whose points() are points bit for bit, else None.

        The corners and the row count give the only candidate.  Bitwise, so
        a grid's differences are those of the points, signed zeros
        included; another row order, a missing or moved node, a rectangular
        or non-uniform grid are not one.
        """
        n = points.shape[0] if points.ndim == 2 and points.shape[1] == 2 else 0
        res = math.isqrt(n)
        if res < 2 or res * res != n:
            return None
        lower, upper = tuple(points[0].tolist()), tuple(points[-1].tolist())
        if not all(lo < hi for lo, hi in zip(lower, upper)):
            return None
        grid = cls(lower, upper, res)
        return grid if grid.points().tobytes() == points.tobytes() else None


def generate_full_batch() -> Dataset1D:
    """The study's dataset: DATASET_SIZE equispaced xs on DATASET_INTERVAL and
    ys = a2*xs**2 + a1*xs, with (a2, a1) = COEFFICIENTS."""
    a2, a1 = COEFFICIENTS
    xs = np.linspace(*DATASET_INTERVAL, DATASET_SIZE)
    return Dataset1D(xs=xs, ys=a2 * xs**2 + a1 * xs, coefficients=COEFFICIENTS)


def model_predict(w, xs) -> np.ndarray:
    """f(x; w) = w1*x**2 + w2*x, vectorized over xs."""
    w = np.asarray(w, dtype=np.float64)
    xs = np.asarray(xs, dtype=np.float64)
    return w[0] * xs**2 + w[1] * xs


def _batch_losses(points: np.ndarray, data: Dataset1D, batches: np.ndarray):
    """Loss and gradient at each point on its row of dataset indices.

    points is (m, 2) and batches (m, b).  With e = f(x; w) - y over a row,
    the loss is mean(e**2) and the gradient 2 * (mean(e * x**2), mean(e * x)).
    """
    xs, ys = data.xs[batches], data.ys[batches]
    e = model_predict(points.T[:, :, None], xs) - ys
    gradients = np.stack([np.mean(e * xs**2, axis=1), np.mean(e * xs, axis=1)], axis=1)
    return np.mean(e**2, axis=1), 2.0 * gradients


def _observe(points: np.ndarray, data: Dataset1D, sizes: np.ndarray, draws: np.ndarray):
    """Observations with node k's batch the first sizes[k] indices of draws[k].

    Each batch is sorted ascending; nodes with one batch size are evaluated
    as one group.
    """
    values = np.empty(points.shape[0])
    gradients = np.empty_like(points)
    # np.bincount, not np.unique, which imports numpy.ma (about 1 MiB)
    for b in np.flatnonzero(np.bincount(sizes)):
        rows = np.flatnonzero(sizes == b)
        batches = np.sort(draws[rows, :b], axis=1)
        values[rows], gradients[rows] = _batch_losses(points[rows], data, batches)
    return Observations(points, values, gradients, sizes)


# index-pool entries per block of nodes in the sampler's Fisher-Yates
_POOL_ENTRIES = 1 << 20


def _draw_batches(keys: np.ndarray, max_size: int, n: int):
    """Batch size and batch indices for the stream of each key.

    Stream k draws b ~ U{1..max_size}, then b distinct indices of range(n)
    by partial Fisher-Yates, as Stream.below and Stream.choose would.
    Returns the sizes (L,) and the draws (L, max_size), row k valid up to
    sizes[k].  Nodes go in blocks, so the index pools hold at most about
    _POOL_ENTRIES entries at once.
    """
    sizes = np.empty(keys.size, dtype=np.intp)
    draws = np.empty((keys.size, max_size), dtype=np.intp)
    block = max(1, _POOL_ENTRIES // n)
    for start in range(0, keys.size, block):
        stop = min(start + block, keys.size)
        lanes = Lanes(keys[start:stop])
        everyone = np.arange(stop - start)
        b = 1 + lanes.below(max_size, everyone).astype(np.intp)
        pool = np.tile(np.arange(n), (everyone.size, 1))
        for i in range(max_size):
            rows = np.flatnonzero(b > i)
            j = i + lanes.below(n - i, rows).astype(np.intp)
            pool[rows, i], pool[rows, j] = pool[rows, j], pool[rows, i]
        sizes[start:stop] = b
        draws[start:stop] = pool[:, :max_size]
    return sizes, draws


def sample_loss_surface(
    grid: GridSpec, data: Dataset1D, policy: MiniBatchPolicy, stream: Stream
) -> Observations:
    """One mini-batch loss/gradient observation per grid node, in node order.

    Each node k uses the child stream "node/{k}", so observations do not
    depend on evaluation order or batching of the surrounding code.  All
    node streams run at once, as the lanes of one rng.Lanes.
    """
    n = data.xs.size
    if policy.max_size > n:
        raise ValueError(f"max_size {policy.max_size} exceeds dataset size {n}")
    points = grid.points()
    keys = derive_keys(stream.key, "node/", points.shape[0])
    return _observe(points, data, *_draw_batches(keys, policy.max_size, n))


def analytic_loss(w, data: Dataset1D):
    """Closed-form full-batch loss at w, for scalars or (..., 2) arrays.

    With moments m_k = mean(xs**k) computed from the dataset at call time,
    L(w) = m4*(w1-a2)**2 + 2*m3*(w1-a2)*(w2-a1) + m2*(w2-a1)**2.
    """
    w = np.asarray(w, dtype=np.float64)
    a2, a1 = data.coefficients
    m2 = np.mean(data.xs**2)
    m3 = np.mean(data.xs**3)
    m4 = np.mean(data.xs**4)
    d1 = w[..., 0] - a2
    d2 = w[..., 1] - a1
    out = m4 * d1**2 + 2.0 * m3 * d1 * d2 + m2 * d2**2
    return float(out) if out.ndim == 0 else out
