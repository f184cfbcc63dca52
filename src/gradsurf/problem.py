"""Quadratic curve-fitting problem whose loss surface gets surveyed.

Data are n points of y = a2*x**2 + a1*x on an interval; the model is
f(x; w) = w1*x**2 + w2*x, so the full-batch MSE loss is an exact convex
quadratic in w with its minimum at (a2, a1).  Mini-batch losses and
gradients evaluated on a weight grid are the raw material for surrogate
fitting; the closed-form full-batch loss serves as reference surface.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .rng import Stream


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


def generate_full_batch(
    n: int = 121,
    interval: tuple[float, float] = (-2.0, 2.0),
    coefficients: tuple[float, float] = (0.1, 0.1),
) -> Dataset1D:
    """Equispaced dataset of y = a2*x**2 + a1*x; defaults give the study data."""
    if n < 2:
        raise ValueError(f"need at least 2 points, got {n}")
    lo, hi = interval
    if not lo < hi:
        raise ValueError(f"need lo < hi, got {interval}")
    a2, a1 = coefficients
    xs = np.linspace(lo, hi, n)
    ys = a2 * xs**2 + a1 * xs
    return Dataset1D(xs=xs, ys=ys, coefficients=(float(a2), float(a1)))


def model_predict(w, xs) -> np.ndarray:
    """f(x; w) = w1*x**2 + w2*x, vectorized over xs."""
    w = np.asarray(w, dtype=np.float64)
    xs = np.asarray(xs, dtype=np.float64)
    return w[0] * xs**2 + w[1] * xs


def _batch(data: Dataset1D, indices) -> tuple[np.ndarray, np.ndarray]:
    idx = np.asarray(indices, dtype=np.intp)
    if idx.size == 0:
        raise ValueError("batch indices must be nonempty")
    return data.xs[idx], data.ys[idx]


def batch_loss(w, data: Dataset1D, indices) -> float:
    """Mean squared error of the model over the given batch, (1/b) * sum(e**2)."""
    xs, ys = _batch(data, indices)
    e = model_predict(w, xs) - ys
    return float(np.mean(e**2))


def batch_gradient(w, data: Dataset1D, indices) -> np.ndarray:
    """Gradient of batch_loss in w: (2/b) * sum(e_i * (x_i**2, x_i))."""
    xs, ys = _batch(data, indices)
    e = model_predict(w, xs) - ys
    return np.array([2.0 * np.mean(e * xs**2), 2.0 * np.mean(e * xs)])


def sample_batch_indices(stream: Stream, policy: MiniBatchPolicy, n: int) -> list[int]:
    """Draw b ~ U{1..max_size}, then b distinct indices, sorted ascending."""
    if policy.max_size > n:
        raise ValueError(f"max_size {policy.max_size} exceeds dataset size {n}")
    b = 1 + stream.below(policy.max_size)
    return sorted(stream.choose(n, b))


def _observe(points: np.ndarray, data: Dataset1D, batches) -> Observations:
    """Loss and gradient at each point on its batch of dataset indices."""
    values = np.empty(points.shape[0])
    gradients = np.empty_like(points)
    batch_sizes = np.empty(points.shape[0], dtype=np.intp)
    for k, (w, indices) in enumerate(zip(points, batches)):
        values[k] = batch_loss(w, data, indices)
        gradients[k] = batch_gradient(w, data, indices)
        batch_sizes[k] = len(indices)
    return Observations(points, values, gradients, batch_sizes)


def sample_loss_surface(
    grid: GridSpec, data: Dataset1D, policy: MiniBatchPolicy, stream: Stream
) -> Observations:
    """One mini-batch loss/gradient observation per grid node, in node order.

    Each node k uses the child stream "node/{k}", so observations do not
    depend on evaluation order or batching of the surrounding code.
    """
    points = grid.points()
    n = data.xs.size
    batches = (
        sample_batch_indices(stream.derive(f"node/{k}"), policy, n)
        for k in range(points.shape[0])
    )
    return _observe(points, data, batches)


def full_batch_observations(grid: GridSpec, data: Dataset1D) -> Observations:
    """Noise-free observations: every node evaluated on the entire dataset."""
    return _observe(grid.points(), data, itertools.repeat(np.arange(data.xs.size)))


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
