"""Pointwise references for the array code in gradsurf.

The sampler, the CSV writers and the heatmap renderer work on whole arrays
or blocks of rows.  The functions here do the same one node at a time, in
the most direct form: each node's batch from its own `Stream.derive`/
`choose`, its loss and gradient from the definitions, one CSV line or SVG
rectangle per node or observation.  The shape sweep here assembles every
candidate's system afresh and compares it with the previous one, and
truncated_svd_solve is the solve the shipped normal-matrix solver stands in
for, computed from an SVD of the system itself.  predict_values_one_shot
evaluates a surrogate from one kernel matrix over all points.  Tests
assert that the shipped code gives bitwise the same observations, fits
and byte for byte the same files.
"""

from __future__ import annotations

import numpy as np

from gradsurf.problem import (
    Dataset1D,
    GridSpec,
    MiniBatchPolicy,
    Observations,
    model_predict,
)
from gradsurf.kernels import (
    FLOOR_ARG,
    NumericalError,
    assemble_value_matrix,
    solve_least_squares,
)
from gradsurf.rng import Stream
from gradsurf.surrogate import SHAPE_CANDIDATES, FitMode


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
    b = 1 + stream.below(policy.max_size)
    return sorted(stream.choose(n, b))


def _observe(points: np.ndarray, data: Dataset1D, batches) -> Observations:
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
    """Node k's batch from the child stream "node/{k}", one node at a time."""
    points = grid.points()
    batches = [
        sample_batch_indices(stream.derive(f"node/{k}"), policy, data.xs.size)
        for k in range(points.shape[0])
    ]
    return _observe(points, data, batches)


def full_batch_observations(grid: GridSpec, data: Dataset1D) -> Observations:
    points = grid.points()
    return _observe(points, data, [np.arange(data.xs.size)] * points.shape[0])


def surface_csv_text(surface) -> str:
    """The surface CSV, one f-string line per node."""
    lines = ["w1,w2,value\n"]
    for (w1, w2), v in zip(surface.grid.points().tolist(), surface.values.ravel().tolist()):
        lines.append(f"{w1!r},{w2!r},{v!r}\n")
    return "".join(lines)


def observations_csv_text(observations: Observations) -> str:
    """The observations CSV, one f-string line per observation."""
    lines = ["w1,w2,b,loss,g1,g2\n"]
    rows = zip(
        observations.points.tolist(),
        observations.batch_sizes.tolist(),
        observations.values.tolist(),
        observations.gradients.tolist(),
    )
    for (w1, w2), b, loss, (g1, g2) in rows:
        lines.append(f"{w1!r},{w2!r},{b},{loss!r},{g1!r},{g2!r}\n")
    return "".join(lines)


_LOW = (13, 8, 135)
_HIGH = (240, 249, 33)


def _colour(t: float) -> str:
    rgb = (int(round(lo + t * (hi - lo))) for lo, hi in zip(_LOW, _HIGH))
    return "#{:02x}{:02x}{:02x}".format(*rgb)


def _node_index(grid, point, axis: int) -> int:
    step = (grid.upper[axis] - grid.lower[axis]) / (grid.resolution - 1)
    k = int(round((float(point[axis]) - grid.lower[axis]) / step))
    return min(max(k, 0), grid.resolution - 1)


def heatmap_svg_text(surface, marker=None) -> str:
    """The heatmap SVG, one colour and one rectangle per node."""
    grid = surface.grid
    res = grid.resolution
    px = max(2, 600 // res)
    size = px * res
    flat = surface.values.ravel()
    vmin = float(flat.min())
    span = float(flat.max()) - vmin
    lines = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{size}" height="{size}" '
        f'viewBox="0 0 {size} {size}">'
    ]
    for k, v in enumerate(flat):
        i = k % res
        j = k // res
        t = 0.0 if span == 0 else (float(v) - vmin) / span
        x = i * px
        y = (res - 1 - j) * px
        lines.append(f'<rect x="{x}" y="{y}" width="{px}" height="{px}" fill="{_colour(t)}"/>')
    if marker is not None:
        i = _node_index(grid, marker, 0)
        j = _node_index(grid, marker, 1)
        inset = px // 6
        side = px - 2 * inset
        x = i * px + inset
        y = (res - 1 - j) * px + inset
        lines.append(f'<rect x="{x}" y="{y}" width="{side}" height="{side}" fill="#ff0000"/>')
    lines.append("</svg>")
    return "\n".join(lines) + "\n"


def _system(points, centres, eps: float, mode: FitMode) -> np.ndarray:
    """One candidate's design matrix from the defining expressions, every array fresh."""
    diff = points[:, :, None] - centres.T[None, :, :]  # (N, d, M)
    r = diff[:, 0] ** 2
    for k in range(1, diff.shape[1]):
        r = r + diff[:, k] ** 2
    arg = (eps * np.sqrt(r)) ** 2
    phi = np.where(arg > FLOOR_ARG, 0.0, np.exp(-arg))
    if mode is FitMode.F:
        return phi
    n, d, m = diff.shape
    g = (-2.0 * eps**2 * diff * phi[:, None, :]).reshape(n * d, m)
    return g if mode is FitMode.G else np.vstack([phi, g])


def _targets(observations: Observations, mode: FitMode) -> np.ndarray:
    gradients = observations.gradients.ravel()
    if mode is FitMode.F:
        return observations.values
    return gradients if mode is FitMode.G else np.concatenate([observations.values, gradients])


def truncated_svd_solve(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Least squares by LAPACK gelsd, singular values up to 1e-6 * sigma_max dropped.

    The cutoff kernels.solve_least_squares applies to the eigenvalues of
    a^T a, taken on the singular values of a directly.
    """
    x = np.linalg.lstsq(a, b, rcond=1e-6)[0]
    if not np.all(np.isfinite(x)):
        raise NumericalError("least-squares solution is not finite")
    return x


def shape_sweep(
    observations: Observations, centres: np.ndarray, mode: FitMode, solve=solve_least_squares
):
    """(best, skipped, solves) of a sweep over all 121 candidates.

    best is (training MSE, eps, coefficients) of the lowest-MSE candidate,
    the smallest eps on ties, or None; skipped lists the eps whose solve
    failed or gave a non-finite MSE.  Each system is assembled in full and
    solved by solve; one bitwise equal to the previous candidate's keeps its
    outcome unsolved, and solves counts the solved, i.e. distinct, systems.
    """
    b = _targets(observations, mode)
    best = prev = outcome = None
    skipped: list[float] = []
    solves = 0
    for eps in SHAPE_CANDIDATES.tolist():
        a = _system(observations.points, centres, eps, mode)
        if prev is None or not np.array_equal(a, prev):
            solves += 1
            try:
                coef = solve(a, b)
                with np.errstate(over="ignore", invalid="ignore"):
                    r = a @ coef - b
                    mse = float(np.mean(r * r))
                outcome = (mse, coef) if np.isfinite(mse) else None
            except NumericalError:
                outcome = None
        prev = a
        if outcome is None:
            skipped.append(eps)
        elif best is None or outcome[0] < best[0]:
            best = (outcome[0], eps, outcome[1])
    return best, skipped, solves


def predict_values_one_shot(surrogate, points) -> np.ndarray:
    """Surrogate values from one N x M kernel matrix over all points, offset included."""
    a = assemble_value_matrix(points, surrogate.centres, surrogate.params)
    return a @ surrogate.coefficients + surrogate.offset
