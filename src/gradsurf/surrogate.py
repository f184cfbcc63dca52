"""RBF surrogate fitting from loss observations.

Three fit modes share one linear-least-squares machinery and differ only in
which rows enter the system:

* ``f``  : function values only (classic RBF regression),
* ``fg`` : values and gradient components stacked, unweighted,
* ``g``  : gradient components only.  Gradients determine the surrogate up
  to an additive constant, which is fixed after fitting by translating the
  lowest value on an evaluation grid to exactly zero.

The shape parameter is selected by sweeping log-equispaced candidates and
keeping the one with the lowest training mean squared error; candidates
whose solve fails numerically are skipped.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from enum import Enum

import numpy as np

from .kernels import (
    KernelParams,
    NumericalError,
    assemble_gradient_matrix,
    assemble_value_matrix,
    gradient_block,
    pairwise,
    solve_least_squares,
    value_block,
)
from .problem import Observations


class FitMode(str, Enum):
    F = "f"
    FG = "fg"
    G = "g"


class FitFailure(RuntimeError):
    """Every shape candidate failed numerically; nothing to select."""

    def __init__(self, skipped: list[float]):
        self.skipped = list(skipped)
        lo, hi = (skipped[0], skipped[-1]) if skipped else (float("nan"),) * 2
        super().__init__(
            f"all {len(skipped)} shape candidates failed "
            f"(skipped eps from {lo:g} to {hi:g})"
        )


@dataclass(frozen=True)
class FitRecipe:
    """Everything that defines a fit apart from the data and the draw."""

    mode: FitMode
    n_centres: int
    shape_lo: float = 1e-4
    shape_hi: float = 1e5
    shape_count: int = 121
    basis_ratio: int = 6

    def __post_init__(self):
        if not isinstance(self.mode, FitMode):
            raise ValueError(f"mode must be a FitMode, got {self.mode!r}")
        if self.n_centres < 1:
            raise ValueError(f"n_centres must be >= 1, got {self.n_centres}")
        if not (0 < self.shape_lo < self.shape_hi < float("inf")):
            raise ValueError(
                f"need 0 < shape_lo < shape_hi, got {self.shape_lo}, {self.shape_hi}"
            )
        if self.shape_count < 2:
            raise ValueError(f"shape_count must be >= 2, got {self.shape_count}")
        if self.basis_ratio < 1:
            raise ValueError(f"basis_ratio must be >= 1, got {self.basis_ratio}")


@dataclass(frozen=True)
class Surrogate:
    """Fitted model: sum_j coefficients[j] * phi(||w - centres[j]||) + offset.

    The offset is only ever nonzero for mode ``g`` surrogates after
    zero-translation; fresh fits always carry offset 0.
    """

    centres: np.ndarray
    coefficients: np.ndarray
    params: KernelParams
    mode: FitMode
    offset: float = 0.0

    def __post_init__(self):
        if self.centres.ndim != 2 or self.coefficients.ndim != 1:
            raise ValueError("centres must be (M, d), coefficients (M,)")
        if self.centres.shape[0] != self.coefficients.shape[0]:
            raise ValueError(
                f"{self.centres.shape[0]} centres vs "
                f"{self.coefficients.shape[0]} coefficients"
            )
        if not (np.all(np.isfinite(self.coefficients)) and np.isfinite(self.offset)):
            raise ValueError("coefficients and offset must be finite")


def shape_candidates(recipe: FitRecipe) -> np.ndarray:
    """shape_count values log10-equispaced from shape_lo to shape_hi inclusive."""
    exps = np.linspace(math.log10(recipe.shape_lo), math.log10(recipe.shape_hi), recipe.shape_count)
    c = 10.0**exps
    # pin endpoints to the exact configured bounds
    c[0] = recipe.shape_lo
    c[-1] = recipe.shape_hi
    return c


def sample_centres(stream, observations: Observations, recipe: FitRecipe) -> np.ndarray:
    """Pick n_centres distinct observation locations, uniformly without replacement.

    Enforces the basis budget: n_centres * basis_ratio must not exceed the
    number of observations.
    """
    budget = recipe.n_centres * recipe.basis_ratio
    n = observations.values.size
    if budget > n:
        raise ValueError(
            f"{recipe.n_centres} centres require {budget} observations "
            f"(ratio {recipe.basis_ratio}), but only {n} are available"
        )
    return observations.points[stream.choose(n, recipe.n_centres)]


def _targets(observations: Observations, mode):
    if mode is FitMode.F:
        return observations.values
    if mode is FitMode.G:
        return observations.gradients.ravel()
    return np.concatenate([observations.values, observations.gradients.ravel()])


def _system(geometry, eps: float, mode):
    """Design matrix of one candidate from the fit's eps-independent geometry."""
    diff, r = geometry
    phi = value_block(r, eps)
    if mode is FitMode.F:
        return phi
    g = gradient_block(diff, phi, eps)
    if mode is FitMode.G:
        return g
    return np.vstack([phi, g])


def build_system(
    observations: Observations,
    centres: np.ndarray,
    params: KernelParams,
    mode: FitMode,
) -> tuple[np.ndarray, np.ndarray]:
    """Design matrix and target vector for one candidate fit.

    Mode f gives an N x M system over values; mode g an (N*d) x M system
    over gradient components (rows point-major, coordinate-minor); mode fg
    stacks the f block on top of the g block.
    """
    a = _system(pairwise(observations.points, centres), params.shape, mode)
    return a, _targets(observations, mode)


def training_mse(surrogate: Surrogate, observations: Observations, mode: FitMode) -> float:
    """Mean squared residual of the surrogate over the mode's stacked system.

    The offset enters value residuals only; gradient rows are unaffected,
    so a zero-translated mode-g surrogate keeps its training MSE.
    """
    a, b = build_system(observations, surrogate.centres, surrogate.params, mode)
    r = a @ surrogate.coefficients - b
    if mode is FitMode.F:
        r = r + surrogate.offset
    elif mode is FitMode.FG:
        r = r.copy()
        r[: observations.values.size] += surrogate.offset
    return float(np.mean(r * r))


def _solve_candidate(a, b):
    """(training MSE, coefficients) of one candidate, or None if it is skipped."""
    try:
        coef = solve_least_squares(a, b)
    except NumericalError:
        return None
    # overflow here just means another skipped candidate
    with np.errstate(over="ignore", invalid="ignore"):
        r = a @ coef - b
        mse = float(np.mean(r * r))
    return (mse, coef) if np.isfinite(mse) else None


def fit_surrogate(observations: Observations, recipe: FitRecipe, stream) -> Surrogate:
    """Sample centres, sweep shape candidates, return the lowest-MSE surrogate.

    Centres are drawn once and shared by every candidate, so the
    point-centre geometry is computed once per fit.  Candidates that fail
    the solve or give a non-finite training MSE are skipped; among the rest
    the lowest MSE wins, ties going to the smallest shape.  A candidate
    whose matrix is bitwise equal to the previous one (past the exp
    underflow every off-centre entry is 0.0) has the same outcome and is
    not solved again.  Raises FitFailure if every candidate is skipped.
    """
    centres = sample_centres(stream, observations, recipe)
    geometry = pairwise(observations.points, centres)
    b = _targets(observations, recipe.mode)
    best = None
    skipped: list[float] = []
    prev_a = outcome = None
    for eps in shape_candidates(recipe):
        eps = float(eps)
        a = _system(geometry, eps, recipe.mode)
        # a bitwise-repeated system keeps the previous outcome
        if prev_a is None or not np.array_equal(a, prev_a):
            outcome = _solve_candidate(a, b)
        prev_a = a
        if outcome is None:
            skipped.append(eps)
            continue
        mse, coef = outcome
        # strict < keeps the earliest, i.e. smallest, eps on ties
        if best is None or mse < best[0]:
            best = (mse, eps, coef)
    if best is None:
        raise FitFailure(skipped)
    _, eps, coef = best
    return Surrogate(
        centres=centres,
        coefficients=coef,
        params=KernelParams(eps),
        mode=recipe.mode,
        offset=0.0,
    )


def predict_values(surrogate: Surrogate, points: np.ndarray) -> np.ndarray:
    """Surrogate values at an (n, d) array of points, offset included."""
    a = assemble_value_matrix(points, surrogate.centres, surrogate.params)
    return a @ surrogate.coefficients + surrogate.offset


def predict_gradients(surrogate: Surrogate, points: np.ndarray) -> np.ndarray:
    """Surrogate gradients at an (n, d) array of points, shape (n, d)."""
    points = np.asarray(points, dtype=np.float64)
    g = assemble_gradient_matrix(points, surrogate.centres, surrogate.params)
    return (g @ surrogate.coefficients).reshape(points.shape)


def evaluate(surrogate: Surrogate, w) -> float:
    """Surrogate value at a single point."""
    w = np.asarray(w, dtype=np.float64)
    return float(predict_values(surrogate, w[None, :])[0])


def evaluate_gradient(surrogate: Surrogate, w) -> np.ndarray:
    """Surrogate gradient at a single point; independent of the offset."""
    w = np.asarray(w, dtype=np.float64)
    return predict_gradients(surrogate, w[None, :])[0]


def translate_to_zero(surrogate: Surrogate, grid_points: np.ndarray) -> Surrogate:
    """Fix the additive constant of a mode-g surrogate against a grid.

    The offset is recomputed from the kernel sum alone: with base values
    v_i = sum_j coef_j * phi(...) the new offset is -min(v_i), so a later
    evaluation at grid point i yields fl(v_i - min v) which is nonnegative
    everywhere and exactly 0.0 at the grid minimum.  Idempotent; surrogates
    of other modes are returned unchanged.
    """
    if surrogate.mode is not FitMode.G:
        return surrogate
    pts = np.asarray(grid_points, dtype=np.float64)
    if pts.size == 0:
        raise ValueError("translation grid must be nonempty")
    base = assemble_value_matrix(pts, surrogate.centres, surrogate.params) @ surrogate.coefficients
    return replace(surrogate, offset=-float(base.min()))
