"""RBF surrogate fitting from loss observations.

Three fit modes share one linear-least-squares machinery and differ only in
which rows enter the system:

* ``f``  : function values only (classic RBF regression),
* ``fg`` : values and gradient components stacked, unweighted,
* ``g``  : gradient components only.  Gradients determine the surrogate up
  to an additive constant, which is fixed after fitting by translating the
  lowest value on an evaluation grid to exactly zero.

The shape parameter is selected by sweeping the fixed log-equispaced
candidates in SHAPE_CANDIDATES (121 from 1e-4 to 1e5, the constants of
FitRecipe) and keeping the one with the lowest training mean squared error;
candidates whose solve fails numerically are skipped.  The sweep screens
candidates with a cheaper certified solve and re-solves the possible
winners exactly, so the winner is the one of solving every candidate with
kernels.solve_least_squares.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from enum import Enum
from typing import ClassVar

import numpy as np

# assemble_gradient_matrix is held, not called: perfbench's TRACED wraps it in this module
from .kernels import (
    FLOOR_ARG,
    SCREEN_MIN_COLS,
    KernelParams,
    NumericalError,
    SweepSolver,
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
    """Everything that defines a fit apart from the data and the draw.

    Only mode and n_centres are chosen per fit; the shape sweep and the
    basis budget (observations per centre) are constants of the method.
    """

    mode: FitMode
    n_centres: int
    shape_lo: ClassVar[float] = 1e-4
    shape_hi: ClassVar[float] = 1e5
    shape_count: ClassVar[int] = 121
    basis_ratio: ClassVar[int] = 6

    def __post_init__(self):
        if not isinstance(self.mode, FitMode):
            raise ValueError(f"mode must be a FitMode, got {self.mode!r}")
        if self.n_centres < 1:
            raise ValueError(f"n_centres must be >= 1, got {self.n_centres}")


# the sweep's candidates, log10-equispaced, with the endpoints pinned to
# the exact bounds; computed once and read-only
SHAPE_CANDIDATES = 10.0 ** np.linspace(
    math.log10(FitRecipe.shape_lo), math.log10(FitRecipe.shape_hi), FitRecipe.shape_count
)
SHAPE_CANDIDATES[[0, -1]] = FitRecipe.shape_lo, FitRecipe.shape_hi
SHAPE_CANDIDATES.flags.writeable = False


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


def _system_buffers(geometry, mode):
    """(a, phi): an uninitialised design matrix for the geometry, and the phi it is built from.

    a has N, N*d or N+N*d rows for modes f, g and fg: the values, the
    gradient components (point-major, coordinate-minor), or the value rows
    stacked on the gradient rows.  phi is a's value block (a itself, or its
    first N rows) except in mode g, where it is an N x M scratch of its own.
    """
    n, d, m = geometry[0].shape
    a = np.empty(({FitMode.F: n, FitMode.G: n * d, FitMode.FG: n + n * d}[mode], m))
    return a, (np.empty((n, m)) if mode is FitMode.G else a[:n])


def _write_system(a, phi, geometry, eps: float, mode) -> None:
    """Overwrite a (and phi) with candidate eps's design matrix."""
    diff, r = geometry
    value_block(r, eps, phi)
    if mode is not FitMode.F:
        # the gradient rows are a's last N*d rows
        gradient_block(diff, phi, eps, a[-diff.shape[0] * diff.shape[1] :])


def training_mse(surrogate: Surrogate, observations: Observations) -> float:
    """Mean squared residual of the surrogate over its mode's stacked system.

    The system is built as the sweep builds it, so a fresh fit's MSE is
    the one its candidate had in the sweep.  The offset enters value
    residuals only; gradient rows are unaffected, so a zero-translated
    mode-g surrogate keeps its training MSE.
    """
    mode = surrogate.mode
    geometry = pairwise(observations.points, surrogate.centres)
    a, phi = _system_buffers(geometry, mode)
    _write_system(a, phi, geometry, surrogate.params.shape, mode)
    r = a @ surrogate.coefficients - _targets(observations, mode)
    if mode is not FitMode.G:
        # the value rows come first (all of r in mode f); r is a fresh array
        r[: observations.values.size] += surrogate.offset
    return float(np.mean(r * r))


def _exact(a, b):
    """solve_least_squares in the form of SweepSolver.solve: (x, no kept count, "eigh")."""
    return solve_least_squares(a, b), None, "eigh"


def _solve(solve, a, b):
    """(training MSE, coefficients, route) of one candidate, or None if it is skipped.

    solve is _exact or a SweepSolver's solve.  Only the eigh route is
    solve_least_squares's own; a solve on another route whose MSE is not
    finite is redone with _exact, so the skipped candidates are those of
    the exact solve.
    """
    try:
        coef, _, route = solve(a, b)
    except NumericalError:
        return None
    # overflow here just means another skipped candidate
    with np.errstate(over="ignore", invalid="ignore"):
        r = a @ coef - b
        mse = float(np.mean(r * r))
    if np.isfinite(mse):
        return mse, coef, route
    return None if route == "eigh" else _solve(_exact, a, b)


# relative band on screened MSEs: a candidate whose screened MSE m has
# m * (1 - _MSE_BAND) above an exact MSE already found cannot beat it as
# long as screened MSEs are within _MSE_BAND / 2 of exact.  Measured over
# the 48 c100 cells of default studies at seeds 0-3: at most 5.9e-4 off on
# the block route and 1.3e-14 on the full-rank route
_MSE_BAND = 1e-2


def _sweep(geometry, b, mode):
    """((MSE, eps, coefficients) of the winner or None, skipped eps) of one sweep.

    The fit's one design-matrix buffer is rewritten in place for each
    candidate; it is local to the call, since cells fit on worker threads.
    Each candidate has one outcome, _solve's, or None if it is skipped.
    Once a candidate's phi is zero everywhere off the centres (every
    nonzero radius is past the kernel floor, kernels.FLOOR_ARG), each
    larger eps gives the same 0/1 phi and the same signed-zero gradient
    rows, so the same system: the sweep stops there, and the rest repeat
    its outcome.  They cannot win, since an equal MSE never displaces a
    smaller eps.  The tail is recognised from the geometry: fl(fl(eps*r)**2)
    is monotone in r, so every nonzero radius is past the floor exactly
    when the smallest one is (t * t rounds as value_block's np.square does).

    A system with at least kernels.SCREEN_MIN_COLS columns is solved by one
    kernels.SweepSolver, which takes a certified full-rank or low-rank
    route instead of a full eigensolve where it can; a narrower system (one
    centre) is solved by _exact, as an eigensolve of so few columns is as
    cheap as the screen.  Selection stays exact: the outcomes are taken in
    order of MSE, and each off the eigh route is re-assembled and replaced
    by its _exact outcome, until the next MSE is beyond _MSE_BAND of the
    best exact one.  The exact MSEs decide, ties going to the smallest eps,
    so the winner and its coefficient bytes are those of solving every
    candidate with solve_least_squares.
    """
    a, phi = _system_buffers(geometry, mode)
    r_min = np.min(geometry[1], where=geometry[1] > 0, initial=np.inf)
    eps_list = SHAPE_CANDIDATES.tolist()
    solve = SweepSolver().solve if a.shape[1] >= SCREEN_MIN_COLS else _exact
    outcomes = []
    for eps in eps_list:
        _write_system(a, phi, geometry, eps, mode)
        outcomes.append(_solve(solve, a, b))
        t = eps * r_min
        if t * t > FLOOR_ARG:
            break
    best = None  # (MSE, index) of the best exact outcome
    for mse, k in sorted((o[0], k) for k, o in enumerate(outcomes) if o is not None):
        if best is not None and mse * (1.0 - _MSE_BAND) > best[0]:
            break
        if outcomes[k][2] != "eigh":
            _write_system(a, phi, geometry, eps_list[k], mode)
            outcomes[k] = _solve(_exact, a, b)
            if outcomes[k] is None:
                continue
        # ties go to the earliest, i.e. smallest, eps
        if best is None or (outcomes[k][0], k) < best:
            best = (outcomes[k][0], k)
    # the tail's systems are the last one solved
    outcomes += outcomes[-1:] * (len(eps_list) - len(outcomes))
    skipped = [eps for eps, outcome in zip(eps_list, outcomes) if outcome is None]
    if best is None:
        return None, skipped
    return (best[0], eps_list[best[1]], outcomes[best[1]][1]), skipped


def fit_surrogate(observations: Observations, recipe: FitRecipe, stream) -> Surrogate:
    """Sample centres, sweep shape candidates, return the lowest-MSE surrogate.

    Centres are drawn once and shared by every candidate, so the
    point-centre geometry is computed once per fit; _sweep solves the
    candidates and selects.  Raises FitFailure, listing every skipped eps,
    if no candidate is left.
    """
    centres = sample_centres(stream, observations, recipe)
    best, skipped = _sweep(
        pairwise(observations.points, centres),
        _targets(observations, recipe.mode),
        recipe.mode,
    )
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


# rows of points per kernel matrix in predict_values: a 1024 x 100 block is
# 0.8 MB, where the 10201-node report grid in one piece is 8.2 MB
_EVAL_ROWS = 1024


def predict_values(surrogate: Surrogate, points: np.ndarray) -> np.ndarray:
    """Surrogate values at an (n, d) array of points, offset included.

    The points go through in blocks of at most _EVAL_ROWS rows, so no
    N x M kernel matrix is built whole, and the values are bitwise those of
    one product over all points.  Single-threaded OpenBLAS dgemv (its
    x86-64 kernel) takes the rows in groups of 4 and the last n % 4 on
    their own, so blocks starting at multiples of 16 group every row as one
    product does.  A one-row block would go to numpy's dot product instead,
    so when one row is left over the last two blocks are _EVAL_ROWS - 16
    and 17 rows.
    """
    points = np.asarray(points, dtype=np.float64)
    n = points.shape[0]
    out = np.empty(n)
    bounds = [*range(0, n, _EVAL_ROWS), n]
    if n > 1 and n - bounds[-2] == 1:
        bounds[-2] -= 16
    for start, stop in zip(bounds, bounds[1:]):
        a = assemble_value_matrix(points[start:stop], surrogate.centres, surrogate.params)
        np.add(a @ surrogate.coefficients, surrogate.offset, out=out[start:stop])
    return out


def translate_to_zero(surrogate: Surrogate, values: np.ndarray) -> Surrogate:
    """Fix the additive constant of a mode-g surrogate from its values on a grid.

    values are the kernel sums v_i = sum_j coef_j * phi(...) at the grid
    nodes, without any offset: predict_values of a fresh fit, whose offset
    is 0.  The new offset is -min(v_i), so an evaluation at grid node i
    yields fl(v_i - min v), which is nonnegative everywhere and exactly 0.0
    at the grid minimum.  Idempotent for the same values; surrogates of
    other modes are returned unchanged.
    """
    if surrogate.mode is not FitMode.G:
        return surrogate
    values = np.asarray(values, dtype=np.float64)
    if values.size == 0:
        raise ValueError("translation grid must be nonempty")
    return replace(surrogate, offset=-float(values.min()))
