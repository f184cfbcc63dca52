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
candidates whose solve fails numerically are skipped.  A one-centre sweep
solves its candidates exactly in a few batched passes, many candidates to
a design matrix, by the closed form of a one-column solve.  On the points
of a problem.GridSpec a wider sweep screens candidates with a cheaper
certified solve, from per-axis kernel factors without the design matrix,
and re-solves the possible winners exactly; any other sweep solves every
candidate exactly, one at a time.  Either way the winner is the one of
solving every candidate with kernels.solve_least_squares, and the fitted
Surrogate carries the MSE that solve gave it.  Every design matrix takes
its radii and gradient rows from the points and centres through
kernels._radii and kernels.gradient_block.
"""

from __future__ import annotations

import functools
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
    _radii,
    assemble_gradient_matrix,
    assemble_value_matrix,
    axis_factors,
    gradient_block,
    solve_least_squares,
    value_block,
)
from .problem import GridSpec, Observations


class FitMode(str, Enum):
    F = "f"
    FG = "fg"
    G = "g"


class FitFailure(RuntimeError):
    """Every shape candidate failed numerically; the message names their whole range."""

    def __init__(self):
        super().__init__(
            f"all {FitRecipe.shape_count} shape candidates failed "
            f"(skipped eps from {FitRecipe.shape_lo:g} to {FitRecipe.shape_hi:g})"
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
    zero-translation; fresh fits always carry offset 0.  mse is the
    training MSE the sweep computed for the winner, that of training_mse;
    None for a surrogate built other than by fit_surrogate.
    Zero-translation keeps it, as the offset enters no gradient row.
    """

    centres: np.ndarray
    coefficients: np.ndarray
    params: KernelParams
    mode: FitMode
    offset: float = 0.0
    mse: float | None = None

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


def training_mse(surrogate: Surrogate, observations: Observations) -> float:
    """Mean squared residual of the surrogate over its mode's stacked system.

    The system is built as the sweep builds it, so a fresh fit's MSE is
    the one its candidate had in the sweep, bitwise: Surrogate.mse.  The
    offset enters value residuals only; gradient rows are unaffected, so a
    zero-translated mode-g surrogate keeps its training MSE.  The pipeline
    reads Surrogate.mse; this recomputation is for checking it.
    """
    mode = surrogate.mode
    b = _targets(observations, mode)
    a = _Design(observations.points, surrogate.centres, b, mode).write(surrogate.params.shape)
    r = a @ surrogate.coefficients - b
    if mode is not FitMode.G:
        # the value rows come first (all of r in mode f); r is a fresh array
        r[: observations.values.size] += surrogate.offset
    return float(np.mean(r * r))


class _Design:
    """A fit's design matrix a, rewritten in place for each candidate.

    a has N, N*d or N+N*d rows for modes f, g and fg: the values, the
    gradient components (point-major, coordinate-minor), or the value rows
    stacked on the gradient rows.  phi is a's value block (a itself, or its
    first N rows) except in mode g, where it is an N x M scratch of its own.
    The radii are kernels._radii's, and the gradient rows are written by
    kernels.gradient_block straight from the points and centres.

    The radii and the buffers are built on the first write, which on the
    grid route is the band walk's first re-solve: held through the screens
    as well, they raised the two-worker study's peak RSS by 0.6-0.8 MiB.
    They are local to the fit, so fits on concurrent threads share none.
    """

    def __init__(self, points, centres, b, mode):
        self.points, self.centres, self.b, self.mode = points, centres, b, mode

    @functools.cached_property
    def system(self):
        """(radii, a, phi), a and phi uninitialised."""
        r = _radii(self.points, self.centres)
        n, m = r.shape
        d = self.points.shape[1]
        a = np.empty(({FitMode.F: n, FitMode.G: n * d, FitMode.FG: n + n * d}[self.mode], m))
        return r, a, np.empty((n, m)) if self.mode is FitMode.G else a[:n]

    def write(self, eps) -> np.ndarray:
        """a, overwritten with candidate eps's design matrix.

        eps may be an array of one eps per column, the kernels broadcasting
        over it: with the one centre repeated, a's columns are the
        candidates' one-column design matrices, bit for bit.
        """
        r, a, phi = self.system
        value_block(r, eps, phi)
        if self.mode is not FitMode.F:
            # the gradient rows: all of a in mode g, and those after phi's in fg
            rows = a if self.mode is FitMode.G else a[r.shape[0] :]
            gradient_block(self.points, self.centres, phi, eps, rows)
        return a

    def mse(self, x) -> float:
        """Mean squared residual of x on the candidate last written."""
        r = self.system[1] @ x - self.b
        return float(np.mean(r * r))

    def exact(self, eps: float):
        """(MSE, coefficients, True) of solve_least_squares on candidate eps.

        None, the candidate skipped, if the solve raises NumericalError or
        the MSE is not finite.
        """
        a = self.write(eps)
        try:
            x = solve_least_squares(a, self.b)
        except NumericalError:
            return None
        # overflow here just means another skipped candidate
        with np.errstate(over="ignore", invalid="ignore"):
            mse = self.mse(x)
        return (mse, x, True) if np.isfinite(mse) else None


class _Grid:
    """The grid route of a fit on GridSpec data: each candidate screened by
    one kernels.SweepSolver on a normal system from per-axis kernel factors.

    With the points at (u_i, v_j) on the grid's axes and the factors
    (E_u, D_u), (E_v, D_v) of kernels.axis_factors, the value row of node
    (i, j) is E_u[i] * E_v[j] and its gradient rows D_u[i] * E_v[j] and
    E_u[i] * D_v[j].  So, with UU = E_u^T E_u and VV = E_v^T E_v, the value
    rows' G is UU * VV and the gradient rows' is
    (D_u^T D_u) * VV + UU * (D_v^T D_v), elementwise; a^T b sums columns of
    E_v * (B E_u) and the like, for the targets B on the (v, u) node array;
    and the fitted values are (E_v * x) E_u^T.  No N x M matrix is built.
    The systems differ from a^T a in rounding only, and by the floor: a
    product of factors can be nonzero where value_block floors phi of the
    radius, but only below exp(-FLOOR_ARG).  On the study cells the factors
    and the Gram blocks held no subnormal number, but G did, where the
    product of two Gram entries underflows (see the kernels module
    docstring).  The solver carries its rank and basis from one candidate
    to the next, so the candidates are screened in order.
    """

    def __init__(self, grid: GridSpec, centres, b, mode):
        self.d = [np.subtract.outer(grid.axis(k), centres[:, k]) for k in range(2)]
        shape = grid.resolution, grid.resolution
        n = shape[0] * shape[1]
        self.rows = b.size
        self.solver = SweepSolver()
        self.values = None if mode is FitMode.G else b[:n].reshape(shape)
        self.grads = None
        if mode is not FitMode.F:
            grads = b[-2 * n :].reshape(*shape, 2)
            self.grads = grads[..., 0].copy(), grads[..., 1].copy()

    def normal(self, eps: float):
        """(G, a^T b) of candidate eps."""
        (eu, du), (ev, dv) = self.factors = [axis_factors(d, eps) for d in self.d]
        uu, vv = eu.T @ eu, ev.T @ ev
        g, atb = 0.0, 0.0
        if self.values is not None:
            g = uu * vv
            atb = np.einsum("jm,jm->m", ev, self.values @ eu)
        if self.grads is not None:
            gu, gv = self.grads
            g = g + (du.T @ du) * vv + uu * (dv.T @ dv)
            atb = atb + np.einsum("jm,jm->m", ev, gu @ du) + np.einsum("jm,jm->m", dv, gv @ eu)
        return g, atb

    def mse(self, x) -> float:
        """Mean squared residual of x on the candidate last formed."""
        (eu, du), (ev, dv) = self.factors
        evx = ev * x
        fitted = []
        if self.values is not None:
            fitted.append((evx @ eu.T, self.values))
        if self.grads is not None:
            fitted += [(evx @ du.T, self.grads[0]), ((dv * x) @ eu.T, self.grads[1])]
        total = 0.0
        for p, t in fitted:
            p -= t
            total += float(np.vdot(p, p))
        return total / self.rows

    def screen(self, eps: float):
        """(MSE, coefficients, False) of candidate eps screened by self.solver, else None.

        None, for a failed screen or a non-finite MSE, says nothing of the
        exact solve, as the grid's system is not a^T a bitwise: the sweep
        then solves the candidate exactly.
        """
        with np.errstate(over="ignore", invalid="ignore"):
            try:
                x = self.solver.solve(*self.normal(eps))[0]
            except NumericalError:
                return None
            mse = self.mse(x)
        return (mse, x, False) if np.isfinite(mse) else None


# relative band on screened MSEs: a candidate whose screened MSE m has
# m * (1 - _MSE_BAND) above an exact MSE already found cannot beat it as
# long as screened MSEs are within _MSE_BAND / 2 of exact.  Measured over
# the 48 c100 cells of default studies at seeds 0-3: at most 5.5e-5 off,
# on every route
_MSE_BAND = 1e-2


def _smallest_nonzero(r) -> float:
    """The smallest nonzero entry of the radii r, inf if there is none."""
    return float(np.min(r, where=r > 0, initial=np.inf))


def _swept_candidates(r_min: float) -> list[float]:
    """The candidates a sweep solves: those up to and including the first in the tail.

    r_min is the smallest nonzero point-centre radius (see _sweep).
    """
    eps_list = SHAPE_CANDIDATES.tolist()
    for k, eps in enumerate(eps_list):
        t = eps * r_min
        if t * t > FLOOR_ARG:
            return eps_list[: k + 1]
    return eps_list


def _column_outcomes(a, b) -> list:
    """(MSE, coefficients, True) of solve_least_squares on each column of a alone, else None.

    For one column, G = a^T a is 1 x 1 and LAPACK's eigensolve returns
    lambda = G and v = 1, so the truncated solve is x = a^T b / G, or 0 if
    G is 0 (nothing kept); numpy's matmul of [[1.0]] turns a -0.0 into
    +0.0, as the x += 0.0 below does.  Each column's G and a^T b are
    stacked (1 x R) @ (R x 1) products, the dot product the single-column
    solve takes, not a matrix-vector product, whose rounding differs.  A
    column is None, skipped, where the solve would raise NumericalError
    (G, a^T b or x not finite) or its MSE is not finite.  Non-finite input
    raises ValueError, as in solve_least_squares.
    """
    at = np.ascontiguousarray(a.T)
    rows = at[:, None, :]
    with np.errstate(over="ignore", invalid="ignore"):
        g = (rows @ at[:, :, None]).ravel()
        atb = (rows @ b[:, None]).ravel()
        solved = np.isfinite(g) & np.isfinite(atb)
        if not solved.all() and not (np.isfinite(at).all() and np.isfinite(b).all()):
            raise ValueError("matrix and rhs must be finite")
        x = np.divide(atb, g, out=np.zeros_like(g), where=g > 0)
        x += 0.0
        r = at * x[:, None] - b
        mse = np.mean(r * r, axis=1)
    solved &= np.isfinite(x) & np.isfinite(mse)
    return [
        (m, x[k : k + 1], True) if ok else None
        for k, (m, ok) in enumerate(zip(mse.tolist(), solved.tolist()))
    ]


# candidates per design matrix of the one-centre pass: 16 columns of the
# 1875-row fg system are 240 kB
_ONE_CENTRE_BLOCK = 16


def _sweep(points, centres, b, mode):
    """(MSE, eps, coefficients) of one sweep's winner, or None if every candidate fails.

    Each candidate has one outcome, _Grid.screen's or an exact one, or
    None if it is skipped.  Once a candidate's phi is zero everywhere off the
    centres (every nonzero radius is past the kernel floor,
    kernels.FLOOR_ARG), each larger eps gives the same 0/1 phi and the same
    signed-zero gradient rows, so the same system: the sweep stops there.
    The rest cannot win, since an equal MSE never displaces a smaller eps.
    The tail is recognised from the smallest nonzero radius:
    fl(fl(eps*r)**2) is monotone in r, so every nonzero radius is past the
    floor exactly when the smallest one is (t * t rounds as value_block's
    np.square does).

    A one-centre sweep, on or off the grid, writes up to
    _ONE_CENTRE_BLOCK candidates as the columns of one design matrix (the
    kernels broadcast over an array of eps) and solves each column exactly
    in one batched pass, _column_outcomes, bit for bit solve_least_squares
    on that candidate's system.  A sweep on the points of a GridSpec
    (GridSpec.of) with at least kernels.SCREEN_MIN_COLS centres takes the
    grid route, _Grid.screen: a certified full-rank or low-rank solve
    instead of a full eigensolve where it can.  A candidate whose screen
    fails, and every candidate of any other sweep, is solved with
    _Design.exact.  Selection stays exact: the outcomes are taken in order
    of MSE, and each not exact is replaced by design.exact's outcome, until
    the next MSE is beyond _MSE_BAND of the best exact one.  The exact MSEs
    decide, ties going to the smallest eps, so the winner and its
    coefficient bytes are those of solving every candidate with
    solve_least_squares.  So None, no exact outcome left, means that solve
    fails on every candidate: the tail's too, whose system is the last one
    solved.
    """
    # a fresh array, not held through the screens
    eps_list = _swept_candidates(_smallest_nonzero(_radii(points, centres)))
    design = _Design(points, centres, b, mode)
    if centres.shape[0] == 1:
        outcomes = []
        for start in range(0, len(eps_list), _ONE_CENTRE_BLOCK):
            block = np.array(eps_list[start : start + _ONE_CENTRE_BLOCK])
            a = _Design(points, centres.repeat(block.size, 0), b, mode).write(block)
            outcomes += _column_outcomes(a, b)
    else:
        spec = GridSpec.of(points) if centres.shape[0] >= SCREEN_MIN_COLS else None
        grid = None if spec is None else _Grid(spec, centres, b, mode)
        outcomes = [(grid is not None and grid.screen(eps)) or design.exact(eps) for eps in eps_list]
    best = None  # (MSE, index) of the best exact outcome
    for mse, k in sorted((o[0], k) for k, o in enumerate(outcomes) if o is not None):
        if best is not None and mse * (1.0 - _MSE_BAND) > best[0]:
            break
        if not outcomes[k][2]:
            outcomes[k] = design.exact(eps_list[k])
            if outcomes[k] is None:
                continue
        # ties go to the earliest, i.e. smallest, eps
        if best is None or (outcomes[k][0], k) < best:
            best = (outcomes[k][0], k)
    return None if best is None else (best[0], eps_list[best[1]], outcomes[best[1]][1])


def fit_surrogate(observations: Observations, recipe: FitRecipe, stream) -> Surrogate:
    """Sample centres, sweep shape candidates, return the lowest-MSE surrogate.

    Centres are drawn once and shared by every candidate, so what the
    candidates share (the point-centre radii, or a grid's per-axis
    differences) is computed once per fit; _sweep solves the candidates and
    selects.  The surrogate carries the winner's exact training MSE as
    mse.  Raises FitFailure if every candidate fails.
    """
    centres = sample_centres(stream, observations, recipe)
    best = _sweep(observations.points, centres, _targets(observations, recipe.mode), recipe.mode)
    if best is None:
        raise FitFailure()
    mse, eps, coef = best
    return Surrogate(centres, coef, KernelParams(eps), recipe.mode, mse=mse)


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
