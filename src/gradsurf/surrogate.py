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
candidates whose solve fails numerically are skipped.

A fit's systems (_system) have one interface on every geometry.  On the
points of a problem.GridSpec, which is where run and sample observe, the
per-axis kernel factors (kernels.axis_factors) are the fit's only geometry
(_Grid), and no N x M matrix is built.  On any other points a fit
assembles its design matrices (_Design) and forms their normal systems
with kernels.normal_system.  Every candidate is solved by _outcome,
exactly with kernels.solve_normal or screened by the sweep's
kernels.SweepSolver:

* a one-centre sweep on the grid solves all its candidates exactly in one
  stacked pass, by the closed form x = a^T b / G (_Grid.one_centre);
* a wider sweep on the grid screens each candidate, and re-solves exactly
  the screened ones whose MSE is within _MSE_BAND of the best exact one
  (_sweep);
* off the grid every candidate is solved exactly.

A sweep stops at the kernel floor's tail, where every larger candidate has
the same system (_swept_candidates).  The winner is the one of solving
every candidate exactly as long as the screened MSEs stay within
_MSE_BAND / 2 of the exact ones.  That held on the noisy study cells, but
not on the full-batch c100 g fit at seed 2, which misses the all-exact
winner (the strict xfail
test_fit_picks_the_reference_winner_on_full_batch_observations).  The
fitted Surrogate carries the exact MSE of its winner.  Surrogate values on
a grid (grid_values) are a product of the same per-axis factors.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from enum import Enum
from typing import ClassVar

import numpy as np

# assemble_gradient_matrix and solve_least_squares are held, not called:
# perfbench's TRACED wraps them in this module
from .kernels import (
    FLOOR_ARG,
    KernelParams,
    NumericalError,
    SweepSolver,
    _radii,
    assemble_gradient_matrix,
    assemble_value_matrix,
    axis_factors,
    gradient_block,
    normal_system,
    solve_least_squares,
    solve_normal,
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

    The system is the sweep's, from _system, and formed as the sweep forms
    it, so a fresh fit's MSE is the one its candidate had in the sweep,
    bitwise: Surrogate.mse.  Off the grid that is normal_system's, which
    raises NumericalError where it overflows.  The offset enters value
    residuals only, taken off their targets; gradient rows are unaffected,
    so a zero-translated mode-g surrogate keeps its training MSE.  The
    pipeline reads Surrogate.mse; this recomputation is for checking it.
    """
    mode, eps = surrogate.mode, surrogate.params.shape
    if mode is not FitMode.G:
        observations = replace(observations, values=observations.values - surrogate.offset)
    system = _system(observations.points, surrogate.centres, _targets(observations, mode), mode)
    system.normal(eps)
    return float(system.mse(surrogate.coefficients))


def _system(points, centres, b, mode):
    """The systems of a fit, _Grid's on the points of a GridSpec and _Design's on others.

    Both give smallest_step(), the smallest nonzero difference the kernel
    floors; normal(eps), candidate eps's normal system (G, a^T b); and
    mse(x), the mean squared residual of x on the candidate last formed.
    first_outcomes(eps_list) gives each candidate's first outcome (see
    _sweep).
    """
    grid = GridSpec.of(points)
    if grid is None:
        return _Design(points, centres, b, mode)
    return _Grid(grid, centres, b, mode)


def _outcome(system, eps: float, solver: SweepSolver | None = None):
    """(MSE, coefficients, exact) of candidate eps, or None: the candidate skipped.

    The candidate's normal system is solved by solver, the sweep's
    SweepSolver, whose outcome is exact when it took its eigh route, or
    without one by solve_normal, whose outcome is exact.  A NumericalError
    from forming or solving the system, or a non-finite MSE, skips the
    candidate.
    """
    # overflow here just means another skipped candidate
    with np.errstate(over="ignore", invalid="ignore"):
        try:
            g, atb = system.normal(eps)
            if solver is None:
                x, exact = solve_normal(g, atb), True
            else:
                x, _, route = solver.solve(g, atb)
                exact = route == "eigh"
        except NumericalError:
            return None
        mse = float(system.mse(x))
    return (mse, x, exact) if np.isfinite(mse) else None


class _Design:
    """A fit's design matrix a, rewritten in place for each candidate.

    a has N, N*d or N+N*d rows for modes f, g and fg: the values, the
    gradient components (point-major, coordinate-minor), or the value rows
    stacked on the gradient rows.  phi is a's value block (a itself, or its
    first N rows) except in mode g, where it is an N x M scratch of its own.
    The radii are kernels._radii's, and the gradient rows are written by
    kernels.gradient_block straight from the points and centres.  Only
    fits on points that are not a GridSpec's build one.

    The radii and the buffers are built with the system and are local to
    the fit, so fits on concurrent threads share none; the radii give
    smallest_step too, so a fit computes them once.
    """

    def __init__(self, points, centres, b, mode):
        self.points, self.centres, self.b = points, centres, b
        self.r = _radii(points, centres)
        n, m = self.r.shape
        nd = n * points.shape[1]
        self.a = np.empty(({FitMode.F: n, FitMode.G: nd, FitMode.FG: n + nd}[mode], m))
        self.phi = np.empty((n, m)) if mode is FitMode.G else self.a[:n]
        # the gradient rows: all of a in mode g, and those after phi's in fg
        self.gradient_rows = None if mode is FitMode.F else self.a[-nd:]

    def smallest_step(self) -> float:
        """The smallest nonzero point-centre radius, inf if there is none."""
        return _smallest_nonzero(self.r)

    def write(self, eps) -> np.ndarray:
        """a, overwritten with candidate eps's design matrix."""
        value_block(self.r, eps, self.phi)
        if self.gradient_rows is not None:
            gradient_block(self.points, self.centres, self.phi, eps, self.gradient_rows)
        return self.a

    def normal(self, eps):
        """(G, a^T b) of candidate eps: normal_system of the design matrix, written first."""
        return normal_system(self.write(eps), self.b)

    def mse(self, x) -> float:
        """Mean squared residual of x on the candidate last written."""
        r = self.a @ x - self.b
        return float(np.mean(r * r))

    def first_outcomes(self, eps_list):
        """Each candidate's outcome, solved once by solve_normal.

        Screened MSEs were measured within _MSE_BAND / 2 of the exact ones
        on grid data only, and one further off can hide the exact winner
        (see _sweep), so off the grid no candidate is screened.
        """
        return [_outcome(self, eps) for eps in eps_list]


class _Grid:
    """The systems of a fit on GridSpec data, from per-axis kernel factors.

    With the points at (u_i, v_j) on the grid's axes and the factors
    (E_u, D_u), (E_v, D_v) of kernels.axis_factors, the value row of node
    (i, j) is E_u[i] * E_v[j] and its gradient rows D_u[i] * E_v[j] and
    E_u[i] * D_v[j].  So the rows come in blocks, each a (v factor, u
    factor, targets) triple: the values (E_v, E_u), the gradients' u
    components (E_v, D_u) and their v components (D_v, E_u), with the
    targets T of each block on the (v, u) node array.  Mode f has the first
    block, g the other two and fg all three.  A block with factors (V, U)
    adds (U^T U) * (V^T V), elementwise, to G, the columns of V * (T U) to
    a^T b, and (V * x) U^T - T to the residual.  No N x M matrix is built.
    On a grid these are the fit's systems: a candidate's exact solution is
    kernels.solve_normal's on its G, and its MSE the residual of mse.  They
    differ from a^T a and the assembled residual in rounding only, and by
    the floor: a product of factors can be nonzero where value_block floors
    phi of the radius, but only below exp(-FLOOR_ARG).
    """

    def __init__(self, grid: GridSpec, centres, b, mode):
        self.d = [np.subtract.outer(grid.axis(k), centres[:, k]) for k in range(2)]
        shape = grid.resolution, grid.resolution
        n = shape[0] * shape[1]
        self.rows = b.size
        # (v factor, u factor, targets), a factor being 0 for E and 1 for D;
        # kinds are the factors whose Grams G takes
        self.blocks = [] if mode is FitMode.G else [(0, 0, b[:n].reshape(shape))]
        if mode is not FitMode.F:
            grads = b[-2 * n :].reshape(*shape, 2)
            self.blocks += [(0, 1, grads[..., 0].copy()), (1, 0, grads[..., 1].copy())]
        self.kinds = {k for v, u, _ in self.blocks for k in (v, u)}

    def smallest_step(self) -> float:
        """The smallest nonzero |node - centre| coordinate difference, inf if there is none."""
        return min(_smallest_nonzero(np.abs(d)) for d in self.d)

    def normal(self, eps):
        """(G, a^T b) of candidate eps, each Gram formed once, summed over the blocks.

        eps may be a (K, 1, 1) array, for a stack of K candidates: the
        factors are then stacks of K blocks, and G and a^T b stacks of the
        candidates' own.  numpy's matmul and vecdot run their inner routine
        once per block, so each is the lone candidate's bit for bit.
        """
        fu, fv = self.factors = [axis_factors(d, eps) for d in self.d]
        gu, gv = ({k: f[k].mT @ f[k] for k in self.kinds} for f in self.factors)
        # the value block, always the first where there is one, starts the
        # sums, and in mode g they start from 0.0: another start could flip
        # the sign of a zero
        g = atb = 0.0
        for v, u, t in self.blocks:
            gk, atbk = gu[u] * gv[v], np.vecdot(fv[v], t @ fu[u], axis=-2)
            g, atb = (gk, atbk) if v == u == 0 else (g + gk, atb + atbk)
        return g, atb

    def mse(self, x):
        """Mean squared residual of x on the candidate (or stack) last formed."""
        fu, fv = self.factors
        x = x[..., None, :]
        total = 0.0
        for v, u, t in self.blocks:
            p = (fv[v] * x) @ fu[u].mT
            p -= t
            p = p.reshape(*p.shape[:-2], -1)
            total = total + np.vecdot(p, p)
        return total / self.rows

    def first_outcomes(self, eps_list):
        """Each candidate's first outcome: exact in one stacked pass, or screened.

        A one-centre sweep solves every candidate exactly (one_centre).  A
        wider one screens each with one SweepSolver, which carries its rank
        and basis from one candidate to the next, so the candidates are
        screened in order; a screen that fails or gives a non-finite MSE is
        redone exactly at once.
        """
        if self.d[0].shape[1] == 1:
            return self.one_centre(np.array(eps_list))
        solver = SweepSolver()
        return [_outcome(self, eps, solver) or _outcome(self, eps) for eps in eps_list]

    def one_centre(self, eps: np.ndarray) -> list:
        """(MSE, coefficients, True) of each candidate of eps, exact, or None: a one-centre sweep.

        The candidates are formed as one stack.  With one centre G is
        1 x 1, and LAPACK's eigensolve returns lambda = G and v = 1, so
        solve_normal gives x = a^T b / G, or 0 when G is 0 (nothing kept);
        numpy's matmul of [[1.0]] turns a -0.0 into +0.0, as adding 0.0
        below does.  A candidate is None, skipped, where solve_normal would
        raise (G, a^T b or x not finite) or its MSE is not finite.
        """
        with np.errstate(over="ignore", invalid="ignore"):
            g, atb = (a.ravel() for a in self.normal(eps[:, None, None]))
            x = np.divide(atb, g, out=np.zeros_like(g), where=g > 0) + 0.0
            mse = self.mse(x[:, None])
        solved = np.isfinite(g) & np.isfinite(atb) & np.isfinite(x) & np.isfinite(mse)
        outcomes = zip(mse.tolist(), np.split(x, x.size), solved.tolist())
        return [(m, coefficients, True) if ok else None for m, coefficients, ok in outcomes]


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

    r_min is the smallest nonzero point-centre radius (see _sweep).  On the
    study's 25 x 25 grid it is 1/6, so the tail starts at eps above
    6 * sqrt(FLOOR_ARG), about 113, and 82 of the 121 candidates are solved.
    """
    eps_list = SHAPE_CANDIDATES.tolist()
    for k, eps in enumerate(eps_list):
        t = eps * r_min
        if t * t > FLOOR_ARG:
            return eps_list[: k + 1]
    return eps_list


def _sweep(points, centres, b, mode):
    """(MSE, eps, coefficients) of one sweep's winner, or None if every candidate fails.

    Each candidate has one outcome (_outcome), exact or screened, or None
    if it is skipped.  Once a candidate's kernel is zero everywhere off the
    centres (every nonzero difference is past the kernel floor,
    kernels.FLOOR_ARG), each larger eps gives the same 0/1 kernel values and
    the same signed-zero gradient rows, so the same system: the sweep stops
    there.  The rest cannot win, since an equal MSE never displaces a
    smaller eps.  The tail is recognised from the smallest nonzero
    difference that the kernels floor, the system's smallest_step:
    fl(fl(eps*r)**2) is monotone in r, so every nonzero one is past the
    floor exactly when the smallest one is (t * t rounds as value_block's
    np.square does).

    The system is _system's, and its first_outcomes give the first
    outcomes: on the points of a GridSpec, from per-axis factors, a
    one-centre sweep solves all its candidates exactly in one stacked pass
    and a wider one screens each candidate with one SweepSolver, a
    certified full-rank or low-rank solve instead of a full eigensolve
    where it can; on other points every candidate is solved exactly.
    Then the outcomes are taken in order of MSE, and each not exact is
    replaced by the exact one, until the next MSE is beyond _MSE_BAND of
    the best exact one.  The exact MSEs decide, ties going to
    the smallest eps.  So the winner and its coefficient bytes are those
    of solving every candidate exactly as long as each screened MSE is
    within _MSE_BAND / 2 of its exact one; a screen further off can keep
    the exact winner from being re-solved.  None, no exact outcome left,
    means the exact solve fails on every candidate: the tail's too, whose
    system is the last one solved.
    """
    system = _system(points, centres, b, mode)
    eps_list = _swept_candidates(system.smallest_step())
    outcomes = system.first_outcomes(eps_list)
    best = None  # (MSE, index) of the best exact outcome
    for mse, k in sorted((o[0], k) for k, o in enumerate(outcomes) if o is not None):
        if best is not None and mse * (1.0 - _MSE_BAND) > best[0]:
            break
        if not outcomes[k][2]:
            outcomes[k] = _outcome(system, eps_list[k])
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


def predict_values(surrogate: Surrogate, points: np.ndarray) -> np.ndarray:
    """Surrogate values at an (n, d) array of points, offset included.

    On the points of a GridSpec these are grid_values', flattened in node
    order, so a value at a grid node is the same whichever function gives
    it; on other points, the product of one n x M kernel matrix with the
    coefficients.
    """
    points = np.asarray(points, dtype=np.float64)
    grid = GridSpec.of(points)
    if grid is not None:
        return grid_values(surrogate, grid).ravel()
    a = assemble_value_matrix(points, surrogate.centres, surrogate.params)
    return a @ surrogate.coefficients + surrogate.offset


def grid_values(surrogate: Surrogate, grid: GridSpec) -> np.ndarray:
    """Surrogate values on a grid's nodes, offset included, [j, i] at node (i, j).

    The Gaussian factors over the axes, so with the per-axis value factors
    E_u, E_v (value_block of each axis's differences, the E of
    kernels.axis_factors) the values are (E_v * c) E_u^T plus the offset:
    on the 101-node report grid a 101 x M by M x 101 product, with no
    N x M kernel matrix.  They differ from the kernel matrix's
    product by rounding, of order ||c||_1 u.
    """
    eps = surrogate.params.shape
    d = (np.subtract.outer(grid.axis(k), surrogate.centres[:, k]) for k in range(2))
    eu, ev = (value_block(dk, eps, dk) for dk in d)
    return (ev * surrogate.coefficients) @ eu.T + surrogate.offset


def translate_to_zero(surrogate: Surrogate, values: np.ndarray) -> Surrogate:
    """Fix the additive constant of a mode-g surrogate from its values on a grid.

    values are the kernel sums v_i = sum_j coef_j * phi(...) at the grid
    nodes, without any offset: grid_values of a fresh fit, whose offset is
    0.  The new offset is -min(v_i), so an evaluation at grid node i
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
