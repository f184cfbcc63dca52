"""Kernel evaluation, matrix assembly, the minimum-norm solver and its sweep screen.

Expected values are recomputed in the tests from the defining formulas
(math.exp, per-entry loops, normal equations) rather than copied from the
implementation.
"""

import math
import sys
import tracemalloc

import numpy as np
import pytest
from draws import uniform
from reference import _system, gradient_rows_from_differences

from gradsurf.kernels import (
    FLOOR_ARG,
    REL_TOL,
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
    value_block,
)
from gradsurf.config import ExperimentConfig
from gradsurf.experiment import RunCell
from gradsurf.problem import MiniBatchPolicy, generate_full_batch, sample_loss_surface
from gradsurf.rng import derive_stream
from gradsurf.surrogate import SHAPE_CANDIDATES, FitMode, FitRecipe, sample_centres


def radii(rs):
    """Radii of points at distances rs along the first axis from the origin."""
    points = np.column_stack([rs, np.zeros(len(rs))])
    return _radii(points, np.zeros((1, 2)))[:, 0]


def kernel_gradient(x, centre, eps):
    """Spatial gradient of phi(||x - centre||) in x, from _radii and the blocks."""
    points, centres = np.array([x], dtype=float), np.array([centre], dtype=float)
    r = _radii(points, centres)
    return gradient_block(points, centres, value_block(r, eps, r), eps, np.empty((2, 1)))[:, 0]


def test_kernel_value_scalar_examples():
    examples = [(0.0, 3.7), (1.0, 1.0), (0.5, 2.0), (2.0, 3.0)]
    phi = [value_block(radii([r]), eps, np.empty(1))[0] for r, eps in examples]
    assert phi[0] == 1.0
    assert phi[1] == pytest.approx(math.exp(-1.0), rel=1e-15)
    assert phi[2] == pytest.approx(math.exp(-1.0), rel=1e-15)
    assert phi[3] == pytest.approx(math.exp(-36.0), rel=1e-15)


def test_kernel_value_strictly_decreasing_and_bounded():
    r = radii(np.linspace(0.0, 4.0, 200))
    vals = value_block(r, 1.3, np.empty_like(r))
    assert np.all(np.diff(vals) < 0)
    assert np.all(vals > 0)
    assert np.all(vals <= 1.0)
    assert vals[0] == 1.0


def test_floor_keeps_products_of_kernel_values_normal():
    # every nonzero phi is at least exp(-FLOOR_ARG) ~ 2**-510.7, so the
    # product of two, a term of an entry of a^T a, is at least 2**-1021.4
    assert math.exp(-FLOOR_ARG) > 2.0**-511
    assert math.exp(-FLOOR_ARG) ** 2 >= sys.float_info.min


@pytest.mark.parametrize("eps", [1e-4, 0.5, 1.0, 3.0, 1e5])
def test_value_block_is_exp_up_to_the_floor_and_zero_past_it(eps):
    # radii putting (eps*r)**2 a few ulps either side of FLOOR_ARG
    r = radii(math.sqrt(FLOOR_ARG) / eps * (1.0 + np.arange(-6, 7) * 2.0**-52))
    arg = (eps * r) ** 2
    phi = value_block(r, eps, np.empty_like(r))
    below = arg <= FLOOR_ARG
    assert below.any() and not below.all()
    assert np.array_equal(phi[below], np.exp(-arg[below]))
    # exactly +0.0 past the floor, not a subnormal and not -0.0
    assert phi[~below].tobytes() == np.zeros(np.count_nonzero(~below)).tobytes()


def test_study_systems_hold_no_subnormal_entry():
    # seed-0 cell b3/fg/c100/r0: its value and gradient rows, from the
    # reference formula the sweep's blocks equal bitwise (without the floor
    # candidates 63-73, eps 5-30, put subnormals in the matrix), and the
    # train grid's per-axis factors and their Gram blocks, from which the
    # grid screen forms G.  G itself, their Hadamard product, does hold
    # subnormals at candidates 65-74
    config = ExperimentConfig()
    seed = RunCell(batch_max=3, mode=FitMode.FG, n_centres=100, repeat=0).derived_seed(0)
    observations = sample_loss_surface(
        config.train_grid,
        generate_full_batch(),
        MiniBatchPolicy(3),
        derive_stream(seed, "sample"),
    )
    recipe = FitRecipe(mode=FitMode.FG, n_centres=100)
    centres = sample_centres(derive_stream(seed, "centres"), observations, recipe)
    diffs = [np.subtract.outer(config.train_grid.axis(k), centres[:, k]) for k in range(2)]
    subnormal = []
    for eps in SHAPE_CANDIDATES.tolist():
        blocks = [_system(observations.points, centres, eps, FitMode.FG)]
        for d in diffs:
            e, dd = axis_factors(d, eps)
            blocks += [e, dd, e.T @ e, dd.T @ dd]
        for block in map(np.abs, blocks):
            if np.any((block > 0) & (block < sys.float_info.min)):
                subnormal.append(eps)
    assert subnormal == []


def test_kernel_params_validation():
    for bad in (0.0, -1.0, float("nan"), float("inf")):
        with pytest.raises(ValueError):
            KernelParams(bad)


def test_kernel_gradient_example():
    # -2 eps^2 (x - c) exp(-(eps r)^2) at x=(1,0), c=(0,0), eps=1
    g = kernel_gradient([1.0, 0.0], [0.0, 0.0], 1.0)
    assert g == pytest.approx([-2.0 * math.exp(-1.0), 0.0], rel=1e-15)


def test_kernel_gradient_zero_at_centre():
    g = kernel_gradient([0.3, -1.2], [0.3, -1.2], 2.5)
    assert g[0] == 0.0 and g[1] == 0.0


def test_kernel_gradient_matches_finite_differences():
    stream = derive_stream(21, "kernel/fd")
    for _ in range(10):
        eps = 10 ** uniform(stream, -1, 1)
        c = np.array([uniform(stream, -2, 2), uniform(stream, -2, 2)])
        x = c + np.array([uniform(stream, -1, 1), uniform(stream, -1, 1)]) / eps
        h = 1e-6 / eps

        def phi(p):
            return math.exp(-((eps * math.hypot(*(p - c))) ** 2))

        fd = np.array(
            [
                (phi(x + [h, 0]) - phi(x - [h, 0])) / (2 * h),
                (phi(x + [0, h]) - phi(x - [0, h])) / (2 * h),
            ]
        )
        an = kernel_gradient(x, c, eps)
        assert np.linalg.norm(fd - an) <= 1e-6 * max(np.linalg.norm(an), 1e-9)


def test_value_matrix_entries_match_kernel_value():
    points = np.array([[0.0, 0.0], [1.0, 0.5], [-1.0, 2.0]])
    centres = np.array([[0.5, 0.5], [-1.5, 1.0]])
    params = KernelParams(0.8)
    a = assemble_value_matrix(points, centres, params)
    assert a.shape == (3, 2)
    for i in range(3):
        for j in range(2):
            r = math.hypot(*(points[i] - centres[j]))
            assert a[i, j] == pytest.approx(math.exp(-((0.8 * r) ** 2)), rel=1e-14)


def test_value_matrix_unit_diagonal_when_points_are_centres():
    pts = np.array([[0.1, 0.2], [3.0, -1.0], [2.5, 2.5]])
    a = assemble_value_matrix(pts, pts, KernelParams(1.7))
    assert np.all(np.diag(a) == 1.0)


def test_gradient_matrix_layout_point_major():
    points = np.array([[0.0, 0.0], [1.0, 0.5], [-1.0, 2.0]])
    centres = np.array([[0.5, 0.5], [-1.5, 1.0]])
    params = KernelParams(1.1)
    g = assemble_gradient_matrix(points, centres, params)
    assert g.shape == (6, 2)
    for i in range(3):
        for j in range(2):
            diff = points[i] - centres[j]
            want = -2.0 * 1.1**2 * diff * math.exp(-((1.1 * math.hypot(*diff)) ** 2))
            assert g[2 * i, j] == pytest.approx(want[0], rel=1e-13, abs=1e-15)
            assert g[2 * i + 1, j] == pytest.approx(want[1], rel=1e-13, abs=1e-15)


def test_per_eps_blocks_are_bitwise_the_assembled_matrices():
    # the sweep evaluates value_block on radii computed once and
    # gradient_block from the points and centres; every candidate must give
    # the bytes of a fresh assembly and of the defining expressions on the
    # (N, M, d) differences
    stream = derive_stream(11, "kernel/blocks")
    points = np.array([[uniform(stream, -2, 2), uniform(stream, -2, 2)] for _ in range(30)])
    centres = points[:7]
    r = _radii(points, centres)
    ref_diff = points[:, None, :] - centres[None, :, :]
    ref_r = np.sqrt((ref_diff**2).sum(axis=-1))
    assert np.array_equal(r, ref_r)
    for eps in 10.0 ** np.linspace(-4.0, 5.0, 121):
        eps = float(eps)
        params = KernelParams(eps)
        phi = value_block(r, eps, np.empty_like(r))
        g = gradient_block(points, centres, phi, eps, np.empty((60, 7)))
        arg = (eps * ref_r) ** 2
        ref_phi = np.where(arg > FLOOR_ARG, 0.0, np.exp(-arg))
        ref_g = (-2.0 * eps**2 * ref_diff * ref_phi[:, :, None]).transpose(0, 2, 1).reshape(60, 7)
        assert np.array_equal(phi, ref_phi)
        assert np.array_equal(g, ref_g)
        assert np.array_equal(phi, assemble_value_matrix(points, centres, params))
        assert np.array_equal(g, assemble_gradient_matrix(points, centres, params))


def test_axis_factors_multiply_to_the_kernel_and_its_gradient():
    # off-grid centres against a 7 x 5 tensor grid, from the flat limit to
    # past the floor: the products of per-axis factors are the assembled
    # value and gradient entries up to rounding, and where value_block
    # floors phi of the radius they are below exp(-FLOOR_ARG)
    stream = derive_stream(12, "kernel/axes")
    u, v = np.linspace(-2.0, 2.0, 7), np.linspace(-1.0, 3.0, 5)
    points = np.stack([c.ravel() for c in np.meshgrid(u, v)], axis=1)
    centres = np.array([[uniform(stream, -2, 2), uniform(stream, -1, 3)] for _ in range(6)])
    floored_products = 0
    for eps in (1e-4, 0.3, 2.0, 9.0, 15.0, 21.0, 60.0):
        (eu, du), (ev, dv) = (
            axis_factors(np.subtract.outer(axis, centres[:, k]), eps) for k, axis in enumerate((u, v))
        )
        for e in (eu, ev):
            assert e[e > 0].min(initial=1.0) >= math.exp(-FLOOR_ARG)
        phi = assemble_value_matrix(points, centres, KernelParams(eps))
        grad = assemble_gradient_matrix(points, centres, KernelParams(eps))
        # node (u[i], v[j]) is row j * 7 + i
        value = (ev[:, None, :] * eu[None, :, :]).reshape(35, 6)
        d1 = (ev[:, None, :] * du[None, :, :]).reshape(35, 6)
        d2 = (dv[:, None, :] * eu[None, :, :]).reshape(35, 6)
        # exp(-arg) carries the argument's rounding, so the relative error
        # grows with it, up to about FLOOR_ARG ulps (530 measured)
        rtol = 2.0 * FLOOR_ARG * 2.0**-52
        slack = math.exp(-FLOOR_ARG) * max(1.0, 2.0 * eps**2 * 5.0)
        assert np.allclose(value, phi, rtol=rtol, atol=slack), eps
        assert np.allclose(d1, grad[0::2], rtol=rtol, atol=slack), eps
        assert np.allclose(d2, grad[1::2], rtol=rtol, atol=slack), eps
        floored_products += np.count_nonzero((phi == 0) & (value > 0))
    # some products survive where phi is floored, so the slack was needed
    assert floored_products > 0


@pytest.mark.parametrize("d", [1, 2, 3])
def test_value_matrix_is_value_block_of_pairwise_radii(d):
    # evaluation sums the squared coordinate differences without the
    # (N, d, M) differences; the bytes must be those of the sweep's route
    stream = derive_stream(12, f"kernel/eval/{d}")
    points = np.array([[uniform(stream, -2, 2) for _ in range(d)] for _ in range(40)])
    centres = points[::3]
    for eps in (1e-4, 0.37, 2.9, 1e5):
        r = _radii(points, centres)
        want = value_block(r, eps, r)
        assert np.array_equal(assemble_value_matrix(points, centres, KernelParams(eps)), want)


@pytest.mark.parametrize("d", [1, 2, 3])
def test_gradient_block_is_the_difference_array_formula_bitwise(d):
    # gradient_block writes the differences into its output instead of
    # taking an (N, d, M) array; the bits must be those of the difference
    # array's form, from the flat limit to past the floor, also when out is
    # the lower rows of an fg design matrix
    stream = derive_stream(13, f"kernel/grad/{d}")
    points = np.array([[uniform(stream, -2, 2) for _ in range(d)] for _ in range(40)])
    centres = points[::3]
    r = _radii(points, centres)
    a = np.empty((40 + 40 * d, centres.shape[0]))
    for eps in (1e-4, 0.37, 2.9, 60.0, 1e5):
        phi = value_block(r, eps, np.empty_like(r))
        want = gradient_rows_from_differences(points, centres, phi, eps)
        got = gradient_block(points, centres, phi, eps, a[40:])
        assert got.tobytes() == want.tobytes(), eps


def report_grid_and_centres():
    """The 101x101 report grid and 100 centres drawn from the 25x25 training grid."""
    config = ExperimentConfig()
    train = config.train_grid.points()
    return config.report_grid.points(), train[derive_stream(5, "kernel/c").choose(len(train), 100)]


def test_value_matrix_is_value_block_of_pairwise_radii_on_report_grid():
    points, centres = report_grid_and_centres()
    r = _radii(points, centres)
    want = value_block(r, 0.62, r)
    assert np.array_equal(assemble_value_matrix(points, centres, KernelParams(0.62)), want)


def test_value_matrix_peak_allocation_on_report_grid():
    # the result plus one N x M scratch of coordinate differences; the
    # (N, d, M) difference tensor alone would be 2 N M doubles
    points, centres = report_grid_and_centres()
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        a = assemble_value_matrix(points, centres, KernelParams(0.62))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert a.shape == (10201, 100)
    assert peak <= 2.5 * a.nbytes


def test_gradient_block_refuses_a_strided_buffer():
    points, centres = np.zeros((3, 2)), np.ones((4, 2))
    r = _radii(points, centres)
    phi = value_block(r, 1.0, r)
    with pytest.raises(ValueError, match="C-contiguous"):
        gradient_block(points, centres, phi, 1.0, np.empty((4, 6)).T)


def test_matrix_dimension_mismatch():
    with pytest.raises(ValueError):
        assemble_value_matrix(np.zeros((3, 2)), np.zeros((2, 3)), KernelParams(1.0))
    with pytest.raises(ValueError):
        assemble_value_matrix(np.zeros(3), np.zeros((2, 2)), KernelParams(1.0))


def test_solve_identity():
    b = np.array([3.0, -1.0, 2.0])
    x = solve_least_squares(np.eye(3), b)
    assert np.allclose(x, b, rtol=1e-14)


def test_solve_overdetermined_least_squares():
    # min over x of (x-1)^2 + (x-3)^2 has solution x = 2
    a = np.array([[1.0], [1.0]])
    b = np.array([1.0, 3.0])
    x = solve_least_squares(a, b)
    assert x == pytest.approx([2.0], rel=1e-12)


def test_solve_underdetermined_minimum_norm():
    # x1 + x2 = 2 with minimum norm gives (1, 1)
    a = np.array([[1.0, 1.0]])
    b = np.array([2.0])
    x = solve_least_squares(a, b)
    assert x == pytest.approx([1.0, 1.0], rel=1e-12)


def test_solve_rank_cutoff_drops_tiny_singular_values():
    a = np.diag([1.0, 1e-13])
    x = solve_least_squares(a, np.array([1.0, 1.0]))
    assert x[0] == pytest.approx(1.0, rel=1e-12)
    assert x[1] == 0.0  # sigma 1e-13: far below the 1e-6 relative cutoff


def test_solve_cutoff_is_1e_6_relative_in_singular_values():
    # REL_TOL = 1e-12 applies to the eigenvalues sigma**2 of a^T a
    x = solve_least_squares(np.diag([1.0, 1e-7]), np.array([1.0, 1.0]))
    assert x[0] == pytest.approx(1.0, rel=1e-12)
    assert x[1] == 0.0  # sigma 1e-7, lambda 1e-14: dropped
    x = solve_least_squares(np.diag([1.0, 1e-5]), np.array([1.0, 1.0]))
    assert x[1] == pytest.approx(1e5, rel=1e-9)  # sigma 1e-5, lambda 1e-10: kept


def test_solve_all_zero_matrix_gives_exact_zeros():
    # the g-mode system in the kernel-floor tail: every entry a signed zero
    a = np.zeros((8, 3))
    a[::2] = -0.0
    x = solve_least_squares(a, np.linspace(-1.0, 1.0, 8))
    assert x.tobytes() == np.zeros(3).tobytes()


def test_solve_overflow_raises_numerical_error():
    # finite input whose normal matrix overflows is a skipped candidate, not bad input
    a = np.full((4, 2), 1e200)
    with pytest.raises(NumericalError):
        solve_least_squares(a, np.ones(4))
    # and so is a solution that overflows: x = 1e145 / 1e-310
    with pytest.raises(NumericalError):
        solve_least_squares(np.array([[1e-155]]), np.array([1e300]))


def test_solve_maps_a_failed_eigensolve_to_numerical_error(monkeypatch):
    def fail(g):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(np.linalg, "eigh", fail)
    with pytest.raises(NumericalError, match="did not converge"):
        solve_least_squares(np.eye(2), np.ones(2))


def test_solve_recovers_exact_solution():
    stream = derive_stream(3, "solver")
    a = np.array([[uniform(stream, -1, 1) for _ in range(3)] for _ in range(6)])
    x0 = np.array([1.5, -0.25, 0.75])
    x = solve_least_squares(a, a @ x0)
    assert np.allclose(x, x0, rtol=1e-10)


def test_solve_residual_orthogonal_to_columns():
    stream = derive_stream(4, "solver")
    a = np.array([[uniform(stream, -1, 1) for _ in range(4)] for _ in range(9)])
    b = np.array([uniform(stream, -5, 5) for _ in range(9)])
    x = solve_least_squares(a, b)
    assert np.linalg.norm(a.T @ (b - a @ x)) <= 1e-10 * np.linalg.norm(b)


def test_solve_rejects_nonfinite_input():
    with pytest.raises(ValueError):
        solve_least_squares(np.array([[np.inf, 1.0]]), np.array([1.0]))
    with pytest.raises(ValueError):
        solve_least_squares(np.eye(2), np.array([np.nan, 0.0]))


def test_solve_rejects_bad_shapes():
    with pytest.raises(ValueError):
        solve_least_squares(np.zeros((2, 2)), np.zeros(3))
    with pytest.raises(ValueError):
        solve_least_squares(np.zeros(4), np.zeros(4))


def test_numerical_error_is_distinct_from_input_error():
    assert issubclass(NumericalError, RuntimeError)
    assert not issubclass(NumericalError, ValueError)


def system_with_spectrum(lam, label):
    """(a, b) with a^T a = Q diag(lam) Q^T up to rounding, Q a random orthogonal matrix."""
    stream = derive_stream(31, f"kernel/spectrum/{label}")
    m = len(lam)
    q = np.linalg.qr(np.array([[uniform(stream, -1, 1) for _ in range(m)] for _ in range(m)]))[0]
    b = np.array([uniform(stream, -1, 1) for _ in range(m)])
    return np.sqrt(np.asarray(lam))[:, None] * q.T, b, q


def sweep_solver(rank=0, basis=None):
    """A SweepSolver as a previous candidate with this kept count and basis left it."""
    solver = SweepSolver()
    solver.rank, solver.basis = rank, basis
    return solver


def screen(solver, a, b):
    """solver.solve on the normal system of a x = b, as a sweep on a design matrix calls it."""
    with np.errstate(over="ignore", invalid="ignore"):
        return solver.solve(*normal_system(a, b))


def test_sweep_solver_takes_the_full_rank_route_when_lam_min_clears_the_cutoff():
    lam = np.geomspace(1.0, 1e-6, 30)
    a, b, _ = system_with_spectrum(lam, "full")
    x, kept, route = screen(sweep_solver(rank=30), a, b)
    assert (kept, route) == (30, "full")
    assert np.allclose(x, solve_least_squares(a, b), rtol=1e-8)


# (route state, kept eigenvalues, spectrum); lam_max = 1 dominates, so
# ||G||_F is lam_max to 1e-6 and the cutoff is REL_TOL
NEAR_CUTOFF = {
    # the smallest of 30 kept is 1.05 times the cutoff
    "full": (30, [1.0, *np.geomspace(1e-3, 1e-11, 28), 1.05 * REL_TOL]),
    # the smallest of 4 kept is 1.05 times the cutoff
    "block-kept": (4, [1.0, 0.3, 0.1, 1.05 * REL_TOL, *[1e-15] * 36]),
    # the largest dropped is 0.95 times the cutoff
    "block-dropped": (3, [1.0, 0.3, 0.1, 0.95 * REL_TOL, *[1e-15] * 36]),
}


@pytest.mark.parametrize("case", sorted(NEAR_CUTOFF))
def test_sweep_solver_refuses_an_eigenvalue_near_the_cutoff(case):
    # eigh keeps or drops it, but the certificates need a margin, so the
    # solve falls back to eigh
    kept_want, lam = NEAR_CUTOFF[case]
    a, b, q = system_with_spectrum(lam, f"near/{case}")
    if case == "full":
        solver = sweep_solver(rank=30)
    else:
        solver = sweep_solver(rank=4, basis=q[:, :16])
    x, kept, route = screen(solver, a, b)
    assert (kept, route) == (kept_want, "eigh")
    assert x.tobytes() == solve_least_squares(a, b).tobytes()


def test_sweep_solver_takes_the_block_route_from_the_previous_eigenvectors():
    lam = np.concatenate([[1.0, 0.3, 0.1], np.full(37, 1e-15)])
    a, b, q = system_with_spectrum(lam, "block")
    x, kept, route = screen(sweep_solver(rank=3, basis=q[:, :15]), a, b)
    assert (kept, route) == (3, "block")
    assert np.allclose(x, solve_least_squares(a, b), rtol=1e-9)


def test_sweep_solver_refuses_a_stale_block_missing_the_dominant_eigenvector():
    # the block spans the next 15 eigenvectors, orthogonal to the first: its
    # Ritz values miss lam_max, and the residual certificate refuses it
    lam = np.concatenate([[1.0, 0.3, 0.1], np.full(37, 1e-15)])
    a, b, q = system_with_spectrum(lam, "stale")
    x, kept, route = screen(sweep_solver(rank=3, basis=q[:, 1:16]), a, b)
    assert (kept, route) == (3, "eigh")
    assert x.tobytes() == solve_least_squares(a, b).tobytes()


def test_sweep_solver_refuses_a_residual_whose_norm_reaches_the_drop_bound():
    # the block holds the exact leading vectors and eigh keeps its 3, but
    # the 4 dropped eigenvalues at half the cutoff give the residual
    # R = G - U_k Theta_k U_k^T a 2-norm of 0.5 and a Frobenius norm of
    # sqrt(4) * 0.5 = 1.0 times the cutoff: below and above _DROP = 0.9.
    # The certificate is the Frobenius norm, so the block is refused
    lam = np.concatenate([[1.0, 0.3, 0.1], np.full(4, 0.5 * REL_TOL), np.full(33, 1e-15)])
    a, b, q = system_with_spectrum(lam, "frobenius")
    x, kept, route = screen(sweep_solver(rank=3, basis=q[:, :15]), a, b)
    assert (kept, route) == (3, "eigh")
    assert x.tobytes() == solve_least_squares(a, b).tobytes()


def test_sweep_solver_refuses_a_saturated_block():
    # the previous rank was 1, so the block has 13 vectors; this system
    # keeps 20, more than the block holds, so every Ritz value is kept and
    # the 7 kept eigenvalues the block misses stay in the residual
    lam = np.concatenate([np.geomspace(1.0, 1e-6, 20), np.full(40, 1e-15)])
    a, b, q = system_with_spectrum(lam, "saturated")
    x, kept, route = screen(sweep_solver(rank=1, basis=q[:, :13]), a, b)
    assert (kept, route) == (20, "eigh")
    assert x.tobytes() == solve_least_squares(a, b).tobytes()


@pytest.mark.parametrize("state", ["fresh", "full", "block"])
def test_sweep_solver_gives_exact_zeros_for_the_all_zero_tail_system(state):
    # the g-mode system in the kernel-floor tail, wide enough to be screened
    a = np.zeros((60, 30))
    a[::2] = -0.0
    basis = np.eye(30)[:, :13] if state == "block" else None
    solver = sweep_solver(rank={"fresh": 0, "full": 30, "block": 1}[state], basis=basis)
    x, kept, route = screen(solver, a, np.linspace(-1.0, 1.0, 60))
    assert (kept, route) == (0, "eigh")
    assert x.tobytes() == np.zeros(30).tobytes()


def sweep_solver_states(m):
    """A fresh solver and solvers poised for the full-rank and the block route."""
    return [sweep_solver(), sweep_solver(rank=m), sweep_solver(rank=1, basis=np.eye(m)[:, :13])]


ERROR_CASES = [
    # (a, b, error): the narrow systems of the solve_least_squares tests, and
    # wide ones that reach the screened routes
    (np.array([[np.inf, 1.0]]), np.array([1.0]), ValueError),
    (np.eye(2), np.array([np.nan, 0.0]), ValueError),
    (np.full((4, 2), 1e200), np.ones(4), NumericalError),
    (np.array([[1e-155]]), np.array([1e300]), NumericalError),
    (np.where(np.eye(30), np.inf, 1.0), np.ones(30), ValueError),
    (np.eye(30), np.full(30, np.nan), ValueError),
    (np.full((40, 30), 1e200), np.ones(40), NumericalError),
    # G = 1e-310 * I factors, but x = 1e145 / 1e-310 overflows
    (1e-155 * np.eye(30), np.full(30, 1e300), NumericalError),
]


@pytest.mark.parametrize("case", range(len(ERROR_CASES)))
def test_sweep_solver_raises_where_solve_least_squares_raises(case):
    a, b, error = ERROR_CASES[case]
    with pytest.raises(error):
        solve_least_squares(a, b)
    for solver in sweep_solver_states(a.shape[1]):
        with pytest.raises(error):
            screen(solver, a, b)


@pytest.mark.parametrize("bad", ["diagonal", "rhs"])
def test_sweep_solver_raises_numerical_error_on_a_non_finite_system(bad):
    # a Gram matrix formed without normal_system, as on the grid route, is
    # checked by the solver itself
    g, atb = np.eye(30), np.ones(30)
    if bad == "diagonal":
        g[3, 3] = np.inf
    else:
        atb[5] = np.nan
    for solver in sweep_solver_states(30):
        with pytest.raises(NumericalError, match="overflowed"):
            solver.solve(g, atb)


@pytest.mark.parametrize("m", [2, 30])
def test_sweep_solver_maps_a_failed_eigensolve_to_numerical_error(monkeypatch, m):
    # the block route's small eigensolve fails too, and falls back; route 1
    # runs no eigensolve, so its state is left out
    def fail(g):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(np.linalg, "eigh", fail)
    fresh, _, block = sweep_solver_states(m)
    for solver in (fresh, block):
        with pytest.raises(NumericalError, match="did not converge"):
            screen(solver, np.eye(m), np.ones(m))
