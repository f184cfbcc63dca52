"""Kernel evaluation, matrix assembly and the minimum-norm solver.

Expected values are recomputed in the tests from the defining formulas
(math.exp, per-entry loops, normal equations) rather than copied from the
implementation.
"""

import math

import numpy as np
import pytest

from gradsurf.kernels import (
    KernelParams,
    NumericalError,
    assemble_gradient_matrix,
    assemble_value_matrix,
    gradient_block,
    pairwise,
    solve_least_squares,
    value_block,
)
from gradsurf.rng import derive_stream


def radii(rs):
    """pairwise radii of points at distances rs along the first axis from the origin."""
    points = np.column_stack([rs, np.zeros(len(rs))])
    return pairwise(points, np.zeros((1, 2)))[1][:, 0]


def kernel_gradient(x, centre, eps):
    """Spatial gradient of phi(||x - centre||) in x, from pairwise and the blocks."""
    diff, r = pairwise([x], [centre])
    return gradient_block(diff, value_block(r, eps), eps)[:, 0]


def test_kernel_value_scalar_examples():
    examples = [(0.0, 3.7), (1.0, 1.0), (0.5, 2.0), (2.0, 3.0)]
    phi = [value_block(radii([r]), eps)[0] for r, eps in examples]
    assert phi[0] == 1.0
    assert phi[1] == pytest.approx(math.exp(-1.0), rel=1e-15)
    assert phi[2] == pytest.approx(math.exp(-1.0), rel=1e-15)
    assert phi[3] == pytest.approx(math.exp(-36.0), rel=1e-15)


def test_kernel_value_strictly_decreasing_and_bounded():
    vals = value_block(radii(np.linspace(0.0, 4.0, 200)), 1.3)
    assert np.all(np.diff(vals) < 0)
    assert np.all(vals > 0)
    assert np.all(vals <= 1.0)
    assert vals[0] == 1.0


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
        eps = 10 ** stream.uniform(-1, 1)
        c = np.array([stream.uniform(-2, 2), stream.uniform(-2, 2)])
        x = c + np.array([stream.uniform(-1, 1), stream.uniform(-1, 1)]) / eps
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
    # the sweep evaluates value_block/gradient_block on geometry computed
    # once; every candidate must give the bytes of a fresh assembly and of
    # the defining expressions on the (N, M, d) differences
    stream = derive_stream(11, "kernel/blocks")
    points = np.array([[stream.uniform(-2, 2), stream.uniform(-2, 2)] for _ in range(30)])
    centres = points[:7]
    diff, r = pairwise(points, centres)
    ref_diff = points[:, None, :] - centres[None, :, :]
    ref_r = np.sqrt((ref_diff**2).sum(axis=-1))
    assert np.array_equal(r, ref_r)
    for eps in 10.0 ** np.linspace(-4.0, 5.0, 121):
        eps = float(eps)
        params = KernelParams(eps)
        phi = value_block(r, eps)
        g = gradient_block(diff, phi, eps)
        ref_phi = np.exp(-((eps * ref_r) ** 2))
        ref_g = (-2.0 * eps**2 * ref_diff * ref_phi[:, :, None]).transpose(0, 2, 1).reshape(60, 7)
        assert np.array_equal(phi, ref_phi)
        assert np.array_equal(g, ref_g)
        assert np.array_equal(phi, assemble_value_matrix(points, centres, params))
        assert np.array_equal(g, assemble_gradient_matrix(points, centres, params))


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
    assert x[1] == 0.0  # below the 1e-12 relative cutoff


def test_solve_recovers_exact_solution():
    stream = derive_stream(3, "solver")
    a = np.array([[stream.uniform(-1, 1) for _ in range(3)] for _ in range(6)])
    x0 = np.array([1.5, -0.25, 0.75])
    x = solve_least_squares(a, a @ x0)
    assert np.allclose(x, x0, rtol=1e-10)


def test_solve_residual_orthogonal_to_columns():
    stream = derive_stream(4, "solver")
    a = np.array([[stream.uniform(-1, 1) for _ in range(4)] for _ in range(9)])
    b = np.array([stream.uniform(-5, 5) for _ in range(9)])
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
