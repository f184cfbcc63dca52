"""Surface grids, minima statistics and report assembly."""

import json
import math

import numpy as np
import pytest
from draws import uniform

from gradsurf.analysis import (
    SurfaceGrid,
    count_local_minima,
    evaluate_surface,
    locate_min,
    make_report,
    negative_fraction,
    surface_rmse,
)
from gradsurf.kernels import KernelParams
from gradsurf.problem import (
    Dataset1D,
    GridSpec,
    analytic_loss,
    generate_full_batch,
)
from gradsurf.rng import derive_stream
from gradsurf.surrogate import FitMode, Surrogate, predict_values

BOX = GridSpec(lower=(-2.0, -2.0), upper=(2.0, 2.0), resolution=25)


def oracle_moments():
    xs = np.linspace(-2.0, 2.0, 121)
    m2 = math.fsum(x * x for x in xs) / 121
    m3 = math.fsum(x**3 for x in xs) / 121
    m4 = math.fsum(x**4 for x in xs) / 121
    return m2, m3, m4


def oracle_loss(w1, w2):
    # full-batch quadratic loss in closed form via power sums
    m2, m3, m4 = oracle_moments()
    a, b = w1 - 0.1, w2 - 0.1
    return a * a * m4 + 2 * a * b * m3 + b * b * m2


def surface_from(fn, grid=BOX):
    return evaluate_surface(fn, grid)


def test_evaluate_surface_callable_layout_and_corner():
    surf = surface_from(lambda pts: analytic_loss(pts, generate_full_batch()))
    assert isinstance(surf, SurfaceGrid)
    assert surf.values.shape == (25, 25)
    # values[j, i] pairs with node (i, j); corner (-2, -2) is values[0, 0]
    assert surf.values[0, 0] == pytest.approx(oracle_loss(-2.0, -2.0), rel=1e-12)
    assert surf.values[0, 0] == pytest.approx(20.562991555555556, rel=1e-12)
    # asymmetric probe pins the axis order
    assert surf.values[0, 24] == pytest.approx(oracle_loss(2.0, -2.0), rel=1e-12)
    assert surf.values[24, 0] == pytest.approx(oracle_loss(-2.0, 2.0), rel=1e-12)


def test_evaluate_surface_from_surrogate():
    stream = derive_stream(30, "surf")
    centres = np.array([[uniform(stream, -2, 2), uniform(stream, -2, 2)] for _ in range(4)])
    coef = np.array([uniform(stream, -1, 1) for _ in range(4)])
    s = Surrogate(centres=centres, coefficients=coef, params=KernelParams(0.8), mode=FitMode.F)
    surf = surface_from(s)
    flat = predict_values(s, BOX.points())
    assert np.array_equal(surf.values.reshape(-1), flat)


def test_evaluate_surface_bad_source():
    with pytest.raises(TypeError):
        evaluate_surface(42, BOX)


def test_locate_min_analytic_surface():
    surf = surface_from(lambda pts: analytic_loss(pts, generate_full_batch()))
    node, value = locate_min(surf)
    # nearest 25-grid node to the true minimum (0.1, 0.1)
    assert node[0] == pytest.approx(BOX.axis(0)[13], abs=0)
    assert node[1] == pytest.approx(BOX.axis(1)[13], abs=0)
    assert node[0] == pytest.approx(1 / 6, rel=1e-12)
    assert value == pytest.approx(oracle_loss(node[0], node[1]), rel=1e-12)


def test_locate_min_tie_takes_first_flat_index():
    grid = GridSpec(lower=(0.0, 0.0), upper=(1.0, 1.0), resolution=3)
    values = np.ones((3, 3))
    values[1, 2] = -1.0  # flat index 5
    values[2, 0] = -1.0  # flat index 6, later
    node, value = locate_min(SurfaceGrid(grid=grid, values=values))
    assert value == -1.0
    assert tuple(node) == (1.0, 0.5)


def test_locate_min_constant_surface():
    grid = GridSpec(lower=(0.0, 0.0), upper=(1.0, 1.0), resolution=4)
    node, value = locate_min(SurfaceGrid(grid=grid, values=np.full((4, 4), 2.5)))
    assert tuple(node) == (0.0, 0.0)
    assert value == 2.5


def brute_force_minima(values):
    res_j, res_i = values.shape
    count = 0
    for j in range(res_j):
        for i in range(res_i):
            strict = True
            for dj in (-1, 0, 1):
                for di in (-1, 0, 1):
                    if dj == 0 and di == 0:
                        continue
                    jj, ii = j + dj, i + di
                    if 0 <= jj < res_j and 0 <= ii < res_i:
                        if not (values[j, i] < values[jj, ii]):
                            strict = False
            if strict:
                count += 1
    return count


def test_count_local_minima_analytic_bowl():
    surf = surface_from(lambda pts: analytic_loss(pts, generate_full_batch()))
    assert count_local_minima(surf) == 1
    assert brute_force_minima(surf.values) == 1


def test_count_local_minima_constant_is_zero():
    grid = GridSpec(lower=(0.0, 0.0), upper=(1.0, 1.0), resolution=5)
    assert count_local_minima(SurfaceGrid(grid=grid, values=np.zeros((5, 5)))) == 0


def test_count_local_minima_two_bowls():
    def two_bowls(pts):
        d1 = np.sum((pts - np.array([-1.0, -1.0])) ** 2, axis=1)
        d2 = np.sum((pts - np.array([1.0, 1.0])) ** 2, axis=1)
        return np.minimum(d1, d2)

    surf = surface_from(two_bowls)
    assert count_local_minima(surf) == 2
    assert brute_force_minima(surf.values) == 2


def test_count_local_minima_plateau_pair_counts_zero():
    grid = GridSpec(lower=(0.0, 0.0), upper=(1.0, 1.0), resolution=4)
    values = np.ones((4, 4))
    values[1, 1] = values[1, 2] = 0.0  # adjacent equal lows: neither is strict
    surf = SurfaceGrid(grid=grid, values=values)
    assert count_local_minima(surf) == 0
    assert brute_force_minima(values) == 0


def test_count_local_minima_boundary_corner_counts():
    grid = GridSpec(lower=(0.0, 0.0), upper=(1.0, 1.0), resolution=4)
    values = np.ones((4, 4))
    values[0, 0] = -1.0
    surf = SurfaceGrid(grid=grid, values=values)
    assert count_local_minima(surf) == 1


def test_count_local_minima_matches_brute_force_random():
    stream = derive_stream(33, "mins")
    grid = GridSpec(lower=(0.0, 0.0), upper=(1.0, 1.0), resolution=8)
    for _ in range(10):
        values = np.array(
            [[uniform(stream, -1, 1) for _ in range(8)] for _ in range(8)]
        )
        surf = SurfaceGrid(grid=grid, values=values)
        assert count_local_minima(surf) == brute_force_minima(values)


def test_negative_fraction_exact():
    grid = GridSpec(lower=(0.0, 0.0), upper=(1.0, 1.0), resolution=4)
    values = np.zeros((4, 4))
    assert negative_fraction(SurfaceGrid(grid=grid, values=values)) == 0.0
    values[0, 0] = -1e-300
    values[3, 2] = -2.0
    assert negative_fraction(SurfaceGrid(grid=grid, values=values)) == 2 / 16
    assert negative_fraction(SurfaceGrid(grid=grid, values=-np.ones((4, 4)))) == 1.0


def test_surface_rmse_oracle():
    grid = GridSpec(lower=(0.0, 0.0), upper=(1.0, 1.0), resolution=3)
    a = SurfaceGrid(grid=grid, values=np.zeros((3, 3)))
    diffs = np.arange(9.0).reshape(3, 3)
    b = SurfaceGrid(grid=grid, values=diffs)
    want = math.sqrt(math.fsum(float(d) ** 2 for d in diffs.reshape(-1)) / 9)
    assert surface_rmse(a, b) == pytest.approx(want, rel=1e-15)
    assert surface_rmse(a, a) == 0.0


def test_surface_rmse_grid_mismatch():
    a = SurfaceGrid(
        grid=GridSpec(lower=(0.0, 0.0), upper=(1.0, 1.0), resolution=3),
        values=np.zeros((3, 3)),
    )
    b = SurfaceGrid(
        grid=GridSpec(lower=(0.0, 0.0), upper=(2.0, 2.0), resolution=3),
        values=np.zeros((3, 3)),
    )
    with pytest.raises(ValueError):
        surface_rmse(a, b)


def test_make_report_fields():
    surf = surface_from(lambda pts: analytic_loss(pts, generate_full_batch()))
    report = make_report(surf)
    assert list(report) == ["argmin", "min_value", "local_min_count", "negative_fraction"]
    assert report["local_min_count"] == 1
    assert report["negative_fraction"] == 0.0
    assert report["min_value"] == pytest.approx(oracle_loss(1 / 6, 1 / 6), rel=1e-12)
    assert report["argmin"] == pytest.approx([1 / 6, 1 / 6], rel=1e-12)
    assert type(report["argmin"]) is list
    json.dumps(report)  # serializable without custom encoders


def test_make_report_with_reference():
    surf = surface_from(lambda pts: analytic_loss(pts, generate_full_batch()))
    report = make_report(surf, reference=surf)
    assert list(report)[-1] == "rmse_vs_reference"
    assert report["rmse_vs_reference"] == 0.0


def test_surface_grid_validation():
    grid = GridSpec(lower=(0.0, 0.0), upper=(1.0, 1.0), resolution=3)
    with pytest.raises(ValueError):
        SurfaceGrid(grid=grid, values=np.zeros((3, 4)))
