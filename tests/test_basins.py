"""Basin counting by flooding and the gradient resolution of a sampled cell."""

import math
from dataclasses import replace

import numpy as np
import pytest
from basins import basin_depths, count_basins, gradient_resolution
from draws import uniform
from reference import full_batch_observations

from gradsurf.analysis import SurfaceGrid, count_local_minima, evaluate_surface
from gradsurf.config import ExperimentConfig
from gradsurf.experiment import RunCell
from gradsurf.problem import (
    GridSpec,
    MiniBatchPolicy,
    Observations,
    generate_full_batch,
    sample_loss_surface,
)
from gradsurf.rng import derive_stream
from gradsurf.surrogate import FitMode, FitRecipe, fit_surrogate

DEFAULT = ExperimentConfig()


def surface(values):
    rows, cols = values.shape
    assert rows == cols
    grid = GridSpec(lower=(0.0, 0.0), upper=(1.0, 1.0), resolution=rows)
    return SurfaceGrid(grid=grid, values=np.asarray(values, dtype=np.float64))


def test_plateau_pair_is_one_basin():
    values = np.ones((4, 4))
    values[1, 1] = values[1, 2] = 0.0  # count_local_minima sees no minimum here
    surf = surface(values)
    assert count_local_minima(surf) == 0
    assert count_basins(surf) == 1
    assert basin_depths(surf) == [math.inf]


def test_two_by_two_tie_is_one_basin():
    values = np.ones((5, 5))
    values[2:4, 1:3] = -0.5
    surf = surface(values)
    assert count_local_minima(surf) == 0
    assert count_basins(surf) == 1


def test_constant_surface_is_one_basin():
    assert count_basins(surface(np.full((5, 5), 2.5))) == 1


def test_two_bowls_are_two_basins():
    grid = GridSpec(lower=(-2.0, -2.0), upper=(2.0, 2.0), resolution=25)

    def two_bowls(pts):
        d1 = np.sum((pts - np.array([-1.0, -1.0])) ** 2, axis=1)
        d2 = np.sum((pts - np.array([1.0, 1.0])) ** 2, axis=1)
        return np.minimum(d1, d2)

    assert count_basins(evaluate_surface(two_bowls, grid)) == 2


def test_shallower_bowl_drops_out_above_its_depth():
    values = np.full((6, 6), 5.0)
    values[1, 1] = 0.0  # deep bowl
    values[4, 3] = values[4, 4] = 3.0  # shallow plateau bowl, its rim at 5: depth 2
    surf = surface(values)
    assert sorted(basin_depths(surf)) == [2.0, math.inf]
    assert count_basins(surf, 1.5) == 2
    assert count_basins(surf, 2.0) == 2
    assert count_basins(surf, np.nextafter(2.0, 3.0)) == 1
    assert count_basins(surf, 7.0) == 1


def test_nested_saddles_end_each_basin_at_its_own_pass():
    # three pits on a 1.0 floor; the 0.6 pit escapes over a 0.8 pass into
    # the 0.2 pit, which escapes only over the 1.0 floor into the 0.0 pit
    values = np.ones((7, 7))
    values[1, 1] = 0.0
    values[5, 1] = 0.2
    values[5, 3] = 0.6
    values[5, 2] = 0.8
    depths = sorted(basin_depths(surface(values)))
    assert depths == pytest.approx([0.2, 0.8, math.inf])


def test_zero_resolution_matches_strict_count_on_tie_free_surfaces():
    stream = derive_stream(33, "basins")
    for size in (2, 3, 8, 13):
        for _ in range(25):
            values = np.array([[uniform(stream, -1, 1) for _ in range(size)] for _ in range(size)])
            assert np.unique(values).size == values.size
            surf = surface(values)
            assert count_basins(surf) == count_local_minima(surf)


def test_gradient_resolution_of_full_batch_data_is_zero():
    data = generate_full_batch()
    grid = DEFAULT.train_grid
    exact = full_batch_observations(grid, data)
    assert gradient_resolution(exact, exact, grid) == 0.0


def test_gradient_resolution_is_rms_error_times_spacing():
    data = generate_full_batch()
    grid = GridSpec(lower=(-2.0, -2.0), upper=(2.0, 2.0), resolution=5)
    exact = full_batch_observations(grid, data)
    shifted = replace(exact, gradients=exact.gradients + np.array([3.0, -4.0]))
    want = math.sqrt((9.0 + 16.0) / 2) * 1.0
    assert gradient_resolution(shifted, exact, grid) == pytest.approx(want, rel=1e-12)


def test_gradient_resolution_rejects_observations_off_the_grid():
    data = generate_full_batch()
    grid = GridSpec(lower=(-2.0, -2.0), upper=(2.0, 2.0), resolution=5)
    observations = full_batch_observations(grid, data)
    for rows in (slice(None, -1), slice(None, None, -1)):
        moved = Observations(
            observations.points[rows],
            observations.values[rows],
            observations.gradients[rows],
            observations.batch_sizes[rows],
        )
        with pytest.raises(ValueError):
            gradient_resolution(moved, observations, grid)


def test_noisy_value_fit_has_basins_above_gradient_resolution():
    # criterion 5's first cell: the value-fit pathology that criterion 4's
    # gradient-only fits are contrasted with must still show as extra basins
    data = generate_full_batch()
    cell = RunCell(batch_max=3, mode=FitMode.F, n_centres=100, repeat=0)
    cell_seed = cell.derived_seed(0)
    observations = sample_loss_surface(
        DEFAULT.train_grid, data, MiniBatchPolicy(3), derive_stream(cell_seed, "sample")
    )
    surrogate = fit_surrogate(
        observations, FitRecipe(mode=FitMode.F, n_centres=100), derive_stream(cell_seed, "centres")
    )
    surf = evaluate_surface(surrogate, DEFAULT.report_grid)
    exact = full_batch_observations(DEFAULT.train_grid, data)
    resolution = gradient_resolution(observations, exact, DEFAULT.train_grid)
    assert resolution > 0.0
    assert count_basins(surf, resolution) > 1
