"""Dataset generation, mini-batch losses and the closed-form surface.

Moment-based expectations are recomputed here by direct summation
(math.fsum over explicit powers), independently of the implementation.
"""

import math

import numpy as np
import pytest

from gradsurf.problem import (
    GridSpec,
    MiniBatchPolicy,
    Observations,
    analytic_loss,
    batch_gradient,
    batch_loss,
    full_batch_observations,
    generate_full_batch,
    model_predict,
    sample_batch_indices,
    sample_loss_surface,
)
from gradsurf.rng import derive_stream

# mean of xs**4 over the default dataset, by direct summation
MEAN_X4 = 3.307254320987654


def test_generate_full_batch_defaults():
    data = generate_full_batch()
    assert data.xs.size == 121
    assert data.xs[0] == -2.0 and data.xs[-1] == 2.0
    assert np.allclose(np.diff(data.xs), 4.0 / 120, rtol=1e-12)
    assert np.allclose(data.ys, 0.1 * data.xs**2 + 0.1 * data.xs, rtol=1e-15)
    assert data.coefficients == (0.1, 0.1)


def test_generate_full_batch_validation():
    with pytest.raises(ValueError):
        generate_full_batch(n=1)
    with pytest.raises(ValueError):
        generate_full_batch(interval=(2.0, -2.0))


def test_model_predict_example():
    assert model_predict([2.0, -1.0], 3.0) == 15.0
    assert np.array_equal(model_predict([1.0, 0.0], np.array([0.0, 2.0])), [0.0, 4.0])


def test_batch_loss_full_batch_is_mean_x4_at_offset_weight():
    # w = (1.1, 0.1): error is exactly x^2, so the loss is mean(x^4)
    data = generate_full_batch()
    loss = batch_loss([1.1, 0.1], data, np.arange(121))
    oracle = math.fsum(float(x) ** 4 for x in data.xs) / 121
    assert loss == pytest.approx(oracle, rel=1e-12)
    assert loss == pytest.approx(MEAN_X4, rel=1e-12)


def test_batch_loss_zero_at_generating_weights():
    data = generate_full_batch()
    assert batch_loss([0.1, 0.1], data, np.arange(121)) == 0.0


def test_batch_loss_single_point():
    data = generate_full_batch()
    k = 7
    e = model_predict([1.0, 1.0], data.xs[k]) - data.ys[k]
    assert batch_loss([1.0, 1.0], data, [k]) == pytest.approx(float(e * e), rel=1e-15)


def test_batch_loss_empty_indices_error():
    data = generate_full_batch()
    with pytest.raises(ValueError):
        batch_loss([1.0, 1.0], data, [])


def test_batch_gradient_single_point_example():
    data = generate_full_batch()
    # index 0: x=-2, y=0.2; w=(1,1): e = (4-2) - 0.2 = 1.8
    g = batch_gradient([1.0, 1.0], data, [0])
    assert g == pytest.approx([2 * 1.8 * 4.0, 2 * 1.8 * (-2.0)], rel=1e-12)


def test_batch_gradient_matches_central_differences():
    data = generate_full_batch()
    stream = derive_stream(13, "problem/fd")
    h = 1e-6
    for _ in range(20):
        w = np.array([stream.uniform(-2, 2), stream.uniform(-2, 2)])
        size = 1 + stream.below(10)
        idx = sorted(stream.choose(121, size))
        fd = np.array(
            [
                (batch_loss(w + [h, 0], data, idx) - batch_loss(w - [h, 0], data, idx)) / (2 * h),
                (batch_loss(w + [0, h], data, idx) - batch_loss(w - [0, h], data, idx)) / (2 * h),
            ]
        )
        an = batch_gradient(w, data, idx)
        assert np.linalg.norm(fd - an) <= 1e-6 * max(np.linalg.norm(an), 1e-9)


def test_mini_batch_policy_validation():
    with pytest.raises(ValueError):
        MiniBatchPolicy(0)


def test_sample_batch_indices_statistics():
    stream = derive_stream(2, "batches")
    policy = MiniBatchPolicy(3)
    counts = {1: 0, 2: 0, 3: 0}
    n = 2000
    for _ in range(n):
        idx = sample_batch_indices(stream, policy, 121)
        assert idx == sorted(idx)
        assert len(set(idx)) == len(idx)
        assert all(0 <= k < 121 for k in idx)
        counts[len(idx)] += 1
    for size in (1, 2, 3):
        assert abs(counts[size] / n - 1 / 3) < 0.03


def test_sample_batch_indices_policy_too_large():
    with pytest.raises(ValueError):
        sample_batch_indices(derive_stream(0, "x"), MiniBatchPolicy(200), 121)


def test_grid_spec_nodes_match_formula():
    grid = GridSpec(lower=(-2.0, -2.0), upper=(2.0, 2.0), resolution=5)
    pts = grid.points()
    assert pts.shape == (25, 2)
    step = 4.0 / 4
    for i in range(5):
        for j in range(5):
            node = pts[j * 5 + i]
            assert node[0] == pytest.approx(-2.0 + i * step, abs=1e-15)
            assert node[1] == pytest.approx(-2.0 + j * step, abs=1e-15)
    assert pts[0, 0] == -2.0 and pts[-1, 1] == 2.0


def test_grid_spec_first_coordinate_fastest():
    grid = GridSpec(lower=(0.0, 0.0), upper=(1.0, 1.0), resolution=3)
    pts = grid.points()
    assert pts[1, 0] > pts[0, 0]
    assert pts[1, 1] == pts[0, 1]


def test_grid_spec_validation():
    with pytest.raises(ValueError):
        GridSpec(lower=(0.0, 0.0), upper=(1.0, 1.0), resolution=1)
    with pytest.raises(ValueError):
        GridSpec(lower=(1.0, 0.0), upper=(0.0, 1.0), resolution=3)


def test_sample_loss_surface_deterministic_and_ordered():
    data = generate_full_batch()
    grid = GridSpec(lower=(-2.0, -2.0), upper=(2.0, 2.0), resolution=5)
    obs_a = sample_loss_surface(grid, data, MiniBatchPolicy(3), derive_stream(6, "s"))
    obs_b = sample_loss_surface(grid, data, MiniBatchPolicy(3), derive_stream(6, "s"))
    assert obs_a.values.shape == (25,)
    assert np.array_equal(obs_a.points, grid.points())
    assert np.array_equal(obs_b.points, grid.points())
    assert np.array_equal(obs_a.values, obs_b.values)
    assert np.array_equal(obs_a.gradients, obs_b.gradients)
    assert np.array_equal(obs_a.batch_sizes, obs_b.batch_sizes)
    assert obs_a.batch_sizes.min() >= 1 and obs_a.batch_sizes.max() <= 3
    obs_c = sample_loss_surface(grid, data, MiniBatchPolicy(3), derive_stream(7, "s"))
    assert not np.array_equal(obs_a.values, obs_c.values)


def test_sample_loss_surface_single_batches_match_a_data_point():
    # with max_size 1 each observation is some single-point loss/gradient
    data = generate_full_batch()
    grid = GridSpec(lower=(-1.0, -1.0), upper=(1.0, 1.0), resolution=3)
    obs = sample_loss_surface(grid, data, MiniBatchPolicy(1), derive_stream(9, "s"))
    assert np.all(obs.batch_sizes == 1)
    for w, value, gradient in zip(obs.points, obs.values, obs.gradients):
        matches = [
            k
            for k in range(121)
            if abs(batch_loss(w, data, [k]) - value) <= 1e-12
            and np.allclose(batch_gradient(w, data, [k]), gradient, atol=1e-12)
        ]
        assert matches, f"no data point explains observation at {w}"


def test_full_batch_observations_match_closed_form():
    data = generate_full_batch()
    grid = GridSpec(lower=(-2.0, -2.0), upper=(2.0, 2.0), resolution=7)
    m2 = math.fsum(float(x) ** 2 for x in data.xs) / 121
    m3 = math.fsum(float(x) ** 3 for x in data.xs) / 121
    m4 = math.fsum(float(x) ** 4 for x in data.xs) / 121
    obs = full_batch_observations(grid, data)
    assert np.array_equal(obs.points, grid.points())
    assert np.all(obs.batch_sizes == 121)
    d1, d2 = obs.points[:, 0] - 0.1, obs.points[:, 1] - 0.1
    want = m4 * d1**2 + 2 * m3 * d1 * d2 + m2 * d2**2
    assert obs.values == pytest.approx(want, rel=1e-10, abs=1e-12)
    want_g = np.column_stack([2 * m4 * d1 + 2 * m3 * d2, 2 * m3 * d1 + 2 * m2 * d2])
    assert obs.gradients == pytest.approx(want_g, rel=1e-9, abs=1e-10)
    assert obs.values == pytest.approx(analytic_loss(obs.points, data), rel=1e-10, abs=1e-12)


GOOD_OBSERVATIONS = {
    "points": np.zeros((3, 2)),
    "values": np.zeros(3),
    "gradients": np.zeros((3, 2)),
    "batch_sizes": np.ones(3, dtype=np.intp),
}


def test_observations_accept_and_coerce_good_input():
    obs = Observations(
        points=[[0, 1], [2, 3]], values=[0, 1], gradients=[[1, 2], [3, 4]], batch_sizes=[1, 5]
    )
    assert obs.points.dtype == obs.values.dtype == obs.gradients.dtype == np.float64
    assert np.array_equal(obs.gradients, [[1.0, 2.0], [3.0, 4.0]])
    assert Observations(**GOOD_OBSERVATIONS).values.size == 3


@pytest.mark.parametrize(
    "change",
    [
        pytest.param(
            {
                "points": np.zeros((0, 2)),
                "values": np.zeros(0),
                "gradients": np.zeros((0, 2)),
                "batch_sizes": np.ones(0, dtype=np.intp),
            },
            id="empty",
        ),
        pytest.param({"values": np.float64(0.0)}, id="scalar-values"),
        pytest.param({"values": np.zeros((3, 1))}, id="2d-values"),
        pytest.param({"points": np.zeros((2, 2))}, id="points-rows"),
        pytest.param({"points": np.zeros(3)}, id="1d-points"),
        pytest.param({"gradients": np.zeros((3, 3))}, id="gradient-columns"),
        pytest.param({"batch_sizes": np.ones(4, dtype=np.intp)}, id="batch-rows"),
        pytest.param({"points": [[0.0, 0.0], [np.inf, 0.0], [0.0, 0.0]]}, id="inf-point"),
        pytest.param({"values": [0.0, np.nan, 0.0]}, id="nan-value"),
        pytest.param({"gradients": [[0.0, 0.0], [0.0, 0.0], [0.0, -np.inf]]}, id="inf-gradient"),
        pytest.param({"batch_sizes": [1, 0, 1]}, id="batch-size-0"),
        pytest.param({"batch_sizes": [1, -2, 1]}, id="negative-batch-size"),
        pytest.param({"batch_sizes": [1.0, 1.0, 1.0]}, id="float-batch-sizes"),
    ],
)
def test_observations_reject_bad_input(change):
    with pytest.raises(ValueError):
        Observations(**{**GOOD_OBSERVATIONS, **change})


def test_analytic_loss_moments():
    data = generate_full_batch()
    # m2 is exactly 61/45 by direct summation; m3 vanishes by symmetry
    m2 = math.fsum(float(x) ** 2 for x in data.xs) / 121
    assert m2 == pytest.approx(61 / 45, rel=1e-14)
    m3 = math.fsum(float(x) ** 3 for x in data.xs) / 121
    assert abs(m3) < 1e-14
    assert analytic_loss([0.1, 0.1], data) == 0.0
    # symmetry about the minimum in each axis since m3 ~ 0
    a = analytic_loss([0.1 + 0.5, 0.1], data)
    b = analytic_loss([0.1 - 0.5, 0.1], data)
    assert a == pytest.approx(b, rel=1e-12)


def test_analytic_loss_vectorized_matches_scalar():
    data = generate_full_batch()
    grid = GridSpec(lower=(-2.0, -2.0), upper=(2.0, 2.0), resolution=4)
    pts = grid.points()
    vec = analytic_loss(pts, data)
    assert vec.shape == (16,)
    for p, v in zip(pts, vec):
        assert v == analytic_loss(p, data)
