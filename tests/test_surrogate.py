"""Surrogate fitting: recipes, sweeps, evaluation and zero-translation."""

import math

import numpy as np
import pytest

from gradsurf.config import ExperimentConfig
from gradsurf.experiment import RunCell
from gradsurf.kernels import (
    KernelParams,
    NumericalError,
    single_threaded_blas,
    solve_least_squares,
)
from gradsurf.problem import (
    GridSpec,
    MiniBatchPolicy,
    Observations,
    full_batch_observations,
    generate_full_batch,
    sample_loss_surface,
)
from gradsurf.rng import derive_stream
from gradsurf.surrogate import (
    FitFailure,
    FitMode,
    FitRecipe,
    Surrogate,
    build_system,
    evaluate,
    evaluate_gradient,
    fit_surrogate,
    predict_values,
    sample_centres,
    shape_candidates,
    training_mse,
    translate_to_zero,
)


def small_observations(resolution=5):
    data = generate_full_batch()
    grid = GridSpec(lower=(-2.0, -2.0), upper=(2.0, 2.0), resolution=resolution)
    return full_batch_observations(grid, data)


def random_surrogate(stream, mode=FitMode.F, eps=1.0, m=4):
    centres = np.array([[stream.uniform(-2, 2), stream.uniform(-2, 2)] for _ in range(m)])
    coef = np.array([stream.uniform(-2, 2) for _ in range(m)])
    return Surrogate(centres=centres, coefficients=coef, params=KernelParams(eps), mode=mode)


def test_fit_mode_values():
    assert FitMode("f") is FitMode.F
    assert FitMode("fg") is FitMode.FG
    assert FitMode("g") is FitMode.G


def test_recipe_defaults():
    r = FitRecipe(mode=FitMode.G, n_centres=10)
    assert (r.shape_lo, r.shape_hi, r.shape_count, r.basis_ratio) == (1e-4, 1e5, 121, 6)


def test_recipe_validation():
    with pytest.raises(ValueError):
        FitRecipe(mode="f", n_centres=1)  # bare string is not a FitMode
    with pytest.raises(ValueError):
        FitRecipe(mode=FitMode.F, n_centres=0)
    with pytest.raises(ValueError):
        FitRecipe(mode=FitMode.F, n_centres=1, shape_lo=2.0, shape_hi=1.0)
    with pytest.raises(ValueError):
        FitRecipe(mode=FitMode.F, n_centres=1, shape_lo=0.0)
    with pytest.raises(ValueError):
        FitRecipe(mode=FitMode.F, n_centres=1, shape_count=1)
    with pytest.raises(ValueError):
        FitRecipe(mode=FitMode.F, n_centres=1, basis_ratio=0)


def test_shape_candidates_default_sweep():
    c = shape_candidates(FitRecipe(mode=FitMode.G, n_centres=1))
    assert len(c) == 121
    assert c[0] == 1e-4
    assert c[-1] == 1e5
    assert np.all(np.diff(c) > 0)
    # log10-equispaced with step 9/120; the middle hits 10**0.5
    assert np.allclose(np.diff(np.log10(c)), 9 / 120, rtol=1e-9)
    assert c[60] == pytest.approx(10**0.5, rel=1e-12)


def test_shape_candidates_small_sweep():
    r = FitRecipe(mode=FitMode.F, n_centres=1, shape_lo=1.0, shape_hi=100.0, shape_count=3)
    assert shape_candidates(r) == pytest.approx([1.0, 10.0, 100.0], rel=1e-12)


def test_sample_centres_budget():
    obs = small_observations(25)  # 625 observations
    stream = derive_stream(0, "centres")
    centres = sample_centres(stream, obs, FitRecipe(mode=FitMode.F, n_centres=104))
    assert centres.shape == (104, 2)
    assert len({tuple(c) for c in centres}) == 104
    with pytest.raises(ValueError) as err:
        sample_centres(derive_stream(0, "c2"), obs, FitRecipe(mode=FitMode.F, n_centres=105))
    assert "105" in str(err.value) and "625" in str(err.value)


def test_sample_centres_are_observation_locations():
    obs = small_observations(5)
    centres = sample_centres(derive_stream(1, "c"), obs, FitRecipe(mode=FitMode.F, n_centres=4))
    locations = {tuple(w) for w in obs.points}
    for c in centres:
        assert tuple(c) in locations


def test_sample_centres_deterministic():
    obs = small_observations(5)
    r = FitRecipe(mode=FitMode.G, n_centres=4)
    a = sample_centres(derive_stream(3, "c"), obs, r)
    b = sample_centres(derive_stream(3, "c"), obs, r)
    assert np.array_equal(a, b)


def test_build_system_shapes_and_stacking():
    obs = small_observations(3)  # 9 observations
    centres = np.array([[0.0, 0.0], [1.0, -1.0]])
    params = KernelParams(0.9)
    a_f, b_f = build_system(obs, centres, params, FitMode.F)
    a_g, b_g = build_system(obs, centres, params, FitMode.G)
    a_fg, b_fg = build_system(obs, centres, params, FitMode.FG)
    assert a_f.shape == (9, 2) and b_f.shape == (9,)
    assert a_g.shape == (18, 2) and b_g.shape == (18,)
    assert a_fg.shape == (27, 2) and b_fg.shape == (27,)
    # fg is the f block stacked on the g block, targets likewise
    assert np.array_equal(a_fg[:9], a_f)
    assert np.array_equal(a_fg[9:], a_g)
    assert np.array_equal(b_fg, np.concatenate([b_f, b_g]))
    # targets come from the observations, gradients point-major
    assert np.array_equal(b_f, obs.values)
    assert np.array_equal(b_g.reshape(9, 2), obs.gradients)
    assert b_g[2] == obs.gradients[1, 0]


def test_build_system_rejects_nonfinite_observations():
    # the record refuses the data, so no system is ever built from it
    with pytest.raises(ValueError):
        obs = Observations(np.zeros((1, 2)), [np.inf], np.zeros((1, 2)), [1])
        build_system(obs, np.zeros((1, 2)), KernelParams(1.0), FitMode.F)


def test_training_mse_exact_interpolation_is_tiny():
    # square well-conditioned system: N == M with points as centres
    full = small_observations(3)
    obs = Observations(full.points[:4], full.values[:4], full.gradients[:4], full.batch_sizes[:4])
    centres = obs.points
    params = KernelParams(1.0)
    a, b = build_system(obs, centres, params, FitMode.F)
    coef = solve_least_squares(a, b)
    s = Surrogate(centres=centres, coefficients=coef, params=params, mode=FitMode.F)
    assert training_mse(s, obs, FitMode.F) <= 1e-16


def test_training_mse_matches_brute_force():
    obs = small_observations(4)
    stream = derive_stream(8, "mse")
    s = random_surrogate(stream, eps=0.7, m=3)
    a, b = build_system(obs, s.centres, s.params, FitMode.FG)
    residuals = [float(a[i] @ s.coefficients - b[i]) for i in range(a.shape[0])]
    want = math.fsum(r * r for r in residuals) / len(residuals)
    assert training_mse(s, obs, FitMode.FG) == pytest.approx(want, rel=1e-12)


def test_training_mse_offset_excluded_for_gradients_only():
    obs = small_observations(4)
    stream = derive_stream(9, "mse")
    s = random_surrogate(stream, mode=FitMode.G, eps=0.9)
    shifted = Surrogate(
        centres=s.centres,
        coefficients=s.coefficients,
        params=s.params,
        mode=s.mode,
        offset=5.0,
    )
    assert training_mse(shifted, obs, FitMode.G) == training_mse(s, obs, FitMode.G)


def test_training_mse_offset_enters_value_residuals():
    obs = small_observations(4)
    stream = derive_stream(10, "mse")
    s = random_surrogate(stream, eps=0.9)
    shifted = Surrogate(
        centres=s.centres,
        coefficients=s.coefficients,
        params=s.params,
        mode=s.mode,
        offset=2.0,
    )
    a, b = build_system(obs, s.centres, s.params, FitMode.F)
    residuals = a @ s.coefficients - b + 2.0
    want = float(np.mean(residuals**2))
    assert training_mse(shifted, obs, FitMode.F) == pytest.approx(want, rel=1e-12)


def test_fit_surrogate_selects_lowest_training_mse():
    obs = small_observations(5)
    recipe = FitRecipe(
        mode=FitMode.F, n_centres=4, shape_lo=1e-2, shape_hi=1e2, shape_count=7
    )
    s = fit_surrogate(obs, recipe, derive_stream(5, "fit"))
    # independent re-sweep with the same centre draw
    centres = sample_centres(derive_stream(5, "fit"), obs, recipe)
    assert np.array_equal(centres, s.centres)
    best_eps, best_mse = None, None
    for eps in shape_candidates(recipe):
        a, b = build_system(obs, centres, KernelParams(float(eps)), FitMode.F)
        coef = solve_least_squares(a, b)
        mse = float(np.mean((a @ coef - b) ** 2))
        if best_mse is None or mse < best_mse:
            best_eps, best_mse = float(eps), mse
    assert s.params.shape == best_eps
    assert training_mse(s, obs, FitMode.F) == pytest.approx(best_mse, rel=1e-12)


def test_fit_surrogate_tie_breaks_to_smallest_shape():
    # all-zero targets solve exactly (coef 0) for every candidate; the
    # tie must go to the smallest shape
    points = GridSpec(lower=(-1.0, -1.0), upper=(1.0, 1.0), resolution=4).points()
    obs = Observations(points, np.zeros(16), np.zeros((16, 2)), np.ones(16, dtype=np.intp))
    recipe = FitRecipe(
        mode=FitMode.F, n_centres=2, shape_lo=1e-2, shape_hi=1e2, shape_count=9
    )
    s = fit_surrogate(obs, recipe, derive_stream(0, "tie"))
    assert s.params.shape == recipe.shape_lo
    assert np.all(s.coefficients == 0.0)


def test_fit_surrogate_deterministic():
    obs = small_observations(5)
    recipe = FitRecipe(mode=FitMode.G, n_centres=3, shape_count=9)
    a = fit_surrogate(obs, recipe, derive_stream(2, "fit"))
    b = fit_surrogate(obs, recipe, derive_stream(2, "fit"))
    assert np.array_equal(a.coefficients, b.coefficients)
    assert a.params.shape == b.params.shape


def test_fit_surrogate_all_candidates_fail():
    # alternating near-max values make every candidate overflow either in
    # the solve or in the residual, so the whole sweep is skipped
    points = np.column_stack([np.linspace(0.0, 2.0, 6), np.zeros(6)])
    values = 1.7e308 * np.array([1.0, -1.0, 1.0, -1.0, 1.0, -1.0])
    obs = Observations(points, values, np.zeros((6, 2)), np.ones(6, dtype=np.intp))
    recipe = FitRecipe(mode=FitMode.F, n_centres=1, shape_count=21)
    with pytest.raises(FitFailure) as err:
        fit_surrogate(obs, recipe, derive_stream(0, "fail"))
    # repeated systems past the exp underflow are skipped without a solve,
    # but still listed
    assert err.value.skipped == list(shape_candidates(recipe))


@pytest.mark.parametrize("mode", list(FitMode))
@pytest.mark.parametrize("n_centres", [1, 100])
def test_fit_surrogate_matches_brute_force_sweep(mode, n_centres):
    # the sweep hoists the geometry and skips bitwise-repeated systems; a
    # plain solve of every candidate must pick the same shape and the same
    # coefficient bytes
    cell = RunCell(batch_max=3, mode=mode, n_centres=n_centres, repeat=0)
    config = ExperimentConfig()
    observations = sample_loss_surface(
        config.train_grid,
        generate_full_batch(),
        MiniBatchPolicy(3),
        derive_stream(cell.derived_seed(0), "sample"),
    )
    recipe = FitRecipe(mode=mode, n_centres=n_centres)
    best = None
    # both sides under the pin the study runs with; 121 solves on a
    # threaded BLAS are several times slower on small machines
    with single_threaded_blas():
        fitted = fit_surrogate(observations, recipe, derive_stream(1, "sweep"))
        centres = sample_centres(derive_stream(1, "sweep"), observations, recipe)
        for eps in shape_candidates(recipe):
            a, b = build_system(observations, centres, KernelParams(float(eps)), mode)
            try:
                coef = solve_least_squares(a, b)
            except NumericalError:
                continue
            with np.errstate(over="ignore", invalid="ignore"):
                mse = float(np.mean((a @ coef - b) ** 2))
            if np.isfinite(mse) and (best is None or mse < best[0]):
                best = (mse, float(eps), coef)
    assert fitted.params.shape == best[1]
    assert fitted.coefficients.tobytes() == best[2].tobytes()


def test_fresh_fit_has_zero_offset():
    obs = small_observations(5)
    s = fit_surrogate(obs, FitRecipe(mode=FitMode.G, n_centres=3, shape_count=5), derive_stream(1, "o"))
    assert s.offset == 0.0


def test_evaluate_matches_manual_kernel_sum():
    stream = derive_stream(12, "eval")
    s = random_surrogate(stream, eps=1.4, m=5)
    w = np.array([0.3, -0.7])
    want = math.fsum(
        float(c) * math.exp(-((1.4 * math.dist(w, centre)) ** 2))
        for c, centre in zip(s.coefficients, s.centres)
    )
    assert evaluate(s, w) == pytest.approx(want, rel=1e-12)


def test_evaluate_gradient_matches_finite_differences():
    stream = derive_stream(14, "evalg")
    s = random_surrogate(stream, eps=2.0, m=5)
    h = 1e-6
    for _ in range(5):
        w = np.array([stream.uniform(-1.5, 1.5), stream.uniform(-1.5, 1.5)])
        fd = np.array(
            [
                (evaluate(s, w + [h, 0]) - evaluate(s, w - [h, 0])) / (2 * h),
                (evaluate(s, w + [0, h]) - evaluate(s, w - [0, h])) / (2 * h),
            ]
        )
        an = evaluate_gradient(s, w)
        assert np.linalg.norm(fd - an) <= 1e-6 * max(np.linalg.norm(an), 1e-6)


def test_predict_values_matches_pointwise_evaluate():
    stream = derive_stream(15, "pred")
    s = random_surrogate(stream, eps=0.8, m=6)
    pts = GridSpec(lower=(-2.0, -2.0), upper=(2.0, 2.0), resolution=5).points()
    batch = predict_values(s, pts)
    single = np.array([evaluate(s, p) for p in pts])
    assert np.allclose(batch, single, rtol=1e-12, atol=1e-14)


def test_evaluate_gradient_ignores_offset():
    stream = derive_stream(16, "off")
    s = random_surrogate(stream, mode=FitMode.G, eps=1.0)
    shifted = Surrogate(
        centres=s.centres,
        coefficients=s.coefficients,
        params=s.params,
        mode=s.mode,
        offset=-3.25,
    )
    w = [0.4, 0.1]
    assert np.array_equal(evaluate_gradient(s, w), evaluate_gradient(shifted, w))
    assert evaluate(shifted, w) == pytest.approx(evaluate(s, w) - 3.25, rel=1e-12)


def test_translate_to_zero_exact_minimum():
    stream = derive_stream(17, "trans")
    grid = GridSpec(lower=(-2.0, -2.0), upper=(2.0, 2.0), resolution=21)
    for _ in range(5):
        s = random_surrogate(stream, mode=FitMode.G, eps=10 ** stream.uniform(-1, 0.5))
        t = translate_to_zero(s, grid.points())
        vals = predict_values(t, grid.points())
        assert vals.min() == 0.0  # exactly
        assert np.all(vals >= 0.0)


def test_translate_to_zero_offset_shift_relation():
    stream = derive_stream(18, "trans")
    grid = GridSpec(lower=(-2.0, -2.0), upper=(2.0, 2.0), resolution=11)
    s = random_surrogate(stream, mode=FitMode.G, eps=0.9)
    grid_min = predict_values(s, grid.points()).min()
    t = translate_to_zero(s, grid.points())
    assert t.offset == pytest.approx(s.offset - grid_min, rel=1e-9, abs=1e-12)


def test_translate_to_zero_idempotent():
    stream = derive_stream(19, "trans")
    grid = GridSpec(lower=(-2.0, -2.0), upper=(2.0, 2.0), resolution=9)
    s = random_surrogate(stream, mode=FitMode.G, eps=1.2)
    once = translate_to_zero(s, grid.points())
    twice = translate_to_zero(once, grid.points())
    assert twice.offset == once.offset


def test_translate_to_zero_other_modes_unchanged():
    stream = derive_stream(20, "trans")
    grid = GridSpec(lower=(-1.0, -1.0), upper=(1.0, 1.0), resolution=5)
    s = random_surrogate(stream, mode=FitMode.F, eps=1.0)
    assert translate_to_zero(s, grid.points()) is s


def test_translate_to_zero_empty_grid_error():
    stream = derive_stream(21, "trans")
    s = random_surrogate(stream, mode=FitMode.G, eps=1.0)
    with pytest.raises(ValueError):
        translate_to_zero(s, np.empty((0, 2)))


def test_noise_free_fit_recovers_surface_at_small_scale():
    data = generate_full_batch()
    grid = GridSpec(lower=(-2.0, -2.0), upper=(2.0, 2.0), resolution=9)
    obs = full_batch_observations(grid, data)
    recipe = FitRecipe(
        mode=FitMode.F, n_centres=13, shape_lo=1e-3, shape_hi=1e2, shape_count=26
    )
    s = fit_surrogate(obs, recipe, derive_stream(4, "rec"))
    pts = grid.points()
    from gradsurf.problem import analytic_loss

    truth = analytic_loss(pts, data)
    rmse = float(np.sqrt(np.mean((predict_values(s, pts) - truth) ** 2)))
    assert rmse <= 0.05 * truth.max()


def test_surrogate_validation():
    with pytest.raises(ValueError):
        Surrogate(
            centres=np.zeros((2, 2)),
            coefficients=np.zeros(3),
            params=KernelParams(1.0),
            mode=FitMode.F,
        )
    with pytest.raises(ValueError):
        Surrogate(
            centres=np.zeros((2, 2)),
            coefficients=np.array([np.nan, 0.0]),
            params=KernelParams(1.0),
            mode=FitMode.F,
        )
