"""Surrogate fitting: recipes, sweeps, evaluation and zero-translation."""

import functools
import math

import numpy as np
import pytest
import reference

import gradsurf.surrogate
from gradsurf.analysis import evaluate_surface
from gradsurf.artifacts import read_json, read_observations_csv
from gradsurf.config import ExperimentConfig
from gradsurf.experiment import RunCell
from gradsurf.kernels import (
    FLOOR_ARG,
    KernelParams,
    assemble_value_matrix,
    pairwise,
    single_threaded_blas,
    solve_least_squares,
)
from gradsurf.problem import (
    GridSpec,
    MiniBatchPolicy,
    Observations,
    generate_full_batch,
    sample_loss_surface,
)
from gradsurf.rng import derive_stream
from gradsurf.surrogate import (
    SHAPE_CANDIDATES,
    FitFailure,
    FitMode,
    FitRecipe,
    Surrogate,
    _sweep,
    _system_buffers,
    _targets,
    _write_system,
    fit_surrogate,
    predict_gradients,
    predict_values,
    sample_centres,
    training_mse,
    translate_to_zero,
)


def small_observations(resolution=5):
    data = generate_full_batch()
    grid = GridSpec(lower=(-2.0, -2.0), upper=(2.0, 2.0), resolution=resolution)
    return reference.full_batch_observations(grid, data)


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


@pytest.mark.parametrize("knob", ["shape_lo", "shape_hi", "shape_count", "basis_ratio"])
def test_recipe_takes_only_mode_and_centres(knob):
    with pytest.raises(TypeError):
        FitRecipe(mode=FitMode.F, n_centres=1, **{knob: 1})


def test_recipe_validation():
    with pytest.raises(ValueError):
        FitRecipe(mode="f", n_centres=1)  # bare string is not a FitMode
    with pytest.raises(ValueError):
        FitRecipe(mode=FitMode.F, n_centres=0)


def test_shape_candidates_default_sweep():
    c = SHAPE_CANDIDATES
    assert len(c) == 121
    assert c[0] == 1e-4
    assert c[-1] == 1e5
    assert np.all(np.diff(c) > 0)
    # log10-equispaced with step 9/120; the middle hits 10**0.5
    assert np.allclose(np.diff(np.log10(c)), 9 / 120, rtol=1e-9)
    assert c[60] == pytest.approx(10**0.5, rel=1e-12)


def test_shape_candidates_are_read_only():
    with pytest.raises(ValueError):
        SHAPE_CANDIDATES[0] = 1.0


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
    geometry = pairwise(obs.points, np.array([[0.0, 0.0], [1.0, -1.0]]))
    systems = []
    for mode in (FitMode.F, FitMode.G, FitMode.FG):
        a, phi = _system_buffers(geometry, mode)
        _write_system(a, phi, geometry, 0.9, mode)
        systems += [a, _targets(obs, mode)]
    a_f, b_f, a_g, b_g, a_fg, b_fg = systems
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


@pytest.mark.parametrize("mode", list(FitMode))
def test_build_system_matches_kernel_formula_bitwise(mode):
    # the sweep's in-place blocks against the formula, for every candidate of
    # a study cell, rewriting one buffer as the sweep does: criterion 8
    # re-runs the sweep from the formula
    observations = study_cell_observations(mode, 100)
    recipe = FitRecipe(mode=mode, n_centres=100)
    centres = sample_centres(derive_stream(5, "centres"), observations, recipe)
    b = _targets(observations, mode)
    assert b.tobytes() == reference._targets(observations, mode).tobytes()
    geometry = pairwise(observations.points, centres)
    a, phi = _system_buffers(geometry, mode)
    for eps in SHAPE_CANDIDATES.tolist():
        _write_system(a, phi, geometry, eps, mode)
        want = reference._system(observations.points, centres, eps, mode)
        assert a.shape == want.shape and a.tobytes() == want.tobytes(), eps


def test_training_mse_exact_interpolation_is_tiny():
    # square well-conditioned system: N == M with points as centres
    full = small_observations(3)
    obs = Observations(full.points[:4], full.values[:4], full.gradients[:4], full.batch_sizes[:4])
    centres = obs.points
    coef = solve_least_squares(reference._system(obs.points, centres, 1.0, FitMode.F), obs.values)
    s = Surrogate(centres=centres, coefficients=coef, params=KernelParams(1.0), mode=FitMode.F)
    assert training_mse(s, obs) <= 1e-16


def test_training_mse_matches_brute_force():
    obs = small_observations(4)
    stream = derive_stream(8, "mse")
    s = random_surrogate(stream, mode=FitMode.FG, eps=0.7, m=3)
    a = reference._system(obs.points, s.centres, 0.7, FitMode.FG)
    b = reference._targets(obs, FitMode.FG)
    residuals = [float(a[i] @ s.coefficients - b[i]) for i in range(a.shape[0])]
    want = math.fsum(r * r for r in residuals) / len(residuals)
    assert training_mse(s, obs) == pytest.approx(want, rel=1e-12)


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
    assert training_mse(shifted, obs) == training_mse(s, obs)


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
    a = reference._system(obs.points, s.centres, 0.9, FitMode.F)
    residuals = a @ s.coefficients - obs.values + 2.0
    want = float(np.mean(residuals**2))
    assert training_mse(shifted, obs) == pytest.approx(want, rel=1e-12)


def test_fit_surrogate_selects_lowest_training_mse():
    obs = small_observations(5)
    recipe = FitRecipe(mode=FitMode.F, n_centres=4)
    s = fit_surrogate(obs, recipe, derive_stream(5, "fit"))
    # independent re-sweep with the same centre draw
    centres = sample_centres(derive_stream(5, "fit"), obs, recipe)
    assert np.array_equal(centres, s.centres)
    best_mse, best_eps, _ = reference.shape_sweep(obs, centres, FitMode.F)[0]
    assert s.params.shape == best_eps
    assert training_mse(s, obs) == pytest.approx(best_mse, rel=1e-12)


def test_fit_surrogate_tie_breaks_to_smallest_shape():
    # all-zero targets solve exactly (coef 0) for every candidate; the
    # tie must go to the smallest shape
    points = GridSpec(lower=(-1.0, -1.0), upper=(1.0, 1.0), resolution=4).points()
    obs = Observations(points, np.zeros(16), np.zeros((16, 2)), np.ones(16, dtype=np.intp))
    recipe = FitRecipe(mode=FitMode.F, n_centres=2)
    s = fit_surrogate(obs, recipe, derive_stream(0, "tie"))
    assert s.params.shape == FitRecipe.shape_lo
    assert np.all(s.coefficients == 0.0)


def test_fit_surrogate_deterministic():
    obs = small_observations(5)
    recipe = FitRecipe(mode=FitMode.G, n_centres=3)
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
    recipe = FitRecipe(mode=FitMode.F, n_centres=1)
    with pytest.raises(FitFailure) as err:
        fit_surrogate(obs, recipe, derive_stream(0, "fail"))
    # the candidates past the kernel floor are not solved, but still listed
    assert err.value.skipped == SHAPE_CANDIDATES.tolist()


def study_cell_observations(mode, n_centres):
    """The observations of the seed-0 default-study cell b3/<mode>/c<n_centres>/r0."""
    cell = RunCell(batch_max=3, mode=mode, n_centres=n_centres, repeat=0)
    return sample_loss_surface(
        ExperimentConfig().train_grid,
        generate_full_batch(),
        MiniBatchPolicy(3),
        derive_stream(cell.derived_seed(0), "sample"),
    )


@functools.cache
def study_cell_reference(mode, n_centres):
    """(observations, reference sweep) of a study cell on the fit's centre draw.

    Cached: the reference sweep, which assembles every candidate afresh, is
    the slow side of each comparison, and two tests compare against it.
    """
    observations = study_cell_observations(mode, n_centres)
    recipe = FitRecipe(mode=mode, n_centres=n_centres)
    centres = sample_centres(derive_stream(1, "sweep"), observations, recipe)
    # under the pin the study runs with; the reference's solves on a
    # threaded BLAS are several times slower on small machines
    with single_threaded_blas():
        return observations, reference.shape_sweep(observations, centres, mode)


@pytest.mark.parametrize("mode", list(FitMode))
@pytest.mark.parametrize("n_centres", [1, 100])
def test_fit_surrogate_matches_brute_force_sweep(mode, n_centres):
    # the sweep hoists the geometry and stops at the kernel-floor tail; the
    # reference sweep, which assembles every candidate afresh, must pick the
    # same shape and the same coefficient bytes
    observations, (best, _, _) = study_cell_reference(mode, n_centres)
    recipe = FitRecipe(mode=mode, n_centres=n_centres)
    with single_threaded_blas():
        fitted = fit_surrogate(observations, recipe, derive_stream(1, "sweep"))
    assert fitted.params.shape == best[1]
    assert fitted.coefficients.tobytes() == best[2].tobytes()


def sweep_against_reference(observations, mode, n_centres, monkeypatch, swept=None):
    """Run the shipped sweep, fit_surrogate and the reference sweep on one centre draw.

    The reference assembles every candidate afresh, where the shipped sweep
    hoists the geometry and stops at the kernel-floor tail.  Asserts the
    same winner (eps, MSE, coefficient bytes) and the same skipped list
    from _sweep, and the same shape and coefficient bytes from
    fit_surrogate (or a FitFailure listing the same skipped eps); returns
    (shipped solves, reference distinct systems) of the _sweep call.
    swept, if given, is the reference sweep already run on this draw.
    """
    recipe = FitRecipe(mode=mode, n_centres=n_centres)
    centres = sample_centres(derive_stream(1, "sweep"), observations, recipe)
    solves = []

    def counting_solve(a, b):
        solves.append(a.shape)
        return solve_least_squares(a, b)

    # all under the pin the study runs with; the reference's solves on a
    # threaded BLAS are several times slower on small machines
    with single_threaded_blas():
        if swept is None:
            swept = reference.shape_sweep(observations, centres, mode)
        want, want_skipped, distinct = swept
        # fit_surrogate draws the same centres from the same stream
        if want is None:
            with pytest.raises(FitFailure) as err:
                fit_surrogate(observations, recipe, derive_stream(1, "sweep"))
            assert err.value.skipped == want_skipped
        else:
            fitted = fit_surrogate(observations, recipe, derive_stream(1, "sweep"))
            assert fitted.params.shape == want[1]
            assert fitted.coefficients.tobytes() == want[2].tobytes()
        monkeypatch.setattr(gradsurf.surrogate, "solve_least_squares", counting_solve)
        best, skipped = _sweep(
            pairwise(observations.points, centres),
            _targets(observations, mode),
            mode,
        )
    assert skipped == want_skipped
    assert (best is None) == (want is None)
    if best is not None:
        assert best[:2] == want[:2]
        assert best[2].tobytes() == want[2].tobytes()
    return len(solves), distinct


@pytest.mark.parametrize("mode", list(FitMode))
@pytest.mark.parametrize("n_centres", [1, 100])
def test_sweep_matches_reference_on_study_cells(mode, n_centres, monkeypatch):
    # the kernel floor zeroes every off-centre phi from eps ~ 113 on; the
    # sweep solves the 81 candidates below that and the first tail candidate
    # (eps ~ 119) once each, and leaves the other 39 of the 121 unsolved
    observations, swept = study_cell_reference(mode, n_centres)
    solves, distinct = sweep_against_reference(
        observations, mode, n_centres, monkeypatch, swept
    )
    assert solves == distinct == 82


@pytest.mark.parametrize("mode", list(FitMode))
def test_sweep_matches_reference_in_tiny_box(mode, monkeypatch):
    # points packed in a 1e-4 box: even eps = 1e5 leaves every off-centre
    # phi above 0, so the tail is never reached and every candidate is solved
    grid = GridSpec(lower=(0.0, 0.0), upper=(1e-4, 1e-4), resolution=5)
    base = small_observations(5)
    obs = Observations(grid.points(), base.values, base.gradients, base.batch_sizes)
    solves, _ = sweep_against_reference(obs, mode, 4, monkeypatch)
    assert solves == SHAPE_CANDIDATES.size


@pytest.mark.parametrize("mode", list(FitMode))
@pytest.mark.parametrize("batch_max", [3, 30])
def test_normal_matrix_solve_picks_the_truncated_svd_winner(default_run, batch_max, mode):
    # the shipped solve gets V and sigma**2 from the eigenpairs of a^T a; an
    # SVD of a itself, at the same 1e-6 cutoff on sigma, must select the same
    # shape with the same training MSE on the seed-0 c100 study cells.  The
    # recorded winner is the shipped sweep's (criterion 8 pins it bitwise)
    _, out = default_run
    cell = out / "cells" / f"b{batch_max}_{mode.value}_c100_r0"
    observations = read_observations_csv(cell / "observations.csv")
    model = read_json(cell / "model.json")
    with single_threaded_blas():
        exact, _, _ = reference.shape_sweep(
            observations, np.array(model["centres"]), mode, reference.truncated_svd_solve
        )
    assert model["shape"] == exact[1]
    assert model["training_mse"] == pytest.approx(exact[0], rel=1e-6)


def test_study_c100_coefficients_stay_below_1e7(default_run):
    # the 1e-6 cutoff on sigma keeps the c100 winners' coefficients near
    # 1e5.  c1 cells are left out: a c1 g cell's lone flat Gaussian at the
    # lower shape bound needs a coefficient of about 1e8 under any cutoff
    _, out = default_run
    cells = [c for c in read_json(out / "index.json")["cells"] if c["n_centres"] == 100]
    sizes = {
        c["id"]: float(np.abs(read_json(out / c["artifacts"]["model"])["coefficients"]).max())
        for c in cells
    }
    assert len(sizes) == 12
    assert max(sizes.values()) <= 1e7, sizes


@pytest.mark.parametrize("mode", list(FitMode))
def test_sweep_matches_reference_on_coincident_points(mode, monkeypatch):
    # every radius is 0, so phi is all 1.0 and the tail starts at the first
    # candidate: one solve stands for the whole sweep
    base = small_observations(4)
    points = np.full_like(base.points, 0.25)
    obs = Observations(points, base.values, base.gradients, base.batch_sizes)
    assert sweep_against_reference(obs, mode, 2, monkeypatch) == (1, 1)


@pytest.mark.parametrize("mode", list(FitMode))
def test_sweep_matches_reference_when_close_pairs_outlast_the_rest(mode, monkeypatch):
    # 12 pairs of points 1e-3 apart, the pairs 1 apart: from eps ~ 19 on,
    # only each centre's own entry and its partner's survive in phi, and the
    # tail starts only when the partners pass the floor too, at eps =
    # sqrt(FLOOR_ARG) / 1e-3 ~ 1.9e4, between two candidates
    base = small_observations(5)
    sites = np.array([(i, j) for i in range(4) for j in range(3)], dtype=float)
    points = np.repeat(sites, 2, axis=0)
    points[1::2, 0] += 1e-3
    obs = Observations(points, base.values[:24], base.gradients[:24], base.batch_sizes[:24])
    solves, distinct = sweep_against_reference(obs, mode, 4, monkeypatch)
    tail_start = int(np.searchsorted(SHAPE_CANDIDATES, math.sqrt(FLOOR_ARG) / 1e-3))
    assert solves == distinct == tail_start + 1 < SHAPE_CANDIDATES.size


def test_sweep_matches_reference_when_all_candidates_fail(monkeypatch):
    points = np.column_stack([np.linspace(0.0, 2.0, 6), np.zeros(6)])
    values = 1.7e308 * np.array([1.0, -1.0, 1.0, -1.0, 1.0, -1.0])
    obs = Observations(points, values, np.zeros((6, 2)), np.ones(6, dtype=np.intp))
    solves, distinct = sweep_against_reference(obs, FitMode.F, 1, monkeypatch)
    assert solves == distinct < SHAPE_CANDIDATES.size


def test_fresh_fit_has_zero_offset():
    obs = small_observations(5)
    s = fit_surrogate(obs, FitRecipe(mode=FitMode.G, n_centres=3), derive_stream(1, "o"))
    assert s.offset == 0.0


def test_evaluate_matches_manual_kernel_sum():
    stream = derive_stream(12, "eval")
    s = random_surrogate(stream, eps=1.4, m=5)
    w = np.array([0.3, -0.7])
    want = math.fsum(
        float(c) * math.exp(-((1.4 * math.dist(w, centre)) ** 2))
        for c, centre in zip(s.coefficients, s.centres)
    )
    assert predict_values(s, w[None, :])[0] == pytest.approx(want, rel=1e-12)


def test_evaluate_gradient_matches_finite_differences():
    stream = derive_stream(14, "evalg")
    s = random_surrogate(stream, eps=2.0, m=5)
    h = 1e-6
    for _ in range(5):
        w = np.array([stream.uniform(-1.5, 1.5), stream.uniform(-1.5, 1.5)])
        v = predict_values(s, w + np.array([[h, 0], [-h, 0], [0, h], [0, -h]]))
        fd = np.array([v[0] - v[1], v[2] - v[3]]) / (2 * h)
        an = predict_gradients(s, w[None, :])[0]
        assert np.linalg.norm(fd - an) <= 1e-6 * max(np.linalg.norm(an), 1e-6)


def test_predict_values_matches_pointwise_evaluate():
    stream = derive_stream(15, "pred")
    s = random_surrogate(stream, eps=0.8, m=6)
    pts = GridSpec(lower=(-2.0, -2.0), upper=(2.0, 2.0), resolution=5).points()
    batch = predict_values(s, pts)
    single = np.array([predict_values(s, p[None, :])[0] for p in pts])
    assert np.allclose(batch, single, rtol=1e-12, atol=1e-14)


def study_surrogate(out, mode):
    """The recorded surrogate of the seed-0 default-study cell b3/<mode>/c100/r0."""
    model = read_json(out / "cells" / f"b3_{mode.value}_c100_r0" / "model.json")
    return Surrogate(
        centres=np.array(model["centres"]),
        coefficients=np.array(model["coefficients"]),
        params=KernelParams(model["shape"]),
        mode=mode,
        offset=model["offset"],
    )


@pytest.mark.parametrize("mode", [FitMode.F, FitMode.G])
def test_predict_values_in_blocks_equals_one_shot_product(default_run, mode):
    # the blocks start at multiples of _EVAL_ROWS, itself a multiple of 16,
    # so each value is the dot product the one-shot product computes; the
    # g surrogate is translated, so the offset is added in every block
    s = study_surrogate(default_run[1], mode)
    assert (s.offset != 0.0) == (mode is FitMode.G)
    grid_points = ExperimentConfig().report_grid.points()
    rows = gradsurf.surrogate._EVAL_ROWS
    with single_threaded_blas():
        for n in (1, rows - 1, rows, rows + 1, 2 * rows + 1, grid_points.shape[0]):
            points = grid_points[-n:]
            got = predict_values(s, points)
            assert got.tobytes() == reference.predict_values_one_shot(s, points).tobytes()


def test_report_grid_is_evaluated_in_blocks_of_at_most_eval_rows(monkeypatch):
    calls = []

    def recording(points, centres, params):
        calls.append(points)
        return assemble_value_matrix(points, centres, params)

    monkeypatch.setattr(gradsurf.surrogate, "assemble_value_matrix", recording)
    grid = ExperimentConfig().report_grid
    s = random_surrogate(derive_stream(16, "blocks"), eps=0.8, m=100)
    evaluate_surface(s, grid)
    rows = gradsurf.surrogate._EVAL_ROWS
    assert len(calls) == -(-grid.points().shape[0] // rows) == 10
    assert all(points.shape[0] <= rows for points in calls)
    # every grid row once, in order
    assert np.array_equal(np.concatenate(calls), grid.points())


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
    w = np.array([[0.4, 0.1]])
    assert np.array_equal(predict_gradients(s, w), predict_gradients(shifted, w))
    assert predict_values(shifted, w)[0] == pytest.approx(predict_values(s, w)[0] - 3.25, rel=1e-12)


def test_translate_to_zero_exact_minimum():
    stream = derive_stream(17, "trans")
    grid = GridSpec(lower=(-2.0, -2.0), upper=(2.0, 2.0), resolution=21)
    for _ in range(5):
        s = random_surrogate(stream, mode=FitMode.G, eps=10 ** stream.uniform(-1, 0.5))
        t = translate_to_zero(s, predict_values(s, grid.points()))
        vals = predict_values(t, grid.points())
        assert vals.min() == 0.0  # exactly
        assert np.all(vals >= 0.0)


def test_translate_to_zero_offset_shift_relation():
    stream = derive_stream(18, "trans")
    grid = GridSpec(lower=(-2.0, -2.0), upper=(2.0, 2.0), resolution=11)
    s = random_surrogate(stream, mode=FitMode.G, eps=0.9)
    values = predict_values(s, grid.points())
    t = translate_to_zero(s, values)
    grid_min = values.min()
    assert t.offset == pytest.approx(s.offset - grid_min, rel=1e-9, abs=1e-12)


def test_translate_to_zero_idempotent():
    stream = derive_stream(19, "trans")
    grid = GridSpec(lower=(-2.0, -2.0), upper=(2.0, 2.0), resolution=9)
    s = random_surrogate(stream, mode=FitMode.G, eps=1.2)
    values = predict_values(s, grid.points())
    once = translate_to_zero(s, values)
    twice = translate_to_zero(once, values)
    assert twice.offset == once.offset


def test_translate_to_zero_other_modes_unchanged():
    stream = derive_stream(20, "trans")
    grid = GridSpec(lower=(-1.0, -1.0), upper=(1.0, 1.0), resolution=5)
    s = random_surrogate(stream, mode=FitMode.F, eps=1.0)
    assert translate_to_zero(s, predict_values(s, grid.points())) is s


def test_translate_to_zero_empty_grid_error():
    stream = derive_stream(21, "trans")
    s = random_surrogate(stream, mode=FitMode.G, eps=1.0)
    with pytest.raises(ValueError):
        translate_to_zero(s, np.empty(0))


def test_noise_free_fit_recovers_surface_at_small_scale():
    data = generate_full_batch()
    grid = GridSpec(lower=(-2.0, -2.0), upper=(2.0, 2.0), resolution=9)
    obs = reference.full_batch_observations(grid, data)
    recipe = FitRecipe(mode=FitMode.F, n_centres=13)
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
