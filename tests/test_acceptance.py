"""Acceptance gate: every shipped guarantee, one test and one printed line each.

Each test prints `CRITERION n (slug): PASS|FAIL — detail` before asserting,
so a full run of this file doubles as the release report.  Run with
`pytest tests/test_acceptance.py -v -s` to stream the lines.
"""

import filecmp
import math
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import reference
from basins import basin_depths, gradient_resolution
from draws import uniform
from reference import batch_gradient, batch_loss, full_batch_observations

from gradsurf.analysis import count_local_minima, negative_fraction
from gradsurf.artifacts import read_json, read_observations_csv
from gradsurf.config import ConfigError, ExperimentConfig, from_mapping
from gradsurf.experiment import RunCell, fit_cell, run_experiment
from gradsurf.kernels import FLOOR_ARG, KernelParams, single_threaded_blas
from gradsurf.problem import (
    MiniBatchPolicy,
    analytic_loss,
    generate_full_batch,
    sample_loss_surface,
)
from gradsurf.rng import Stream, derive_stream
from gradsurf.surrogate import (
    SHAPE_CANDIDATES,
    FitMode,
    FitRecipe,
    Surrogate,
    predict_values,
    sample_centres,
)

DEFAULT = ExperimentConfig()


def announce(n, slug, ok, detail):
    print(f"\nCRITERION {n} ({slug}): {'PASS' if ok else 'FAIL'} — {detail}")


def tree_files(root: Path):
    return sorted(p.relative_to(root) for p in root.rglob("*") if p.is_file())


def test_criterion_1_oracle_equivalence():
    start = time.perf_counter()
    data = generate_full_batch()
    full = full_batch_observations(DEFAULT.train_grid, data)
    worst_abs = float(np.max(np.abs(full.values - analytic_loss(full.points, data))))

    stream = derive_stream(0, "acceptance/oracle")
    h = 1e-6
    worst_rel = 0.0
    for _ in range(20):
        w = np.array([uniform(stream, -2, 2), uniform(stream, -2, 2)])
        k = 1 + stream.below(data.xs.size)
        batch = stream.choose(data.xs.size, k)
        fd = np.array(
            [
                (batch_loss(w + [h, 0], data, batch) - batch_loss(w - [h, 0], data, batch)) / (2 * h),
                (batch_loss(w + [0, h], data, batch) - batch_loss(w - [0, h], data, batch)) / (2 * h),
            ]
        )
        an = batch_gradient(w, data, batch)
        worst_rel = max(worst_rel, float(np.linalg.norm(fd - an) / max(np.linalg.norm(an), 1e-12)))
    elapsed = time.perf_counter() - start

    ok = worst_abs <= 1e-12 and worst_rel <= 1e-6 and elapsed <= 1.0
    detail = (
        f"max |batch-analytic| {worst_abs:.2e} over 625 nodes (bound 1e-12); "
        f"worst gradient FD rel err {worst_rel:.2e} over 20 pairs (bound 1e-6); {elapsed:.2f}s"
    )
    announce(1, "oracle-equivalence", ok, detail)
    assert ok, detail


def test_criterion_2_surrogate_gradient_consistency():
    start = time.perf_counter()
    stream = derive_stream(0, "acceptance/gradients")
    worst = 0.0
    for _ in range(10):
        eps = 10.0 ** uniform(stream, -2.0, 2.0)  # shapes up to 1e2
        m = 5
        centres = np.array([[uniform(stream, -2, 2), uniform(stream, -2, 2)] for _ in range(m)])
        coef = np.array([uniform(stream, -2, 2) for _ in range(m)])
        s = Surrogate(centres=centres, coefficients=coef, params=KernelParams(eps), mode=FitMode.F)
        h = max(1e-7, 1e-3 / eps)
        for _ in range(20):
            # probe inside the kernel's active band so values are nonzero
            c = centres[stream.below(m)]
            theta = uniform(stream, 0.0, 2 * math.pi)
            radius = uniform(stream, 0.2, 1.2) / eps
            w = c + radius * np.array([math.cos(theta), math.sin(theta)])
            v = predict_values(s, w + np.array([[h, 0], [-h, 0], [0, h], [0, -h]]))
            fd = np.array([v[0] - v[1], v[2] - v[3]]) / (2 * h)
            an = reference.predict_gradients(s, w[None, :])[0]
            worst = max(worst, float(np.linalg.norm(fd - an) / max(np.linalg.norm(an), 1e-12)))
    elapsed = time.perf_counter() - start

    ok = worst <= 1e-5 and elapsed <= 1.0
    detail = (
        f"worst FD rel err {worst:.3e} over 10 surrogates x 20 points "
        f"(bound 1e-5); {elapsed:.2f}s"
    )
    announce(2, "surrogate-gradient-consistency", ok, detail)
    assert ok, detail


def test_criterion_3_noise_free_recovery():
    start = time.perf_counter()
    data = generate_full_batch()
    observations = full_batch_observations(DEFAULT.train_grid, data)
    grid = DEFAULT.report_grid
    oracle = analytic_loss(grid.points(), data)
    scale = float(oracle.max())

    def fit(mode):
        # the shipped fit chain with the centre draw of `gradsurf fit` at its
        # default seed; `gradsurf fit --centres 100` reproduces these exact fits
        stream = derive_stream(0, "fit/centres")
        _, surface = fit_cell(observations, FitRecipe(mode=mode, n_centres=100), stream, grid)
        return surface.values.ravel()

    rmse_f = float(np.sqrt(np.mean((fit(FitMode.F) - oracle) ** 2)))

    vals_g = fit(FitMode.G)
    # constant-offset equivalence: compare both surfaces with minima removed
    shifted_model = vals_g - vals_g.min()
    shifted_oracle = oracle - oracle.min()
    rmse_g = float(np.sqrt(np.mean((shifted_model - shifted_oracle) ** 2)))
    elapsed = time.perf_counter() - start

    ok = rmse_f <= 0.01 * scale and rmse_g <= 0.01 * scale and elapsed <= 30.0
    detail = (
        f"value-fit RMSE {rmse_f / scale:.4%} of max, gradient-fit shifted RMSE "
        f"{rmse_g / scale:.4%} (bound 1%); {elapsed:.1f}s"
    )
    announce(3, "noise-free-recovery", ok, detail)
    assert ok, detail


def _gradient_only_cell(seed, batch_max, n_centres, data, exact):
    cell = RunCell(batch_max=batch_max, mode=FitMode.G, n_centres=n_centres, repeat=0)
    cell_seed = cell.derived_seed(seed)
    observations = sample_loss_surface(
        DEFAULT.train_grid, data, MiniBatchPolicy(batch_max), derive_stream(cell_seed, "sample")
    )
    _, surface = fit_cell(
        observations,
        FitRecipe(mode=FitMode.G, n_centres=n_centres),
        derive_stream(cell_seed, "centres"),
        DEFAULT.report_grid,
    )
    resolution = gradient_resolution(observations, exact, DEFAULT.train_grid)
    # one flood gives both counts: every basin at resolution 0, and those
    # whose depth reaches the resolution
    depths = basin_depths(surface)
    return (
        negative_fraction(surface),
        count_local_minima(surface),
        len(depths),
        sum(depth >= resolution for depth in depths),
    )


def test_criterion_4_gradient_only_shape():
    """Translated gradient-only surfaces are one basin at the data's resolution.

    Minima are counted as basins by flooding, so bitwise-tied nodes at the
    bottom of one basin (a one-centre fit whose centre lies halfway between
    report-grid nodes) count once.  A secondary basin counts only when its
    depth reaches sigma_g * h, the height difference between neighbouring
    training nodes that the cell's batch gradients resolve.  Every cell whose
    strict `count_local_minima` or basin count at resolution is not 1 is
    listed as strict/plateau-aware/at-resolution counts, so both effects
    stay visible.
    """
    start = time.perf_counter()
    data = generate_full_batch()
    # the full-batch gradients every cell's resolution is measured against
    exact = full_batch_observations(DEFAULT.train_grid, data)
    cells = [
        (seed, b, c) for seed in range(10) for b in (3, 30) for c in (1, 100)
    ]
    # one BLAS thread per fit, as in `gradsurf run`
    with single_threaded_blas(), ThreadPoolExecutor(max_workers=4) as pool:
        stats = list(pool.map(lambda t: _gradient_only_cell(*t, data, exact), cells))
    elapsed = time.perf_counter() - start

    negatives = [cell for cell, (nf, *_) in zip(cells, stats) if nf != 0.0]
    single = sum(1 for *_, resolved in stats if resolved == 1)
    strict_single = sum(1 for _, strict, _, _ in stats if strict == 1)
    rate = single / len(cells)

    ok = not negatives and rate >= 0.9 and elapsed <= 300.0
    listed = "; ".join(
        f"seed{s}/b{b}/c{c}: {strict}/{plateau}/{resolved}"
        for (s, b, c), (_, strict, plateau, resolved) in zip(cells, stats)
        if strict != 1 or resolved != 1
    )
    detail = (
        f"negative_fraction==0 in {len(cells) - len(negatives)}/{len(cells)} translated "
        f"gradient-only cells; one basin at gradient resolution sigma_g*h in "
        f"{single}/{len(cells)} ({rate:.0%}, need >=90%; strict local_min_count==1 in "
        f"{strict_single}/{len(cells)}); {elapsed:.0f}s"
        + (f"; strict/plateau-aware/at-resolution counts: {listed}" if listed else "")
    )
    announce(4, "gradient-only-shape", ok, detail)
    assert ok, detail


def test_criterion_5_noisy_value_fit_pathology():
    data = generate_full_batch()
    witness = None
    for seed in range(10):
        for mode in (FitMode.F, FitMode.FG):
            for n_centres in (100, 1):
                cell = RunCell(batch_max=3, mode=mode, n_centres=n_centres, repeat=0)
                cell_seed = cell.derived_seed(seed)
                observations = sample_loss_surface(
                    DEFAULT.train_grid,
                    data,
                    MiniBatchPolicy(3),
                    derive_stream(cell_seed, "sample"),
                )
                _, surface = fit_cell(
                    observations,
                    FitRecipe(mode=mode, n_centres=n_centres),
                    derive_stream(cell_seed, "centres"),
                    DEFAULT.report_grid,
                )
                nf = negative_fraction(surface)
                lm = count_local_minima(surface)
                if nf > 0.0 or lm > 1:
                    witness = (seed, mode.value, n_centres, nf, lm)
                    break
            if witness:
                break
        if witness:
            break

    ok = witness is not None
    if witness:
        seed, mode, n_centres, nf, lm = witness
        detail = (
            f"witness seed{seed}/b3/{mode}/c{n_centres}: negative_fraction={nf:.4f}, "
            f"local_min_count={lm}"
        )
    else:
        detail = "no noisy value-fit cell showed negative values or extra minima (40 searched)"
    announce(5, "noisy-value-fit-pathology", ok, detail)
    assert ok, detail


def test_criterion_6_study_matrix_shape(default_run):
    _, out = default_run
    index = read_json(out / "index.json")
    n_cells = len(index["cells"])
    ids = {c["id"] for c in index["cells"]}
    reference_ok = all((out / rel).is_file() for rel in index["reference"].values())

    candidates = SHAPE_CANDIDATES
    sweep_ok = (
        len(candidates) == 121 and candidates[0] == 1e-4 and candidates[-1] == 1e5
    )

    budget_ok = from_mapping({"centre_list": [1, 100]}).centre_list == (1, 100)
    try:
        from_mapping({"centre_list": [105]})
        config_rejects = False
    except ConfigError:
        config_rejects = True
    observations = full_batch_observations(DEFAULT.train_grid, generate_full_batch())
    try:
        sample_centres(
            derive_stream(0, "acceptance/budget"),
            observations,
            FitRecipe(mode=FitMode.F, n_centres=105),
        )
        sampler_rejects = False
    except ValueError:
        sampler_rejects = True

    ok = (
        n_cells == 24
        and len(ids) == 24
        and reference_ok
        and sweep_ok
        and budget_ok
        and config_rejects
        and sampler_rejects
    )
    detail = (
        f"{n_cells} cells + reference artifacts present; "
        f"{len(candidates)} shape candidates spanning [{candidates[0]:g}, {candidates[-1]:g}]; "
        f"centres 1/100 accepted, 105 rejected by config and by the centre sampler"
    )
    announce(6, "study-matrix-shape", ok, detail)
    assert ok, detail


def test_criterion_7_determinism(default_run):
    root, out_a = default_run
    out_b = root / "run_b"
    out_c = root / "run_c"
    run_experiment(DEFAULT, out_dir=out_b, workers=1)
    run_experiment(DEFAULT, out_dir=out_c, workers=2)

    files = tree_files(out_a)
    rerun_same = files == tree_files(out_b) and all(
        filecmp.cmp(out_a / rel, out_b / rel, shallow=False) for rel in files
    )
    workers_same = files == tree_files(out_c) and all(
        filecmp.cmp(out_a / rel, out_c / rel, shallow=False) for rel in files
    )

    ok = rerun_same and workers_same
    detail = (
        f"rerun byte-identical: {rerun_same}; workers=2 byte-identical: {workers_same} "
        f"({len(files)} files compared)"
    )
    announce(7, "determinism", ok, detail)
    assert ok, detail


def _check_cell_optimality(out, entry):
    """Re-run a cell's sweep with the reference, which solves every candidate afresh.

    Returns the distinct systems the reference solved, the recorded model
    fields (shape, training MSE, coefficient bytes) that differ from the
    reference winner's, and the winner's (shape * r_max)**2.
    """
    observations = read_observations_csv(out / entry["artifacts"]["observations"])
    model = read_json(out / entry["artifacts"]["model"])
    centres = np.array(model["centres"])
    best, solves = reference.shape_sweep(observations, centres, FitMode(model["mode"]))
    recorded = (model["training_mse"], model["shape"], np.array(model["coefficients"]).tobytes())
    want = (best[0], best[1], best[2].tobytes()) if best is not None else (None,) * 3
    differ = [
        name
        for name, got, ref in zip(("training_mse", "shape", "coefficients"), recorded, want)
        if got != ref
    ]
    # (shape * r)**2 of the winner at its farthest train or report node: below
    # FLOOR_ARG, the floor zeroes no entry of the winner's matrices
    nodes = np.vstack([DEFAULT.train_grid.points(), DEFAULT.report_grid.points()])
    r_max = max(float(np.sqrt(((nodes - c) ** 2).sum(axis=1)).max()) for c in centres)
    return solves, differ, (model["shape"] * r_max) ** 2


def test_criterion_8_selection_optimality(default_run):
    _, out = default_run
    index = read_json(out / "index.json")
    fitted = [c for c in index["cells"] if c["status"] == "ok"]
    assert fitted, "no fitted cells to check"

    # one BLAS thread per solve, as in the run that recorded the winners
    with single_threaded_blas(), ThreadPoolExecutor(max_workers=4) as pool:
        results = list(pool.map(lambda e: _check_cell_optimality(out, e), fitted))

    bad = [(entry["id"], differ) for entry, (_, differ, _) in zip(fitted, results) if differ]
    floored = [(e["id"], arg) for e, (*_, arg) in zip(fitted, results) if not arg < FLOOR_ARG]
    total_solves = sum(n for n, _, _ in results)

    ok = not bad and not floored
    detail = (
        f"recorded shape, training MSE and coefficients bitwise the reference sweep's "
        f"winner in {len(fitted) - len(bad)}/{len(fitted)} fitted cells ({total_solves} "
        f"distinct systems solved); "
        f"winner (shape * r_max)**2 at most {max(r[2] for r in results):.3g}, "
        f"floor {FLOOR_ARG:g}"
        + (f"; violations: {bad}" if bad else "")
        + (f"; winners past the floor: {floored}" if floored else "")
    )
    announce(8, "selection-optimality", ok, detail)
    assert ok, detail
