"""End-to-end study runner: cell enumeration, artifacts, reproducibility."""

import filecmp
import json
import multiprocessing.context
import os
import pickle
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import gradsurf
import gradsurf.experiment
import gradsurf.kernels
import gradsurf.surrogate
from gradsurf.artifacts import (
    read_json,
    read_observations_csv,
    surrogate_json,
    write_json,
    write_surface_csv,
)
from gradsurf.config import ExperimentConfig, study_value
from gradsurf.experiment import RunCell, enumerate_cells, fit_cell, run_experiment
from gradsurf.kernels import single_threaded_blas
from gradsurf.problem import (
    MiniBatchPolicy,
    Observations,
    generate_full_batch,
    sample_loss_surface,
)
from gradsurf.rng import derive_key, derive_stream
from gradsurf.surrogate import FitFailure, FitMode, FitRecipe, _Design


def tiny_config(**overrides):
    base = dict(
        batch_max_list=(3,),
        centre_list=(1, 2),
        mode_list=(FitMode.F, FitMode.G),
        repeats=1,
        train_grid=study_value("train_grid", 7),
        report_grid=study_value("report_grid", 9),
    )
    base.update(overrides)
    return ExperimentConfig(**base)


def tree_files(root: Path):
    return sorted(p.relative_to(root) for p in root.rglob("*") if p.is_file())


def assert_trees_identical(a: Path, b: Path):
    files = tree_files(a)
    assert files == tree_files(b)
    for rel in files:
        assert filecmp.cmp(a / rel, b / rel, shallow=False), rel


def test_enumerate_cells_default_matrix():
    cells = enumerate_cells(ExperimentConfig())
    assert len(cells) == 24
    ids = [c.cell_id for c in cells]
    assert len(set(ids)) == 24
    assert ids[0] == "b3_f_c1_r0"
    assert ids[1] == "b3_f_c1_r1"
    assert ids[2] == "b3_f_c100_r0"
    assert ids[4] == "b3_fg_c1_r0"
    assert ids[12] == "b30_f_c1_r0"
    assert ids[-1] == "b30_g_c100_r1"


def test_cell_label_and_derived_seed():
    cell = RunCell(batch_max=30, mode=FitMode.FG, n_centres=100, repeat=1)
    assert cell.label == "cell/b30/fg/c100/r1"
    assert cell.cell_id == "b30_fg_c100_r1"
    assert cell.derived_seed(7) == derive_key(7, "cell/b30/fg/c100/r1")
    assert cell.derived_seed(7) != cell.derived_seed(8)


def test_run_writes_consistent_tree(tmp_path):
    config = tiny_config()
    index_path = run_experiment(config, out_dir=tmp_path / "out")
    assert index_path == tmp_path / "out" / "index.json"
    index = read_json(index_path)

    assert index["config"] == config.to_mapping()
    assert "output_dir" not in index["config"]

    for rel in index["reference"].values():
        assert (tmp_path / "out" / rel).is_file()

    assert len(index["cells"]) == 4
    for entry in index["cells"]:
        assert entry["status"] == "ok"
        assert entry["derived_seed"] == derive_key(
            config.seed,
            f"cell/b{entry['batch_max']}/{entry['mode']}/c{entry['n_centres']}/r{entry['repeat']}",
        )
        for rel in entry["artifacts"].values():
            assert (tmp_path / "out" / rel).is_file()
            assert not Path(rel).is_absolute()

        model = read_json(tmp_path / "out" / entry["artifacts"]["model"])
        assert model["mode"] == entry["mode"]
        assert len(model["centres"]) == entry["n_centres"]
        assert len(model["coefficients"]) == entry["n_centres"]

        report = read_json(tmp_path / "out" / entry["artifacts"]["report"])
        assert set(report) == {"cell", "derived_seed", "fit", "report_surface", "train_surface"}
        for key in ("argmin", "min_value", "local_min_count", "negative_fraction", "rmse_vs_reference"):
            assert key in report["report_surface"]


def test_gradient_cells_are_zero_translated(tmp_path):
    config = tiny_config(mode_list=(FitMode.G,), centre_list=(2,))
    run_experiment(config, out_dir=tmp_path / "out")
    report = read_json(tmp_path / "out" / "cells" / "b3_g_c2_r0" / "report.json")
    assert report["report_surface"]["min_value"] == 0.0
    assert report["report_surface"]["negative_fraction"] == 0.0
    assert report["fit"]["offset"] != 0.0


def refuse_n_by_m_arrays(monkeypatch):
    """Make the point-centre radii, the design matrix and the kernel matrix raise."""

    def refuse(*args):
        raise AssertionError("built an N x M array")

    for owner in (gradsurf.kernels, gradsurf.surrogate):
        monkeypatch.setattr(owner, "_radii", refuse)
        monkeypatch.setattr(owner, "assemble_value_matrix", refuse)
    monkeypatch.setattr(_Design, "__init__", refuse)


def test_grid_cells_build_no_n_by_m_array(tmp_path, monkeypatch):
    # a run observes on the train grid, so every fit takes its systems from
    # per-axis factors and every surface is evaluated separably: each mode
    # at c1 and c100 runs with no radii, design matrix or kernel matrix
    refuse_n_by_m_arrays(monkeypatch)
    config = tiny_config(
        centre_list=(1, 100),
        mode_list=tuple(FitMode),
        train_grid=study_value("train_grid", 25),
        report_grid=study_value("report_grid", 5),
    )
    index = read_json(run_experiment(config, out_dir=tmp_path / "out"))
    assert [e["status"] for e in index["cells"]] == ["ok"] * 6


@pytest.mark.parametrize("n_centres", [1, 100])
def test_off_grid_fits_still_build_n_by_m_arrays(n_centres, monkeypatch):
    # the study cell's observations without their last row, 624 points and
    # not a grid: the fit assembles its design matrices, which the same
    # patches refuse
    config = ExperimentConfig()
    observations = sample_loss_surface(
        config.train_grid, generate_full_batch(), MiniBatchPolicy(3), derive_stream(0, "s")
    )
    short = Observations(
        observations.points[:-1],
        observations.values[:-1],
        observations.gradients[:-1],
        observations.batch_sizes[:-1],
    )
    refuse_n_by_m_arrays(monkeypatch)
    recipe = FitRecipe(mode=FitMode.FG, n_centres=n_centres)
    with pytest.raises(AssertionError, match="N x M"):
        fit_cell(short, recipe, derive_stream(0, "centres"), config.report_grid)


def test_observations_reproducible_from_derived_seed(tmp_path):
    config = tiny_config()
    run_experiment(config, out_dir=tmp_path / "out")
    index = read_json(tmp_path / "out" / "index.json")
    entry = index["cells"][2]  # b3_g_c1_r0
    stored = read_observations_csv(
        tmp_path / "out" / entry["artifacts"]["observations"]
    )
    data = generate_full_batch()
    stream = derive_stream(entry["derived_seed"], "sample")
    regenerated = sample_loss_surface(
        config.train_grid, data, MiniBatchPolicy(entry["batch_max"]), stream
    )
    assert np.array_equal(stored.points, regenerated.points)
    assert np.array_equal(stored.values, regenerated.values)
    assert np.array_equal(stored.gradients, regenerated.gradients)
    assert np.array_equal(stored.batch_sizes, regenerated.batch_sizes)


def test_fit_cell_reproduces_cell_artifacts(tmp_path):
    """fit_cell on a cell's observations and centre stream gives its bytes."""
    config = tiny_config(mode_list=(FitMode.F, FitMode.FG, FitMode.G))
    out = tmp_path / "out"
    run_experiment(config, out_dir=out)
    entries = read_json(out / "index.json")["cells"]
    assert [e["mode"] for e in entries] == ["f", "f", "fg", "fg", "g", "g"]
    for entry in entries:
        observations = read_observations_csv(out / entry["artifacts"]["observations"])
        recipe = FitRecipe(mode=FitMode(entry["mode"]), n_centres=entry["n_centres"])
        stream = derive_stream(entry["derived_seed"], "centres")
        with single_threaded_blas():
            surrogate, surface = fit_cell(observations, recipe, stream, config.report_grid)
        mine = tmp_path / entry["id"]
        write_json(surrogate_json(surrogate), mine / "model.json")
        write_surface_csv(surface, mine / "surface_report.csv")
        for name in ("model", "surface_report"):
            rel = entry["artifacts"][name]
            assert (mine / Path(rel).name).read_bytes() == (out / rel).read_bytes(), rel


def test_rerun_is_byte_identical(tmp_path):
    config = tiny_config()
    run_experiment(config, out_dir=tmp_path / "a")
    run_experiment(config, out_dir=tmp_path / "b")
    assert_trees_identical(tmp_path / "a", tmp_path / "b")


def test_worker_count_does_not_change_bytes(tmp_path):
    config = tiny_config()
    run_experiment(config, out_dir=tmp_path / "serial", workers=1)
    run_experiment(config, out_dir=tmp_path / "pooled", workers=3)
    assert_trees_identical(tmp_path / "serial", tmp_path / "pooled")


def test_pool_starts_at_most_one_process_per_cell_and_cpu(tmp_path, monkeypatch):
    started = []
    start = multiprocessing.context.ForkProcess.start

    def counting_start(process):
        started.append(process)
        start(process)

    monkeypatch.setattr(multiprocessing.context.ForkProcess, "start", counting_start)
    config = tiny_config(centre_list=(1,), mode_list=(FitMode.F, FitMode.FG, FitMode.G))
    index = read_json(run_experiment(config, out_dir=tmp_path / "out", workers=8))
    assert [c["status"] for c in index["cells"]] == ["ok"] * 3
    assert len(started) == min(3, os.cpu_count() or 1)


def test_pool_tasks_pickle_only_their_cells(tmp_path, monkeypatch):
    # the forked workers inherit the run's config, data, references and
    # output directory when they start, so what the pool pickles for each
    # task is its RunCell and the worker function, not that shared state
    from concurrent.futures import ProcessPoolExecutor

    sizes = []
    submit = ProcessPoolExecutor.submit

    def measuring_submit(pool, fn, /, *args, **kwargs):
        sizes.append(len(pickle.dumps((fn, args, kwargs))))
        return submit(pool, fn, *args, **kwargs)

    monkeypatch.setattr(ProcessPoolExecutor, "submit", measuring_submit)
    config = tiny_config(centre_list=(1,), mode_list=(FitMode.F, FitMode.FG, FitMode.G))
    index = read_json(run_experiment(config, out_dir=tmp_path / "out", workers=2))
    assert [c["status"] for c in index["cells"]] == ["ok"] * 3
    assert len(sizes) == 3 and max(sizes) < 1000, sizes


def test_cli_import_loads_no_process_pool():
    # the pool is imported only when a run asks for workers, which keeps a
    # serial run's peak RSS down
    src = str(Path(gradsurf.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src + os.pathsep + os.environ.get("PYTHONPATH", "")}
    probe = (
        "import gradsurf.cli, sys; "
        "print(sorted(m for m in sys.modules if m.split('.')[0] in "
        "('multiprocessing', 'concurrent')))"
    )
    done = subprocess.run(
        [sys.executable, "-c", probe], env=env, check=True, capture_output=True, text=True
    )
    assert done.stdout.strip() == "[]"


def test_seed_changes_observations(tmp_path):
    run_experiment(tiny_config(seed=0), out_dir=tmp_path / "a")
    run_experiment(tiny_config(seed=1), out_dir=tmp_path / "b")
    rel = Path("cells/b3_f_c1_r0/observations.csv")
    assert (tmp_path / "a" / rel).read_bytes() != (tmp_path / "b" / rel).read_bytes()


def test_failed_cell_recorded_without_artifacts(tmp_path, monkeypatch):
    def always_fails(observations, recipe, stream):
        raise FitFailure()

    monkeypatch.setattr(gradsurf.experiment, "fit_surrogate", always_fails)
    config = tiny_config(centre_list=(1,), mode_list=(FitMode.F,))
    run_experiment(config, out_dir=tmp_path / "out")
    index = read_json(tmp_path / "out" / "index.json")
    assert len(index["cells"]) == 1
    entry = index["cells"][0]
    assert entry["status"] == "failed"
    assert "artifacts" not in entry
    assert entry["error"] == "all 121 shape candidates failed (skipped eps from 0.0001 to 100000)"
    assert not (tmp_path / "out" / "cells").exists()
    # the reference is still written
    assert (tmp_path / "out" / "reference" / "surface_report.csv").is_file()
