"""The benchmark's trace list names functions that exist, and its per-call
facts can be read.

perfbench/tracing.py wraps each (module, attribute) of TRACED where the
program looks it up.  A refactor that renames or drops one of those names
would make a traced run fail, so the names are checked here without
installing the tracer.  Its `_extra` reads attributes of some calls'
arguments and results (the recipe's sweep bounds and the winning shape,
the solved matrix's shape, a written file's size); those reads run here on
real calls, since traced runs are not part of the unit suite.  A small
study run checks that the program still calls every traced name except the
ones in HELD, so a span that silently reads 0 fails here by name.
"""

import importlib
import importlib.util
import json
from collections import Counter
from pathlib import Path

import numpy as np

from gradsurf.analysis import SurfaceGrid
from gradsurf.artifacts import write_surface_csv
from gradsurf.cli import main
from gradsurf.kernels import solve_least_squares
from gradsurf.problem import GridSpec, Observations
from gradsurf.rng import derive_stream
from gradsurf.surrogate import FitMode, FitRecipe, fit_surrogate

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"

# traced names the pipeline no longer calls; each stays where TRACED looks
# it up, so a traced run still installs, and its span reads 0.  On the
# grid points a run observes on, surfaces are evaluated separably and the
# sweep solves normal systems from per-axis factors, so the kernel-matrix
# evaluation, assembly and solve serve only points that are not a grid
HELD = {
    ("gradsurf.experiment", "locate_min"),
    ("gradsurf.experiment", "training_mse"),
    ("gradsurf.analysis", "predict_values"),
    ("gradsurf.surrogate", "assemble_value_matrix"),
    ("gradsurf.surrogate", "assemble_gradient_matrix"),
    ("gradsurf.surrogate", "solve_least_squares"),
    ("gradsurf.rng", "Stream.derive"),
}


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_resolves_to_a_callable():
    tracing = load_tracing()
    assert tracing.TRACED
    missing = []
    for module_name, attr, _ in tracing.TRACED:
        owner = importlib.import_module(module_name)
        for part in attr.split("."):
            owner = getattr(owner, part, None)
        if not callable(owner):
            missing.append(f"{module_name}.{attr}")
    assert not missing, missing


def test_extra_reads_fit_surrogate_recipe_and_result():
    tracing = load_tracing()
    # all-zero targets tie on every candidate, so the winner is the lower bound
    points = GridSpec(lower=(-1.0, -1.0), upper=(1.0, 1.0), resolution=4).points()
    obs = Observations(points, np.zeros(16), np.zeros((16, 2)), np.ones(16, dtype=np.intp))
    args = (obs, FitRecipe(mode=FitMode.F, n_centres=2), derive_stream(0, "trace"))
    result = fit_surrogate(*args)
    assert tracing._extra("surrogate.fit_surrogate", args, result) == {"at_bound": 1}


def test_extra_reads_solve_matrix_shape():
    tracing = load_tracing()
    args = (np.eye(3, 2), np.ones(3))
    result = solve_least_squares(*args)
    assert tracing._extra("kernels.solve", args, result) == {"elements": 6}


def test_extra_reads_written_file_size(tmp_path):
    tracing = load_tracing()
    surface = SurfaceGrid(
        GridSpec(lower=(0.0, 0.0), upper=(1.0, 1.0), resolution=2), np.zeros((2, 2))
    )
    args = (surface, tmp_path / "s.csv")
    result = write_surface_csv(*args)
    size = len("w1,w2,value\n0.0,0.0,0.0\n1.0,0.0,0.0\n0.0,1.0,0.0\n1.0,1.0,0.0\n")
    assert tracing._extra("artifacts.write_surface_csv", args, result) == {"bytes": size}


def counted(calls, key, fn):
    def wrapper(*args, **kwargs):
        calls[key] += 1
        return fn(*args, **kwargs)

    return wrapper


def test_every_traced_name_but_the_held_ones_is_called(tmp_path, monkeypatch):
    tracing = load_tracing()
    calls = Counter()
    for module_name, attr, _ in tracing.TRACED:
        owner = importlib.import_module(module_name)
        *path, leaf = attr.split(".")
        for part in path:
            owner = getattr(owner, part)
        key = (module_name, attr)
        monkeypatch.setattr(owner, leaf, counted(calls, key, getattr(owner, leaf)))
    # 6 cells: the one-centre grid pass and the screened sweep
    config = {
        "batch_max_list": [3],
        "centre_list": [1, 26],
        "repeats": 1,
        "train_grid": 13,
        "report_grid": 9,
    }
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config), encoding="utf-8")
    assert main(["run", "--config", str(path), "--out", str(tmp_path / "out")]) == 0
    uncalled = {(m, a) for m, a, _ in tracing.TRACED if not calls[(m, a)]}
    assert uncalled == HELD
