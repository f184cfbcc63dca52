"""The reproducible study runner.

One run sweeps the full factorial of (batch maximum, fit mode, centre
count, repeat).  Every cell derives its own 64-bit seed by mixing the
config seed with the cell label, samples a fresh mini-batch loss surface,
fits a surrogate, and writes its artifacts under cells/<id>/; the analytic
full-batch reference surface is written once under reference/.  index.json
ties the tree together.  The surface layouts of cells, reference/ and the
oracle and fit verbs are all written here.  The fit goes through fit_cell,
which the `gradsurf fit` verb calls too, so both give the same bytes for the
same observations, recipe and centre stream.  Output is byte-identical for
identical configs, regardless of the worker count: with workers > 1 the
cells run in forked worker processes, each writing only its own cells/<id>/
and returning its index entry, while the parent writes reference/ before
the pool starts and index.json after it ends.  numpy's bundled OpenBLAS
runs on one thread for the whole run, a setting the forked workers inherit,
so no result depends on how BLAS splits a reduction across its threads
(whatever OPENBLAS_NUM_THREADS says).
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from pathlib import Path

# locate_min and training_mse are held, not called: perfbench's TRACED wraps
# them in this module
from .analysis import SurfaceGrid, evaluate_surface, locate_min, make_report
from .artifacts import (
    render_heatmap_svg,
    surrogate_json,
    write_json,
    write_observations_csv,
    write_surface_csv,
)
from .config import ExperimentConfig
from .kernels import single_threaded_blas
from .problem import (
    MiniBatchPolicy,
    analytic_loss,
    generate_full_batch,
    sample_loss_surface,
)
from .rng import derive_key, derive_stream
from .surrogate import (
    FitFailure,
    FitMode,
    FitRecipe,
    fit_surrogate,
    training_mse,
    translate_to_zero,
)

# the files _write_surface_pair writes, then a cell's in index order; index.json
# names each artifact by its file name without the extension
_PAIR_FILES = ("surface_train.csv", "surface_report.csv", "report.json", "heatmap.svg")
_CELL_FILES = ("observations.csv", *_PAIR_FILES[:2], "model.json", *_PAIR_FILES[2:])


@dataclass(frozen=True)
class RunCell:
    """Coordinates of one cell of the experiment matrix."""

    batch_max: int
    mode: FitMode
    n_centres: int
    repeat: int

    @property
    def cell_id(self) -> str:
        return f"b{self.batch_max}_{self.mode.value}_c{self.n_centres}_r{self.repeat}"

    @property
    def label(self) -> str:
        return f"cell/b{self.batch_max}/{self.mode.value}/c{self.n_centres}/r{self.repeat}"

    def derived_seed(self, seed: int) -> int:
        """The cell's own 64-bit seed, a pure function of (seed, coordinates)."""
        return derive_key(seed, self.label)


def enumerate_cells(config: ExperimentConfig) -> list[RunCell]:
    """All cells in canonical order: batch, then mode, then centres, then repeat."""
    return [
        RunCell(batch_max=b, mode=m, n_centres=c, repeat=r)
        for b in config.batch_max_list
        for m in config.mode_list
        for c in config.centre_list
        for r in range(config.repeats)
    ]


def fit_cell(observations, recipe: FitRecipe, stream, report_grid):
    """Fit one surrogate and evaluate it on the report grid.

    The chain is fit, evaluation on the report grid, translation to zero
    against those values; returns (surrogate, report surface).  The
    surrogate carries the training MSE its sweep computed (Surrogate.mse),
    so no system is assembled again.  The report grid is evaluated once: a
    fresh fit has offset 0, so its values are the kernel sums the
    translation needs, and a mode-g report surface is those values plus the
    new offset.  Both run_cell and the fit verb go through it.  Raises
    FitFailure if every shape candidate fails.
    """
    surrogate = fit_surrogate(observations, recipe, stream)
    surface = evaluate_surface(surrogate, report_grid)
    surrogate = translate_to_zero(surrogate, surface.values)
    if surrogate.mode is FitMode.G:
        surface = SurfaceGrid(report_grid, surface.values + surrogate.offset)
    return surrogate, surface


def write_surface(surface: SurfaceGrid, out_dir: Path) -> None:
    """The oracle and fit verbs' layout: surface.csv, report.json, heatmap.svg."""
    write_surface_csv(surface, out_dir / "surface.csv")
    write_json({"surface": make_report(surface)}, out_dir / "report.json")
    render_heatmap_svg(surface, out_dir / "heatmap.svg")


def _write_surface_pair(out_dir: Path, head: dict, surfaces, references) -> None:
    """A cell's and reference/'s layout: both surface CSVs, report.json (head's
    keys, then each surface's report against its reference unless None) and
    the report surface's heatmap."""
    (train, report), (ref_train, ref_report) = surfaces, references
    write_surface_csv(train, out_dir / "surface_train.csv")
    write_surface_csv(report, out_dir / "surface_report.csv")
    write_json(
        {
            **head,
            "report_surface": make_report(report, ref_report),
            "train_surface": make_report(train, ref_train),
        },
        out_dir / "report.json",
    )
    render_heatmap_svg(report, out_dir / "heatmap.svg")


def run_cell(cell: RunCell, config: ExperimentConfig, data, references, out_dir: Path) -> dict:
    """Run one cell and write its artifacts; failures become index entries."""
    cell_seed = cell.derived_seed(config.seed)
    entry = {
        "id": cell.cell_id,
        "batch_max": cell.batch_max,
        "mode": cell.mode.value,
        "n_centres": cell.n_centres,
        "repeat": cell.repeat,
        "derived_seed": cell_seed,
    }
    sample_stream = derive_stream(cell_seed, "sample")
    centre_stream = derive_stream(cell_seed, "centres")

    observations = sample_loss_surface(
        config.train_grid, data, MiniBatchPolicy(cell.batch_max), sample_stream
    )
    recipe = FitRecipe(mode=cell.mode, n_centres=cell.n_centres)
    try:
        surrogate, report_surface = fit_cell(observations, recipe, centre_stream, config.report_grid)
    except FitFailure as e:
        entry["status"] = "failed"
        entry["error"] = str(e)
        return entry

    train_surface = evaluate_surface(surrogate, config.train_grid)

    cell_dir = out_dir / "cells" / cell.cell_id
    write_observations_csv(observations, cell_dir / "observations.csv")
    write_json(surrogate_json(surrogate), cell_dir / "model.json")
    _write_surface_pair(
        cell_dir,
        {
            "cell": {k: entry[k] for k in ("batch_max", "mode", "n_centres", "repeat")},
            "derived_seed": cell_seed,
            "fit": {
                "shape": surrogate.params.shape,
                "training_mse": surrogate.mse,
                "offset": surrogate.offset,
            },
        },
        (train_surface, report_surface),
        references,
    )

    entry["status"] = "ok"
    entry["artifacts"] = {
        name.split(".")[0]: f"cells/{cell.cell_id}/{name}" for name in _CELL_FILES
    }
    return entry


# (config, data, references, out_dir) of the run, in a forked worker process
_shared = None


def _share(*state) -> None:
    global _shared
    _shared = state


def _run_shared_cell(cell: RunCell) -> dict:
    return run_cell(cell, *_shared)


@single_threaded_blas()
def run_experiment(config: ExperimentConfig, out_dir=None, workers: int = 1) -> Path:
    """Run the full study; returns the path of the written index.json."""
    if workers < 1:
        raise ValueError(f"workers: must be >= 1, got {workers}")
    out = Path(out_dir if out_dir is not None else config.output_dir)
    out.mkdir(parents=True, exist_ok=True)

    data = generate_full_batch()

    references = tuple(
        evaluate_surface(lambda pts: analytic_loss(pts, data), grid)
        for grid in (config.train_grid, config.report_grid)
    )
    _write_surface_pair(out / "reference", {}, references, (None, None))

    cells = enumerate_cells(config)
    # serial without a pool: a one-thread pool measured no faster, ~1 MiB more RSS
    if workers > 1:
        # imported here, as importing the pool at module load raised a
        # serial run's peak RSS by about 1 MiB
        import multiprocessing
        from concurrent.futures import ProcessPoolExecutor

        # fork, named: children inherit the loaded modules and the BLAS pin,
        # and Python 3.14 no longer forks by default on Linux.  With fork,
        # 3.11 starts every worker at the first submit, hence the cap.  The
        # forked workers inherit the shared state through the initializer's
        # arguments, unpickled, so each task pickles only its RunCell: the
        # state is 89 kB on the default study, and pickling it per task
        # raised the parent's peak RSS by about 0.3 MiB
        processes = min(workers, len(cells), os.cpu_count() or 1)
        context = multiprocessing.get_context("fork")
        shared = (config, data, references, out)
        with ProcessPoolExecutor(
            processes, mp_context=context, initializer=_share, initargs=shared
        ) as pool:
            entries = list(pool.map(_run_shared_cell, cells))
    else:
        entries = [run_cell(c, config, data, references, out) for c in cells]

    index = {
        "config": config.to_mapping(),
        "reference": {name.split(".")[0]: f"reference/{name}" for name in _PAIR_FILES},
        "cells": entries,
    }
    index_path = out / "index.json"
    write_json(index, index_path)
    return index_path
