"""Committed SHA-256 digests of the artifacts whose bytes do not depend on the CPU.

An observations.csv comes from the integer rng, elementwise products,
numpy's pairwise mean over at most 30 values and the CSV writer, whose
_decimals takes a digit count from log10 only as a proposal that its sure
mask checks again.  None of these calls BLAS or a CPU-dispatched
transcendental ufunc, so the bytes are the same on every machine.
reference/ (analytic_loss's full-batch surfaces, their report and
heatmap) goes through np.power (x**3, x**4), which numpy dispatches on the
CPU, and index.json holds the config, the file names and the derived
seeds.  Their bytes were the same with OpenBLAS's Haswell kernels, with
numpy's AVX-512 paths off, and with Sandybridge kernels and numpy's AVX2,
FMA3 and AVX-512 paths off, so they are pinned too, from the seed-0
default study.  CI reruns this module under the first two settings.
"""

import hashlib

import pytest

from gradsurf.artifacts import write_observations_csv
from gradsurf.config import ExperimentConfig
from gradsurf.experiment import enumerate_cells
from gradsurf.problem import MiniBatchPolicy, generate_full_batch, sample_loss_surface
from gradsurf.rng import derive_stream

# one seed-0 default-study cell per batch maximum, and `gradsurf sample --seed 3`
OBSERVATIONS_SHA256 = {
    "cells/b3_f_c1_r0/observations.csv": "784f9bc5e97bf080119c59206edb51ef8dd3778048d3e956ca86d4a866e21d9b",
    "cells/b30_g_c100_r1/observations.csv": "c8247fde819df2c9428eaf646bf6651021cecc94f4fa5de8ef8b20540c827ff5",
    "sample --seed 3": "b4e4b41fd85f9a33f25f86136bfba533ff56a2688526abcdb3bf3b164e41b64b",
}

# the seed-0 default study's files that are not a cell's
STUDY_SHA256 = {
    "index.json": "7eb1d17a4e2d2eb420c40e8a212df5093b210594746b7dff52dcfada754d1a26",
    "reference/heatmap.svg": "964514df3d9ab3e807f7d063578fd6849c9badd205f5bb4f332f91c01898f923",
    "reference/report.json": "026c98af97f0c05e89aa8983d0e53d86b5831110e4bd6ea7b1bba75176664eca",
    "reference/surface_report.csv": "261b6270742d5172f4d2bb1f1a4d14d0da7d46dbbe48f20aeebd45a6d4b1bba4",
    "reference/surface_train.csv": "47107eb4fcf17f338099561006ade801d937b77f96bf6e9bae54fa44745fc202",
}


def observations(name):
    """The observations written to the file name, sampled as run or sample samples them."""
    config = ExperimentConfig()
    if name.startswith("sample"):
        seed = int(name.split()[-1])
        return sample_loss_surface(
            config.grid(25), generate_full_batch(), MiniBatchPolicy(3), derive_stream(seed, "sample")
        )
    cell_id = name.split("/")[1]
    cell = next(c for c in enumerate_cells(config) if c.cell_id == cell_id)
    return sample_loss_surface(
        config.train_grid,
        generate_full_batch(),
        MiniBatchPolicy(cell.batch_max),
        derive_stream(cell.derived_seed(config.seed), "sample"),
    )


def test_observations_csv_digests_are_pinned(tmp_path):
    got = {}
    for k, name in enumerate(OBSERVATIONS_SHA256):
        path = tmp_path / f"{k}.csv"
        write_observations_csv(observations(name), path)
        got[name] = hashlib.sha256(path.read_bytes()).hexdigest()
    moved = {name: got[name] for name, want in OBSERVATIONS_SHA256.items() if got[name] != want}
    assert not moved, f"digests moved: {moved}"


@pytest.mark.parametrize("name", list(STUDY_SHA256))
def test_default_study_digests_are_pinned(name, default_run):
    _, out = default_run
    got = hashlib.sha256((out / name).read_bytes()).hexdigest()
    assert got == STUDY_SHA256[name], f"{name}: digest moved to {got}"
