"""Committed SHA-256 digests of the artifacts whose bytes do not depend on the CPU.

An observations.csv comes from the integer rng, elementwise products,
numpy's pairwise mean over at most 30 values and the CSV writer, whose
_decimals takes a digit count from log10 only as a proposal that its sure
mask checks again.  None of these calls BLAS or a CPU-dispatched
transcendental ufunc, so the bytes are the same on every machine.
reference/ goes through np.power (x**3, x**4) and is not pinned here.
"""

import hashlib

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
