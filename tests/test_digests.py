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
from gradsurf.config import ExperimentConfig, study_value
from gradsurf.experiment import enumerate_cells
from gradsurf.problem import MiniBatchPolicy, generate_full_batch, sample_loss_surface
from gradsurf.rng import derive_stream

# every cell of the seed-0 default study, and `gradsurf sample --seed 3`
OBSERVATIONS_SHA256 = {
    "cells/b3_f_c1_r0/observations.csv": "784f9bc5e97bf080119c59206edb51ef8dd3778048d3e956ca86d4a866e21d9b",
    "cells/b3_f_c1_r1/observations.csv": "38fca7ecf692fd3dbd96158602206ccf566d9d5ea994c72e611b78e2d816c33a",
    "cells/b3_f_c100_r0/observations.csv": "71d918074e6d59219354446439406e6e1034dcb5a175ca0a3bd648f7e8e5fcd5",
    "cells/b3_f_c100_r1/observations.csv": "52bfbcb1c08a5082061ce9f654f9bd83b147890605bdad01980695e7818a6908",
    "cells/b3_fg_c1_r0/observations.csv": "5bca42c39039e9a53800eb8da9bb8b867985e511634962b65a6e4102e6cc1e5a",
    "cells/b3_fg_c1_r1/observations.csv": "c1e9828fcd5acacb3ff6698635065d343b87b007d897c416fdfdeefb8e6e318d",
    "cells/b3_fg_c100_r0/observations.csv": "e2682f12dd9bfeb38e4b2ebf0f47d19622fe378c4c761d0ba339ae3986a79ba8",
    "cells/b3_fg_c100_r1/observations.csv": "b72be76889ac8caf4c21ce09f7ac4ea3500c96187bf09257058374ed8ee52a88",
    "cells/b3_g_c1_r0/observations.csv": "b991954c4ae1c2ff3e5f0b9afb53afbf883ea9ade06fe12b01dec2c27831d867",
    "cells/b3_g_c1_r1/observations.csv": "7a338f50baaa04945b92d47a4e8acae7c32a8957fcb2d7628eb214193bf208f3",
    "cells/b3_g_c100_r0/observations.csv": "7b9325089d7c5a6ea83161962ffeb0406835081be91a2458b6a1777b16f55685",
    "cells/b3_g_c100_r1/observations.csv": "f34c282437f7853fb1212b977cde9f34601f8c1dc5d682886ba4508351076c64",
    "cells/b30_f_c1_r0/observations.csv": "776465fb94fd23afe4eb473cb949f15d42b4df0e1fcf7607f99106179132da5c",
    "cells/b30_f_c1_r1/observations.csv": "19c3446b76c3e19381af50582d3d03ed38739ff4ead6976f6fa0e44cdb0b9895",
    "cells/b30_f_c100_r0/observations.csv": "506b50f55da1a111d2862dfdc5a75f41105904859a46516fc401596c6185a926",
    "cells/b30_f_c100_r1/observations.csv": "789841ae0dfacbeb475d6e57db07777aa29789a23a7ccc06e01d241b86327218",
    "cells/b30_fg_c1_r0/observations.csv": "ca62267c74e830d7a793cb051d0bb976fde79c03b37cc44db839cbe9e61d2894",
    "cells/b30_fg_c1_r1/observations.csv": "58e94a4e0af3bcbfcaedc95806a82f2f030652247e654eb2711b9d07966c318e",
    "cells/b30_fg_c100_r0/observations.csv": "11dda5c37d4296386da9cdc32499ba09cca2ef7e143eb4b50d755481197b5525",
    "cells/b30_fg_c100_r1/observations.csv": "a8e2d9c0b1ae4e09930d75c0403e7871ea7e331f6ab83d6bd1d0ea13ecfc4deb",
    "cells/b30_g_c1_r0/observations.csv": "961ca64ab6446f82c20caa7b7fb0c6a4feea7408617e72eb55a0644f39af6269",
    "cells/b30_g_c1_r1/observations.csv": "50c5c8b181355bacae2a9235c540448190c17856bf60e5ccbf7c761f6345f390",
    "cells/b30_g_c100_r0/observations.csv": "26273c97d78fd25eb700fb2afa37760a4605636ef786e5f09c6b2eae37f12257",
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
            study_value("train_grid", 25),
            generate_full_batch(),
            MiniBatchPolicy(3),
            derive_stream(seed, "sample"),
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
