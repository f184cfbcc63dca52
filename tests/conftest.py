"""Fixtures shared across test modules."""

import pytest

from gradsurf.config import ExperimentConfig
from gradsurf.experiment import run_experiment


@pytest.fixture(scope="session")
def default_run(tmp_path_factory):
    """One serial run of the default study, shared by the matrix/determinism/
    optimality criteria and the writer byte checks."""
    root = tmp_path_factory.mktemp("acceptance")
    out = root / "run_a"
    run_experiment(ExperimentConfig(), out_dir=out, workers=1)
    return root, out
