"""Output bytes do not depend on the BLAS thread count.

A threaded BLAS splits dot products across threads, so the summation order
and with it the rounding of a result can follow the thread count.  The study
runner and the fit verb therefore run numpy's bundled OpenBLAS on one
thread, a setting the runner's forked worker processes inherit.  The thread
count is read once per interpreter, so the comparisons run the CLI in fresh
subprocesses with different OPENBLAS_NUM_THREADS.
"""

import filecmp
import json
import multiprocessing
import os
import subprocess
import sys
import tempfile
import threading
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest

import gradsurf
import gradsurf.experiment
from gradsurf.config import ExperimentConfig, study_value
from gradsurf.experiment import run_experiment
from gradsurf.kernels import _bundled_openblas_threads, single_threaded_blas
from gradsurf.surrogate import FitMode

SRC = str(Path(gradsurf.__file__).resolve().parents[1])
_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def gradsurf_cli(*argv, blas_threads):
    env = {k: v for k, v in os.environ.items() if k not in _THREAD_VARS}
    env["OPENBLAS_NUM_THREADS"] = str(blas_threads)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    subprocess.run(
        [sys.executable, "-m", "gradsurf.cli", *map(str, argv)],
        env=env,
        check=True,
        capture_output=True,
        timeout=300,
    )


def differing_files(a: Path, b: Path):
    files = sorted(p.relative_to(a) for p in a.rglob("*") if p.is_file())
    assert files == sorted(p.relative_to(b) for p in b.rglob("*") if p.is_file())
    return [str(rel) for rel in files if not filecmp.cmp(a / rel, b / rel, shallow=False)]


def test_run_bytes_do_not_depend_on_blas_threads(tmp_path):
    # three c100 cells: coefficients near 1e10 make the report surface
    # sensitive to the summation order of its matrix-vector products
    config = tmp_path / "study.json"
    config.write_text(
        json.dumps({"batch_max_list": [3], "centre_list": [100], "repeats": 1}),
        encoding="utf-8",
    )
    for threads in (1, 2):
        gradsurf_cli("run", "--config", config, "--out", tmp_path / f"t{threads}",
                     blas_threads=threads)
    assert differing_files(tmp_path / "t1", tmp_path / "t2") == []


def test_fit_verb_bytes_do_not_depend_on_blas_threads(tmp_path):
    gradsurf_cli("sample", "--out", tmp_path / "s", blas_threads=1)
    observations = tmp_path / "s" / "observations.csv"
    for threads in (1, 2):
        gradsurf_cli("fit", observations, "--out", tmp_path / f"t{threads}",
                     blas_threads=threads)
    assert differing_files(tmp_path / "t1", tmp_path / "t2") == []


@pytest.fixture
def blas_threads():
    funcs = _bundled_openblas_threads()
    if funcs is None:
        pytest.skip("numpy does not bundle OpenBLAS here")
    return funcs[0]


def tiny_config(repeats=1):
    return ExperimentConfig(
        batch_max_list=(3,),
        centre_list=(2,),
        mode_list=(FitMode.G,),
        repeats=repeats,
        train_grid=study_value("train_grid", 7),
        report_grid=study_value("report_grid", 9),
    )


def test_run_experiment_pins_and_restores_blas_threads(tmp_path, monkeypatch, blas_threads):
    before = blas_threads()
    seen = []
    fit = gradsurf.experiment.fit_surrogate

    def recording_fit(*args):
        seen.append(blas_threads())
        return fit(*args)

    monkeypatch.setattr(gradsurf.experiment, "fit_surrogate", recording_fit)
    run_experiment(tiny_config(repeats=2), out_dir=tmp_path / "a", workers=1)
    assert seen == [1, 1]
    assert blas_threads() == before


def test_worker_processes_run_with_pinned_blas_threads(tmp_path, monkeypatch, blas_threads):
    # the cells fit in forked workers, so each records what it saw in a file
    before = blas_threads()
    record = tmp_path / "seen"
    record.mkdir()
    fit = gradsurf.experiment.fit_surrogate

    def recording_fit(*args):
        with tempfile.NamedTemporaryFile("w", dir=record, delete=False) as f:
            f.write(f"{os.getpid()} {blas_threads()}")
        return fit(*args)

    monkeypatch.setattr(gradsurf.experiment, "fit_surrogate", recording_fit)
    run_experiment(tiny_config(repeats=2), out_dir=tmp_path / "a", workers=2)
    seen = [path.read_text().split() for path in record.iterdir()]
    assert len(seen) == 2
    assert all(pid != str(os.getpid()) and threads == "1" for pid, threads in seen)
    assert blas_threads() == before


def test_run_experiment_restores_blas_threads_when_it_raises(
    tmp_path, monkeypatch, blas_threads
):
    before = blas_threads()

    def broken_fit(*args):
        raise RuntimeError("boom")

    monkeypatch.setattr(gradsurf.experiment, "fit_surrogate", broken_fit)
    with pytest.raises(RuntimeError, match="boom"):
        run_experiment(tiny_config(), out_dir=tmp_path / "a")
    assert blas_threads() == before


def test_worker_error_reaches_the_caller_with_its_traceback(
    tmp_path, monkeypatch, blas_threads
):
    before = blas_threads()

    def broken_fit(*args):
        raise RuntimeError("boom")

    monkeypatch.setattr(gradsurf.experiment, "fit_surrogate", broken_fit)
    with pytest.raises(RuntimeError, match="boom") as raised:
        run_experiment(tiny_config(repeats=2), out_dir=tmp_path / "a", workers=2)
    worker_traceback = str(raised.value.__cause__)
    assert "in broken_fit" in worker_traceback
    assert 'raise RuntimeError("boom")' in worker_traceback
    assert blas_threads() == before
    assert multiprocessing.active_children() == []


def test_overlapping_pins_restore_once_the_last_exits(blas_threads):
    before = blas_threads()
    inside = []
    start = threading.Barrier(4)

    def hold(_):
        start.wait(timeout=30)
        for _ in range(2000):
            with single_threaded_blas():
                with single_threaded_blas():
                    inside.append(blas_threads())
                inside.append(blas_threads())

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=4) as pool:
            list(pool.map(hold, range(4)))
    finally:
        sys.setswitchinterval(interval)
    assert len(inside) == 4 * 2000 * 2
    assert set(inside) == {1}
    assert blas_threads() == before
