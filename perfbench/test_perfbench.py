"""Smoke tests of the benchmark: run with `python3 -m pytest -q perfbench`."""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
from tracing import Tracer, layer_metrics

REPO = Path(__file__).resolve().parent.parent
SPEC = json.loads((REPO / "BENCHMARK.json").read_text())
E2E = {m["name"] for m in SPEC["end_to_end"]}
PER_LAYER = {m["name"] for m in SPEC["per_layer"]}


def _bench(*args, cwd=REPO):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--seconds", "1", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def _result(proc):
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_spec_names_the_workloads_run_py_knows():
    assert {w["name"] for w in SPEC["workloads"]} == set(run.WORKLOADS)
    assert SPEC["command"] == ["python3", "perfbench/run.py"]


@pytest.mark.parametrize("workload", sorted(run.WORKLOADS))
def test_smoke_untraced(workload):
    result = _result(_bench("--workload", workload, "--seed", "3", "--trace", "0", "--smoke"))
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 3
    assert set(result["metrics"]) == E2E
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_smoke_traced_with_workers():
    result = _result(
        _bench("--workload", "default-workers2", "--seed", "5", "--trace", "1", "--smoke")
    )
    assert result["correct"] and result["failed"] == 0
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    assert set(metrics) == PER_LAYER
    assert metrics["experiment.run_cell.count"] == 3
    assert metrics["trace.self_share"] >= 0.95
    assert metrics["kernels.solve.count"] == 3 * 121


def test_refuses_a_tree_without_sources(tmp_path):
    shutil.copy(REPO / "BENCHMARK.json", tmp_path)
    shutil.copytree(REPO / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _bench("--workload", "c1-serial", "--seed", "0", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def _write_cell(out, cell_id, mode, report):
    (out / "cells" / cell_id).mkdir(parents=True)
    (out / "cells" / cell_id / "report.json").write_text(json.dumps({"report_surface": report}))
    return {"id": cell_id, "mode": mode, "status": "ok"}


def test_check_tree_names_the_failed_g_checks(tmp_path):
    good = {"rmse_vs_reference": 2.0, "local_min_count": 1, "min_value": 0.0,
            "negative_fraction": 0.0}
    cells = [
        _write_cell(tmp_path, "a", "g", good),
        _write_cell(tmp_path, "b", "g", dict(good, min_value=-1e-9, negative_fraction=0.5)),
        _write_cell(tmp_path, "c", "f", dict(good, rmse_vs_reference=4.0)),
        {"id": "d", "mode": "f", "status": "failed"},
    ]
    (tmp_path / "index.json").write_text(json.dumps({"cells": cells}))
    quality, failed = run.check_tree(tmp_path, expected_cells=4)
    assert failed == {"g-min-not-zero": {"b"}, "g-negative": {"b"}, "cell-not-ok": {"d"}}
    assert quality == {"rmse_f": 4.0, "rmse_g": 2.0, "g_single_min_share": 1.0}


def test_layer_metrics_self_time_and_assembly_context():
    spans = [
        # id, parent, name, thread, start, end, extra
        (1, None, "cli.main", 1, 0.0, 10.0, None),
        (2, 1, "surrogate.fit_surrogate", 1, 1.0, 5.0, {"at_bound": 1}),
        (3, 2, "kernels.assemble", 1, 1.0, 2.0, {"bytes": 80}),
        (4, 2, "kernels.solve", 1, 2.0, 4.0, {"error": "NumericalError"}),
        (5, 1, "surrogate.translate_to_zero", 1, 6.0, 7.0, None),
        (6, 5, "kernels.assemble", 1, 6.0, 6.5, {"bytes": 16}),
    ]
    m = layer_metrics(spans)
    assert m["kernels.assemble.fit.bytes"] == 80 and m["kernels.assemble.eval.bytes"] == 16
    assert m["kernels.solve.failed"] == 1 and m["surrogate.candidate_useful_ratio"] == 0.0
    assert m["surrogate.fit_surrogate.self_s"] == 1.0
    assert m["cli.self_s"] == 5.0 and m["kernels.self_s"] == 3.5
    assert m["trace.self_share"] == 1.0


def test_worker_thread_spans_hang_below_the_waiting_call():
    from concurrent.futures import ThreadPoolExecutor

    tracer = Tracer()
    work = tracer._wrap("experiment.run_cell", lambda x: x * 2)

    def experiment():
        with ThreadPoolExecutor(max_workers=2) as pool:
            return list(pool.map(work, range(4)))

    waiting = tracer._wrap("experiment.run_experiment", experiment)
    assert tracer.run_root("cli.main", waiting) == [0, 2, 4, 6]
    by_name = {}
    for span in tracer.spans:
        by_name.setdefault(span[2], []).append(span)
    (outer,) = by_name["experiment.run_experiment"]
    assert {s[1] for s in by_name["experiment.run_cell"]} == {outer[0]}
