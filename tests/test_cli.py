"""CLI verbs, flag plumbing and exit codes (0 ok, 1 usage/config, 2 fit failure)."""

import json

import pytest

import gradsurf.experiment
from gradsurf.artifacts import read_json
from gradsurf.cli import main
from gradsurf.surrogate import FitFailure


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_no_command_is_usage_error(capsys):
    code, _, err = run_cli(capsys)
    assert code == 1
    assert "usage" in err


def test_unknown_command_is_usage_error(capsys):
    code, _, err = run_cli(capsys, "frobnicate")
    assert code == 1


def test_bad_flag_value_is_usage_error(capsys):
    code, _, err = run_cli(capsys, "sample", "--seed", "banana")
    assert code == 1


def test_oracle_verb(tmp_path, capsys):
    code, out, _ = run_cli(capsys, "oracle", "--grid", "9", "--out", str(tmp_path))
    assert code == 0
    assert "surface.csv" in out
    report = read_json(tmp_path / "report.json")
    assert report["surface"]["local_min_count"] == 1
    assert report["surface"]["negative_fraction"] == 0.0
    assert (tmp_path / "heatmap.svg").is_file()
    lines = (tmp_path / "surface.csv").read_text(encoding="utf-8").splitlines()
    assert lines[0] == "w1,w2,value"
    assert len(lines) == 1 + 81


def test_sample_verb_deterministic(tmp_path, capsys):
    a, b, c = tmp_path / "a", tmp_path / "b", tmp_path / "c"
    assert run_cli(capsys, "sample", "--grid", "5", "--out", str(a))[0] == 0
    assert run_cli(capsys, "sample", "--grid", "5", "--out", str(b))[0] == 0
    assert run_cli(capsys, "sample", "--grid", "5", "--seed", "1", "--out", str(c))[0] == 0
    same = (a / "observations.csv").read_bytes()
    assert same == (b / "observations.csv").read_bytes()
    assert same != (c / "observations.csv").read_bytes()
    header = same.decode("utf-8").splitlines()[0]
    assert header == "w1,w2,b,loss,g1,g2"


def test_sample_batch_sizes_respect_max(tmp_path, capsys):
    run_cli(capsys, "sample", "--grid", "5", "--batch-max", "2", "--out", str(tmp_path))
    rows = (tmp_path / "observations.csv").read_text(encoding="utf-8").splitlines()[1:]
    sizes = {int(r.split(",")[2]) for r in rows}
    assert sizes <= {1, 2}
    assert len(sizes) == 2  # both values appear on 25 draws with near-certainty


def test_fit_verb_gradient_mode(tmp_path, capsys):
    sample_dir = tmp_path / "s"
    run_cli(capsys, "sample", "--grid", "7", "--out", str(sample_dir))
    fit_dir = tmp_path / "f"
    code, out, _ = run_cli(
        capsys,
        "fit",
        str(sample_dir / "observations.csv"),
        "--mode",
        "g",
        "--centres",
        "4",
        "--report-grid",
        "9",
        "--out",
        str(fit_dir),
    )
    assert code == 0
    assert "model.json" in out
    model = read_json(fit_dir / "model.json")
    assert model["mode"] == "g"
    assert len(model["centres"]) == 4
    assert model["offset"] != 0.0
    report = read_json(fit_dir / "report.json")
    assert report["surface"]["min_value"] == 0.0
    assert report["surface"]["negative_fraction"] == 0.0
    assert (fit_dir / "surface.csv").is_file()
    assert (fit_dir / "heatmap.svg").is_file()


def test_fit_verb_missing_observations_file(tmp_path, capsys):
    code, _, err = run_cli(capsys, "fit", str(tmp_path / "nope.csv"))
    assert code == 1
    assert err.startswith("gradsurf:")


def test_fit_verb_budget_violation(tmp_path, capsys):
    sample_dir = tmp_path / "s"
    run_cli(capsys, "sample", "--grid", "5", "--out", str(sample_dir))
    code, _, err = run_cli(
        capsys, "fit", str(sample_dir / "observations.csv"), "--centres", "5"
    )
    assert code == 1
    assert "5" in err


def test_fit_verb_numerical_failure_exits_2(tmp_path, capsys):
    path = tmp_path / "poison.csv"
    xs = [0.0, 0.4, 0.8, 1.2, 1.6, 2.0]
    rows = ["w1,w2,b,loss,g1,g2"]
    for i, x in enumerate(xs):
        value = 1.7e308 if i % 2 == 0 else -1.7e308
        rows.append(f"{x},0.0,1,{value!r},0.0,0.0")
    path.write_text("\n".join(rows) + "\n", encoding="utf-8")
    code, _, err = run_cli(
        capsys, "fit", str(path), "--mode", "f", "--centres", "1", "--out", str(tmp_path / "o")
    )
    assert code == 2
    assert "121 shape candidates failed" in err


def test_fit_verb_goes_through_the_experiment_fit_chain(tmp_path, capsys, monkeypatch):
    def always_fails(observations, recipe, stream):
        raise FitFailure([1e-4, 1e5])

    monkeypatch.setattr(gradsurf.experiment, "fit_surrogate", always_fails)
    run_cli(capsys, "sample", "--grid", "5", "--out", str(tmp_path))
    observations = str(tmp_path / "observations.csv")
    code, _, err = run_cli(capsys, "fit", observations, "--centres", "1", "--out", str(tmp_path))
    assert code == 2
    assert "2 shape candidates failed" in err


def test_fit_verb_reproduces_a_study_cell(tmp_path, capsys):
    # a cell's observations, mode, centre count and derived seed are all
    # the fit verb needs to give the cell's model and report surface
    cfg = tmp_path / "cfg.json"
    cfg.write_text(
        json.dumps({"batch_max_list": [3], "centre_list": [2], "repeats": 1, "train_grid": 7}),
        encoding="utf-8",
    )
    out = tmp_path / "out"
    assert run_cli(capsys, "run", "--config", str(cfg), "--out", str(out))[0] == 0
    cells = read_json(out / "index.json")["cells"]
    assert [c["mode"] for c in cells] == ["f", "fg", "g"]
    for cell in cells:
        fit_dir = tmp_path / cell["id"]
        code, _, _ = run_cli(
            capsys,
            "fit",
            str(out / cell["artifacts"]["observations"]),
            "--mode",
            cell["mode"],
            "--centres",
            str(cell["n_centres"]),
            "--seed",
            str(cell["derived_seed"]),
            "--out",
            str(fit_dir),
        )
        assert code == 0
        model = (out / cell["artifacts"]["model"]).read_bytes()
        assert (fit_dir / "model.json").read_bytes() == model
        surface = (out / cell["artifacts"]["surface_report"]).read_bytes()
        assert (fit_dir / "surface.csv").read_bytes() == surface


def test_report_verb(tmp_path, capsys):
    run_cli(capsys, "oracle", "--grid", "9", "--out", str(tmp_path))
    code, out, _ = run_cli(capsys, "report", str(tmp_path / "surface.csv"))
    assert code == 0
    payload = json.loads(out)
    assert payload["local_min_count"] == 1
    assert payload["min_value"] > 0.0


def test_run_verb_small_matrix(tmp_path, capsys):
    code, out, _ = run_cli(
        capsys,
        "run",
        "--grid",
        "7",
        "--report-grid",
        "9",
        "--centres",
        "2",
        "--batch-max",
        "3",
        "--out",
        str(tmp_path / "out"),
        "--workers",
        "2",
    )
    assert code == 0
    assert "6/6 cells ok" in out
    index = read_json(tmp_path / "out" / "index.json")
    assert index["config"]["train_grid"] == 7
    assert [c["mode"] for c in index["cells"]] == ["f", "f", "fg", "fg", "g", "g"]


def test_run_verb_config_file_with_override(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(
        json.dumps(
            {
                "batch_max_list": [3],
                "centre_list": [1],
                "mode_list": ["f"],
                "repeats": 1,
                "train_grid": 7,
                "report_grid": 9,
            }
        ),
        encoding="utf-8",
    )
    a, b = tmp_path / "a", tmp_path / "b"
    code, _, _ = run_cli(capsys, "run", "--config", str(cfg), "--out", str(a))
    assert code == 0
    code, _, _ = run_cli(capsys, "run", "--config", str(cfg), "--seed", "1", "--out", str(b))
    assert code == 0
    assert read_json(a / "index.json")["config"]["seed"] == 0
    assert read_json(b / "index.json")["config"]["seed"] == 1
    obs = "cells/b3_f_c1_r0/observations.csv"
    assert (a / obs).read_bytes() != (b / obs).read_bytes()


def test_run_verb_bad_config_exits_1(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"centre_list": [105]}', encoding="utf-8")
    code, _, err = run_cli(capsys, "run", "--config", str(cfg), "--out", str(tmp_path / "o"))
    assert code == 1
    assert "104" in err


def test_run_verb_nonfinite_config_exits_1_and_writes_nothing(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"dataset_coefficients": [NaN, 0.1]}', encoding="utf-8")
    out = tmp_path / "out"
    code, _, err = run_cli(capsys, "run", "--config", str(cfg), "--out", str(out))
    assert code == 1
    assert "dataset_coefficients[0]" in err
    assert not out.exists()


@pytest.mark.parametrize("workers", ["0", "-1"])
def test_run_verb_nonpositive_workers_exits_1(tmp_path, capsys, workers):
    out = tmp_path / "out"
    code, _, err = run_cli(capsys, "run", "--workers", workers, "--out", str(out))
    assert code == 1
    assert "workers" in err
    assert not out.exists()


def test_run_verb_missing_config_exits_1(tmp_path, capsys):
    code, _, _ = run_cli(capsys, "run", "--config", str(tmp_path / "nope.json"))
    assert code == 1


def test_run_verb_single_cell_failure_exits_2(tmp_path, capsys, monkeypatch):
    def always_fails(observations, recipe, stream):
        raise FitFailure([1e-4, 1e5])

    monkeypatch.setattr(gradsurf.experiment, "fit_surrogate", always_fails)
    code, out, err = run_cli(
        capsys,
        "run",
        "--grid",
        "7",
        "--report-grid",
        "9",
        "--centres",
        "1",
        "--mode",
        "f",
        "--batch-max",
        "3",
        "--out",
        str(tmp_path / "out"),
    )
    # matrix restricted to repeats=2 still has two cells -> not single-cell
    assert code == 0
    assert "0/2 cells ok" in out
    assert "failed" in err


def test_run_verb_restricted_single_cell_failure(tmp_path, capsys, monkeypatch):
    def always_fails(observations, recipe, stream):
        raise FitFailure([1e-4, 1e5])

    monkeypatch.setattr(gradsurf.experiment, "fit_surrogate", always_fails)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(
        json.dumps(
            {
                "batch_max_list": [3],
                "centre_list": [1],
                "mode_list": ["f"],
                "repeats": 1,
                "train_grid": 7,
                "report_grid": 9,
            }
        ),
        encoding="utf-8",
    )
    code, _, err = run_cli(
        capsys, "run", "--config", str(cfg), "--out", str(tmp_path / "out")
    )
    assert code == 2
    assert "b3_f_c1_r0 failed" in err
