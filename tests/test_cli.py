"""CLI verbs, flag plumbing and exit codes (0 ok, 1 usage/config, 2 fit failure)."""

import json

import numpy as np
import pytest
import reference

import gradsurf.experiment
import gradsurf.surrogate
from gradsurf.artifacts import read_json, read_observations_csv
from gradsurf.cli import main
from gradsurf.kernels import single_threaded_blas
from gradsurf.surrogate import FitFailure, FitMode


# FitFailure's message: a sweep fails only when every candidate does
FAILURE = "all 121 shape candidates failed (skipped eps from 0.0001 to 100000)"


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
    assert err == f"gradsurf: {FAILURE}\n"


def test_fit_verb_goes_through_the_experiment_fit_chain(tmp_path, capsys, monkeypatch):
    def always_fails(observations, recipe, stream):
        raise FitFailure()

    monkeypatch.setattr(gradsurf.experiment, "fit_surrogate", always_fails)
    run_cli(capsys, "sample", "--grid", "5", "--out", str(tmp_path))
    observations = str(tmp_path / "observations.csv")
    code, _, err = run_cli(capsys, "fit", observations, "--centres", "1", "--out", str(tmp_path))
    assert code == 2
    assert err == f"gradsurf: {FAILURE}\n"


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


@pytest.mark.parametrize("order", ["sampled", "shuffled"])
def test_fit_verb_screens_on_the_grid_in_any_row_order(tmp_path, capsys, monkeypatch, order):
    # sample -> observations.csv -> fit takes the grid route, and so do the
    # same rows shuffled, which the verb sorts back into grid order.  Either
    # way the model is the winner of solving every candidate exactly, on the
    # sampled rows and the centres the fit drew
    run_cli(capsys, "sample", "--grid", "13", "--out", str(tmp_path / "s"))
    csv = tmp_path / "s" / "observations.csv"
    observations = read_observations_csv(csv)
    if order == "shuffled":
        header, *rows = csv.read_text(encoding="utf-8").splitlines(keepends=True)
        csv.write_text("".join([header, *rows[1::2], *rows[0::2]]), encoding="utf-8")
    grids = []

    class CountingGrid(gradsurf.surrogate._Grid):
        def __init__(self, *args):
            grids.append(None)
            super().__init__(*args)

    monkeypatch.setattr(gradsurf.surrogate, "_Grid", CountingGrid)
    # 26 centres, the narrowest system the sweep screens
    argv = ["fit", str(csv), "--mode", "fg", "--centres", "26", "--report-grid", "9"]
    assert run_cli(capsys, *argv, "--out", str(tmp_path / "f"))[0] == 0
    assert len(grids) == 1
    model = read_json(tmp_path / "f" / "model.json")
    with single_threaded_blas():
        best, _ = reference.shape_sweep(observations, np.array(model["centres"]), FitMode.FG)
    assert model["shape"] == best[1]
    assert np.array(model["coefficients"]).tobytes() == best[2].tobytes()


@pytest.mark.parametrize("mode", ["f", "g"])
@pytest.mark.parametrize("order", ["reversed", "permuted"])
def test_fit_verb_output_does_not_depend_on_row_order(tmp_path, capsys, mode, order):
    # the centre draw picks rows, so the verb fits the rows in one canonical
    # order: a CSV with its rows reordered writes the sampled CSV's files,
    # byte for byte, off the grid route (one centre) and on it
    run_cli(capsys, "sample", "--seed", "5", "--grid", "13", "--out", str(tmp_path / "s"))
    csv = tmp_path / "s" / "observations.csv"
    header, *rows = csv.read_text(encoding="utf-8").splitlines(keepends=True)
    if order == "reversed":
        rows = rows[::-1]
    else:
        rows = [rows[k] for k in np.random.default_rng(5).permutation(len(rows))]
    moved = tmp_path / "moved.csv"
    moved.write_text("".join([header, *rows]), encoding="utf-8")
    trees = {}
    for name, path in (("sampled", csv), ("moved", moved)):
        for centres in ("1", "26"):
            out = tmp_path / name / centres
            argv = ["fit", str(path), "--mode", mode, "--centres", centres, "--report-grid", "9"]
            assert run_cli(capsys, *argv, "--out", str(out))[0] == 0
        trees[name] = {
            p.relative_to(tmp_path / name): p.read_bytes()
            for p in sorted((tmp_path / name).rglob("*"))
            if p.is_file()
        }
    assert len(trees["sampled"]) == 8
    assert trees["moved"] == trees["sampled"]


def test_report_verb(tmp_path, capsys):
    run_cli(capsys, "oracle", "--grid", "9", "--out", str(tmp_path))
    code, out, _ = run_cli(capsys, "report", str(tmp_path / "surface.csv"))
    assert code == 0
    payload = json.loads(out)
    assert payload["local_min_count"] == 1
    assert payload["min_value"] > 0.0


@pytest.mark.parametrize(
    "bad, order",
    [pytest.param(bad, "grid", id=bad) for bad in ("nan", "inf")]
    + [pytest.param("nan", "transposed", id="nan-transposed")],
)
def test_report_verb_non_finite_surface_exits_1(tmp_path, capsys, bad, order):
    # a whole-file error names the file as a row error does; a surface in
    # w2-fastest order is not a grid either, but its value is named first
    run_cli(capsys, "oracle", "--grid", "9", "--out", str(tmp_path))
    path = tmp_path / "surface.csv"
    header, *lines = path.read_text(encoding="utf-8").splitlines()
    w1, w2, _ = lines[4].split(",")
    lines[4] = f"{w1},{w2},{bad}"
    if order == "transposed":
        lines = [lines[i * 9 + j] for j in range(9) for i in range(9)]
    path.write_text("\n".join([header, *lines]) + "\n", encoding="utf-8")
    code, out, err = run_cli(capsys, "report", str(path))
    assert code == 1
    assert out == ""
    assert err.startswith(f"gradsurf: {path}: ")
    assert "finite" in err


@pytest.mark.parametrize(
    ("line", "edit", "message"),
    [
        pytest.param(1, lambda row: "w1,w2,loss", "header", id="header"),
        pytest.param(3, lambda row: row + ",0.0", "fields", id="extra-field"),
        pytest.param(3, lambda row: row[: row.rindex(",")], "fields", id="missing-field"),
        pytest.param(3, lambda row: "x" + row, "could not convert", id="bad-number"),
    ],
)
def test_report_verb_csv_errors_name_file_and_line(tmp_path, capsys, line, edit, message):
    run_cli(capsys, "oracle", "--grid", "3", "--out", str(tmp_path))
    path = tmp_path / "surface.csv"
    lines = path.read_text(encoding="utf-8").splitlines()
    lines[line - 1] = edit(lines[line - 1])
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    code, out, err = run_cli(capsys, "report", str(path))
    assert code == 1
    assert out == ""
    assert err.startswith(f"gradsurf: {path}:{line}: ")
    assert message in err


@pytest.mark.parametrize(
    ("line", "edit", "message"),
    [
        pytest.param(1, lambda row: "w1,w2,batch,loss,g1,g2", "header", id="header"),
        pytest.param(4, lambda row: row + ",0.0", "fields", id="extra-field"),
        pytest.param(4, lambda row: row[: row.rindex(",")], "fields", id="missing-field"),
        pytest.param(4, lambda row: "0.0,0.0,1e999,1.0,0.0,0.0", "int()", id="bad-batch-size"),
    ],
)
def test_fit_verb_csv_errors_name_file_and_line(tmp_path, capsys, line, edit, message):
    run_cli(capsys, "sample", "--grid", "5", "--out", str(tmp_path))
    path = tmp_path / "observations.csv"
    lines = path.read_text(encoding="utf-8").splitlines()
    lines[line - 1] = edit(lines[line - 1])
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    out = tmp_path / "fit"
    code, _, err = run_cli(capsys, "fit", str(path), "--centres", "2", "--out", str(out))
    assert code == 1
    assert err.startswith(f"gradsurf: {path}:{line}: ")
    assert message in err
    assert not out.exists()


def with_field(row, k, value):
    """A CSV row with its field k replaced by value."""
    fields = row.split(b",")
    fields[k] = value
    return b",".join(fields)


def undecodable_at(line, total):
    """A CSV of total lines, rows repeated as needed, with a 0xff byte ending line line."""

    def edit(header, rows):
        body = [rows[k % len(rows)] for k in range(total - 1)]
        body[line - 2] += b"\xff"
        return [header, *body]

    return edit


@pytest.mark.parametrize(
    ("edit", "message"),
    [
        pytest.param(lambda header, rows: [header], "nonempty", id="header-only"),
        pytest.param(
            lambda header, rows: [header, with_field(rows[0], 3, b"nan"), *rows[1:]],
            "observations must be finite",
            id="nan-loss",
        ),
        pytest.param(
            lambda header, rows: [header, *rows[:-1], with_field(rows[-1], 2, b"0")],
            "batch sizes must be integers >= 1",
            id="batch-size-0",
        ),
        # the text layer decodes ahead of the CSV reader, whose line
        # number is then not the bad byte's, so only the file is named
        pytest.param(undecodable_at(1501, 2001), "not UTF-8", id="undecodable-line-1501"),
        pytest.param(undecodable_at(2, 3), "not UTF-8", id="undecodable-line-2"),
    ],
)
def test_fit_verb_file_errors_name_the_file(tmp_path, capsys, edit, message):
    run_cli(capsys, "sample", "--grid", "5", "--out", str(tmp_path))
    path = tmp_path / "observations.csv"
    header, *rows = path.read_bytes().splitlines()
    path.write_bytes(b"\n".join(edit(header, rows)) + b"\n")
    out = tmp_path / "fit"
    code, _, err = run_cli(capsys, "fit", str(path), "--centres", "2", "--out", str(out))
    assert code == 1
    assert err.startswith(f"gradsurf: {path}: ")
    assert message in err
    assert not out.exists()


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
    cfg.write_text('{"batch_max_list": [3, NaN]}', encoding="utf-8")
    out = tmp_path / "out"
    code, _, err = run_cli(capsys, "run", "--config", str(cfg), "--out", str(out))
    assert code == 1
    assert "batch_max_list[1]: expected an integer" in err
    assert not out.exists()


def test_run_verb_problem_config_key_exits_1_and_writes_nothing(tmp_path, capsys):
    # the dataset and the box are fixed; a config that sets them is refused
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"seed": 1, "dataset_n": 61}', encoding="utf-8")
    out = tmp_path / "out"
    code, _, err = run_cli(capsys, "run", "--config", str(cfg), "--out", str(out))
    assert code == 1
    assert "unknown config key 'dataset_n'" in err
    assert not out.exists()


def test_run_verb_repeated_config_key_exits_1_and_writes_nothing(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"seed": 1, "seed": 2}', encoding="utf-8")
    out = tmp_path / "out"
    code, _, err = run_cli(capsys, "run", "--config", str(cfg), "--out", str(out))
    assert code == 1
    assert "'seed'" in err
    assert not out.exists()


def test_run_verb_report_grid_past_its_bound_exits_1_and_writes_nothing(tmp_path, capsys):
    out = tmp_path / "out"
    code, _, err = run_cli(capsys, "run", "--report-grid", "4002", "--out", str(out))
    assert code == 1
    assert "report_grid: must be <= 4001, got 4002" in err
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
        raise FitFailure()

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
    assert err == "".join(f"cell b3_f_c1_r{r} failed: {FAILURE}\n" for r in range(2))


def test_run_verb_restricted_single_cell_failure(tmp_path, capsys, monkeypatch):
    def always_fails(observations, recipe, stream):
        raise FitFailure()

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
    assert err == f"cell b3_f_c1_r0 failed: {FAILURE}\n"
