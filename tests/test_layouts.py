"""The on-disk layout of every surface.

A study cell, reference/, and the oracle and fit verbs each write a surface
CSV, a report.json and a heatmap marked at the surface's minimum.  For each
directory this pins the set of files, the key order of report.json (and of
the diagnostics inside it), and that the heatmap's red marker sits on the
node the report names as argmin.
"""

import re

import numpy as np
import pytest

from gradsurf.artifacts import read_json, read_surface_csv
from gradsurf.cli import main

CELL = "cells/b3_g_c2_r0"
REPORT_KEYS = ["argmin", "min_value", "local_min_count", "negative_fraction"]

# directory: (files, report.json keys, key of the marked surface, its CSV)
LAYOUTS = {
    CELL: (
        {
            "observations.csv",
            "surface_train.csv",
            "surface_report.csv",
            "model.json",
            "report.json",
            "heatmap.svg",
        },
        ["cell", "derived_seed", "fit", "report_surface", "train_surface"],
        "report_surface",
        "surface_report.csv",
    ),
    "reference": (
        {"surface_train.csv", "surface_report.csv", "report.json", "heatmap.svg"},
        ["report_surface", "train_surface"],
        "report_surface",
        "surface_report.csv",
    ),
    "oracle": (
        {"surface.csv", "report.json", "heatmap.svg"},
        ["surface"],
        "surface",
        "surface.csv",
    ),
    "fit": (
        {"model.json", "surface.csv", "report.json", "heatmap.svg"},
        ["surface"],
        "surface",
        "surface.csv",
    ),
}


@pytest.fixture(scope="module")
def root(tmp_path_factory):
    """A one-cell study, an oracle surface, and a fit of the cell's observations."""
    root = tmp_path_factory.mktemp("layouts")
    study = ["--grid", "7", "--report-grid", "9", "--centres", "2", "--batch-max", "3"]
    assert main(["run", *study, "--mode", "g", "--out", str(root)]) == 0
    assert main(["oracle", "--grid", "9", "--out", str(root / "oracle")]) == 0
    observations = str(root / CELL / "observations.csv")
    fit = ["--mode", "g", "--centres", "2", "--report-grid", "9", "--out", str(root / "fit")]
    assert main(["fit", observations, *fit]) == 0
    return root


def marker_rects(svg_text):
    return re.findall(
        r'<rect x="(\d+)" y="(\d+)" width="(\d+)" height="\d+" fill="#ff0000"/>', svg_text
    )


@pytest.mark.parametrize("where", list(LAYOUTS))
def test_surface_directory_holds_exactly_its_files(root, where):
    files, _, _, _ = LAYOUTS[where]
    assert {p.name for p in (root / where).iterdir()} == files


@pytest.mark.parametrize("where", list(LAYOUTS))
def test_report_json_key_order(root, where):
    _, keys, _, _ = LAYOUTS[where]
    report = read_json(root / where / "report.json")
    assert list(report) == keys
    # a cell's surfaces are scored against the reference; the others stand alone
    scored = ["rmse_vs_reference"] if where == CELL else []
    for key in keys:
        if key.endswith("surface"):
            assert list(report[key]) == REPORT_KEYS + scored


@pytest.mark.parametrize("where", list(LAYOUTS))
def test_heatmap_marker_on_report_argmin(root, where):
    _, _, key, csv_name = LAYOUTS[where]
    w1, w2 = read_json(root / where / "report.json")[key]["argmin"]
    grid = read_surface_csv(root / where / csv_name).grid
    (i,) = np.flatnonzero(grid.axis(0) == w1)
    (j,) = np.flatnonzero(grid.axis(1) == w2)
    px = max(2, 600 // grid.resolution)
    inset = px // 6
    x, y = i * px + inset, (grid.resolution - 1 - j) * px + inset
    text = (root / where / "heatmap.svg").read_text(encoding="utf-8")
    assert marker_rects(text) == [(str(x), str(y), str(px - 2 * inset))]
