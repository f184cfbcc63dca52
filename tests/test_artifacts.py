"""CSV/JSON artifact round-trips and the SVG heatmap renderer.

The CSV writers and the heatmap renderer are compared byte for byte with
the one-row-at-a-time writers in `reference`, on every surface and
observation set of the default study.
"""

import json

import numpy as np
import pytest
import reference

from gradsurf.analysis import SurfaceGrid, locate_min
from gradsurf.artifacts import (
    read_json,
    read_observations_csv,
    read_surface_csv,
    render_heatmap_svg,
    surrogate_json,
    write_json,
    write_observations_csv,
    write_surface_csv,
)
from gradsurf.config import ExperimentConfig
from gradsurf.kernels import KernelParams
from gradsurf.problem import (
    GridSpec,
    MiniBatchPolicy,
    Observations,
    generate_full_batch,
    sample_loss_surface,
)
from gradsurf.rng import derive_stream
from gradsurf.surrogate import FitMode, Surrogate

GRID2 = GridSpec(lower=(0.0, 0.0), upper=(1.0, 1.0), resolution=2)


def test_surface_csv_exact_lines(tmp_path):
    surf = SurfaceGrid(grid=GRID2, values=np.array([[0.5, 1.5], [2.5, 3.5]]))
    path = tmp_path / "s.csv"
    write_surface_csv(surf, path)
    raw = path.read_bytes().decode("utf-8")
    assert raw == "w1,w2,value\n0.0,0.0,0.5\n1.0,0.0,1.5\n0.0,1.0,2.5\n1.0,1.0,3.5\n"


def test_surface_csv_roundtrip_bitexact(tmp_path):
    grid = GridSpec(lower=(-2.0, -2.0), upper=(2.0, 2.0), resolution=5)
    # deliberately awkward values: shortest-repr must still round-trip
    values = np.array(
        [[(1 / 3) * (i - j) + 1e-17 * i for i in range(5)] for j in range(5)]
    )
    path = tmp_path / "s.csv"
    write_surface_csv(SurfaceGrid(grid=grid, values=values), path)
    back = read_surface_csv(path)
    assert back.grid == grid
    assert np.array_equal(back.values, values)


def test_surface_csv_rejects_bad_header(tmp_path):
    path = tmp_path / "s.csv"
    path.write_text("w1,w2,loss\n0.0,0.0,1.0\n", encoding="utf-8")
    with pytest.raises(ValueError):
        read_surface_csv(path)


def test_surface_csv_rejects_non_square(tmp_path):
    surf = SurfaceGrid(grid=GRID2, values=np.zeros((2, 2)))
    path = tmp_path / "s.csv"
    write_surface_csv(surf, path)
    with path.open("a", encoding="utf-8") as fh:
        fh.write("2.0,2.0,0.0\n")
    with pytest.raises(ValueError):
        read_surface_csv(path)


def test_surface_csv_rejects_tampered_nodes(tmp_path):
    surf = SurfaceGrid(grid=GRID2, values=np.zeros((2, 2)))
    path = tmp_path / "s.csv"
    write_surface_csv(surf, path)
    lines = path.read_text(encoding="utf-8").splitlines()
    lines[2] = "0.25,0.0,0.0"  # node moved off-grid
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    with pytest.raises(ValueError):
        read_surface_csv(path)


@pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
def test_surface_csv_rejects_non_finite_values(tmp_path, bad):
    surf = SurfaceGrid(grid=GRID2, values=np.zeros((2, 2)))
    path = tmp_path / "s.csv"
    write_surface_csv(surf, path)
    lines = path.read_text(encoding="utf-8").splitlines()
    lines[3] = f"0.0,1.0,{bad}"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    with pytest.raises(ValueError, match="finite"):
        read_surface_csv(path)


def test_observations_csv_exact_line(tmp_path):
    obs = Observations(
        points=np.array([[1.5, -2.5]]),
        values=np.array([0.25]),
        gradients=np.array([[-1.25, 3.5]]),
        batch_sizes=np.array([7]),
    )
    path = tmp_path / "o.csv"
    write_observations_csv(obs, path)
    raw = path.read_text(encoding="utf-8")
    assert raw == "w1,w2,b,loss,g1,g2\n1.5,-2.5,7,0.25,-1.25,3.5\n"


def test_observations_csv_roundtrip_bitexact(tmp_path):
    rng = np.random.default_rng(7)
    obs = Observations(
        points=rng.uniform(-2, 2, (40, 2)),
        values=rng.normal(size=40) * 10.0 ** -rng.integers(0, 12, 40),
        gradients=rng.normal(size=(40, 2)),
        batch_sizes=rng.integers(1, 31, 40),
    )
    path = tmp_path / "o.csv"
    write_observations_csv(obs, path)
    back = read_observations_csv(path)
    assert np.array_equal(back.points, obs.points)
    assert np.array_equal(back.values, obs.values)
    assert np.array_equal(back.gradients, obs.gradients)
    assert np.array_equal(back.batch_sizes, obs.batch_sizes)


def test_observations_csv_rejects_bad_header(tmp_path):
    path = tmp_path / "o.csv"
    path.write_text("w1,w2,batch,loss,g1,g2\n", encoding="utf-8")
    with pytest.raises(ValueError):
        read_observations_csv(path)


@pytest.mark.parametrize(
    "rows",
    [
        pytest.param([], id="no-rows"),
        pytest.param(["0.0,0.0,0,1.0,0.0,0.0"], id="batch-size-0"),
        pytest.param(["0.0,0.0,1,nan,0.0,0.0"], id="nan-loss"),
        pytest.param(["0.0,inf,1,1.0,0.0,0.0"], id="inf-point"),
        pytest.param(["0.0,0.0,1,1.0,0.0"], id="short-row"),
    ],
)
def test_observations_csv_rejects_bad_rows(tmp_path, rows):
    path = tmp_path / "o.csv"
    path.write_text("\n".join(["w1,w2,b,loss,g1,g2", *rows]) + "\n", encoding="utf-8")
    with pytest.raises(ValueError):
        read_observations_csv(path)


def test_write_json_trailing_newline(tmp_path):
    path = tmp_path / "x.json"
    write_json({"a": 1}, path)
    raw = path.read_bytes()
    assert raw.endswith(b"\n")
    assert json.loads(raw) == {"a": 1}
    assert read_json(path) == {"a": 1}


def test_surrogate_json_fields():
    s = Surrogate(
        centres=np.array([[0.0, 1.0], [1.0, -1.0]]),
        coefficients=np.array([0.5, -0.25]),
        params=KernelParams(3.0),
        mode=FitMode.G,
        offset=1.25,
    )
    d = surrogate_json(s, mse=1e-9)
    assert d["mode"] == "g"
    assert d["shape"] == 3.0
    assert d["offset"] == 1.25
    assert d["training_mse"] == 1e-9
    assert d["centres"] == [[0.0, 1.0], [1.0, -1.0]]
    assert d["coefficients"] == [0.5, -0.25]
    json.dumps(d)  # serializable without custom encoders


def header_of(path):
    return path.read_text(encoding="utf-8")


def test_svg_rect_count_and_colours(tmp_path):
    grid = GridSpec(lower=(-2.0, -2.0), upper=(2.0, 2.0), resolution=25)
    rng = np.random.default_rng(3)
    values = rng.uniform(0, 1, (25, 25))
    path = tmp_path / "h.svg"
    render_heatmap_svg(SurfaceGrid(grid=grid, values=values), path)
    text = header_of(path)
    # one rectangle per node, then the marker
    assert text.count("<rect") == 626
    assert "#0d0887" in text and "#f0f921" in text


def test_svg_constant_surface_all_low_colour(tmp_path):
    grid = GridSpec(lower=(0.0, 0.0), upper=(1.0, 1.0), resolution=4)
    path = tmp_path / "h.svg"
    render_heatmap_svg(SurfaceGrid(grid=grid, values=np.full((4, 4), 2.0)), path)
    text = header_of(path)
    assert text.count('fill="#0d0887"') == 16
    assert "#f0f921" not in text


def test_svg_marker_rect(tmp_path):
    grid = GridSpec(lower=(0.0, 0.0), upper=(1.0, 1.0), resolution=4)
    values = np.zeros((4, 4))
    values[2, 1] = -1.0  # node (i=1, j=2)
    path = tmp_path / "h.svg"
    render_heatmap_svg(SurfaceGrid(grid=grid, values=values), path)
    text = header_of(path)
    assert text.count("<rect") == 17
    assert text.count('fill="#ff0000"') == 1
    # px = max(2, 600 // 4) = 150; marker inset by 150 // 6 = 25
    # x = 1 * 150 + 25 = 175; y = (4 - 1 - 2) * 150 + 25 = 175
    marker_line = [ln for ln in text.splitlines() if "#ff0000" in ln][0]
    assert 'x="175"' in marker_line
    assert 'y="175"' in marker_line
    assert 'width="100"' in marker_line


def test_svg_orientation_high_w2_at_top(tmp_path):
    # only the max-w2 row is hot, so the hot rects must sit at y=0
    grid = GridSpec(lower=(0.0, 0.0), upper=(1.0, 1.0), resolution=3)
    values = np.zeros((3, 3))
    values[2, :] = 1.0
    path = tmp_path / "h.svg"
    render_heatmap_svg(SurfaceGrid(grid=grid, values=values), path)
    hot = [ln for ln in header_of(path).splitlines() if "#f0f921" in ln]
    assert len(hot) == 3
    assert all('y="0"' in ln for ln in hot)


def test_svg_deterministic_bytes(tmp_path):
    grid = GridSpec(lower=(-1.0, -1.0), upper=(1.0, 1.0), resolution=6)
    values = np.linspace(0, 1, 36).reshape(6, 6)
    a, b = tmp_path / "a.svg", tmp_path / "b.svg"
    render_heatmap_svg(SurfaceGrid(grid=grid, values=values), a)
    render_heatmap_svg(SurfaceGrid(grid=grid, values=values), b)
    assert a.read_bytes() == b.read_bytes()


def test_svg_small_grid_min_cell_size(tmp_path):
    # 600 // 500 = 1 would be sub-pixel; the renderer clamps to 2
    grid = GridSpec(lower=(0.0, 0.0), upper=(1.0, 1.0), resolution=500)
    values = np.zeros((500, 500))
    path = tmp_path / "h.svg"
    render_heatmap_svg(SurfaceGrid(grid=grid, values=values), path)
    text = header_of(path)
    assert 'width="1000"' in text.splitlines()[0] + text.splitlines()[1]


def test_svg_rejects_non_finite_values(tmp_path):
    values = np.zeros((2, 2))
    values[1, 0] = np.nan
    with pytest.raises(ValueError):
        render_heatmap_svg(SurfaceGrid(grid=GRID2, values=values), tmp_path / "h.svg")


def written(write, surface, path):
    write(surface, path)
    return path.read_text(encoding="utf-8")


def tied(*nodes):
    """A 3 x 3 surface of ones with 0.0 at each given (i, j) node."""
    values = np.ones((3, 3))
    for i, j in nodes:
        values[j, i] = 0.0
    return values


# every heatmap marks its lowest node; the ids name the marked surface
@pytest.mark.parametrize(
    "values",
    [
        pytest.param(np.full((4, 4), 2.0), id="marker-constant"),
        pytest.param(np.linspace(-1.0, 1.0, 16).reshape(4, 4), id="marker-ramp"),
        # t = 0.5 puts red and green at 126.5 and 128.5: halves round to even
        pytest.param(np.array([[0.0, 0.5], [1.0, 0.25]]), id="marker-half-way"),
        # tied minima: the marker goes to the first in flat order
        pytest.param(tied((2, 2), (1, 1), (0, 2)), id="marker-tied-zeros"),
        pytest.param(tied((0, 0), (1, 0), (2, 0)), id="marker-tied-bottom-row"),
        pytest.param(tied((0, 2), (1, 1), (2, 0)), id="marker-tied-diagonal"),
    ],
)
def test_writers_match_pointwise_reference_on_small_surfaces(tmp_path, values):
    res = values.shape[0]
    surface = SurfaceGrid(GridSpec(lower=(-1.0, 0.0), upper=(1.0, 3.0), resolution=res), values)
    svg = written(render_heatmap_svg, surface, tmp_path / "h.svg")
    assert svg == reference.heatmap_svg_text(surface, locate_min(surface)[0])
    assert written(write_surface_csv, surface, tmp_path / "s.csv") == reference.surface_csv_text(
        surface
    )


def test_writers_match_pointwise_reference_on_every_study_surface(default_run, tmp_path):
    _, out = default_run
    paths = sorted(out.glob("cells/*/surface_*.csv")) + sorted(out.glob("reference/surface_*.csv"))
    assert len(paths) == 2 * 24 + 2
    for path in paths:
        surface = read_surface_csv(path)
        text = path.read_text(encoding="utf-8")
        assert reference.surface_csv_text(surface) == text, path
        assert written(write_surface_csv, surface, tmp_path / "s.csv") == text, path
        want = reference.heatmap_svg_text(surface, locate_min(surface)[0])
        assert written(render_heatmap_svg, surface, tmp_path / "h.svg") == want
        if path.name == "surface_report.csv":
            assert (path.parent / "heatmap.svg").read_text(encoding="utf-8") == want, path


def test_observations_writer_matches_reference_on_every_study_cell(default_run, tmp_path):
    _, out = default_run
    paths = sorted(out.glob("cells/*/observations.csv"))
    assert len(paths) == 24
    for path in paths:
        observations = read_observations_csv(path)
        text = path.read_text(encoding="utf-8")
        assert reference.observations_csv_text(observations) == text, path
        assert written(write_observations_csv, observations, tmp_path / "o.csv") == text, path


@pytest.mark.parametrize(
    "batch_max, resolution",
    # 41x41 = 1681 rows spans more than one written block
    [(1, 25), (121, 25), (3, 41)],
)
def test_observations_writer_matches_reference_on_samples(tmp_path, batch_max, resolution):
    observations = sample_loss_surface(
        ExperimentConfig().grid(resolution),
        generate_full_batch(),
        MiniBatchPolicy(batch_max),
        derive_stream(3, "sample"),
    )
    text = written(write_observations_csv, observations, tmp_path / "o.csv")
    assert text == reference.observations_csv_text(observations)
