"""CSV/JSON artifact round-trips and the SVG heatmap renderer.

The CSV writers and the heatmap renderer are compared byte for byte with
the one-row-at-a-time writers in `reference`, on every surface and
observation set of the default study, and on the cases the array writers
could get wrong: signed zeros, exponent-form reprs, a -0.0 grid bound,
several dedupe blocks, heatmap resolutions whose coordinates change digit
count, two threads writing at once, and doubles from every binade.
"""

import json
import re
import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
import reference

from gradsurf import artifacts
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
    with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: 5 nodes do not form"):
        read_surface_csv(path)


def test_surface_csv_rejects_tampered_nodes(tmp_path):
    surf = SurfaceGrid(grid=GRID2, values=np.zeros((2, 2)))
    path = tmp_path / "s.csv"
    write_surface_csv(surf, path)
    lines = path.read_text(encoding="utf-8").splitlines()
    lines[2] = "0.25,0.0,0.0"  # node moved off-grid
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: 4 nodes do not form"):
        read_surface_csv(path)


def test_surface_csv_reads_signed_zeros_bit_for_bit(tmp_path):
    # a -0.0 upper bound is written in the last row and read back; a -0.0
    # where the grid's points() hold 0.0 is not that grid's node
    path = tmp_path / "s.csv"
    grid = GridSpec(lower=(-1.0, -1.0), upper=(-0.0, -0.0), resolution=2)
    write_surface_csv(SurfaceGrid(grid=grid, values=np.zeros((2, 2))), path)
    assert np.signbit(read_surface_csv(path).grid.upper).all()
    write_surface_csv(SurfaceGrid(grid=GRID2, values=np.zeros((2, 2))), path)
    text = path.read_text(encoding="utf-8").replace("\n0.0,0.0,", "\n-0.0,0.0,", 1)
    path.write_text(text, encoding="utf-8")
    with pytest.raises(ValueError, match="do not form a square grid"):
        read_surface_csv(path)


@pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
def test_surface_csv_rejects_non_finite_values(tmp_path, bad):
    surf = SurfaceGrid(grid=GRID2, values=np.zeros((2, 2)))
    path = tmp_path / "s.csv"
    write_surface_csv(surf, path)
    lines = path.read_text(encoding="utf-8").splitlines()
    lines[3] = f"0.0,1.0,{bad}"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: .*finite"):
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
        mse=1e-9,
    )
    d = surrogate_json(s)
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


# values whose repr takes the exponent form, and the zeros told apart by bits
EXPONENT_FORM = [1e16, 1e-05, 5e-324, -1.7976931348623157e308]
ZEROS = [0.0, -0.0]


def test_surface_writer_keeps_signed_zeros_and_repeats(tmp_path):
    # 0.0 and -0.0 compare equal; each must keep its own text in every row
    values = np.array([[0.0, -0.0, 0.5], [-0.0, 0.5, 0.0], [0.5, 0.0, -0.0]])
    surface = SurfaceGrid(GridSpec(lower=(0.0, 0.0), upper=(1.0, 1.0), resolution=3), values)
    text = written(write_surface_csv, surface, tmp_path / "s.csv")
    assert text == reference.surface_csv_text(surface)
    assert text.splitlines()[1:4] == ["0.0,0.0,0.0", "0.5,0.0,-0.0", "1.0,0.0,0.5"]


def test_surface_writer_exponent_form_values(tmp_path):
    values = np.array(EXPONENT_FORM).reshape(2, 2)
    surface = SurfaceGrid(GRID2, values)
    text = written(write_surface_csv, surface, tmp_path / "s.csv")
    assert text == reference.surface_csv_text(surface)
    assert "1.0,1.0,-1.7976931348623157e+308\n" in text and ",5e-324\n" in text


def test_surface_writer_signed_zero_bound(tmp_path):
    # GridSpec compares -0.0 == 0.0, yet the two grids' node texts differ
    values = np.arange(9.0).reshape(3, 3)
    texts = []
    for zero in ZEROS:
        grid = GridSpec(lower=(zero, -1.0), upper=(1.0, zero), resolution=3)
        surface = SurfaceGrid(grid, values)
        texts.append(written(write_surface_csv, surface, tmp_path / "s.csv"))
        assert texts[-1] == reference.surface_csv_text(surface)
    # np.linspace keeps the sign of its stop, not of its start
    assert "\n0.0,0.0,6.0\n" in texts[0] and "\n0.0,-0.0,6.0\n" in texts[1]


def test_surface_writer_spans_dedupe_blocks(tmp_path):
    # 129 x 129 nodes exceed one block of _BLOCK_ROWS; values repeat within
    # and across blocks, and one block ends inside no grid row
    res = 129
    assert res * res > artifacts._BLOCK_ROWS
    pool = np.array(ZEROS + EXPONENT_FORM + [1 / 3, -2.5, 0.1])
    values = pool[np.random.default_rng(5).integers(0, pool.size, (res, res))]
    grid = GridSpec(lower=(-2.0, -1.5), upper=(2.0, 3.0), resolution=res)
    surface = SurfaceGrid(grid, values)
    assert written(write_surface_csv, surface, tmp_path / "s.csv") == reference.surface_csv_text(
        surface
    )


def test_observations_writer_repeats_and_signed_zeros_over_blocks(tmp_path):
    n = artifacts._BLOCK_ROWS + 37
    rng = np.random.default_rng(11)
    pool = np.array(ZEROS + EXPONENT_FORM + [0.25, -1.5])
    observations = Observations(
        points=pool[rng.integers(0, pool.size, (n, 2))],
        values=pool[rng.integers(0, pool.size, n)],
        gradients=pool[rng.integers(0, pool.size, (n, 2))],
        batch_sizes=rng.choice([1, 7, 30, 2**40], n),
    )
    text = written(write_observations_csv, observations, tmp_path / "o.csv")
    assert text == reference.observations_csv_text(observations)


def test_observations_writer_takes_32_bit_batch_sizes(tmp_path):
    # the writer tells values apart by their 64-bit patterns
    observations = Observations(
        points=np.zeros((3, 2)),
        values=np.ones(3),
        gradients=np.zeros((3, 2)),
        batch_sizes=np.array([5, 1, 5], np.int32),
    )
    text = written(write_observations_csv, observations, tmp_path / "o.csv")
    assert text == reference.observations_csv_text(observations)


@pytest.mark.parametrize("res", [2, 3, 7, 64, 101, 128, 301])
def test_heatmap_matches_reference_across_resolutions(tmp_path, res):
    # rect x/y change digit count across these; at 301, px = 600 // res
    # falls below its floor of 2.  A write takes 2048 // res grid rows: at
    # 64 and 128 the last write is a whole one, at 101 and 301 a single row
    values = np.random.default_rng(res).normal(size=(res, res))
    grid = GridSpec(lower=(-1.0, -1.0), upper=(1.0, 1.0), resolution=res)
    surface = SurfaceGrid(grid, values)
    svg = written(render_heatmap_svg, surface, tmp_path / "h.svg")
    assert svg == reference.heatmap_svg_text(surface, locate_min(surface)[0])


def test_writers_in_two_threads_match_serial_writes(tmp_path):
    """Two threads write surfaces, observations and heatmaps of different
    resolutions at once, as a library caller may, each thread its own
    surfaces; every file equals the same write made alone."""
    rng = np.random.default_rng(2)

    def jobs():
        out = []
        # resolutions repeat, so both threads write same-shaped rows at once
        for res in (25, 101, 7, 64, 101, 101, 25, 101):
            grid = GridSpec(lower=(-2.0, -0.0), upper=(2.0, 4.0), resolution=res)
            surface = SurfaceGrid(grid, np.round(rng.normal(size=(res, res)), 3))
            out += [(write_surface_csv, surface), (render_heatmap_svg, surface)]
        for n in (50, 700):
            observations = Observations(
                points=rng.normal(size=(n, 2)),
                values=np.round(rng.normal(size=n), 2),
                gradients=rng.normal(size=(n, 2)),
                batch_sizes=rng.integers(1, 31, n),
            )
            out.append((write_observations_csv, observations))
        return out

    work = {tag: jobs() for tag in ("a", "b")}
    want = {
        tag: [written(write, item, tmp_path / "serial") for write, item in work[tag]]
        for tag in work
    }

    def write_all(tag):
        for _ in range(3):
            for k, (write, item) in enumerate(work[tag]):
                assert written(write, item, tmp_path / f"{tag}{k}") == want[tag][k]

    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with ThreadPoolExecutor(max_workers=2) as pool:
            futures = [pool.submit(write_all, tag) for tag in work]
            for future in futures:
                future.result(timeout=120)
    finally:
        sys.setswitchinterval(switch)


def test_observations_writer_matches_repr_across_magnitudes(tmp_path):
    """Doubles from every binade, short decimals, 17-digit decimals, odd
    multiples of powers of two (exact decimals whose digits tie when
    rounded to 15-17 places), and the neighbours of powers of ten and of
    two, against repr's text."""
    rng = np.random.default_rng(19)
    bits = rng.integers(0, 2**64, 60_000, dtype=np.uint64).view(np.float64)
    powers = np.concatenate((10.0 ** np.arange(-6, 17), 2.0 ** np.arange(-20, 50)))
    floats = np.concatenate(
        (
            bits[np.isfinite(bits)],
            rng.normal(size=60_000) * 10.0 ** rng.integers(-6, 17, 60_000),
            rng.integers(-(10**6), 10**6, 40_000) / 10.0 ** rng.integers(0, 12, 40_000),
            rng.integers(-(10**17), 10**17, 40_000) / 10.0 ** rng.integers(0, 22, 40_000),
            (2 * rng.integers(0, 10**4, 20_000) + 1) / 2.0 ** rng.integers(10, 40, 20_000),
            powers,
            np.nextafter(powers, 0.0),
            np.nextafter(powers, np.inf),
        )
    )
    floats = rng.permutation(floats)[: floats.size // 5 * 5].reshape(-1, 5)
    observations = Observations(
        points=floats[:, :2],
        values=floats[:, 2],
        gradients=floats[:, 3:],
        batch_sizes=np.ones(floats.shape[0], dtype=np.intp),
    )
    text = written(write_observations_csv, observations, tmp_path / "o.csv")
    assert text == reference.observations_csv_text(observations)
