"""Experiment configuration: defaults, strict parsing, consistency rules."""

import json
import re
from pathlib import Path

import pytest

from gradsurf.config import (
    ConfigError,
    ExperimentConfig,
    from_mapping,
    load_mapping,
    study_value,
)
from gradsurf.problem import GridSpec
from gradsurf.surrogate import FitMode


def test_defaults():
    c = ExperimentConfig()
    assert c.seed == 0
    assert c.batch_max_list == (3, 30)
    assert c.centre_list == (1, 100)
    assert c.mode_list == (FitMode.F, FitMode.FG, FitMode.G)
    assert c.repeats == 2
    assert c.train_grid == GridSpec(lower=(-2.0, -2.0), upper=(2.0, 2.0), resolution=25)
    assert c.report_grid == GridSpec(lower=(-2.0, -2.0), upper=(2.0, 2.0), resolution=101)
    assert c.output_dir == "out"


def test_grids_derive_from_box():
    c = ExperimentConfig()
    assert c.train_grid.resolution == 25
    assert c.report_grid.resolution == 101
    assert c.train_grid.lower == (-2.0, -2.0)
    assert c.report_grid.upper == (2.0, 2.0)


def test_mapping_roundtrip():
    c = ExperimentConfig(seed=5, repeats=1, centre_list=(2, 4))
    m = c.to_mapping()
    assert "output_dir" not in m
    assert m["train_grid"] == 25
    assert m["report_grid"] == 101
    again = from_mapping(m)
    assert again == ExperimentConfig(seed=5, repeats=1, centre_list=(2, 4))


def test_from_mapping_unknown_key():
    with pytest.raises(ConfigError) as err:
        from_mapping({"sseed": 1})
    assert "sseed" in str(err.value)


def test_from_mapping_type_errors():
    with pytest.raises(ConfigError):
        from_mapping({"seed": True})  # bool is not an int here
    with pytest.raises(ConfigError):
        from_mapping({"seed": -1})
    with pytest.raises(ConfigError):
        from_mapping({"seed": 2**64})
    with pytest.raises(ConfigError):
        from_mapping({"repeats": 0})
    with pytest.raises(ConfigError):
        from_mapping({"train_grid": 1})
    with pytest.raises(ConfigError):
        from_mapping({"batch_max_list": []})
    with pytest.raises(ConfigError):
        from_mapping({"centre_list": [0]})


# the smallest and the largest value of each integer key (None: no upper
# bound; the centre budget, checked apart, depends on train_grid)
BOUNDS = {
    "seed": (0, 2**64 - 1),
    "batch_max_list": (1, 121),
    "centre_list": (1, None),
    "repeats": (1, 1000),
    "train_grid": (2, 1001),
    "report_grid": (2, 4001),
}


@pytest.mark.parametrize("key", sorted(BOUNDS))
def test_from_mapping_bounds_the_study_size(key):
    # checked without running a study: each bound itself is accepted, the
    # integer past it is rejected with the key, or a list's item, named
    assert set(BOUNDS) == set(ExperimentConfig().to_mapping()) - {"mode_list"}
    lo, hi = BOUNDS[key]
    listed = key.endswith("_list")
    field = f"{key}[0]" if listed else key

    def config(value):
        return from_mapping({key: [value] if listed else value})

    # each lower bound passes the item check; a 2 x 2 training grid fits no
    # centre, so the config as a whole would not
    checked = study_value(key, lo)
    assert getattr(checked, "resolution", checked) == lo
    with pytest.raises(ConfigError) as err:
        config(lo - 1)
    assert str(err.value) == f"{field}: must be >= {lo}, got {lo - 1}"
    if hi is None:
        return
    assert config(hi).to_mapping()[key] == ([hi] if listed else hi)
    with pytest.raises(ConfigError) as err:
        config(hi + 1)
    assert str(err.value) == f"{field}: must be <= {hi}, got {hi + 1}"


@pytest.mark.parametrize("literal", ["NaN", "Infinity", "-Infinity"])
@pytest.mark.parametrize("key", ["batch_max_list", "centre_list", "repeats"])
def test_load_config_rejects_nonfinite_numbers(tmp_path, key, literal):
    # Python's json reads these literals as floats; every key wants integers
    value, field = (literal, key) if key == "repeats" else (f"[1, {literal}]", f"{key}[1]")
    path = tmp_path / "cfg.json"
    path.write_text(f'{{"{key}": {value}}}', encoding="utf-8")
    with pytest.raises(ConfigError) as err:
        from_mapping(load_mapping(path))
    assert f"{field}: expected an integer, got " in str(err.value)


# keys of the problem, now constants of gradsurf.problem, with their old defaults
PROBLEM_KEYS = {
    "box": [-2.0, 2.0],
    "dataset_n": 121,
    "dataset_interval": [-2.0, 2.0],
    "dataset_coefficients": [0.1, 0.1],
}


@pytest.mark.parametrize("key", PROBLEM_KEYS)
def test_problem_keys_are_unknown(key):
    # a config that still sets one must fail loudly, not be half-applied
    with pytest.raises(ConfigError) as err:
        from_mapping({key: PROBLEM_KEYS[key]})
    assert str(err.value) == f"unknown config key {key!r}"


def test_from_mapping_bad_mode():
    with pytest.raises(ConfigError) as err:
        from_mapping({"mode_list": ["f", "q"]})
    msg = str(err.value)
    assert "q" in msg
    for allowed in ("f", "fg", "g"):
        assert allowed in msg


@pytest.mark.parametrize(
    "key, values, repeated",
    [
        ("batch_max_list", [3, 30, 3], "3"),
        ("centre_list", [1, 100, 100], "100"),
        ("mode_list", ["f", "g", "f"], "'f'"),
    ],
)
def test_from_mapping_rejects_repeated_list_values(key, values, repeated):
    # a repeated value would name the same cell twice in one index
    with pytest.raises(ConfigError) as err:
        from_mapping({key: values})
    assert str(err.value) == f"{key}: {repeated} is listed more than once"


def test_basis_budget_rule():
    # 25x25 grid -> 625 observations -> at most 104 centres
    ok = from_mapping({"centre_list": [1, 104]})
    assert ok.centre_list == (1, 104)
    with pytest.raises(ConfigError) as err:
        from_mapping({"centre_list": [105]})
    assert "104" in str(err.value)
    # shrink the grid and the cap shrinks with it
    with pytest.raises(ConfigError):
        from_mapping({"train_grid": 5, "centre_list": [5]})


def test_batch_max_bounded_by_dataset():
    with pytest.raises(ConfigError):
        from_mapping({"batch_max_list": [122]})
    ok = from_mapping({"batch_max_list": [121]})
    assert ok.batch_max_list == (121,)


def test_load_config_from_file(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"seed": 9, "repeats": 1}), encoding="utf-8")
    c = from_mapping(load_mapping(path))
    assert c.seed == 9
    assert c.repeats == 1
    assert c.batch_max_list == (3, 30)  # defaults fill the rest


def test_load_config_none_gives_defaults():
    # `gradsurf run` without --config validates an empty mapping
    assert from_mapping({}) == ExperimentConfig()


def test_load_mapping_reports_json_position(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"seed": 1,\n  "repeats": }\n', encoding="utf-8")
    with pytest.raises(ConfigError) as err:
        load_mapping(path)
    assert "line 2" in str(err.value)


def test_load_mapping_names_a_file_that_is_not_utf8(tmp_path):
    path = tmp_path / "bad.json"
    path.write_bytes(b'{"seed": 1, "\xffrepeats": 2}\n')
    with pytest.raises(ConfigError) as err:
        load_mapping(path)
    assert str(err.value) == f"{path}: not UTF-8 text at byte 13: invalid start byte"


def test_load_mapping_rejects_a_repeated_key(tmp_path):
    # json.loads alone keeps the last value, so this would run with seed 2
    path = tmp_path / "twice.json"
    path.write_text('{"seed": 1, "repeats": 1, "seed": 2}\n', encoding="utf-8")
    with pytest.raises(ConfigError, match="'seed'"):
        load_mapping(path)


def test_load_mapping_rejects_non_object(tmp_path):
    path = tmp_path / "arr.json"
    path.write_text("[1, 2, 3]\n", encoding="utf-8")
    with pytest.raises(ConfigError):
        load_mapping(path)


def test_load_config_missing_file(tmp_path):
    with pytest.raises(OSError):
        load_mapping(tmp_path / "nope.json")


def test_readme_configuration_block_is_the_default_config():
    readme = Path(__file__).resolve().parents[1] / "README.md"
    section = readme.read_text(encoding="utf-8").split("\n## Configuration\n", 1)[1]
    block = re.search(r"```jsonc\n(.*?)```", section, re.S).group(1)
    documented = list(json.loads(block).items())
    want = {**ExperimentConfig().to_mapping(), "output_dir": ExperimentConfig().output_dir}
    assert documented == list(want.items())
    assert from_mapping(dict(documented)) == ExperimentConfig()


def test_readme_is_at_most_300_lines():
    # the README states what the tool promises and the tests that check it;
    # the solver's mechanism lives in the module docstrings
    readme = Path(__file__).resolve().parents[1] / "README.md"
    assert len(readme.read_text(encoding="utf-8").splitlines()) <= 300
