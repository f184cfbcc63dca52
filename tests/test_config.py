"""Experiment configuration: defaults, strict parsing, consistency rules."""

import json

import pytest

from gradsurf.config import (
    ConfigError,
    ExperimentConfig,
    from_mapping,
    load_config,
    load_mapping,
)
from gradsurf.surrogate import FitMode


def test_defaults():
    c = ExperimentConfig()
    assert c.seed == 0
    assert c.batch_max_list == (3, 30)
    assert c.centre_list == (1, 100)
    assert c.mode_list == (FitMode.F, FitMode.FG, FitMode.G)
    assert c.repeats == 2
    assert c.box == (-2.0, 2.0)
    assert c.train_resolution == 25
    assert c.report_resolution == 101
    assert c.dataset_n == 121
    assert c.dataset_interval == (-2.0, 2.0)
    assert c.dataset_coefficients == (0.1, 0.1)
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
        from_mapping({"box": [2.0, -2.0]})
    with pytest.raises(ConfigError):
        from_mapping({"batch_max_list": []})
    with pytest.raises(ConfigError):
        from_mapping({"centre_list": [0]})


@pytest.mark.parametrize("literal", ["NaN", "Infinity", "-Infinity"])
@pytest.mark.parametrize("key", ["box", "dataset_interval", "dataset_coefficients"])
def test_load_config_rejects_nonfinite_numbers(tmp_path, key, literal):
    # Python's json reads these literals as floats; the config must not
    path = tmp_path / "cfg.json"
    path.write_text(f'{{"{key}": [0.5, {literal}]}}', encoding="utf-8")
    with pytest.raises(ConfigError) as err:
        load_config(path)
    assert f"{key}[1]: expected a finite number" in str(err.value)


def test_from_mapping_rejects_integers_beyond_float_range():
    with pytest.raises(ConfigError) as err:
        from_mapping(json.loads('{"box": [0, 1' + "0" * 400 + "]}"))
    assert "box[1]: expected a finite number" in str(err.value)


def test_from_mapping_bad_mode():
    with pytest.raises(ConfigError) as err:
        from_mapping({"mode_list": ["f", "q"]})
    msg = str(err.value)
    assert "q" in msg
    for allowed in ("f", "fg", "g"):
        assert allowed in msg


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
    c = load_config(path)
    assert c.seed == 9
    assert c.repeats == 1
    assert c.batch_max_list == (3, 30)  # defaults fill the rest


def test_load_config_none_gives_defaults():
    assert load_config(None) == ExperimentConfig()


def test_load_mapping_reports_json_position(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"seed": 1,\n  "repeats": }\n', encoding="utf-8")
    with pytest.raises(ConfigError) as err:
        load_mapping(path)
    assert "line 2" in str(err.value)


def test_load_mapping_rejects_non_object(tmp_path):
    path = tmp_path / "arr.json"
    path.write_text("[1, 2, 3]\n", encoding="utf-8")
    with pytest.raises(ConfigError):
        load_mapping(path)


def test_load_config_missing_file(tmp_path):
    with pytest.raises(OSError):
        load_config(tmp_path / "nope.json")
