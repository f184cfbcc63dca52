"""Experiment configuration: a flat JSON object with strict validation.

An empty object (or no file at all) yields the full default study: seed 0,
batch maxima {3, 30}, all three fit modes, centre counts {1, 100}, two
repeats, and a 25x25 training grid and a 101x101 reporting grid.  The
problem itself (the dataset and the weight box the grids span) is fixed in
gradsurf.problem and has no key.  Every value is an integer, a list or a
string; unknown or repeated keys, repeated list values and constraint
violations are rejected with the offending field named.  repeats,
train_grid and report_grid have upper bounds (1000, 1001 and 4001), checked
with the rest before any output is written.  Files are read with
load_mapping and validated with from_mapping.  study_grid turns a grid
key's resolution into its grid, through the same check, for the config and
for the verbs' grid flags alike.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

from .problem import BOX, DATASET_SIZE, GridSpec
from .surrogate import FitMode, FitRecipe

_SEED_MAX = (1 << 64) - 1
# the largest resolution of each grid key; the smallest is 2 for both
_GRID_MAX = {"train_grid": 1001, "report_grid": 4001}


class ConfigError(ValueError):
    """A config file failed validation; the message names the field."""


def _want_int(key, value, lo, hi=None) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{key}: expected an integer, got {value!r}")
    if value < lo:
        raise ConfigError(f"{key}: must be >= {lo}, got {value}")
    if hi is not None and value > hi:
        raise ConfigError(f"{key}: must be <= {hi}, got {value}")
    return value


def study_grid(key: str, resolution, name: str | None = None) -> GridSpec:
    """The square grid over the study box, its resolution checked against
    the bounds of the config key (train_grid or report_grid).  An error
    message starts with name, the flag a verb read, if given, else the key."""
    resolution = _want_int(name or key, resolution, lo=2, hi=_GRID_MAX[key])
    lo, hi = BOX
    return GridSpec(lower=(lo, lo), upper=(hi, hi), resolution=resolution)


@dataclass(frozen=True)
class ExperimentConfig:
    seed: int = 0
    batch_max_list: tuple[int, ...] = (3, 30)
    centre_list: tuple[int, ...] = (1, 100)
    mode_list: tuple[FitMode, ...] = (FitMode.F, FitMode.FG, FitMode.G)
    repeats: int = 2
    train_grid: GridSpec = study_grid("train_grid", 25)
    report_grid: GridSpec = study_grid("report_grid", 101)
    output_dir: str = "out"

    def to_mapping(self) -> dict:
        """Canonical echo of the config (output location excluded)."""
        return {
            "seed": self.seed,
            "batch_max_list": list(self.batch_max_list),
            "centre_list": list(self.centre_list),
            "mode_list": [m.value for m in self.mode_list],
            "repeats": self.repeats,
            "train_grid": self.train_grid.resolution,
            "report_grid": self.report_grid.resolution,
        }


def _want_distinct(key, values) -> None:
    for i, v in enumerate(values):
        if v in values[:i]:
            raise ConfigError(f"{key}: {v!r} is listed more than once")


def _want_int_list(key, value) -> tuple[int, ...]:
    if not isinstance(value, list) or not value:
        raise ConfigError(f"{key}: expected a nonempty list of integers, got {value!r}")
    ints = tuple(_want_int(f"{key}[{i}]", v, lo=1) for i, v in enumerate(value))
    _want_distinct(key, ints)
    return ints


def from_mapping(mapping: dict) -> ExperimentConfig:
    """Build and validate a config from a flat JSON-style mapping."""
    if not isinstance(mapping, dict):
        raise ConfigError(f"config must be a JSON object, got {type(mapping).__name__}")
    values = {}
    for key, raw in mapping.items():
        if key == "seed":
            values["seed"] = _want_int(key, raw, lo=0, hi=_SEED_MAX)
        elif key == "batch_max_list":
            values["batch_max_list"] = _want_int_list(key, raw)
        elif key == "centre_list":
            values["centre_list"] = _want_int_list(key, raw)
        elif key == "mode_list":
            if not isinstance(raw, list) or not raw:
                raise ConfigError(f"{key}: expected a nonempty list of modes, got {raw!r}")
            modes = []
            for v in raw:
                try:
                    modes.append(FitMode(v))
                except ValueError:
                    allowed = ", ".join(m.value for m in FitMode)
                    raise ConfigError(f"{key}: {v!r} is not one of {allowed}") from None
            _want_distinct(key, raw)
            values["mode_list"] = tuple(modes)
        elif key == "repeats":
            values["repeats"] = _want_int(key, raw, lo=1, hi=1000)
        elif key in _GRID_MAX:
            values[key] = study_grid(key, raw)
        elif key == "output_dir":
            if not isinstance(raw, str) or not raw:
                raise ConfigError(f"{key}: expected a nonempty string, got {raw!r}")
            values["output_dir"] = raw
        else:
            raise ConfigError(f"unknown config key {key!r}")
    config = ExperimentConfig(**values)
    _check_consistency(config)
    return config


def _check_consistency(config: ExperimentConfig) -> None:
    res = config.train_grid.resolution
    n_obs = res**2
    ratio = FitRecipe.basis_ratio
    limit = n_obs // ratio
    for c in config.centre_list:
        if c * ratio > n_obs:
            raise ConfigError(
                f"centre_list: {c} centres need {c * ratio} observations "
                f"(ratio {ratio}) but the {res}x{res} grid has {n_obs}; "
                f"at most {limit} fit"
            )
    for b in config.batch_max_list:
        if b > DATASET_SIZE:
            raise ConfigError(
                f"batch_max_list: {b} exceeds the dataset size {DATASET_SIZE}"
            )


def _distinct_keys(pairs) -> dict:
    _want_distinct("config key", [key for key, _ in pairs])
    return dict(pairs)


def load_mapping(path) -> dict:
    """Read a config file as a raw mapping, before validation."""
    try:
        text = Path(path).read_text(encoding="utf-8")
        mapping = json.loads(text, object_pairs_hook=_distinct_keys)
    except UnicodeDecodeError as e:
        raise ConfigError(f"{path}: not UTF-8 text at byte {e.start}: {e.reason}") from None
    except json.JSONDecodeError as e:
        raise ConfigError(f"{path}: invalid JSON at line {e.lineno}: {e.msg}") from None
    if not isinstance(mapping, dict):
        raise ConfigError(f"{path}: config must be a JSON object")
    return mapping
