"""Experiment configuration: a flat JSON object with strict validation.

An empty object (or no file at all) yields the full default study: seed 0,
batch maxima {3, 30}, all three fit modes, centre counts {1, 100}, two
repeats, and a 25x25 training grid and a 101x101 reporting grid.  The
problem itself (the dataset and the weight box the grids span) is fixed in
gradsurf.problem and has no key.  Every value is an integer, a list or a
string; unknown or repeated keys, repeated list values and constraint
violations are rejected with the offending field named, before any
output is written.  One table, _ITEMS, states each key's item check and
bounds once; study_value applies an entry to a config scalar, to each item
of a config list and to a verb's flag alike, and turns a grid key's
resolution into its grid.  Files are read with load_mapping and validated
with from_mapping.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

from .problem import BOX, DATASET_SIZE, GridSpec
from .surrogate import FitMode, FitRecipe

# each key's item check: the inclusive bounds of an integer (None: no upper
# bound; the centre budget depends on train_grid and is checked after), or
# the enum a string must name.  A list key checks each of its items
_ITEMS = {
    "seed": (0, (1 << 64) - 1),
    "batch_max_list": (1, DATASET_SIZE),
    "centre_list": (1, None),
    "mode_list": FitMode,
    "repeats": (1, 1000),
    "train_grid": (2, 1001),
    "report_grid": (2, 4001),
}


class ConfigError(ValueError):
    """A config file failed validation; the message names the field."""


def study_value(key: str, value, name: str | None = None):
    """value checked as an item of the config key: a FitMode for mode_list,
    the square grid over the study box at that resolution for a grid key,
    else the integer.  An error message starts with name, the list item or
    the flag a verb read, if given, else the key."""
    name = name or key
    if _ITEMS[key] is FitMode:
        try:
            return FitMode(value)
        except ValueError:
            allowed = ", ".join(m.value for m in FitMode)
            # named by the list: the message quotes the bad item
            raise ConfigError(f"{key}: {value!r} is not one of {allowed}") from None
    lo, hi = _ITEMS[key]
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{name}: expected an integer, got {value!r}")
    if value < lo:
        raise ConfigError(f"{name}: must be >= {lo}, got {value}")
    if hi is not None and value > hi:
        raise ConfigError(f"{name}: must be <= {hi}, got {value}")
    if key.endswith("_grid"):
        lo, hi = BOX
        return GridSpec(lower=(lo, lo), upper=(hi, hi), resolution=value)
    return value


@dataclass(frozen=True)
class ExperimentConfig:
    seed: int = 0
    batch_max_list: tuple[int, ...] = (3, 30)
    centre_list: tuple[int, ...] = (1, 100)
    mode_list: tuple[FitMode, ...] = (FitMode.F, FitMode.FG, FitMode.G)
    repeats: int = 2
    train_grid: GridSpec = study_value("train_grid", 25)
    report_grid: GridSpec = study_value("report_grid", 101)
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


def from_mapping(mapping: dict) -> ExperimentConfig:
    """Build and validate a config from a flat JSON-style mapping."""
    if not isinstance(mapping, dict):
        raise ConfigError(f"config must be a JSON object, got {type(mapping).__name__}")
    values = {}
    for key, raw in mapping.items():
        if key == "output_dir":
            if not isinstance(raw, str) or not raw:
                raise ConfigError(f"{key}: expected a nonempty string, got {raw!r}")
            values[key] = raw
        elif key not in _ITEMS:
            raise ConfigError(f"unknown config key {key!r}")
        elif not key.endswith("_list"):
            values[key] = study_value(key, raw)
        elif not isinstance(raw, list) or not raw:
            kind = "modes" if key == "mode_list" else "integers"
            raise ConfigError(f"{key}: expected a nonempty list of {kind}, got {raw!r}")
        else:
            values[key] = tuple(study_value(key, v, f"{key}[{i}]") for i, v in enumerate(raw))
            _want_distinct(key, raw)
    config = ExperimentConfig(**values)
    _check_centre_budget(config)
    return config


def _check_centre_budget(config: ExperimentConfig) -> None:
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
