"""Experiment configuration: a flat JSON object with strict validation.

An empty object (or no file at all) yields the full default study: seed 0,
batch maxima {3, 30}, all three fit modes, centre counts {1, 100}, two
repeats, and a 25x25 training grid and a 101x101 reporting grid.  The
problem itself (the dataset and the weight box the grids span) is fixed in
gradsurf.problem and has no key.  Every value is an integer, a list or a
string; unknown or repeated keys, repeated list values and constraint
violations are rejected with the offending field named.  Files are read
with load_mapping and validated with from_mapping.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

from .problem import BOX, DATASET_SIZE, GridSpec
from .surrogate import FitMode, FitRecipe

_SEED_MAX = (1 << 64) - 1


class ConfigError(ValueError):
    """A config file failed validation; the message names the field."""


@dataclass(frozen=True)
class ExperimentConfig:
    seed: int = 0
    batch_max_list: tuple[int, ...] = (3, 30)
    centre_list: tuple[int, ...] = (1, 100)
    mode_list: tuple[FitMode, ...] = (FitMode.F, FitMode.FG, FitMode.G)
    repeats: int = 2
    train_resolution: int = 25
    report_resolution: int = 101
    output_dir: str = "out"

    def grid(self, resolution: int) -> GridSpec:
        """The square grid of the given resolution over the study box."""
        lo, hi = BOX
        return GridSpec(lower=(lo, lo), upper=(hi, hi), resolution=resolution)

    @property
    def train_grid(self) -> GridSpec:
        return self.grid(self.train_resolution)

    @property
    def report_grid(self) -> GridSpec:
        return self.grid(self.report_resolution)

    def to_mapping(self) -> dict:
        """Canonical echo of the config (output location excluded)."""
        return {
            "seed": self.seed,
            "batch_max_list": list(self.batch_max_list),
            "centre_list": list(self.centre_list),
            "mode_list": [m.value for m in self.mode_list],
            "repeats": self.repeats,
            "train_grid": self.train_resolution,
            "report_grid": self.report_resolution,
        }


def _want_int(key, value, lo=None, hi=None) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{key}: expected an integer, got {value!r}")
    if lo is not None and value < lo:
        raise ConfigError(f"{key}: must be >= {lo}, got {value}")
    if hi is not None and value > hi:
        raise ConfigError(f"{key}: must be <= {hi}, got {value}")
    return value


def _want_distinct(key, values) -> None:
    for i, v in enumerate(values):
        if v in values[:i]:
            raise ConfigError(f"{key}: {v!r} is listed more than once")


def _want_int_list(key, value, lo=1) -> tuple[int, ...]:
    if not isinstance(value, list) or not value:
        raise ConfigError(f"{key}: expected a nonempty list of integers, got {value!r}")
    ints = tuple(_want_int(f"{key}[{i}]", v, lo=lo) for i, v in enumerate(value))
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
            values["repeats"] = _want_int(key, raw, lo=1)
        elif key == "train_grid":
            values["train_resolution"] = _want_int(key, raw, lo=2)
        elif key == "report_grid":
            values["report_resolution"] = _want_int(key, raw, lo=2)
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
    n_obs = config.train_resolution**2
    ratio = FitRecipe.basis_ratio
    limit = n_obs // ratio
    for c in config.centre_list:
        if c * ratio > n_obs:
            raise ConfigError(
                f"centre_list: {c} centres need {c * ratio} observations "
                f"(ratio {ratio}) but the {config.train_resolution}x"
                f"{config.train_resolution} grid has {n_obs}; at most {limit} fit"
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
