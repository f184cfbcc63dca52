"""Experiment configuration: a flat JSON object with strict validation.

An empty object (or no file at all) yields the full default study: seed 0,
batch maxima {3, 30}, all three fit modes, centre counts {1, 100}, two
repeats, a 25x25 training grid and a 101x101 reporting grid over the box
[-2, 2]^2, and the 121-point dataset of 0.1*x**2 + 0.1*x on [-2, 2].
Unknown keys and constraint violations are rejected with the offending
field named.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

from .problem import GridSpec
from .surrogate import FitMode, FitRecipe

_SEED_MAX = (1 << 64) - 1

DEFAULT_BASIS_RATIO = FitRecipe.__dataclass_fields__["basis_ratio"].default


class ConfigError(ValueError):
    """A config file failed validation; the message names the field."""


@dataclass(frozen=True)
class ExperimentConfig:
    seed: int = 0
    batch_max_list: tuple[int, ...] = (3, 30)
    centre_list: tuple[int, ...] = (1, 100)
    mode_list: tuple[FitMode, ...] = (FitMode.F, FitMode.FG, FitMode.G)
    repeats: int = 2
    box: tuple[float, float] = (-2.0, 2.0)
    train_resolution: int = 25
    report_resolution: int = 101
    dataset_n: int = 121
    dataset_interval: tuple[float, float] = (-2.0, 2.0)
    dataset_coefficients: tuple[float, float] = (0.1, 0.1)
    output_dir: str = "out"

    def grid(self, resolution: int) -> GridSpec:
        """The square grid of the given resolution over the study box."""
        lo, hi = self.box
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
            "box": list(self.box),
            "train_grid": self.train_resolution,
            "report_grid": self.report_resolution,
            "dataset_n": self.dataset_n,
            "dataset_interval": list(self.dataset_interval),
            "dataset_coefficients": list(self.dataset_coefficients),
        }


def _want_int(key, value, lo=None, hi=None) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{key}: expected an integer, got {value!r}")
    if lo is not None and value < lo:
        raise ConfigError(f"{key}: must be >= {lo}, got {value}")
    if hi is not None and value > hi:
        raise ConfigError(f"{key}: must be <= {hi}, got {value}")
    return value


def _want_number(key, value) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{key}: expected a number, got {value!r}")
    try:
        number = float(value)
    except OverflowError:  # an integer beyond the float range
        number = math.inf
    if not math.isfinite(number):
        raise ConfigError(f"{key}: expected a finite number, got {value!r}")
    return number


def _want_int_list(key, value, lo=1) -> tuple[int, ...]:
    if not isinstance(value, list) or not value:
        raise ConfigError(f"{key}: expected a nonempty list of integers, got {value!r}")
    return tuple(_want_int(f"{key}[{i}]", v, lo=lo) for i, v in enumerate(value))


def _want_pair(key, value) -> tuple[float, float]:
    if not isinstance(value, list) or len(value) != 2:
        raise ConfigError(f"{key}: expected a two-element list, got {value!r}")
    lo, hi = (_want_number(f"{key}[{i}]", v) for i, v in enumerate(value))
    return lo, hi


def _want_interval(key, value) -> tuple[float, float]:
    lo, hi = _want_pair(key, value)
    if not lo < hi:
        raise ConfigError(f"{key}: need lower < upper, got {value!r}")
    return lo, hi


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
            values["mode_list"] = tuple(modes)
        elif key == "repeats":
            values["repeats"] = _want_int(key, raw, lo=1)
        elif key == "box":
            values["box"] = _want_interval(key, raw)
        elif key == "train_grid":
            values["train_resolution"] = _want_int(key, raw, lo=2)
        elif key == "report_grid":
            values["report_resolution"] = _want_int(key, raw, lo=2)
        elif key == "dataset_n":
            values["dataset_n"] = _want_int(key, raw, lo=2)
        elif key == "dataset_interval":
            values["dataset_interval"] = _want_interval(key, raw)
        elif key == "dataset_coefficients":
            values["dataset_coefficients"] = _want_pair(key, raw)
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
    limit = n_obs // DEFAULT_BASIS_RATIO
    for c in config.centre_list:
        if c * DEFAULT_BASIS_RATIO > n_obs:
            raise ConfigError(
                f"centre_list: {c} centres need {c * DEFAULT_BASIS_RATIO} observations "
                f"(ratio {DEFAULT_BASIS_RATIO}) but the {config.train_resolution}x"
                f"{config.train_resolution} grid has {n_obs}; at most {limit} fit"
            )
    for b in config.batch_max_list:
        if b > config.dataset_n:
            raise ConfigError(
                f"batch_max_list: {b} exceeds the dataset size {config.dataset_n}"
            )


def load_mapping(path) -> dict:
    """Read a config file as a raw mapping, before validation."""
    text = Path(path).read_text(encoding="utf-8")
    try:
        mapping = json.loads(text)
    except json.JSONDecodeError as e:
        raise ConfigError(f"{path}: invalid JSON at line {e.lineno}: {e.msg}") from None
    if not isinstance(mapping, dict):
        raise ConfigError(f"{path}: config must be a JSON object")
    return mapping


def load_config(path=None) -> ExperimentConfig:
    """Load a config file; None or an empty object gives the full default study."""
    if path is None:
        return from_mapping({})
    return from_mapping(load_mapping(path))
