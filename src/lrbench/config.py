"""Flat `key = value` config files and their mapping onto BenchConfig.

Lines are `key = value`, one per line; blank lines and lines starting with
`#` are ignored. Keys are validated against a fixed schema so typos fail
loudly instead of silently training with defaults.
"""

from __future__ import annotations

import math
from dataclasses import replace

from .bench import BenchConfig
from .errors import ConfigError
from .finder import RangeTestConfig
from .groups import LayerGroupRates
from .train import TrainConfig

__all__ = ["CONFIG_KEYS", "parse_config_file", "build_bench_config"]


def _bool(value) -> bool:
    text = str(value).strip().lower()
    if text in ("1", "true", "yes", "on"):
        return True
    if text in ("0", "false", "no", "off"):
        return False
    raise ValueError(f"not a boolean: {value!r}")


def _finite(value) -> float:
    number = float(value)
    if not math.isfinite(number):
        raise ValueError(f"not a finite number: {value!r}")
    return number


def _finite_or_inf(value) -> float:
    number = float(value)
    if not (math.isfinite(number) or number == math.inf):
        raise ValueError(f"not a finite number or inf: {value!r}")
    return number


# key -> (caster, destination, field). The destination is the BenchConfig
# part that receives the value ("train", "sched", "rates", "finder") or
# "bench" for a BenchConfig field; this doubles as the list of documented
# config keys.
_SCHEMA = {
    "dataset": (str, "bench", "dataset"),
    "model": (str, "bench", "model"),
    "seed": (int, "train", "seed"),
    "batch_size": (int, "train", "batch_size"),
    "momentum": (_finite, "train", "momentum"),
    "weight_decay": (_finite, "train", "weight_decay"),
    "max_epochs": (int, "train", "max_epochs"),
    "augment": (_bool, "train", "augment"),
    "eta_max": (_finite, "sched", "eta_max"),
    "eta_min": (_finite, "sched", "eta_min"),
    "t0": (int, "sched", "t0"),
    "mult": (int, "sched", "mult"),
    "rate_initial": (_finite, "rates", "initial"),
    "rate_mid": (_finite, "rates", "mid"),
    "rate_final": (_finite, "rates", "final"),
    "finder_lo": (_finite, "finder", "lr_lo"),
    "finder_hi": (_finite, "finder", "lr_hi"),
    "finder_steps": (int, "finder", "n_steps"),
    "finder_beta": (_finite, "finder", "smoothing_beta"),
    "finder_divergence": (_finite_or_inf, "finder", "divergence_factor"),
    "finder_batch": (int, "bench", "finder_batch"),
    "target_accuracy": (_finite, "bench", "target_accuracy"),
    "lr1": (_finite, "bench", "lr1"),
    "lr2": (_finite, "bench", "lr2"),
    "head_epochs": (int, "bench", "head_epochs"),
    "patience": (int, "bench", "patience"),
    "blobs_noise": (_finite, "bench", "blobs_noise"),
    "n_per_class": (int, "bench", "n_per_class"),
    "split_num": (int, "bench", "split_num"),
    "split_den": (int, "bench", "split_den"),
}

# key -> caster
CONFIG_KEYS = {key: caster for key, (caster, _, _) in _SCHEMA.items()}


def parse_config_file(path) -> dict:
    """Read a flat config file into a raw {key: string} dict."""
    values: dict = {}
    try:
        with open(path) as fh:
            lines = fh.readlines()
    except (OSError, UnicodeDecodeError) as err:
        raise ConfigError(f"cannot read config {path}: {err}") from err
    for lineno, line in enumerate(lines, start=1):
        text = line.strip()
        if not text or text.startswith("#"):
            continue
        if "=" not in text:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value', got {text!r}")
        key, _, value = text.partition("=")
        key = key.strip()
        if key not in CONFIG_KEYS:
            raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
        if key in values:
            raise ConfigError(f"{path}:{lineno}: duplicate key {key!r}")
        values[key] = value.strip()
    return values


def build_bench_config(raw: dict | None = None, overrides: dict | None = None
                       ) -> BenchConfig:
    """Cast raw values per schema, apply overrides (CLI flags win), and
    assemble a validated BenchConfig. Unset keys fall back to defaults;
    `augment` defaults to on for cifar10 datasets and off otherwise."""
    merged: dict = dict(raw or {})
    for key, value in (overrides or {}).items():
        if value is not None:
            merged[key] = value
    parts: dict = {part: {} for part in ("train", "sched", "rates", "finder",
                                         "bench")}
    for key, value in merged.items():
        if key not in _SCHEMA:
            raise ConfigError(f"unknown config key {key!r}")
        caster, part, name = _SCHEMA[key]
        try:
            parts[part][name] = caster(value)
        except ValueError as err:
            raise ConfigError(f"bad value for {key}: {err}") from err

    parts["train"].setdefault(
        "augment", parts["bench"].get("dataset", "blobs").startswith("cifar10"))
    return BenchConfig(train=TrainConfig(**parts["train"]),
                       sched=replace(BenchConfig().sched, **parts["sched"]),
                       rates=LayerGroupRates(**parts["rates"]),
                       finder=RangeTestConfig(**parts["finder"]),
                       **parts["bench"])
