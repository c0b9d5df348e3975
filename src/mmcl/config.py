"""Flat ``key = value`` configuration, the one settings surface of every
``mmcl`` subcommand: parsing, overrides, and construction of the runtime
objects.

Lines are ``key = value`` with ``#`` comments; no nesting. Every key has a
default and can be overridden with ``--set key=value``; precedence is
CLI > file > default. Each training key sets one field of ``TrainConfig``
or of one of its parts and takes that field's default; only the data keys
(the dataset that ``load_dataset`` builds) and the output paths, which no
dataclass holds, carry their own.
"""

from __future__ import annotations

from dataclasses import replace
from functools import reduce

from .data import Dataset, load_binary, load_csv, make_blobs, make_moons
from .training import TrainConfig


class ConfigError(ValueError):
    """Invalid config key or value; the message names the offender."""


def _parse_bool(text: str) -> bool:
    t = text.strip().lower()
    if t in ("true", "1", "yes"):
        return True
    if t in ("false", "0", "no"):
        return False
    raise ValueError(f"expected a boolean, got {text!r}")


def _parse_int_list(text: str) -> tuple:
    if not text.strip():
        return ()
    return tuple(int(p) for p in text.split(","))


def _parse_schedules(text: str) -> tuple:
    if not text.strip():
        return ()
    entries = []
    for part in text.split(";"):
        pieces = part.strip().split(":")
        if len(pieces) != 3:
            raise ValueError(f"schedule entry must be epoch:field:value, got {part!r}")
        entries.append((int(pieces[0]), pieces[1].strip(), float(pieces[2])))
    return tuple(entries)


def _parse_step_size(text: str):
    t = text.strip()
    return "auto" if t == "auto" else float(t)


# The data and output keys, which no dataclass holds: key -> (parser, default).
IO_KEYS = {
    "data.kind": (str, "blobs"),
    "data.classes": (int, 4),
    "data.per_class": (int, 128),
    "data.dim": (int, 16),
    "data.separation": (float, 6.0),
    "data.noise": (float, 0.1),
    "data.path": (str, ""),
    "data.seed": (int, 0),
    "out.metrics": (str, "metrics.csv"),
    "out.checkpoint": (str, "model.ckpt"),
}

# The training keys: key -> (parser, field), where field is a TrainConfig
# field or "part.field" for a field of its kernel, solver or augmentation.
SCHEMA = {
    "model.backbone_widths": (_parse_int_list, "backbone_widths"),
    "model.head_hidden": (int, "head_hidden"),
    "model.out_dim": (int, "out_dim"),
    "kernel.kind": (str, "kernel.kind"),
    "kernel.sigma_sq": (float, "kernel.sigma_sq"),
    "kernel.gamma": (float, "kernel.gamma"),
    "kernel.bias": (float, "kernel.bias"),
    "loss": (str, "loss"),
    "C": (float, "C"),
    "beta": (float, "beta"),
    "fn_correction": (_parse_bool, "fn_correction"),
    "temperature": (float, "temperature"),
    "batch_size": (int, "batch_size"),
    "epochs": (int, "epochs"),
    "lr": (float, "lr"),
    "seed": (int, "seed"),
    "eval_every": (int, "eval_every"),
    "eval_features": (str, "eval_features"),
    "eval.k": (int, "eval_k"),
    "eval.probe_epochs": (int, "probe_epochs"),
    "eval.probe_lr": (float, "probe_lr"),
    "eval.test_fraction": (float, "test_fraction"),
    "schedules": (_parse_schedules, "schedules"),
    "solver.step_size": (_parse_step_size, "solver.step_size"),
    "solver.max_iters": (int, "solver.max_iters"),
    "solver.tol": (float, "solver.tol"),
    "solver.nesterov": (_parse_bool, "solver.nesterov"),
    "aug.noise_sigma": (float, "augmentation.noise_sigma"),
    "aug.dropout_p": (float, "augmentation.dropout_p"),
    "aug.scale_lo": (float, "augmentation.scale_lo"),
    "aug.scale_hi": (float, "augmentation.scale_hi"),
}


_PARSERS = {key: parser for key, (parser, _) in (*IO_KEYS.items(), *SCHEMA.items())}


def default_config() -> dict:
    defaults = TrainConfig()
    cfg = {key: default for key, (_, default) in IO_KEYS.items()}
    for key, (_, path) in SCHEMA.items():
        cfg[key] = reduce(getattr, path.split("."), defaults)
    return cfg


def set_key(cfg: dict, key: str, raw_value: str) -> None:
    if key not in _PARSERS:
        raise ConfigError(f"unknown config key {key!r}")
    try:
        cfg[key] = _PARSERS[key](raw_value.strip())
    except ValueError as exc:
        raise ConfigError(f"bad value for {key!r}: {exc}") from exc


def parse_config_text(text: str) -> dict:
    cfg = default_config()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, value = line.split("=", 1)
        set_key(cfg, key.strip(), value)
    return cfg


def parse_config_file(path) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_config_text(fh.read())


def apply_overrides(cfg: dict, overrides) -> dict:
    """Apply ``key=value`` strings on top of a parsed config."""
    for item in overrides:
        if "=" not in item:
            raise ConfigError(f"override must be key=value, got {item!r}")
        key, value = item.split("=", 1)
        set_key(cfg, key.strip(), value)
    return cfg


def build_train_config(cfg: dict) -> TrainConfig:
    """The TrainConfig a parsed config describes: each training key sets
    the one field it names."""
    fields, parts = {}, {}
    for key, (_, path) in SCHEMA.items():
        part, _, name = path.rpartition(".")
        (parts.setdefault(part, {}) if part else fields)[name] = cfg[key]
    try:
        defaults = TrainConfig()
        for part, values in parts.items():
            fields[part] = replace(getattr(defaults, part), **values)
        return TrainConfig(**fields)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def load_dataset(cfg: dict) -> Dataset:
    kind = cfg["data.kind"]
    if kind == "blobs":
        return make_blobs(cfg["data.classes"], cfg["data.per_class"], cfg["data.dim"],
                          cfg["data.separation"], seed=cfg["data.seed"])
    if kind == "moons":
        return make_moons(cfg["data.per_class"], cfg["data.noise"], cfg["data.dim"],
                          seed=cfg["data.seed"])
    if kind == "csv":
        return load_csv(cfg["data.path"])
    if kind == "bin":
        return load_binary(cfg["data.path"])
    raise ConfigError(f"unknown data.kind {kind!r}")
