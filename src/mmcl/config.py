"""Flat ``key = value`` configuration: parsing, overrides, serialization,
and construction of the runtime objects.

Lines are ``key = value`` with ``#`` comments; no nesting. Every key has a
default and can be overridden with ``--set key=value``; precedence is
CLI > file > default. ``parse -> serialize -> parse`` is the identity.
"""

from __future__ import annotations

import math

from .data import AugmentationSpec, Dataset, load_binary, load_csv, make_blobs, make_moons
from .kernels import KernelSpec
from .svm import SolverConfig
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


def _fmt(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    if isinstance(value, tuple):
        if value and isinstance(value[0], tuple):  # schedules
            return ";".join(f"{e}:{f}:{repr(float(v))}" for e, f, v in value)
        return ",".join(str(v) for v in value)
    return str(value)


# key -> (parser, default); declaration order is the canonical dump order
SCHEMA = {
    "data.kind": (str, "blobs"),
    "data.classes": (int, 4),
    "data.per_class": (int, 128),
    "data.dim": (int, 16),
    "data.separation": (float, 6.0),
    "data.noise": (float, 0.1),
    "data.path": (str, ""),
    "data.seed": (int, 0),
    "model.backbone_widths": (_parse_int_list, (64, 64)),
    "model.head_hidden": (int, 64),
    "model.out_dim": (int, 32),
    "kernel.kind": (str, "rbf"),
    "kernel.sigma_sq": (float, 1.0),
    "kernel.gamma": (float, 1.0),
    "kernel.bias": (float, 0.0),
    "kernel.positive_gamma": (_parse_bool, False),
    "loss": (str, "mmcl_pgd"),
    "C": (float, 100.0),
    "beta": (float, 0.1),
    "fn_correction": (_parse_bool, False),
    "temperature": (float, 0.5),
    "average_loss": (_parse_bool, False),
    "batch_size": (int, 32),
    "epochs": (int, 10),
    "lr": (float, 1e-3),
    "seed": (int, 0),
    "eval_every": (int, 0),
    "eval_features": (str, "backbone"),
    "eval.k": (int, 200),
    "eval.probe_epochs": (int, 500),
    "eval.probe_lr": (float, 0.1),
    "eval.test_fraction": (float, 0.2),
    "schedules": (_parse_schedules, ()),
    "solver.step_size": (_parse_step_size, "auto"),
    "solver.max_iters": (int, 1000),
    "solver.tol": (float, 1e-8),
    "solver.nesterov": (_parse_bool, True),
    "solver.seed": (int, 0),
    "aug.noise_sigma": (float, 0.1),
    "aug.dropout_p": (float, 0.0),
    "aug.scale_lo": (float, 1.0),
    "aug.scale_hi": (float, 1.0),
    "out.metrics": (str, "metrics.csv"),
    "out.checkpoint": (str, "model.ckpt"),
}


def default_config() -> dict:
    return {k: d for k, (_, d) in SCHEMA.items()}


def set_key(cfg: dict, key: str, raw_value: str) -> None:
    if key not in SCHEMA:
        raise ConfigError(f"unknown config key {key!r}")
    parser, _ = SCHEMA[key]
    try:
        cfg[key] = parser(raw_value.strip())
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


def serialize_config(cfg: dict) -> str:
    return "\n".join(f"{k} = {_fmt(cfg[k])}" for k in SCHEMA) + "\n"


def build_kernel(cfg: dict) -> KernelSpec:
    return KernelSpec(kind=cfg["kernel.kind"], sigma_sq=cfg["kernel.sigma_sq"],
                      gamma=cfg["kernel.gamma"], bias=cfg["kernel.bias"],
                      positive_gamma=cfg["kernel.positive_gamma"])


def build_solver(cfg: dict) -> SolverConfig:
    return SolverConfig(step_size=cfg["solver.step_size"], max_iters=cfg["solver.max_iters"],
                        tol=cfg["solver.tol"], nesterov=cfg["solver.nesterov"],
                        seed=cfg["solver.seed"])


def build_augmentation(cfg: dict) -> AugmentationSpec:
    return AugmentationSpec(noise_sigma=cfg["aug.noise_sigma"], dropout_p=cfg["aug.dropout_p"],
                            scale_range=(cfg["aug.scale_lo"], cfg["aug.scale_hi"]))


def build_train_config(cfg: dict) -> TrainConfig:
    try:
        return TrainConfig(
            batch_size=cfg["batch_size"], epochs=cfg["epochs"], lr=cfg["lr"],
            loss=cfg["loss"], kernel=build_kernel(cfg), C=cfg["C"], beta=cfg["beta"],
            solver=build_solver(cfg), fn_correction=cfg["fn_correction"],
            schedules=list(cfg["schedules"]), seed=cfg["seed"], eval_every=cfg["eval_every"],
            augmentation=build_augmentation(cfg), temperature=cfg["temperature"],
            average_loss=cfg["average_loss"], backbone_widths=cfg["model.backbone_widths"],
            head_hidden=cfg["model.head_hidden"], out_dim=cfg["model.out_dim"],
            eval_features=cfg["eval_features"], eval_k=cfg["eval.k"],
            probe_epochs=cfg["eval.probe_epochs"], probe_lr=cfg["eval.probe_lr"],
            test_fraction=cfg["eval.test_fraction"],
        )
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
