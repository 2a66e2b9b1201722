"""Experiment configuration: one flat-key text format drives every command.

A config file holds ``key = value`` lines (``#`` starts a comment).  Keys are
dotted paths into the sections below, e.g. ``network.n_hidden = 120`` or
``backend.mock.jitter_sigma = 0.02``.  CLI flags override file keys; every
command echoes the effective config into its output directory so a run is
reproducible from that file alone.
"""
from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass, field, fields
from pathlib import Path

from .backend import BackendConfig, MockConfig, ReplayConfig
from .core import InvalidParameter
from .data import R_SMALL_MAX, EncodingConfig


@dataclass(frozen=True)
class DatasetConfig:
    seed: int = 42
    n_train: int = 5000
    n_test: int = 3000
    r_small: float = 0.1
    t_early: float = 0.0
    t_late: float = 1.5
    t_bias: float | None = None  # None -> 0.9 * t_late
    bias_enabled: bool = True

    def __post_init__(self):
        # no dot, or one past its lobe, can leave a class quota never filled
        if not 0.0 < self.r_small <= R_SMALL_MAX:
            raise InvalidParameter(
                f"dataset.r_small={self.r_small} must lie in (0, {R_SMALL_MAX}]"
            )
        self.encoding  # a bad window fails at load, before any output is written

    @property
    def encoding(self) -> EncodingConfig:
        return EncodingConfig(
            t_early=self.t_early,
            t_late=self.t_late,
            t_bias=self.t_bias,
            bias_enabled=self.bias_enabled,
        )


@dataclass(frozen=True)
class NetworkConfig:
    n_hidden: int = 120  # paper-validated range is 50..150, not enforced
    n_out: int = 3
    tau_mem_ratio: float = 2.0
    v_th: float = 1.0
    v_reset: float = 0.0

    def __post_init__(self):
        for key in ("n_hidden", "n_out"):
            val = getattr(self, key)
            if val < 1:
                raise InvalidParameter(f"network.{key}={val} must be >= 1")


@dataclass(frozen=True)
class SimConfig:
    m: int = 0  # 0 -> n_inputs + n_neurons + 10
    t_max: float = 4.0

    def __post_init__(self):
        if self.m < 0:
            raise InvalidParameter(f"sim.m={self.m} must be >= 0 (0 picks the default budget)")
        if not self.t_max > 0.0:
            raise InvalidParameter(f"sim.t_max={self.t_max} must be positive")

    def budget(self, n_inputs: int, n_neurons: int) -> int:
        return self.m if self.m > 0 else n_inputs + n_neurons + 10


@dataclass(frozen=True)
class TrainSection:
    epochs: int = 300
    batch: int = 64
    lr: float = 5e-3
    lr_decay: float = 0.97
    beta1: float = 0.9
    beta2: float = 0.999
    xi: float = 0.5
    alpha: float = 0.0
    # alive-keeping: silent neurons (batch spike fraction below target) get a
    # constant upward pull on their incoming weights; over-active neurons pay
    # a rate-weighted decay.  A first-spike net cannot recover a dead unit
    # through the spike-time loss alone, so gamma > 0 is the working default.
    gamma: float = 0.01
    rate_lambda: float = 0.0
    grad_clip: float = 0.0  # 0 disables; else global-norm clip per matrix
    vdot_floor: float = 0.0  # 0 keeps jumps exact; else bounds 1/dVdt in training
    seed: int = 0
    estimator: str = "eventprop"  # eventprop | fud
    patience: int = 15

    def __post_init__(self):
        if self.batch < 1:
            raise InvalidParameter(f"train.batch={self.batch} must be >= 1")
        if self.epochs < 0:
            raise InvalidParameter(f"train.epochs={self.epochs} must be >= 0")
        for key in ("lr", "lr_decay"):
            val = getattr(self, key)
            if not 0.0 <= val < math.inf:
                raise InvalidParameter(f"train.{key}={val} must be finite and >= 0")
        for key in ("beta1", "beta2"):
            val = getattr(self, key)
            if not 0.0 <= val < 1.0:
                raise InvalidParameter(f"train.{key}={val} must lie in [0, 1)")


@dataclass(frozen=True)
class ExperimentConfig:
    dataset: DatasetConfig = field(default_factory=DatasetConfig)
    network: NetworkConfig = field(default_factory=NetworkConfig)
    sim: SimConfig = field(default_factory=SimConfig)
    backend: BackendConfig = field(default_factory=BackendConfig)
    train: TrainSection = field(default_factory=TrainSection)


_SECTIONS = {
    "dataset": DatasetConfig,
    "network": NetworkConfig,
    "sim": SimConfig,
    "train": TrainSection,
    "backend": BackendConfig,
    "backend.mock": MockConfig,
    "backend.replay": ReplayConfig,
}


def _coerce(raw: str, typ):
    raw = raw.strip()
    if typ is bool or raw.lower() in ("true", "false"):
        if raw.lower() not in ("true", "false"):
            raise InvalidParameter(f"expected true/false, got {raw!r}")
        return raw.lower() == "true"
    if typ is int:
        return int(raw)
    if typ is float:
        return float(raw)
    if typ is str or typ is Path:
        return raw
    # optional fields (float | None etc.): none/auto, else int, float or str
    if raw.lower() in ("none", "auto"):
        return None
    for cast in (int, float):
        try:
            return cast(raw)
        except ValueError:
            continue
    return raw


def flatten(cfg: ExperimentConfig) -> dict[str, str]:
    out: dict[str, str] = {}

    def emit(prefix: str, obj) -> None:
        for f in fields(obj):
            val = getattr(obj, f.name)
            key = f"{prefix}.{f.name}" if prefix else f.name
            if dataclasses.is_dataclass(val):
                emit(key, val)
            elif val is None:
                out[key] = "none"
            elif isinstance(val, bool):
                out[key] = "true" if val else "false"
            else:
                out[key] = str(val)

    emit("", cfg)
    return out


def apply_overrides(cfg: ExperimentConfig, overrides: dict[str, str]) -> ExperimentConfig:
    """Return a copy of cfg with dotted-key overrides applied."""
    staged: dict[str, dict] = {}
    for key, raw in overrides.items():
        section, _, leaf = key.rpartition(".")
        if section not in _SECTIONS:
            raise InvalidParameter(f"unknown config key {key!r}")
        cls = _SECTIONS[section]
        names = {f.name: f for f in fields(cls)}
        if leaf not in names:
            raise InvalidParameter(f"unknown config key {key!r}")
        typ = names[leaf].type
        base = {"int": int, "float": float, "str": str, "bool": bool}.get(
            str(typ).replace("builtins.", ""), None
        )
        try:
            staged.setdefault(section, {})[leaf] = _coerce(raw, base)
        except ValueError as e:
            raise InvalidParameter(f"config key {key!r}: {e}") from e
    result = cfg
    for section, vals in staged.items():
        parts = section.split(".")
        if len(parts) == 1:
            sub = getattr(result, parts[0])
            sub = dataclasses.replace(sub, **vals)
            result = dataclasses.replace(result, **{parts[0]: sub})
        else:
            outer = getattr(result, parts[0])
            inner = getattr(outer, parts[1])
            inner = dataclasses.replace(inner, **vals)
            outer = dataclasses.replace(outer, **{parts[1]: inner})
            result = dataclasses.replace(result, **{parts[0]: outer})
    return result


def parse_config_text(text: str) -> dict[str, str]:
    out: dict[str, str] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        body = line.split("#", 1)[0].strip()
        if not body:
            continue
        if "=" not in body:
            raise InvalidParameter(f"line {lineno}: expected 'key = value', got {line!r}")
        key, _, raw = body.partition("=")
        out[key.strip()] = raw.strip()
    return out


def load_config(path=None, overrides: dict[str, str] | None = None) -> ExperimentConfig:
    cfg = ExperimentConfig()
    if path is not None:
        cfg = apply_overrides(cfg, parse_config_text(Path(path).read_text(encoding="utf-8")))
    if overrides:
        cfg = apply_overrides(cfg, overrides)
    return cfg


def save_config(cfg: ExperimentConfig, path) -> None:
    lines = [f"{k} = {v}" for k, v in sorted(flatten(cfg).items())]
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")
