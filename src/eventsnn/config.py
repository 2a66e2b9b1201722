"""Experiment configuration: one flat-key text format drives every command.

A config file holds ``key = value`` lines (``#`` starts a comment).  Keys are
dotted paths into the sections below, e.g. ``network.n_hidden = 120`` or
``backend.mock.jitter_sigma = 0.02``.  A value is read as the type of the
field it names: an ``int`` as a decimal integer, a ``float`` as Python
writes one (``0.005``, ``5e-3``, ``inf``), a ``bool`` as ``true`` or
``false``, a ``str`` as the rest of the line, and an optional field takes
``none`` (or ``auto``) for None, else its type's syntax.  Every check that
reads config values alone runs when the config loads.  CLI flags override
file keys; every command echoes the effective config into its output
directory so a run is reproducible from that file alone.
"""
from __future__ import annotations

import dataclasses
import functools
import math
import typing
from dataclasses import dataclass, field, fields
from pathlib import Path

from .backend import BackendConfig
from .core import InvalidParameter, LifParams
from .data import R_SMALL_MAX, EncodingConfig


@dataclass(frozen=True)
class DatasetConfig(EncodingConfig):
    """The encoding of ``data.EncodingConfig``, and the sets it encodes."""

    seed: int = 42
    n_train: int = 5000
    n_test: int = 3000
    r_small: float = 0.1

    def __post_init__(self):
        if self.seed < 0:
            raise InvalidParameter(f"dataset.seed={self.seed} must be >= 0")
        for key in ("n_train", "n_test"):
            val = getattr(self, key)
            if val < 1:
                raise InvalidParameter(f"dataset.{key}={val} must be >= 1")
        # no dot, or one past its lobe, can leave a class quota never filled
        if not 0.0 < self.r_small <= R_SMALL_MAX:
            raise InvalidParameter(
                f"dataset.r_small={self.r_small} must lie in (0, {R_SMALL_MAX}]"
            )
        super().__post_init__()  # a bad window fails at load, before any output


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
        for key in ("v_th", "v_reset"):
            val = getattr(self, key)
            if not math.isfinite(val):
                raise InvalidParameter(f"network.{key}={val} must be finite")
        # tau_syn = 1, so a ratio the solvers cover is positive too
        if not self.params.is_analytic:
            raise InvalidParameter(
                f"network.tau_mem_ratio={self.tau_mem_ratio}: the solvers cover 1 and 2 only"
            )
        if not self.params.resets_below_threshold:
            raise InvalidParameter(
                f"network.v_reset={self.v_reset} must lie below network.v_th={self.v_th}"
            )

    @property
    def params(self) -> LifParams:
        return LifParams(
            tau_mem=self.tau_mem_ratio, tau_syn=1.0, v_th=self.v_th, v_reset=self.v_reset
        )


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
        for key in ("epochs", "seed", "patience"):
            val = getattr(self, key)
            if val < 0:
                raise InvalidParameter(f"train.{key}={val} must be >= 0")
        for key in ("lr", "lr_decay"):
            val = getattr(self, key)
            if not 0.0 <= val < math.inf:
                raise InvalidParameter(f"train.{key}={val} must be finite and >= 0")
        for key in ("beta1", "beta2"):
            val = getattr(self, key)
            if not 0.0 <= val < 1.0:
                raise InvalidParameter(f"train.{key}={val} must lie in [0, 1)")
        if not self.xi > 0.0:
            raise InvalidParameter(f"train.xi={self.xi} must be > 0")
        if not math.isfinite(self.alpha):
            raise InvalidParameter(f"train.alpha={self.alpha} must be finite")
        # 0 turns each of these off; NaN would turn it off silently
        for key in ("gamma", "rate_lambda", "grad_clip", "vdot_floor"):
            val = getattr(self, key)
            if not val >= 0.0:
                raise InvalidParameter(f"train.{key}={val} must be >= 0")


ESTIMATORS = ("eventprop", "fud")


@dataclass(frozen=True)
class ExperimentConfig:
    dataset: DatasetConfig = field(default_factory=DatasetConfig)
    network: NetworkConfig = field(default_factory=NetworkConfig)
    sim: SimConfig = field(default_factory=SimConfig)
    backend: BackendConfig = field(default_factory=BackendConfig)
    train: TrainSection = field(default_factory=TrainSection)

    def __post_init__(self):
        estimator = self.train.estimator
        if estimator not in ESTIMATORS:
            raise InvalidParameter(
                f"train.estimator = {estimator!r}: expected one of {', '.join(ESTIMATORS)}"
            )
        # the analytic forward and gradient kernels cover this ratio only
        if estimator == "fud" and not self.network.params.is_double_tau:
            raise InvalidParameter(
                "train.estimator = fud requires network.tau_mem_ratio = 2, got "
                f"{self.network.tau_mem_ratio:g}"
            )
        # fud computes its own spike times, so it would ignore any other backend
        if estimator == "fud" and self.backend.kind != "numeric":
            raise InvalidParameter(
                f"train.estimator = fud requires backend.kind = numeric, got {self.backend.kind}"
            )


@functools.cache
def _field_types(cls) -> dict:
    return typing.get_type_hints(cls)


def _coerce(key: str, raw: str, typ):
    raw = raw.strip()
    if type(None) in typing.get_args(typ):  # an optional field
        if raw.lower() in ("none", "auto"):
            return None
        (typ,) = (t for t in typing.get_args(typ) if t is not type(None))
    if typ is bool:
        if raw.lower() not in ("true", "false"):
            raise InvalidParameter(f"config key {key!r}: expected true/false, got {raw!r}")
        return raw.lower() == "true"
    try:
        return typ(raw)
    except ValueError as e:
        raise InvalidParameter(f"config key {key!r}: {e}") from e


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


def apply_overrides(cfg, overrides: dict[str, str], prefix: str = ""):
    """Return a copy of cfg with dotted-key overrides applied.

    Each key takes its type from the field it names; each section touched is
    rebuilt once, so its checks see all of its new values together.
    """
    types = _field_types(type(cfg))
    values: dict = {}
    sections: dict[str, dict[str, str]] = {}
    for key, raw in overrides.items():
        name, _, rest = key.partition(".")
        typ = types.get(name)
        if typ is None or dataclasses.is_dataclass(typ) != bool(rest):
            raise InvalidParameter(f"unknown config key {prefix + key!r}")
        if rest:
            sections.setdefault(name, {})[rest] = raw
        else:
            values[name] = _coerce(prefix + key, raw, typ)
    for name, sub in sections.items():
        values[name] = apply_overrides(getattr(cfg, name), sub, f"{prefix}{name}.")
    return dataclasses.replace(cfg, **values)


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
    """The defaults, then the keys of the file at ``path``, then ``overrides``."""
    keys = {} if path is None else parse_config_text(Path(path).read_text(encoding="utf-8"))
    return apply_overrides(ExperimentConfig(), {**keys, **(overrides or {})})


def save_config(cfg: ExperimentConfig, path) -> None:
    lines = [f"{k} = {v}" for k, v in sorted(flatten(cfg).items())]
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")
