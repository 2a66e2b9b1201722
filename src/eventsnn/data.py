"""Yin-Yang dataset generation and first-spike-time input encoding.

Points are rejection-sampled inside the disk of radius 0.5 around
(0.5, 0.5).  The two dot disks (radius r_small, centers (0.25, 0.5) and
(0.75, 0.5)) form the third class; the yin/yang boundary is the S-curve made
of the two half-disk arcs of radius 0.25 around those centers joined with the
outer circle.  Classes are balanced to n/3 by per-class rejection.

Encoding maps (x, y) affinely onto [t_early, t_late], mirrors both times
about the window (t + t_mirrored = t_early + t_late) and appends an optional
bias spike, yielding five input neurons: x, y, mirrored x, mirrored y, bias.
"""
from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .core import (
    InvalidParameter,
    Spike,
    SpikeKind,
    format_time,
    read_records,
    write_spike_file,
)

R_BIG = 0.5
_CENTER = (0.5, 0.5)
_LEFT_DOT = (0.25, 0.5)
_RIGHT_DOT = (0.75, 0.5)

DATASET_HEADER = "x,y,label"
SEPARATOR_NEURON = -2  # marks "next sample, label = record time" in encoded files


class YinYangLabel(enum.IntEnum):
    YIN = 0
    YANG = 1
    DOT = 2


@dataclass(frozen=True)
class YinYangPoint:
    x: float
    y: float
    label: YinYangLabel


@dataclass(frozen=True)
class EncodingConfig:
    t_early: float = 0.0
    t_late: float = 1.5
    t_bias: float | None = None  # None -> 0.9 * t_late
    bias_enabled: bool = True

    @property
    def bias_time(self) -> float:
        return 0.9 * self.t_late if self.t_bias is None else self.t_bias

    @property
    def n_inputs(self) -> int:
        return 5 if self.bias_enabled else 4


def classify(x, y, r_small: float = 0.1):
    """Vectorized class rule; the S-curve orientation puts the upper half
    (minus the right lobe) and the left lobe into class yin."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    d_left = np.hypot(x - _LEFT_DOT[0], y - _LEFT_DOT[1])
    d_right = np.hypot(x - _RIGHT_DOT[0], y - _RIGHT_DOT[1])
    in_dots = (d_left <= r_small) | (d_right <= r_small)
    is_yin = (d_left <= 0.5 * R_BIG) | ((y > _CENTER[1]) & (d_right > 0.5 * R_BIG))
    labels = np.where(is_yin, int(YinYangLabel.YIN), int(YinYangLabel.YANG))
    return np.where(in_dots, int(YinYangLabel.DOT), labels)


def _quotas(n: int) -> list[int]:
    base, rem = divmod(n, 3)
    return [base + (1 if k < rem else 0) for k in range(3)]


def generate(seed: int, n: int, r_small: float = 0.1) -> list[YinYangPoint]:
    """Deterministic balanced sample of n points (quota n/3 per class)."""
    if n <= 0:
        raise InvalidParameter(f"n={n} must be positive")
    rng = np.random.default_rng(seed)
    quotas = _quotas(n)
    counts = [0, 0, 0]
    points: list[YinYangPoint] = []
    while len(points) < n:
        xs = rng.uniform(0.0, 1.0, size=512)
        ys = rng.uniform(0.0, 1.0, size=512)
        inside = np.hypot(xs - _CENTER[0], ys - _CENTER[1]) <= R_BIG
        labels = classify(xs, ys, r_small)
        for x, y, ok, lab in zip(xs, ys, inside, labels):
            if not ok:
                continue
            lab = int(lab)
            if counts[lab] >= quotas[lab]:
                continue
            counts[lab] += 1
            points.append(YinYangPoint(float(x), float(y), YinYangLabel(lab)))
            if len(points) == n:
                break
    return points


def encode(p: YinYangPoint, cfg: EncodingConfig = EncodingConfig()) -> "EncodedSample":
    """Map one point to its input spikes: (x, y, mirrored x, mirrored y[, bias])."""
    if not cfg.t_early < cfg.t_late:
        raise InvalidParameter("t_early must precede t_late")
    span = cfg.t_late - cfg.t_early
    t_x = cfg.t_early + p.x * span
    t_y = cfg.t_early + p.y * span
    times = [t_x, t_y, cfg.t_early + cfg.t_late - t_x, cfg.t_early + cfg.t_late - t_y]
    if cfg.bias_enabled:
        times.append(cfg.bias_time)
    spikes = tuple(
        Spike(neuron, float(t), SpikeKind.INPUT) for neuron, t in enumerate(times)
    )
    return EncodedSample(spikes=spikes, label=p.label)


def decode(sample: "EncodedSample", cfg: EncodingConfig = EncodingConfig()) -> tuple[float, float]:
    """Invert the affine map on neurons 0 and 1."""
    span = cfg.t_late - cfg.t_early
    by_neuron = {s.neuron: s.time for s in sample.spikes}
    return (by_neuron[0] - cfg.t_early) / span, (by_neuron[1] - cfg.t_early) / span


@dataclass(frozen=True)
class EncodedSample:
    spikes: tuple
    label: YinYangLabel


def build_dataset(dcfg) -> tuple[EncodingConfig, list[YinYangPoint], list[YinYangPoint]]:
    """Encoding plus train and test points of a config's ``dataset`` section;
    the test set is drawn with seed + 1."""
    enc = EncodingConfig(
        t_early=dcfg.t_early,
        t_late=dcfg.t_late,
        t_bias=dcfg.t_bias,
        bias_enabled=dcfg.bias_enabled,
    )
    train = generate(dcfg.seed, dcfg.n_train, dcfg.r_small)
    test = generate(dcfg.seed + 1, dcfg.n_test, dcfg.r_small)
    return enc, train, test


def encode_dataset(
    points: Sequence[YinYangPoint], cfg: EncodingConfig = EncodingConfig()
) -> list[EncodedSample]:
    return [encode(p, cfg) for p in points]


# ---------------------------------------------------------------------------
# file formats


def write_dataset(path, points: Sequence[YinYangPoint]) -> None:
    with open(path, "w", encoding="utf-8") as f:
        f.write(DATASET_HEADER + "\n")
        for p in points:
            f.write(f"{format_time(p.x)},{format_time(p.y)},{p.label.name.lower()}\n")


def read_dataset(path) -> list[YinYangPoint]:
    """Points of a dataset file; a malformed row raises InvalidParameter
    naming its line."""
    with open(path, encoding="utf-8") as f:
        lines = [(k, ln.strip()) for k, ln in enumerate(f, start=1) if ln.strip()]
    if not lines or lines[0][1] != DATASET_HEADER:
        raise InvalidParameter("dataset file must start with the 'x,y,label' header")
    out = []
    for k, ln in lines[1:]:
        try:
            xs, ys, name = ln.split(",")
            out.append(YinYangPoint(float(xs), float(ys), YinYangLabel[name.upper()]))
        except (ValueError, KeyError) as e:
            raise InvalidParameter(f"{path}: line {k}: bad dataset row {ln!r}") from e
    return out


def write_encoded_set(path, samples: Sequence[EncodedSample]) -> None:
    """Spike-file format with a separator record (-2, label) before each sample."""
    neurons, times = [], []
    for s in samples:
        neurons += [SEPARATOR_NEURON] + [spike.neuron for spike in s.spikes]
        times += [float(int(s.label))] + [spike.time for spike in s.spikes]
    write_spike_file(path, neurons, times)


def read_encoded_set(path) -> list[EncodedSample]:
    """Samples of an encoded-set file.  Every record belongs to the sample of
    the separator before it, whose time is a class index; anything else
    raises InvalidParameter naming the line (the header is line 1, and blank
    lines are not counted)."""
    neurons, times = read_records(path)
    starts = np.flatnonzero(neurons == SEPARATOR_NEURON)
    if neurons.size and starts[:1].tolist() != [0]:
        raise InvalidParameter(f"{path}: line 2: a record before the first separator")
    bad = starts[~np.isin(times[starts], [float(c) for c in YinYangLabel])]
    if bad.size:
        raise InvalidParameter(
            f"{path}: line {bad[0] + 2}: label {format_time(times[bad[0]])} is not a class index"
        )
    ends = np.append(starts[1:], len(neurons))
    return [
        EncodedSample(
            spikes=tuple(
                Spike(n, t, SpikeKind.INPUT)
                for n, t in zip(neurons[a + 1 : b].tolist(), times[a + 1 : b].tolist())
            ),
            label=YinYangLabel(int(times[a])),
        )
        for a, b in zip(starts, ends)
    ]
