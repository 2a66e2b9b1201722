"""Yin-Yang dataset generation and first-spike-time input encoding.

Points are rejection-sampled inside the disk of radius 0.5 around
(0.5, 0.5).  The two dot disks (radius r_small, centers (0.25, 0.5) and
(0.75, 0.5)) form the third class; the yin/yang boundary is the S-curve made
of the two half-disk arcs of radius 0.25 around those centers joined with the
outer circle.  Classes are balanced to n/3 by per-class rejection.

Encoding maps (x, y) affinely onto [t_early, t_late], mirrors both times
about the window (t + t_mirrored = t_early + t_late) and appends an optional
bias spike, yielding five input neurons: x, y, mirrored x, mirrored y, bias.

A set is ``LabelledRows`` from draw to batch: the (n, 2) points a set is
drawn as, then the (n, n_in) input times they encode to, each with its
(n,) labels.

A config's ``dataset`` section fixes two sets: ``draw_train`` draws the
training set with the seed, ``draw_test`` the test set with seed + 1.  A
command draws only the set it reads, and only as many leading rows as it
reads; such a prefix is bit for bit the first rows of the full draw.
"""
from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .core import InvalidParameter, format_time

R_BIG = 0.5
R_SMALL_MAX = 0.5 * R_BIG  # a dot disk stays inside its lobe
_CENTER = (0.5, 0.5)
_LEFT_DOT = (0.25, 0.5)
_RIGHT_DOT = (0.75, 0.5)

DATASET_HEADER = "x,y,label"


class YinYangLabel(enum.IntEnum):
    YIN = 0
    YANG = 1
    DOT = 2


@dataclass(frozen=True)
class LabelledRows:
    """One row of values per sample, with its class index."""

    values: np.ndarray  # (n, d) float64: (x, y) points or input spike times
    labels: np.ndarray  # (n,) int64

    def __len__(self) -> int:
        return self.labels.shape[0]

    def __getitem__(self, rows: slice) -> "LabelledRows":
        return LabelledRows(self.values[rows], self.labels[rows])


@dataclass(frozen=True)
class EncodingConfig:
    t_early: float = 0.0
    t_late: float = 1.5
    t_bias: float | None = None  # None -> 0.9 * t_late
    bias_enabled: bool = True

    def __post_init__(self):
        # every input time must be finite and >= 0 (the engine starts at t = 0)
        if not 0.0 <= self.t_early < self.t_late < math.inf:
            raise InvalidParameter(
                f"encoding window [{self.t_early}, {self.t_late}] needs "
                "0 <= t_early < t_late < inf"
            )
        if self.bias_enabled and not 0.0 <= self.bias_time < math.inf:
            raise InvalidParameter(f"bias time {self.bias_time} must be finite and >= 0")

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


def generate(seed: int, n: int, r_small: float = 0.1, rows: int | None = None) -> LabelledRows:
    """Deterministic balanced sample of n (x, y) points, quota n/3 per class,
    or its first ``rows`` points.

    Each round draws 512 candidates and keeps, in draw order, those inside
    the disk whose class quota is not yet full.  A prefix stops the rounds
    once ``rows`` points are kept; the quotas still come from n, so it is
    bit for bit the first rows of the full draw."""
    if n <= 0:
        raise InvalidParameter(f"n={n} must be positive")
    rows = n if rows is None else rows
    if not 1 <= rows <= n:
        raise InvalidParameter(f"rows={rows} must lie in [1, n={n}]")
    if not 0.0 < r_small <= R_SMALL_MAX:
        raise InvalidParameter(f"r_small={r_small} must lie in (0, {R_SMALL_MAX}]")
    rng = np.random.default_rng(seed)
    base, rem = divmod(n, 3)
    left = base + (np.arange(3) < rem)  # free places per class
    rounds = []
    kept = 0
    while kept < rows:
        xs = rng.uniform(0.0, 1.0, size=512)
        ys = rng.uniform(0.0, 1.0, size=512)
        inside = np.hypot(xs - _CENTER[0], ys - _CENTER[1]) <= R_BIG
        labels = classify(xs, ys, r_small)
        of_class = inside & (labels == np.arange(3)[:, None])  # (3, 512)
        keep = (of_class & (np.cumsum(of_class, axis=1) <= left[:, None])).any(axis=0)
        left -= np.bincount(labels[keep], minlength=3)
        kept += int(np.count_nonzero(keep))
        rounds.append((np.column_stack([xs[keep], ys[keep]]), labels[keep]))
    points, labels = zip(*rounds)
    return LabelledRows(
        np.concatenate(points)[:rows], np.concatenate(labels)[:rows].astype(np.int64)
    )


def draw_train(dcfg, rows: int | None = None) -> LabelledRows:
    """The training points of a config's ``dataset`` section, or their first
    ``rows``: export-traces and replay-train read no more."""
    return generate(dcfg.seed, dcfg.n_train, dcfg.r_small, rows)


def draw_test(dcfg) -> LabelledRows:
    """The test points of a config's ``dataset`` section: the one place
    that draws them, with seed + 1."""
    return generate(dcfg.seed + 1, dcfg.n_test, dcfg.r_small)


def build_dataset(dcfg) -> tuple[LabelledRows, LabelledRows]:
    """Train and test points of a config's ``dataset`` section, which is
    also their encoding; train and generate draw both."""
    return draw_train(dcfg), draw_test(dcfg)


def encode_dataset(points: LabelledRows, cfg: EncodingConfig = EncodingConfig()) -> LabelledRows:
    """Input spike times of each point, one column per input neuron:
    (x, y, mirrored x, mirrored y[, bias])."""
    t_xy = cfg.t_early + points.values * (cfg.t_late - cfg.t_early)
    columns = [t_xy, (cfg.t_early + cfg.t_late) - t_xy]
    if cfg.bias_enabled:
        columns.append(np.full((len(points), 1), cfg.bias_time))
    return LabelledRows(np.hstack(columns), points.labels)


def write_dataset(path, points: LabelledRows) -> None:
    names = [label.name.lower() for label in YinYangLabel]
    with open(path, "w", encoding="utf-8") as f:
        f.write(DATASET_HEADER + "\n")
        for (x, y), label in zip(points.values.tolist(), points.labels.tolist()):
            f.write(f"{format_time(x)},{format_time(y)},{names[label]}\n")
