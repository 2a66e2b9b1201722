"""TTFS loss, Adam optimizer, and the batched training loop.

The loss is a first-spike softmax cross-entropy: output logits are -t_k / xi
where t_k is output k's first spike time (a silent output substitutes
t_max and receives zero gradient).  An optional regularizer alpha * t_label
rewards early correct spikes.

Training starts from one fixed Gaussian draw per layer (``init_network``),
runs the forward pass through the configured backend in vectorized batches,
estimates weight gradients per sample with EventProp (or the analytic
first-spike path) and takes ``train_step`` (replay-train's step too) with a
per-epoch learning-rate decay.  The parameters are the net's two layer
blocks, the (n_in, H) input-to-hidden and (H, n_out) hidden-to-output weights,
from the first step to the checkpoint file.  Everything is deterministic
given the config seeds.
"""
from __future__ import annotations

import math
import time as _time
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from . import backend as backend_mod
from . import data as data_mod
from .config import ExperimentConfig
from .core import EventTrace, InvalidParameter, LifParams, Network, SpikeKind
from .core import format_matrix, format_time, parse_matrix
from .grad import (
    Support,
    eventprop_backward_batch,
    fud_feedforward,
    fud_feedforward_grads,
)

METRICS_HEADER = "epoch,train_loss,train_acc,test_acc,seconds"
CHECKPOINT_FORMAT, CHECKPOINT_VERSION = "eventsnn-checkpoint", "v2"
CHECKPOINT_PARAMS = ("tau_mem", "tau_syn", "v_th", "v_reset")
CHECKPOINT_SIZES = ("n_in", "n_hidden", "n_out")
# means of the initial input-to-hidden and hidden-to-output weights: the 5-120-3
# and 5-500-3 nets spike before t_max on >= 90 % of (row, neuron) pairs
INIT_MEANS = (0.8, 0.15)


class ShapeMismatch(ValueError):
    """Optimizer inputs must agree in shape."""


@dataclass(frozen=True)
class TtfsLoss:
    """First-spike softmax cross-entropy configuration; xi > 0 (NaN fails)."""

    xi: float = 0.5
    alpha: float = 0.0

    def __post_init__(self):
        if not self.xi > 0.0:
            raise InvalidParameter(f"xi={self.xi} must be positive")


def first_spike_times_batch(neurons, times, kinds, ids: Sequence[int]):
    """(B, len(ids)) first internal spike time per listed neuron, inf if silent,
    and its slot, -1 if silent.  Only the slots up to the batch's last
    internal record are read, all ids (neuron indices, so >= 0) in one
    masked argmin."""
    b, _ = times.shape
    ids = np.asarray(ids, dtype=np.int64)
    # INTERNAL is the least kind: a column holds an internal record where
    # its least kind is INTERNAL
    hit = np.flatnonzero(kinds.min(axis=0, initial=int(SpikeKind.DUMMY)) == SpikeKind.INTERNAL)
    if not hit.size:
        return np.full((b, ids.size), np.inf), np.full((b, ids.size), -1, dtype=np.int64)
    w = hit[-1] + 1
    # the neuron of each internal record, -1 for the other kinds
    fired = np.where(kinds[:, :w] == SpikeKind.INTERNAL, neurons[:, :w], -1)
    # (len(ids), B, w): the times of each id's internal records, else inf
    masked = np.full((ids.size, b, w), np.inf)
    np.copyto(masked, times[:, :w], where=fired == ids[:, None, None])
    idx = masked.argmin(axis=2)
    t = masked.reshape(-1, w)[np.arange(idx.size), idx.ravel()].reshape(idx.shape)
    return np.ascontiguousarray(t.T), np.ascontiguousarray(np.where(np.isfinite(t), idx, -1).T)


def ttfs_from_times(t_first, labels, cfg: TtfsLoss, t_max: float):
    """Loss and d loss / d t_k from per-output first-spike times.

    ``t_first`` is (B, n_out) with +inf for silent outputs.
    """
    t_first = np.asarray(t_first, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.int64)
    b, n_out = t_first.shape
    spiked = np.isfinite(t_first)
    t_eff = np.where(spiked, t_first, t_max)
    z = -t_eff / cfg.xi
    z = z - z.max(axis=1, keepdims=True)
    e = np.exp(z)
    p = e / e.sum(axis=1, keepdims=True)
    rows = np.arange(b)
    loss = -np.log(p[rows, labels])
    onehot = np.zeros_like(p)
    onehot[rows, labels] = 1.0
    grads = (onehot - p) / cfg.xi
    if cfg.alpha != 0.0:
        loss = loss + cfg.alpha * t_eff[rows, labels]
        grads[rows, labels] += cfg.alpha
    grads = np.where(spiked, grads, 0.0)
    return loss, grads


def ttfs_loss(
    trace: EventTrace,
    output_set: Sequence[int],
    label: int,
    cfg: TtfsLoss,
    t_max: float,
):
    """Loss plus per-trace-slot time derivatives for a one-sample trace.

    The returned gradient vector aligns with the trace: the derivative with
    respect to output k's first spike lands on that spike's slot, every other
    slot is zero.  No step calls it; the benchmark's probe binds it by name.
    """
    if not output_set:
        raise InvalidParameter("output_set must be nonempty")
    t_first, slots = first_spike_times_batch(
        trace.neurons[None, :], trace.times[None, :], trace.kinds[None, :], output_set
    )
    loss, g = ttfs_from_times(t_first, np.array([label]), cfg, t_max)
    return float(loss[0]), scatter_slot_grads(slots, g, len(trace))[0]


def scatter_slot_grads(slots, grads, m: int):
    """Spread per-output time derivatives onto their trace slots, batched.
    A silent output's slot is -1 and takes nothing.  The sums go in
    (row, output) order, so a slot that two outputs share adds them in
    output order."""
    out = np.zeros((grads.shape[0], m))
    ok = slots >= 0
    np.add.at(out, (np.nonzero(ok)[0], slots[ok]), grads[ok])
    return out


def predict_from_times(t_first) -> np.ndarray:
    """Earliest-first-spike classifier; all-silent rows fall back to class 0."""
    return np.argmin(t_first, axis=1)


# ---------------------------------------------------------------------------
# Adam


@dataclass
class AdamState:
    m: tuple
    v: tuple
    step: int = 0

    @staticmethod
    def init(params: Sequence[np.ndarray]) -> "AdamState":
        return AdamState(
            m=tuple(np.zeros_like(p) for p in params),
            v=tuple(np.zeros_like(p) for p in params),
            step=0,
        )


def adam_step(
    params: Sequence[np.ndarray],
    grads: Sequence[np.ndarray],
    state: AdamState,
    lr: float,
    betas: tuple[float, float] = (0.9, 0.999),
    eps: float = 1e-8,
):
    """One bias-corrected Adam update over a tuple of arrays."""
    if len(params) != len(grads):
        raise ShapeMismatch("params and grads differ in length")
    for p, g in zip(params, grads):
        if p.shape != g.shape:
            raise ShapeMismatch(f"param shape {p.shape} != grad shape {g.shape}")
    b1, b2 = betas
    t = state.step + 1
    new_p, new_m, new_v = [], [], []
    for p, g, m, v in zip(params, grads, state.m, state.v):
        m = b1 * m + (1.0 - b1) * g
        v = b2 * v + (1.0 - b2) * g * g
        m_hat = m / (1.0 - b1**t)
        v_hat = v / (1.0 - b2**t)
        new_p.append(p - lr * m_hat / (np.sqrt(v_hat) + eps))
        new_m.append(m)
        new_v.append(v)
    return tuple(new_p), AdamState(m=tuple(new_m), v=tuple(new_v), step=t)


# ---------------------------------------------------------------------------
# dataset packing and network assembly


@dataclass
class PackedDataset:
    """Dataset flattened to arrays the batched engine consumes directly."""

    sorted_neurons: np.ndarray  # (n, k) input ids, time-sorted per row
    sorted_times: np.ndarray  # (n, k)
    by_neuron_times: np.ndarray  # (n, n_in) spike time of each input neuron
    labels: np.ndarray  # (n,)

    def __len__(self) -> int:
        return self.labels.shape[0]


def pack_samples(encoded: data_mod.LabelledRows) -> PackedDataset:
    """The engine's arrays of encoded samples: each row's inputs in time order."""
    order = np.argsort(encoded.values, axis=1, kind="stable")
    sorted_times = np.take_along_axis(encoded.values, order, axis=1)
    return PackedDataset(order.astype(np.int64), sorted_times, encoded.values, encoded.labels)


def build_network(
    n_in: int,
    n_hidden: int,
    n_out: int,
    params: LifParams,
    rng: np.random.Generator,
    mu_hidden: float,
    mu_out: float,
) -> Network:
    w_ih = rng.normal(mu_hidden, 1.0 / math.sqrt(n_in), size=(n_in, n_hidden))
    w_ho = rng.normal(mu_out, 1.0 / math.sqrt(n_hidden), size=(n_hidden, n_out))
    return Network.feedforward(w_ih, w_ho, params)


def structure_masks(n_in: int, n_hidden: int, n_out: int):
    """The 0/1 (N, N) and (n_in, N) masks of a feedforward net's weights."""
    net = Network.feedforward(np.ones((n_in, n_hidden)), np.ones((n_hidden, n_out)))
    return net.weights, net.input_weights


def split_layers(net: Network):
    """The hidden count H of a feedforward net, which ends where its outputs
    start (as ``read_checkpoint`` builds it), and its input-to-hidden
    (n_in, H) and hidden-to-output (H, n_out) weight blocks."""
    n_hidden = net.n_total - len(net.output_set)
    return n_hidden, net.input_weights[:, :n_hidden], net.weights[:n_hidden, n_hidden:]


def init_network(
    cfg: ExperimentConfig, ds: PackedDataset, rng: np.random.Generator, m=None
) -> Network:
    """One ``build_network`` draw from ``rng`` at the means ``INIT_MEANS``, a
    fixed Gaussian per layer as in Göltz et al. 2021 (arXiv:1912.11443).  No
    forward pass runs: the net depends on the sizes, the LIF constants and
    ``rng`` alone.  ``ds`` gives the input count; ``m`` is accepted and unused."""
    ncfg = cfg.network
    n_in = ds.by_neuron_times.shape[1]
    return build_network(n_in, ncfg.n_hidden, ncfg.n_out, ncfg.params, rng, *INIT_MEANS)


# ---------------------------------------------------------------------------
# training loop


@dataclass
class EpochMetrics:
    epoch: int
    train_loss: float
    train_acc: float
    test_acc: float
    seconds: float

    def csv_row(self) -> str:
        return (
            f"{self.epoch},{self.train_loss:.6f},{self.train_acc:.6f},"
            f"{self.test_acc:.6f},{self.seconds:.3f}"
        )


@dataclass
class TrainResult:
    history: list
    best_net: Network
    final_net: Network
    best_test_acc: float
    best_epoch: int


def _forward_times(
    cfg: ExperimentConfig,
    net: Network,
    ds: PackedDataset,
    idx: np.ndarray,
    m: int,
    seed_tag: int,
):
    """First-spike output times for a slice of the dataset, beside what the
    estimator's gradient reads: the analytic path's hidden times, or the
    trace and the slots of those times."""
    t_max = cfg.sim.t_max
    if cfg.train.estimator == "fud":
        _, w_in, w_ho = split_layers(net)
        t_hidden, t_out = fud_feedforward(
            ds.by_neuron_times[idx], w_in, w_ho, net.params, t_max
        )
        return t_out, t_hidden
    batch = backend_mod.forward_batch(
        cfg.backend,
        net,
        ds.sorted_neurons[idx],
        ds.sorted_times[idx],
        m,
        t_max,
        seeds=[_sample_seed(cfg.train.seed, seed_tag, int(k)) for k in idx],
    )
    t_first, slots = first_spike_times_batch(
        batch.neurons, batch.times, batch.kinds, net.output_set
    )
    return t_first, (batch, slots)


def _sample_seed(train_seed: int, tag: int, idx: int) -> int:
    return (train_seed * 1_000_003 + tag) * 1_000_003 + idx


def evaluate(
    cfg: ExperimentConfig, net: Network, ds: PackedDataset, m: int, seed_tag: int = 999_983
) -> float:
    # the config fixes the ratio of a net it builds, not of a checkpoint's
    if cfg.train.estimator == "fud" and not net.params.is_double_tau:
        raise InvalidParameter(
            "train.estimator = fud requires tau_mem = 2 tau_syn, got tau_mem/tau_syn = "
            f"{net.params.tau_mem / net.params.tau_syn:g}"
        )
    correct = 0
    bs = max(cfg.train.batch, 256)
    for lo in range(0, len(ds), bs):
        idx = np.arange(lo, min(lo + bs, len(ds)))
        t_first, _ = _forward_times(cfg, net, ds, idx, m, seed_tag)
        correct += int(np.sum(predict_from_times(t_first) == ds.labels[idx]))
    return correct / len(ds)


def train(cfg: ExperimentConfig, out_dir=None, log=None) -> TrainResult:
    """Train per config; returns per-epoch metrics and the best checkpoint."""
    t_start = _time.time()
    points_train, points_test = data_mod.build_dataset(cfg.dataset)
    ds_train = pack_samples(data_mod.encode_dataset(points_train, cfg.dataset))
    ds_test = pack_samples(data_mod.encode_dataset(points_test, cfg.dataset))

    n_in = cfg.dataset.n_inputs
    n_hidden, n_out = cfg.network.n_hidden, cfg.network.n_out
    m = cfg.sim.budget(n_in, n_hidden + n_out)

    rng = np.random.default_rng(cfg.train.seed)
    net = init_network(cfg, ds_train, rng)
    support = Support.of(net, structure_masks(n_in, n_hidden, n_out))
    loss_cfg = TtfsLoss(xi=cfg.train.xi, alpha=cfg.train.alpha)
    params = split_layers(net)[1:]
    opt = AdamState.init(params)

    history: list[EpochMetrics] = []
    best_acc, best_epoch = -1.0, -1
    best_net = net
    stale = 0

    for epoch in range(cfg.train.epochs):
        order = rng.permutation(len(ds_train))
        lr = cfg.train.lr * cfg.train.lr_decay**epoch
        losses = []
        n_correct = 0
        for lo in range(0, len(order), cfg.train.batch):
            idx = order[lo : lo + cfg.train.batch]
            t_out, fwd = _forward_times(cfg, net, ds_train, idx, m, epoch)
            loss, g_times = ttfs_from_times(t_out, ds_train.labels[idx], loss_cfg, cfg.sim.t_max)
            if cfg.train.estimator == "fud":
                grads, counts = _fud_batch(
                    cfg, net, ds_train.by_neuron_times[idx], t_out, fwd, g_times
                )
            else:
                grads, counts = _eventprop_batch(cfg, net, *fwd, g_times, support)
            losses.append(float(loss.mean()))
            n_correct += int(np.sum(predict_from_times(t_out) == ds_train.labels[idx]))
            params, opt = train_step(cfg, params, opt, lr, grads, counts)
            net = replace_weights(net, params)
        test_acc = evaluate(cfg, net, ds_test, m)
        met = EpochMetrics(
            epoch=epoch,
            train_loss=float(np.mean(losses)),
            train_acc=n_correct / len(ds_train),
            test_acc=test_acc,
            seconds=_time.time() - t_start,
        )
        history.append(met)
        if log:
            log(
                f"epoch {epoch:3d}  loss {met.train_loss:.4f}  "
                f"train {met.train_acc:.4f}  test {met.test_acc:.4f}  lr {lr:.2e}"
            )
        if test_acc > best_acc:
            best_acc, best_epoch, best_net = test_acc, epoch, net
            stale = 0
        else:
            stale += 1
            if stale > cfg.train.patience:
                break

    if out_dir is not None:
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        write_metrics(out / "metrics.csv", history)
        write_checkpoint(out / "checkpoint.txt", best_net, n_hidden)
    return TrainResult(
        history=history,
        best_net=best_net,
        final_net=net,
        best_test_acc=best_acc,
        best_epoch=best_epoch,
    )


# batch spike fractions, hidden then output, below which a neuron counts as
# silent.  Outputs must spike on essentially every sample: a silent label output
# receives zero loss gradient, so such samples stop being learnable.
SPIKE_TARGETS = (0.5, 0.95)


def train_step(cfg: ExperimentConfig, params, opt: AdamState, lr: float, grad_sums, counts):
    """New blocks and Adam state from the block gradients summed over a batch
    and its (B, N) spike counts: the batch mean, the ``gamma`` bump, the
    ``rate_lambda`` decay, the ``grad_clip`` clip, then Adam at ``lr``."""
    tcfg = cfg.train
    grads = [g / len(counts) for g in grad_sums]
    # a block's columns are its postsynaptic neurons: hidden, then output
    n_hidden = params[0].shape[1]
    if tcfg.gamma > 0.0:
        # pull the incoming weights of under-active neurons upward: a
        # first-spike net cannot revive a silent unit through the spike-time
        # loss, which only sees spikes that happened
        active = np.split((counts > 0).mean(axis=0), [n_hidden])
        bumps = [np.where(a < t, tcfg.gamma, 0.0) for a, t in zip(active, SPIKE_TARGETS)]
        grads = [g - b for g, b in zip(grads, bumps)]
    if tcfg.rate_lambda > 0.0:
        sq_rate = np.split(np.mean(counts**2, axis=0), [n_hidden])
        grads = [g + tcfg.rate_lambda * p * sq for g, p, sq in zip(grads, params, sq_rate)]
    if tcfg.grad_clip > 0.0:
        grads = [_clip_norm(g, tcfg.grad_clip) for g in grads]
    return adam_step(params, grads, opt, lr, (tcfg.beta1, tcfg.beta2))


def _clip_norm(g: np.ndarray, max_norm: float) -> np.ndarray:
    norm = float(np.sqrt(np.sum(g * g)))
    if norm > max_norm:
        return g * (max_norm / norm)
    return g


def replace_weights(net: Network, blocks) -> Network:
    """The feedforward net of ``net``'s LIF constants and two weight ``blocks``."""
    return Network.feedforward(*blocks, net.params)


def _spike_counts(neurons, kinds, n_total):
    """(B, n_total) number of internal spikes per neuron and sample, up to
    the sample's stop: the spikes after every output has fired go uncounted."""
    b = neurons.shape[0]
    flat = (np.arange(b)[:, None] * n_total + neurons)[kinds == int(SpikeKind.INTERNAL)]
    return np.bincount(flat, minlength=b * n_total).reshape(b, n_total).astype(np.float64)


def _eventprop_batch(cfg, net, batch, slots, g_times, support):
    """EventProp gradients of the two weight blocks and spike counts of a
    forward's trace, given the loss derivatives by the output first-spike
    times at ``slots``."""
    slot_g = scatter_slot_grads(slots, g_times, batch.times.shape[1])
    g_w, g_w_in = eventprop_backward_batch(
        batch.neurons, batch.times, batch.kinds, net, slot_g,
        strict=False, vdot_floor=cfg.train.vdot_floor, support=support,
    )
    n_hidden = split_layers(net)[0]
    counts = _spike_counts(batch.neurons, batch.kinds, net.n_total)
    return (g_w_in[:, :n_hidden], g_w[:n_hidden, n_hidden:]), counts


def gradient_from_trace(cfg: ExperimentConfig, net, trace: EventTrace, labels, support):
    """Loss per row, the EventProp gradients of the two weight blocks summed
    over the rows, and the (B, N) spike counts of an externally produced
    trace, as a ``train`` step takes them from its forward's trace.
    ``support`` is the masks pair or its ``grad.Support``, which a caller
    that replays many traces builds once."""
    t_first, slots = first_spike_times_batch(
        trace.neurons, trace.times, trace.kinds, net.output_set
    )
    loss_cfg = TtfsLoss(xi=cfg.train.xi, alpha=cfg.train.alpha)
    loss, g_times = ttfs_from_times(t_first, labels, loss_cfg, cfg.sim.t_max)
    grads, counts = _eventprop_batch(cfg, net, trace, slots, g_times, support)
    return loss, *grads, counts


def _fud_batch(cfg, net, t_in, t_o, t_h, g_times):
    """Analytic gradients of the two weight blocks and spike indicators of a
    forward from the input times ``t_in`` to the hidden and output times
    ``t_h``/``t_o``."""
    _, w_in, w_ho = split_layers(net)
    g_ho, g_in = fud_feedforward_grads(
        t_in, t_h, t_o, w_in, w_ho, g_times, net.params,
        vdot_floor=cfg.train.vdot_floor,
    )
    counts = np.concatenate([np.isfinite(t_h), np.isfinite(t_o)], axis=1).astype(float)
    return (g_in, g_ho), counts


# ---------------------------------------------------------------------------
# metrics + checkpoint files


def write_metrics(path, history: Sequence[EpochMetrics]) -> None:
    with open(path, "w", encoding="utf-8") as f:
        f.write(METRICS_HEADER + "\n")
        for met in history:
            f.write(met.csv_row() + "\n")


def write_checkpoint(path, net: Network, n_hidden: int) -> None:
    """Versioned plain-text dump of a feedforward net: its LIF constants, its
    sizes and its two weight blocks, one row per presynaptic neuron.  A net
    whose outputs are not the neurons after its ``n_hidden`` >= 1 hidden ones,
    or that has a nonzero weight outside the blocks, raises InvalidParameter."""
    n = net.n_total
    if not 0 < n_hidden < n or net.output_set != tuple(range(n_hidden, n)):
        raise InvalidParameter(
            f"checkpoint {path}: outputs {net.output_set} of a {n}-neuron net are not "
            f"the neurons after its n_hidden={n_hidden} >= 1 hidden ones"
        )
    _, w_ih, w_ho = split_layers(net)
    nonzero = np.count_nonzero(net.weights) + np.count_nonzero(net.input_weights)
    if nonzero != np.count_nonzero(w_ih) + np.count_nonzero(w_ho):
        raise InvalidParameter(f"checkpoint {path}: nonzero weights outside the two layer blocks")
    p = net.params
    with open(path, "w", encoding="utf-8") as f:
        f.write(f"{CHECKPOINT_FORMAT} {CHECKPOINT_VERSION}\n")
        f.write(" ".join(f"{k} {format_time(getattr(p, k))}" for k in CHECKPOINT_PARAMS) + "\n")
        f.write(f"n_in {net.n_in} n_hidden {n_hidden} n_out {n - n_hidden}\n")
        f.writelines(format_matrix("input_to_hidden", w_ih))
        f.writelines(format_matrix("hidden_to_output", w_ho))


def _header_line(line: str, keys, path) -> dict[str, str]:
    """The values of a "key value ..." header line that holds each of
    ``keys`` once, in any order."""
    words = line.split()
    values = dict(zip(words[::2], words[1::2]))
    if len(words) != 2 * len(keys) or sorted(values) != sorted(keys):
        raise InvalidParameter(
            f"checkpoint {path}: header {line!r} must hold each of {', '.join(keys)} once"
        )
    return values


def read_checkpoint(path) -> tuple[Network, int]:
    """The feedforward net of a checkpoint file and its hidden count H."""
    try:
        lines = Path(path).read_text(encoding="utf-8").splitlines()
    except UnicodeDecodeError as e:
        raise InvalidParameter(f"not a checkpoint file: {path}: {e}") from e
    name, _, version = (lines or [""])[0].partition(" ")
    if name != CHECKPOINT_FORMAT:
        raise InvalidParameter(f"not a checkpoint file: {path}")
    if version != CHECKPOINT_VERSION:
        raise InvalidParameter(f"checkpoint {path}: version {version!r}; only v2 is read")
    params_line, sizes_line = (lines + ["", ""])[1:3]
    values = _header_line(params_line, CHECKPOINT_PARAMS, path)
    sizes = _header_line(sizes_line, CHECKPOINT_SIZES, path)
    try:
        params = LifParams(**{k: float(v) for k, v in values.items()})
        n_in, n_hidden, n_out = (int(sizes[k]) for k in CHECKPOINT_SIZES)
        if not params.is_analytic:
            raise ValueError(f"tau_mem/tau_syn {params.tau_mem / params.tau_syn:g} is not 1 or 2")
    except ValueError as e:
        raise InvalidParameter(f"checkpoint {path}: bad header: {e}") from e
    if n_in < 0 or n_hidden < 1 or n_out < 1:
        raise InvalidParameter(
            f"checkpoint {path}: bad sizes {sizes_line!r}: need n_hidden >= 1 and n_out >= 1"
        )
    source = f"checkpoint {path}"
    w_ih = parse_matrix(lines, 3, "input_to_hidden", (n_in, n_hidden), source)
    w_ho = parse_matrix(lines, 4 + n_in, "hidden_to_output", (n_hidden, n_out), source)
    try:
        net = Network.feedforward(w_ih, w_ho, params)
    except ValueError as e:
        raise InvalidParameter(f"{source}: {e}") from e
    return net, n_hidden
