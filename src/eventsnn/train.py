"""TTFS loss, Adam optimizer, and the batched training loop.

The loss is a first-spike softmax cross-entropy: output logits are -t_k / xi
where t_k is output k's first spike time (a silent output substitutes
t_none, default t_max, and receives zero gradient).  An optional regularizer
alpha * t_label rewards early correct spikes.

Training runs the forward pass through the configured backend in vectorized
batches, estimates weight gradients per sample with EventProp (or the
analytic first-spike path), averages them over the batch, and applies Adam
with a per-epoch learning-rate decay.  Weight updates are masked to the
feedforward structure.  Everything is deterministic given the config seeds.
"""
from __future__ import annotations

import math
import time as _time
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Sequence

import numpy as np

from . import backend as backend_mod
from . import data as data_mod
from .config import ExperimentConfig
from .core import EventTrace, InvalidParameter, LifParams, Network, SpikeKind, format_time
from .grad import (
    EPS_VDOT,
    eventprop_backward_batch,
    fud_feedforward,
    fud_feedforward_grads,
)

METRICS_HEADER = "epoch,train_loss,train_acc,test_acc,seconds"
CHECKPOINT_MAGIC = "eventsnn-checkpoint v1"


class ShapeMismatch(ValueError):
    """Optimizer inputs must agree in shape."""


@dataclass(frozen=True)
class TtfsLoss:
    """First-spike softmax cross-entropy configuration."""

    xi: float = 0.5
    t_none: float | None = None  # None -> t_max of the run
    alpha: float = 0.0

    def substitute(self, t_max: float) -> float:
        return t_max if self.t_none is None else self.t_none


def first_spike_times_batch(neurons, times, kinds, ids: Sequence[int]):
    """(B, len(ids)) first internal spike time per listed neuron, inf if silent."""
    b, _ = times.shape
    out = np.full((b, len(ids)), np.inf)
    slots = np.full((b, len(ids)), -1, dtype=np.int64)
    internal = kinds == int(SpikeKind.INTERNAL)
    for col, neuron in enumerate(ids):
        mask = internal & (neurons == neuron)
        masked = np.where(mask, times, np.inf)
        idx = np.argmin(masked, axis=1)
        t = masked[np.arange(b), idx]
        out[:, col] = t
        slots[:, col] = np.where(np.isfinite(t), idx, -1)
    return out, slots


def ttfs_from_times(t_first, labels, cfg: TtfsLoss, t_max: float):
    """Loss and d loss / d t_k from per-output first-spike times.

    ``t_first`` is (B, n_out) with +inf for silent outputs.
    """
    if not cfg.xi > 0.0:
        raise InvalidParameter("xi must be positive")
    t_first = np.asarray(t_first, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.int64)
    b, n_out = t_first.shape
    spiked = np.isfinite(t_first)
    t_eff = np.where(spiked, t_first, cfg.substitute(t_max))
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
    cfg: TtfsLoss = TtfsLoss(),
    t_max: float | None = None,
):
    """Loss plus per-trace-slot time derivatives for a one-sample trace.

    The returned gradient vector aligns with the trace: the derivative with
    respect to output k's first spike lands on that spike's slot, every other
    slot is zero.
    """
    if not output_set:
        raise InvalidParameter("output_set must be nonempty")
    if t_max is None:
        t_max = float(trace.final_t)
    t_first, slots = first_spike_times_batch(
        trace.neurons[None, :], trace.times[None, :], trace.kinds[None, :], output_set
    )
    loss, g = ttfs_from_times(t_first, np.array([label]), cfg, t_max)
    return float(loss[0]), scatter_slot_grads(slots, g, len(trace))[0]


def scatter_slot_grads(slots, grads, m: int):
    """Spread per-output time derivatives onto their trace slots, batched."""
    b, n_out = grads.shape
    out = np.zeros((b, m))
    rows = np.arange(b)
    for col in range(n_out):
        s = slots[:, col]
        ok = s >= 0
        out[rows[ok], s[ok]] += grads[ok, col]
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


def pack_samples(samples: Sequence[data_mod.EncodedSample]) -> PackedDataset:
    n = len(samples)
    n_in = len(samples[0].spikes)
    by_neuron = np.zeros((n, n_in))
    labels = np.zeros(n, dtype=np.int64)
    for row, s in enumerate(samples):
        for spike in s.spikes:
            by_neuron[row, spike.neuron] = spike.time
        labels[row] = int(s.label)
    order = np.argsort(by_neuron, axis=1, kind="stable")
    sorted_times = np.take_along_axis(by_neuron, order, axis=1)
    return PackedDataset(order.astype(np.int64), sorted_times, by_neuron, labels)


def build_network(
    n_in: int,
    n_hidden: int,
    n_out: int,
    params: LifParams,
    rng: np.random.Generator,
    mu_hidden: float,
    mu_out: float,
    sigma_scale: float = 1.0,
) -> Network:
    w_ih = rng.normal(mu_hidden, sigma_scale / math.sqrt(n_in), size=(n_in, n_hidden))
    w_ho = rng.normal(mu_out, sigma_scale / math.sqrt(n_hidden), size=(n_hidden, n_out))
    return Network.feedforward(w_ih, w_ho, params)


def structure_masks(n_in: int, n_hidden: int, n_out: int):
    n = n_hidden + n_out
    mask_w = np.zeros((n, n))
    mask_w[:n_hidden, n_hidden:] = 1.0
    mask_w_in = np.zeros((n_in, n))
    mask_w_in[:, :n_hidden] = 1.0
    return mask_w, mask_w_in


def _activity(
    bcfg: backend_mod.BackendConfig,
    net: Network,
    ds: PackedDataset,
    idx: np.ndarray,
    m: int,
    t_max: float,
    n_hidden: int,
):
    """Fractions of (sample, neuron) pairs that spike, for hidden and output."""
    batch = backend_mod.forward_batch(
        bcfg,
        net,
        ds.sorted_neurons[idx],
        ds.sorted_times[idx],
        m,
        t_max,
        seeds=[int(k) for k in idx],
    )
    n = net.n_total
    spiked = np.zeros((len(idx), n), dtype=bool)
    internal = batch.kinds == int(SpikeKind.INTERNAL)
    rows = np.nonzero(internal)
    spiked[rows[0], batch.neurons[internal]] = True
    return float(spiked[:, :n_hidden].mean()), float(spiked[:, n_hidden:].mean())


def init_network(
    cfg: ExperimentConfig,
    ds: PackedDataset,
    rng: np.random.Generator,
    m: int,
    log=None,
) -> Network:
    """Gaussian init with per-layer means raised until the net is active.

    A first-spike network learns nothing while silent, so the probe demands
    >= 90 % of hidden and output units spike on a probe batch at init.
    """
    ncfg = cfg.network
    params = LifParams(
        tau_mem=ncfg.tau_mem_ratio,
        tau_syn=1.0,
        v_th=ncfg.v_th,
        v_reset=ncfg.v_reset,
    )
    n_in = ds.by_neuron_times.shape[1]
    probe_idx = np.arange(min(64, len(ds)))
    mu_hidden, mu_out = 0.8, 0.15
    seed_state = rng.bit_generator.state
    net = None
    for _ in range(12):
        rng.bit_generator.state = seed_state
        net = build_network(
            n_in, ncfg.n_hidden, ncfg.n_out, params, rng, mu_hidden, mu_out
        )
        frac_h, frac_o = _activity(
            cfg.backend, net, ds, probe_idx, m, cfg.sim.t_max, ncfg.n_hidden
        )
        if log:
            log(
                f"init probe: mu_h={mu_hidden:.3f} mu_o={mu_out:.3f} "
                f"hidden active {frac_h:.2f} output active {frac_o:.2f}"
            )
        if frac_h >= 0.9 and frac_o >= 0.9:
            break
        if frac_h < 0.9:
            mu_hidden *= 1.3
        if frac_o < 0.9:
            mu_out *= 1.3
    return net


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
    """First-spike output times for a slice of the dataset (any estimator)."""
    t_max = cfg.sim.t_max
    if cfg.train.estimator == "fud":
        n_hidden = cfg.network.n_hidden
        w_in = net.input_weights[:, :n_hidden]
        w_ho = net.weights[:n_hidden, n_hidden:]
        _, t_out = fud_feedforward(
            ds.by_neuron_times[idx], w_in, w_ho, net.params, t_max
        )
        return t_out, None
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
    enc_cfg, points_train, points_test = data_mod.build_dataset(cfg.dataset)
    ds_train = pack_samples(data_mod.encode_dataset(points_train, enc_cfg))
    ds_test = pack_samples(data_mod.encode_dataset(points_test, enc_cfg))

    n_in = enc_cfg.n_inputs
    n_hidden, n_out = cfg.network.n_hidden, cfg.network.n_out
    n_total = n_hidden + n_out
    m = cfg.sim.budget(n_in, n_total)
    t_max = cfg.sim.t_max

    rng = np.random.default_rng(cfg.train.seed)
    net = init_network(cfg, ds_train, rng, m, log=log)
    mask_w, mask_w_in = structure_masks(n_in, n_hidden, n_out)
    loss_cfg = TtfsLoss(xi=cfg.train.xi, alpha=cfg.train.alpha)
    # batch spike-fraction targets below which a neuron counts as silent.
    # Outputs must spike on essentially every sample: a silent label output
    # receives zero loss gradient, so such samples stop being learnable.
    spike_target = np.concatenate(
        [np.full(n_hidden, 0.5), np.full(n_out, 0.95)]
    )

    params = (np.array(net.weights), np.array(net.input_weights))
    opt = AdamState.init(params)
    betas = (cfg.train.beta1, cfg.train.beta2)

    history: list[EpochMetrics] = []
    best_acc, best_epoch = -1.0, -1
    best_params = params
    stale = 0

    for epoch in range(cfg.train.epochs):
        order = rng.permutation(len(ds_train))
        lr = cfg.train.lr * cfg.train.lr_decay**epoch
        losses = []
        n_correct = 0
        for lo in range(0, len(order), cfg.train.batch):
            idx = order[lo : lo + cfg.train.batch]
            net = replace_weights(net, params)
            if cfg.train.estimator == "fud":
                g_w, g_w_in, loss, preds, counts = _fud_batch(
                    cfg, net, ds_train, idx, loss_cfg
                )
            else:
                g_w, g_w_in, loss, preds, counts = _eventprop_batch(
                    cfg, net, ds_train, idx, m, loss_cfg, epoch, (mask_w, mask_w_in)
                )
            losses.append(float(loss.mean()))
            n_correct += int(np.sum(preds == ds_train.labels[idx]))
            g_w = g_w / len(idx)
            g_w_in = g_w_in / len(idx)
            if cfg.train.gamma > 0.0:
                # pull the incoming weights of under-active neurons upward:
                # a first-spike net cannot revive a silent unit through the
                # spike-time loss, which only sees spikes that happened
                silent = (counts > 0).mean(axis=0) < spike_target
                bump = np.where(silent, cfg.train.gamma, 0.0)
                g_w = g_w - bump[None, :]
                g_w_in = g_w_in - bump[None, :]
            if cfg.train.rate_lambda > 0.0:
                sq_rate = np.mean(counts**2, axis=0)
                g_w = g_w + cfg.train.rate_lambda * params[0] * sq_rate[None, :]
                g_w_in = g_w_in + cfg.train.rate_lambda * params[1] * sq_rate[None, :]
            grads = (g_w * mask_w, g_w_in * mask_w_in)
            if cfg.train.grad_clip > 0.0:
                grads = tuple(_clip_norm(g, cfg.train.grad_clip) for g in grads)
            params, opt = adam_step(params, grads, opt, lr, betas)
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
            best_acc, best_epoch, best_params = test_acc, epoch, params
            stale = 0
        else:
            stale += 1
            if stale > cfg.train.patience:
                break

    best_net = replace_weights(net, best_params)
    final_net = replace_weights(net, params)
    if out_dir is not None:
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        write_metrics(out / "metrics.csv", history)
        write_checkpoint(out / "checkpoint.txt", best_net, n_hidden)
    return TrainResult(
        history=history,
        best_net=best_net,
        final_net=final_net,
        best_test_acc=best_acc,
        best_epoch=best_epoch,
    )


def _clip_norm(g: np.ndarray, max_norm: float) -> np.ndarray:
    norm = float(np.sqrt(np.sum(g * g)))
    if norm > max_norm:
        return g * (max_norm / norm)
    return g


def replace_weights(net: Network, params) -> Network:
    return Network(
        n_total=net.n_total,
        weights=params[0],
        input_weights=params[1],
        params=net.params,
        output_set=net.output_set,
        record_set=net.record_set,
    )


def _spike_counts(neurons, kinds, n_total):
    """(B, n_total) number of internal spikes per neuron and sample."""
    b = neurons.shape[0]
    flat = (np.arange(b)[:, None] * n_total + neurons)[kinds == int(SpikeKind.INTERNAL)]
    return np.bincount(flat, minlength=b * n_total).reshape(b, n_total).astype(np.float64)


def _eventprop_batch(cfg, net, ds, idx, m, loss_cfg, epoch, support):
    t_max = cfg.sim.t_max
    batch = backend_mod.forward_batch(
        cfg.backend,
        net,
        ds.sorted_neurons[idx],
        ds.sorted_times[idx],
        m,
        t_max,
        seeds=[_sample_seed(cfg.train.seed, epoch, int(k)) for k in idx],
    )
    t_first, slots = first_spike_times_batch(
        batch.neurons, batch.times, batch.kinds, net.output_set
    )
    loss, g_times = ttfs_from_times(t_first, ds.labels[idx], loss_cfg, t_max)
    slot_g = scatter_slot_grads(slots, g_times, m)
    g_w, g_w_in = eventprop_backward_batch(
        batch.neurons, batch.times, batch.kinds, net, slot_g,
        strict=False, vdot_floor=cfg.train.vdot_floor, support=support,
    )
    counts = _spike_counts(batch.neurons, batch.kinds, net.n_total)
    return g_w, g_w_in, loss, predict_from_times(t_first), counts


def gradient_from_trace(
    net, trace: EventTrace, label: int, loss_cfg: TtfsLoss, t_max: float, support=None
):
    """Loss and EventProp weight gradients of one externally produced
    one-sample trace, on the gradient ``support`` (None: every weight)."""
    from .grad import eventprop_backward

    loss, slot_g = ttfs_loss(trace, net.output_set, label, loss_cfg, t_max)
    g_w, g_w_in = eventprop_backward(trace, net, slot_g, strict=False, support=support)
    return loss, g_w, g_w_in


def _fud_batch(cfg, net, ds, idx, loss_cfg):
    n_hidden = cfg.network.n_hidden
    t_max = cfg.sim.t_max
    w_in = net.input_weights[:, :n_hidden]
    w_ho = net.weights[:n_hidden, n_hidden:]
    t_in = ds.by_neuron_times[idx]
    t_h, t_o = fud_feedforward(t_in, w_in, w_ho, net.params, t_max)
    loss, g_times = ttfs_from_times(t_o, ds.labels[idx], loss_cfg, t_max)
    g_ho, g_in = fud_feedforward_grads(
        t_in, t_h, t_o, w_in, w_ho, g_times, net.params,
        vdot_floor=cfg.train.vdot_floor,
    )
    n = net.n_total
    g_w = np.zeros((n, n))
    g_w[:n_hidden, n_hidden:] = g_ho
    g_w_in = np.zeros((net.n_in, n))
    g_w_in[:, :n_hidden] = g_in
    counts = np.concatenate([np.isfinite(t_h), np.isfinite(t_o)], axis=1).astype(float)
    return g_w, g_w_in, loss, predict_from_times(t_o), counts


# ---------------------------------------------------------------------------
# metrics + checkpoint files


def write_metrics(path, history: Sequence[EpochMetrics]) -> None:
    with open(path, "w", encoding="utf-8") as f:
        f.write(METRICS_HEADER + "\n")
        for met in history:
            f.write(met.csv_row() + "\n")


def write_checkpoint(path, net: Network, n_hidden: int) -> None:
    """Versioned plain-text weight dump (row-per-presynaptic-neuron)."""
    p = net.params
    with open(path, "w", encoding="utf-8") as f:
        f.write(CHECKPOINT_MAGIC + "\n")
        f.write(
            f"tau_mem {format_time(p.tau_mem)} tau_syn {format_time(p.tau_syn)} "
            f"v_th {format_time(p.v_th)} v_reset {format_time(p.v_reset)}\n"
        )
        f.write(
            f"n_in {net.n_in} n_total {net.n_total} n_hidden {n_hidden} "
            f"n_out {net.n_total - n_hidden}\n"
        )
        f.write("input_weights\n")
        for row in net.input_weights:
            f.write(" ".join(format_time(x) for x in row) + "\n")
        f.write("weights\n")
        for row in net.weights:
            f.write(" ".join(format_time(x) for x in row) + "\n")


def _weight_block(lines, at: int, name: str, rows: int, width: int, path) -> np.ndarray:
    """The ``rows`` x ``width`` matrix that follows the line ``name`` at ``at``."""
    if lines[at : at + 1] != [name] or len(lines) < at + 1 + rows:
        raise InvalidParameter(
            f"checkpoint {path}: expected {rows} rows of {name} at line {at + 1}"
        )
    try:
        block = [[float(x) for x in line.split()] for line in lines[at + 1 : at + 1 + rows]]
    except ValueError as e:
        raise InvalidParameter(f"checkpoint {path}: bad {name} entry: {e}") from e
    for r, row in enumerate(block):
        if len(row) != width:
            raise InvalidParameter(
                f"checkpoint {path}: {name} row {r} has {len(row)} entries, expected {width}"
            )
    return np.array(block).reshape(rows, width)


def read_checkpoint(path) -> tuple[Network, int]:
    lines = Path(path).read_text(encoding="utf-8").splitlines()
    if not lines or lines[0] != CHECKPOINT_MAGIC:
        raise InvalidParameter(f"not a checkpoint file: {path}")
    try:
        pvals = lines[1].split()
        params = LifParams(
            tau_mem=float(pvals[1]),
            tau_syn=float(pvals[3]),
            v_th=float(pvals[5]),
            v_reset=float(pvals[7]),
        )
        svals = lines[2].split()
        n_in, n_total, n_hidden = int(svals[1]), int(svals[3]), int(svals[5])
    except (IndexError, ValueError) as e:
        raise InvalidParameter(f"checkpoint {path}: bad header: {e}") from e
    if n_in < 0 or not 0 <= n_hidden <= n_total:
        raise InvalidParameter(f"checkpoint {path}: bad sizes {lines[2]!r}")
    w_in = _weight_block(lines, 3, "input_weights", n_in, n_total, path)
    w = _weight_block(lines, 4 + n_in, "weights", n_total, n_total, path)
    net = Network(
        n_total=n_total,
        weights=w,
        input_weights=w_in,
        params=params,
        output_set=tuple(range(n_hidden, n_total)),
    )
    return net, n_hidden
