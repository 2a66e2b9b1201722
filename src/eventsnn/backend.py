"""Pluggable forward-pass providers behind one trace-producing interface.

Three backends return an ``EventTrace`` the gradient path can consume
unchanged:

* ``numeric`` delegates to the in-process event-driven simulator,
* ``mock`` simulates substrate non-idealities: weights are quantized and
  saturated before the run, emitted internal spike times get Gaussian jitter
  and may be dropped, then the trace is re-sorted and re-padded,
* ``replay`` loads a previously exported trace from file (the stand-in for a
  physical substrate), validating shape and ordering.

The backward pass always assumes the ideal dynamics with the caller's float
weights, whatever produced the spikes.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Sequence

import numpy as np

from .core import (
    DUMMY_NEURON,
    EventTrace,
    InvalidParameter,
    Network,
    Spike,
    SpikeKind,
    classify_records,
    format_spike,
    format_time,
    parse_spike_record,
    validate_network,
)
from .grad import replay_state
from .sim import BatchTrace, pack_inputs, simulate_batch


class ReplayShapeMismatch(ValueError):
    """A replayed trace disagrees with the expected budget/sample layout."""


class ReplayUnsorted(ValueError):
    """Replayed spike times must be non-decreasing."""


@dataclass(frozen=True)
class MockConfig:
    jitter_sigma: float = 0.01  # spike-time jitter, units of tau_syn
    weight_bits: int = 6
    weight_clip: float | None = None  # None -> max |w| of the network
    spike_loss_prob: float = 0.0


@dataclass(frozen=True)
class ReplayConfig:
    trace_path: str | Path = ""


@dataclass(frozen=True)
class BackendConfig:
    kind: str = "numeric"  # numeric | mock | replay
    mock: MockConfig = field(default_factory=MockConfig)
    replay: ReplayConfig = field(default_factory=ReplayConfig)


def _check_config(cfg: BackendConfig) -> None:
    if cfg.kind not in ("numeric", "mock", "replay"):
        raise InvalidParameter(f"unknown backend kind {cfg.kind!r}")
    if cfg.mock.weight_bits < 2:
        raise InvalidParameter("weight_bits must be >= 2")
    if not 0.0 <= cfg.mock.spike_loss_prob <= 1.0:
        raise InvalidParameter("spike_loss_prob must lie in [0, 1]")
    if cfg.mock.jitter_sigma < 0.0:
        raise InvalidParameter("jitter_sigma must be >= 0")


def quantize_weights(w: np.ndarray, bits: int, clip: float) -> np.ndarray:
    """Symmetric uniform quantizer: integer levels -(2^(bits-1)-1)..2^(bits-1)-1
    spread over [-clip, clip], nearest-level rounding with ties away from zero.
    """
    if bits < 2:
        raise InvalidParameter("weight_bits must be >= 2")
    if not clip > 0.0:
        raise InvalidParameter("weight_clip must be positive")
    levels = 2 ** (bits - 1) - 1
    w = np.clip(np.asarray(w, dtype=np.float64), -clip, clip)
    scaled = w * levels / clip
    # round half away from zero (np.round would round half to even)
    q = np.sign(scaled) * np.floor(np.abs(scaled) + 0.5)
    return q * clip / levels


def _mock_network(net: Network, mock: MockConfig) -> Network:
    clip = mock.weight_clip
    if clip is None:
        clip = float(
            max(np.abs(net.weights).max(), np.abs(net.input_weights).max(), 1e-12)
        )
    return Network(
        n_total=net.n_total,
        weights=quantize_weights(net.weights, mock.weight_bits, clip),
        input_weights=quantize_weights(net.input_weights, mock.weight_bits, clip),
        params=net.params,
        output_set=net.output_set,
        record_set=net.record_set,
    )


def _apply_mock_noise(
    batch: BatchTrace, mock: MockConfig, t_max: float, seeds: Sequence[int]
) -> BatchTrace:
    """Jitter/drop internal spikes per sample, then re-sort and re-pad.

    Each row draws from its own generator seeded by its sample seed, so a
    row's noise does not depend on the rest of the batch.
    """
    internal = batch.kinds == int(SpikeKind.INTERNAL)
    counts = internal.sum(axis=1)
    jit = []
    lost = []
    for row, n_int in enumerate(counts):
        if n_int == 0:
            continue
        rng = np.random.default_rng(np.random.SeedSequence((int(seeds[row]), 0xE5)))
        if mock.jitter_sigma > 0.0:
            jit.append(rng.normal(0.0, mock.jitter_sigma, size=n_int))
        if mock.spike_loss_prob > 0.0:
            lost.append(rng.random(n_int) < mock.spike_loss_prob)
    # boolean-mask assignment walks the rows in order, matching the draws
    times = batch.times.copy()
    if jit:
        times[internal] = np.clip(times[internal] + np.concatenate(jit), 0.0, t_max)
    drop = np.zeros_like(internal)
    if lost:
        drop[internal] = np.concatenate(lost)
    times[drop] = np.inf
    order = np.argsort(times, axis=1, kind="stable")
    dropped = np.take_along_axis(drop, order, axis=1)
    return BatchTrace(
        np.where(dropped, DUMMY_NEURON, np.take_along_axis(batch.neurons, order, axis=1)),
        np.take_along_axis(times, order, axis=1),
        np.where(
            dropped, int(SpikeKind.DUMMY), np.take_along_axis(batch.kinds, order, axis=1)
        ).astype(np.int8),
        None,
        batch.final_v,
        batch.final_i,
        batch.final_t,
    )


def forward_batch(
    cfg: BackendConfig,
    net: Network,
    in_neurons: np.ndarray,
    in_times: np.ndarray,
    m: int,
    t_max: float,
    seeds: Sequence[int],
) -> BatchTrace:
    """Batched forward dispatch for the numeric and mock backends."""
    _check_config(cfg)
    validate_network(net)
    if cfg.kind == "numeric":
        return simulate_batch(net, in_neurons, in_times, m, t_max)
    if cfg.kind == "mock":
        run_net = _mock_network(net, cfg.mock)
        batch = simulate_batch(run_net, in_neurons, in_times, m, t_max)
        return _apply_mock_noise(batch, cfg.mock, t_max, seeds)
    raise InvalidParameter("replay backend has no batched forward; use forward()")


def forward(
    cfg: BackendConfig,
    net: Network,
    inputs: Sequence[Spike],
    m: int,
    t_max: float,
    seed: int = 0,
) -> EventTrace:
    """Single-sample forward pass through the configured backend."""
    _check_config(cfg)
    validate_network(net)
    if cfg.kind == "replay":
        return _replay_forward(cfg, net, inputs, m, t_max)
    idx, times = pack_inputs([list(inputs)])
    batch = forward_batch(cfg, net, idx[:, :-1], times[:, :-1], m, t_max, [seed])
    return batch.sample(0)


# ---------------------------------------------------------------------------
# replay files: "m=<int> t_max=<float> samples=<int>" header, then one
# spike-file block (header + exactly m records) per sample.


def write_replay_file(
    path, traces: Sequence[EventTrace], m: int, t_max: float
) -> None:
    with open(path, "w", encoding="utf-8") as f:
        f.write(f"m={m} t_max={format_time(t_max)} samples={len(traces)}\n")
        for trace in traces:
            if len(trace) != m:
                raise ReplayShapeMismatch(
                    f"trace has {len(trace)} records, manifest says m={m}"
                )
            f.write("neuron,time\n")
            for s in trace:
                f.write(format_spike(s) + "\n")


@dataclass(frozen=True)
class ReplayFile:
    m: int
    t_max: float
    blocks: tuple  # tuple of tuples of (neuron, time) records


def read_replay_file(path) -> ReplayFile:
    with open(path, encoding="utf-8") as f:
        lines = [ln.strip() for ln in f if ln.strip()]
    if not lines:
        raise ReplayShapeMismatch("empty replay file")
    head = lines[0].split()
    try:
        fields = dict(part.split("=") for part in head)
        m = int(fields["m"])
        t_max = float(fields["t_max"])
        n_samples = int(fields["samples"])
    except (ValueError, KeyError) as e:
        raise ReplayShapeMismatch(f"bad replay header {lines[0]!r}") from e
    body = lines[1:]
    expected = n_samples * (m + 1)
    if len(body) != expected:
        raise ReplayShapeMismatch(
            f"replay body has {len(body)} lines, expected {expected} "
            f"({n_samples} samples x (1 + m={m}))"
        )
    blocks = []
    for s in range(n_samples):
        chunk = body[s * (m + 1) : (s + 1) * (m + 1)]
        if chunk[0] != "neuron,time":
            raise ReplayShapeMismatch(f"sample {s} missing the spike-file header")
        blocks.append(tuple(parse_spike_record(ln) for ln in chunk[1:]))
    return ReplayFile(m=m, t_max=t_max, blocks=tuple(blocks))


def replay_block_to_trace(
    records: Sequence[tuple[int, float]],
    net: Network,
    inputs: Sequence[Spike],
    m: int,
    t_max: float,
) -> EventTrace:
    """Validate one replay block and rebuild an EventTrace from it.

    Input spikes are recognized by matching against the supplied ones; the
    final state is reconstructed by replaying the ideal dynamics over the
    foreign spike train.
    """
    if len(records) != m:
        raise ReplayShapeMismatch(f"block has {len(records)} records, expected {m}")
    spikes = classify_records(records, inputs)
    last = -math.inf
    seen_dummy = False
    for s in spikes:
        if s.is_dummy:
            seen_dummy = True
            continue
        if seen_dummy:
            raise ReplayShapeMismatch("real spike after a dummy record")
        if s.time < last:
            raise ReplayUnsorted(f"spike at t={s.time} after t={last}")
        last = s.time
        if s.time > t_max:
            raise ReplayShapeMismatch(f"spike time {s.time} beyond t_max={t_max}")
        if s.kind == SpikeKind.INTERNAL and not 0 <= s.neuron < net.n_total:
            raise ReplayShapeMismatch(f"internal neuron {s.neuron} out of range")
    from .core import NeuronState

    draft = EventTrace.from_spikes(spikes, NeuronState.zeros(net.n_total))
    final = replay_state(draft, net, t_max)
    return EventTrace(draft.neurons, draft.times, draft.kinds, final)


def _replay_forward(
    cfg: BackendConfig, net: Network, inputs: Sequence[Spike], m: int, t_max: float
) -> EventTrace:
    rf = read_replay_file(cfg.replay.trace_path)
    if rf.m != m:
        raise ReplayShapeMismatch(f"manifest m={rf.m} but caller expects m={m}")
    if rf.t_max != t_max:
        raise ReplayShapeMismatch(
            f"manifest t_max={rf.t_max} but caller expects t_max={t_max}"
        )
    eligible = [(s.neuron, s.time) for s in inputs if s.time <= t_max]

    def input_records(records):
        return [
            (s.neuron, s.time)
            for s in classify_records(records, inputs)
            if s.kind == SpikeKind.INPUT
        ]

    # prefer a block carrying exactly this sample's inputs; fall back to a
    # budget-truncated prefix
    for records in rf.blocks:
        if input_records(records) == eligible:
            return replay_block_to_trace(records, net, inputs, m, t_max)
    for records in rf.blocks:
        got = input_records(records)
        if got and got == eligible[: len(got)]:
            return replay_block_to_trace(records, net, inputs, m, t_max)
    raise ReplayShapeMismatch("no replay block matches the supplied input spikes")
