"""Pluggable forward-pass providers behind one trace-producing interface.

``forward_batch`` runs a batch of samples through one of two backends and
returns one ``EventTrace`` of (B, m) slot arrays that the gradient path
consumes unchanged; ``forward`` is row 0 of a one-sample batch.

* ``numeric`` delegates to the in-process event-driven simulator, which
  ends each row once every output has fired (see ``sim``),
* ``mock`` simulates substrate non-idealities: weights are quantized and
  saturated before the run (into read-only matrices that the run's
  ``Network`` takes over uncopied), the internal spike times of the
  (stopped) trace get Gaussian jitter and may be dropped, then the trace is
  re-sorted and re-padded.

A recorded run is not a backend: ``export-traces`` writes a forward's
trace as a replay file, a block file whose blocks ``neurons`` and ``times``
hold the (S, m) records of its S samples, and ``replay-train`` reads it back
one row at a time through ``replay_block_to_trace``, which validates shape,
ordering and the inputs.  A row ends where its run stopped, so its input
records are often a prefix of the inputs.

A trace carries events only.  The backward pass always assumes the ideal
dynamics with the caller's float weights, whatever produced the spikes.
"""
from __future__ import annotations

from dataclasses import dataclass, field
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
    format_time,
    read_block_file,
    write_block_file,
)
from .sim import pack_inputs, simulate_batch


class ReplayShapeMismatch(InvalidParameter):
    """A replayed trace disagrees with the expected budget/sample layout."""


class ReplayUnsorted(InvalidParameter):
    """Replayed spike times must be non-decreasing."""


# the largest bit width whose level count 2^(bits-1) - 1 is a float64
MAX_WEIGHT_BITS = 1024


@dataclass(frozen=True)
class MockConfig:
    jitter_sigma: float = 0.01  # spike-time jitter, units of tau_syn
    weight_bits: int = 6
    weight_clip: float | None = None  # None -> max |w| of the network
    spike_loss_prob: float = 0.0

    def __post_init__(self):
        if not 2 <= self.weight_bits <= MAX_WEIGHT_BITS:
            raise InvalidParameter(
                f"backend.mock.weight_bits={self.weight_bits} must lie in [2, {MAX_WEIGHT_BITS}]"
            )
        if not 0.0 <= self.spike_loss_prob <= 1.0:
            raise InvalidParameter(
                f"backend.mock.spike_loss_prob={self.spike_loss_prob} must lie in [0, 1]"
            )
        if not self.jitter_sigma >= 0.0:  # NaN fails too
            raise InvalidParameter(
                f"backend.mock.jitter_sigma={self.jitter_sigma} must be >= 0"
            )
        if self.weight_clip is not None and not 0.0 < self.weight_clip < np.inf:
            raise InvalidParameter(
                f"backend.mock.weight_clip={self.weight_clip} must be none, or finite and > 0"
            )


KINDS = ("numeric", "mock")


@dataclass(frozen=True)
class BackendConfig:
    kind: str = "numeric"  # numeric | mock
    mock: MockConfig = field(default_factory=MockConfig)

    def __post_init__(self):
        if self.kind not in KINDS:
            raise InvalidParameter(
                f"backend.kind={self.kind!r}: expected one of {', '.join(KINDS)}"
            )


def quantize_weights(w: np.ndarray, bits: int, clip: float) -> np.ndarray:
    """Symmetric uniform quantizer: integer levels -(2^(bits-1)-1)..2^(bits-1)-1
    spread over [-clip, clip], nearest-level rounding with ties away from zero.
    """
    if not 2 <= bits <= MAX_WEIGHT_BITS:
        raise InvalidParameter(f"weight_bits must lie in [2, {MAX_WEIGHT_BITS}]")
    if not clip > 0.0:
        raise InvalidParameter("weight_clip must be positive")
    levels = 2 ** (bits - 1) - 1
    if not np.isfinite(clip * levels):
        raise InvalidParameter(
            f"weight_bits={bits} with weight_clip={clip:g}: clip * levels overflows a float"
        )
    w = np.clip(np.asarray(w, dtype=np.float64), -clip, clip)
    scaled = w * levels / clip
    # round half away from zero (np.round would round half to even)
    q = np.sign(scaled) * np.floor(np.abs(scaled) + 0.5)
    return q * clip / levels


def _mock_network(net: Network, mock: MockConfig) -> Network:
    flat = (net.weights.ravel(), net.input_weights.ravel())
    # zeros, -0.0 too, quantize to +0.0: only the rest is computed
    nzs = [np.flatnonzero(w != 0.0) for w in flat]
    clip = mock.weight_clip
    if clip is None:
        clip = max(1e-12, *(float(np.abs(w[nz]).max(initial=0.0)) for w, nz in zip(flat, nzs)))
    out = [np.zeros(net.weights.shape), np.zeros(net.input_weights.shape)]
    for q, w, nz in zip(out, flat, nzs):
        q.ravel()[nz] = quantize_weights(w[nz], mock.weight_bits, clip)
        q.setflags(write=False)  # the Network takes it over, uncopied
    return Network(
        n_total=net.n_total,
        weights=out[0],
        input_weights=out[1],
        params=net.params,
        output_set=net.output_set,
    )


def _apply_mock_noise(
    batch: EventTrace, mock: MockConfig, t_max: float, seeds: Sequence[int]
) -> EventTrace:
    """Jitter/drop internal spikes per sample, then re-sort and re-pad, in
    place: ``batch`` is the fresh trace of the mock's run, and is returned.

    Each row draws from its own generator seeded by its sample seed, so a
    row's noise does not depend on the rest of the batch.  Only the first w
    columns move, w the longest real prefix of the batch; the dummy tail
    after them stays as it is.
    """
    w = int(np.sum(batch.kinds != int(SpikeKind.DUMMY), axis=1).max(initial=0))
    internal = batch.kinds[:, :w] == int(SpikeKind.INTERNAL)
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
    times = batch.times[:, :w]
    if jit:
        times[internal] = np.clip(times[internal] + np.concatenate(jit), 0.0, t_max)
    drop = np.zeros_like(internal)
    if lost:
        drop[internal] = np.concatenate(lost)
    times[drop] = np.inf
    order = np.argsort(times, axis=1, kind="stable")
    dropped = np.take_along_axis(drop, order, axis=1)
    for a, dummy in zip(
        (batch.neurons, batch.times, batch.kinds), (DUMMY_NEURON, np.inf, int(SpikeKind.DUMMY))
    ):
        a[:, :w] = np.where(dropped, dummy, np.take_along_axis(a[:, :w], order, axis=1))
    return batch


def forward_batch(
    cfg: BackendConfig,
    net: Network,
    in_neurons: np.ndarray,
    in_times: np.ndarray,
    m: int,
    t_max: float,
    seeds: Sequence[int],
) -> EventTrace:
    """Batched forward pass through the configured backend.

    ``in_neurons``/``in_times`` are (B, K) time-sorted inputs per row, padded
    with -1 / inf; ``seeds`` gives each row's mock-noise seed.  Malformed
    rows raise ``InvalidParameter`` or ``UnsortedInput`` on every backend
    (``sim.check_input_rows``).
    """
    if cfg.kind == "numeric":
        return simulate_batch(net, in_neurons, in_times, m, t_max)
    batch = simulate_batch(_mock_network(net, cfg.mock), in_neurons, in_times, m, t_max)
    return _apply_mock_noise(batch, cfg.mock, t_max, seeds)


def forward(
    cfg: BackendConfig,
    net: Network,
    inputs: Sequence[Spike],
    m: int,
    t_max: float,
    seed: int = 0,
) -> EventTrace:
    """Single-sample forward pass: row 0 of ``forward_batch``."""
    idx, times = pack_inputs([list(inputs)])
    return forward_batch(cfg, net, idx[:, :-1], times[:, :-1], m, t_max, [seed])[0]


# ---------------------------------------------------------------------------
# replay files, a block file (``core.read_block_file``): the header
# "m <int> t_max <float> samples <int>", then the (samples, m) records of the
# rows as the blocks "neurons" and "times", a dummy written as (-1.0, inf).

REPLAY_MAGIC = "eventsnn-replay v2"


def write_replay_file(path, traces: EventTrace, m: int, t_max: float) -> None:
    """Write each row of a (S, m) trace as one row of each block."""
    if traces.times.shape[1] != m:
        raise ReplayShapeMismatch(
            f"trace has {traces.times.shape[1]} records, manifest says m={m}"
        )
    header = {"m": m, "t_max": format_time(t_max), "samples": len(traces)}
    blocks = [("neurons", traces.neurons), ("times", traces.times)]
    write_block_file(path, REPLAY_MAGIC, [header], blocks)


@dataclass(frozen=True)
class ReplayFile:
    m: int
    t_max: float
    neurons: np.ndarray  # (S, m) int64
    times: np.ndarray  # (S, m) float64

    @property
    def blocks(self) -> tuple:
        """Per sample, its (neuron, time) records."""
        return tuple(
            tuple(zip(n, t)) for n, t in zip(self.neurons.tolist(), self.times.tolist())
        )


def read_replay_file(path) -> ReplayFile:
    shape = ("samples", "m")
    values, (ids, times) = read_block_file(
        path, REPLAY_MAGIC, (("m", "t_max", "samples"),), {"m": 1, "samples": 0},
        (("neurons", shape), ("times", shape)), error=ReplayShapeMismatch,
    )
    # every integer of magnitude up to 2^53 is a float64; NaN and +-inf fail
    if not np.all((np.abs(ids) <= 2.0**53) & (np.floor(ids) == ids)):
        raise ReplayShapeMismatch(
            f"replay {path}: a neuron id is not an integer of magnitude at most 2^53"
        )
    return ReplayFile(values["m"], values["t_max"], ids.astype(np.int64), times)


def check_manifest(rf: ReplayFile, m: int, t_max: float) -> None:
    """The file must have been written for this budget and horizon."""
    if rf.m != m:
        raise ReplayShapeMismatch(f"manifest m={rf.m} but caller expects m={m}")
    if rf.t_max != t_max:
        raise ReplayShapeMismatch(
            f"manifest t_max={rf.t_max} but caller expects t_max={t_max}"
        )


def replay_block_to_trace(
    neurons: np.ndarray,
    times: np.ndarray,
    net: Network,
    in_neurons: np.ndarray,
    in_times: np.ndarray,
    t_max: float,
) -> EventTrace:
    """Validate (B, m) replayed records and rebuild their trace.

    Row b must be the record of a run on the inputs ``in_neurons[b]``/
    ``in_times[b]``: its input records are recognized by matching against
    them and must be all of them up to t_max, or a nonempty prefix.  Real
    records form a time-sorted prefix within [0, t_max], every other record
    is the dummy (-1, inf), and internal records name simulated neurons.
    """
    kinds = classify_records(neurons, times, in_neurons, in_times)
    dummy = kinds == int(SpikeKind.DUMMY)
    if np.any(dummy & ~np.isposinf(times)):
        raise ReplayShapeMismatch("a record of neuron -1 must be the dummy (-1, inf)")
    if np.any(dummy[:, :-1] & ~dummy[:, 1:]):
        raise ReplayShapeMismatch("real spike after a dummy record")
    if np.any(~dummy & ~((times >= 0.0) & (times <= t_max))):
        raise ReplayShapeMismatch(f"spike time outside [0, t_max={t_max}]")
    if np.any(np.diff(np.where(dummy, t_max, times), axis=1) < 0.0):
        raise ReplayUnsorted("replayed spike times must be non-decreasing")
    internal = kinds == int(SpikeKind.INTERNAL)
    if np.any(internal & ~((neurons >= 0) & (neurons < net.n_total))):
        raise ReplayShapeMismatch("internal neuron out of range")
    # ``classify_records`` matches inputs in order, so a row's input records
    # are a prefix of its inputs: all of them up to t_max, or a nonempty
    # part, as a row stopped at its budget or its outputs holds
    got = np.sum(kinds == int(SpikeKind.INPUT), axis=-1)
    want = np.sum(in_times <= t_max, axis=-1)
    if not np.all((got == want) | ((got >= 1) & (got < want))):
        raise ReplayShapeMismatch(
            "replayed input records are not the sample's input spikes"
        )
    return EventTrace(neurons, times, kinds)
