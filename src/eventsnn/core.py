"""Domain types and file formats shared by the whole engine.

Conventions, fixed once and used everywhere:
  * time is measured in units of the synaptic time constant (tau_syn = 1 in a
    normalized network); voltages are normalized so the resting potential is 0
    and the threshold defaults to 1,
  * weights[j][i] is the charge a spike of presynaptic neuron j deposits on
    the synaptic current of postsynaptic neuron i (row = presynaptic),
  * input neurons live in their own index space [0, n_in) separate from the
    simulated neurons [0, n_total),
  * a dummy spike (neuron -1, time +inf) pads a trace once activity stops,
  * ``Spike`` is the type of one input event; a forward pass is recorded as
    an ``EventTrace`` of slot arrays, batched or one row of a batch.

All types except the trace are immutable value types after construction and
safe to share between threads.
"""
from __future__ import annotations

import enum
import functools
import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

DUMMY_NEURON = -1

SPIKE_FILE_HEADER = "neuron,time"


class DimensionMismatch(ValueError):
    """Array shapes disagree with the declared network size."""


class UnsupportedTauRatio(ValueError):
    """Analytic solvers exist only for tau_mem in {1, 2} * tau_syn."""


class NonpositiveTimeConstant(ValueError):
    """Time constants must be strictly positive."""


class InvalidParameter(ValueError):
    """A parameter violates a documented invariant."""


class SpikeKind(enum.IntEnum):
    INTERNAL = 0
    INPUT = 1
    DUMMY = 2


@dataclass(frozen=True)
class Spike:
    """One event: which neuron fired and when.

    Forward passes take their inputs as Spikes and record their events in an
    ``EventTrace``.  ``neuron`` indexes the simulated population for internal
    spikes and the input population for input spikes.  A dummy spike is
    always encoded as (-1, +inf) and marks an exhausted event budget.
    """

    neuron: int
    time: float
    kind: SpikeKind = SpikeKind.INTERNAL

    def __post_init__(self):
        if self.kind == SpikeKind.DUMMY:
            if self.neuron != DUMMY_NEURON or not math.isinf(self.time):
                raise InvalidParameter(
                    f"dummy spike must be ({DUMMY_NEURON}, inf), "
                    f"got ({self.neuron}, {self.time})"
                )
        else:
            if self.neuron < 0:
                raise InvalidParameter(f"negative neuron index {self.neuron}")
            if not (self.time >= 0.0 and math.isfinite(self.time)):
                raise InvalidParameter(f"bad spike time {self.time}")

    @staticmethod
    def dummy() -> "Spike":
        return Spike(DUMMY_NEURON, math.inf, SpikeKind.DUMMY)

    @property
    def is_dummy(self) -> bool:
        return self.kind == SpikeKind.DUMMY


@dataclass(frozen=True)
class LifParams:
    """LIF neuron constants in normalized units (tau_syn = 1, v_rest = 0)."""

    tau_mem: float = 2.0
    tau_syn: float = 1.0
    v_th: float = 1.0
    v_reset: float = 0.0
    v_rest: float = 0.0

    @property
    def is_equal_tau(self) -> bool:
        return math.isclose(self.tau_mem, self.tau_syn, rel_tol=1e-9)

    @property
    def is_double_tau(self) -> bool:
        return math.isclose(self.tau_mem, 2.0 * self.tau_syn, rel_tol=1e-9)


def _frozen_array(a, dtype) -> np.ndarray:
    out = np.array(a, dtype=dtype, copy=True)
    out.setflags(write=False)
    return out


@dataclass(frozen=True)
class NeuronState:
    """Membrane voltages and synaptic currents of all neurons at time t."""

    v: np.ndarray
    i: np.ndarray
    t: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "v", _frozen_array(self.v, np.float64))
        object.__setattr__(self, "i", _frozen_array(self.i, np.float64))
        if self.v.shape != self.i.shape or self.v.ndim != 1:
            raise DimensionMismatch(
                f"state vectors must be equal-length 1-d, got {self.v.shape} / {self.i.shape}"
            )

    @staticmethod
    def zeros(n: int, t: float = 0.0) -> "NeuronState":
        return NeuronState(np.zeros(n), np.zeros(n), t)

    @property
    def n(self) -> int:
        return self.v.shape[0]


@dataclass(frozen=True)
class Network:
    """Weight matrices plus neuron parameters for one simulated population.

    ``weights`` is n_total x n_total and may be recurrent (zero delay);
    ``input_weights`` is n_in x n_total. ``output_set`` lists the readout
    neurons, ``record_set`` the neurons whose spikes enter the trace
    (None = record everything, which the gradient path requires).
    """

    n_total: int
    weights: np.ndarray
    input_weights: np.ndarray
    params: LifParams = field(default_factory=LifParams)
    output_set: tuple = ()
    record_set: tuple | None = None

    def __post_init__(self):
        object.__setattr__(self, "weights", _frozen_array(self.weights, np.float64))
        object.__setattr__(
            self, "input_weights", _frozen_array(self.input_weights, np.float64)
        )
        object.__setattr__(self, "output_set", tuple(int(k) for k in self.output_set))
        if self.record_set is not None:
            object.__setattr__(
                self, "record_set", tuple(int(k) for k in self.record_set)
            )

    @property
    def n_in(self) -> int:
        return self.input_weights.shape[0]

    @functools.cached_property
    def fan_out(self) -> "FanOut":
        """The lanes each event source touches; the weights are read-only
        copies, so this is built once per network."""
        return FanOut.of(self)

    @staticmethod
    def feedforward(
        input_to_hidden: np.ndarray,
        hidden_to_output: np.ndarray,
        params: LifParams | None = None,
    ) -> "Network":
        """Assemble a 2-layer feedforward net into the flat N x N layout."""
        input_to_hidden = np.asarray(input_to_hidden, dtype=np.float64)
        hidden_to_output = np.asarray(hidden_to_output, dtype=np.float64)
        n_in, n_hidden = input_to_hidden.shape
        if hidden_to_output.shape[0] != n_hidden:
            raise DimensionMismatch(
                f"layer sizes disagree: {input_to_hidden.shape} vs {hidden_to_output.shape}"
            )
        n_out = hidden_to_output.shape[1]
        n = n_hidden + n_out
        w = np.zeros((n, n))
        w[:n_hidden, n_hidden:] = hidden_to_output
        w_in = np.zeros((n_in, n))
        w_in[:, :n_hidden] = input_to_hidden
        return Network(
            n_total=n,
            weights=w,
            input_weights=w_in,
            params=params if params is not None else LifParams(),
            output_set=tuple(range(n_hidden, n)),
        )


@dataclass(frozen=True)
class FanOut:
    """The lanes an event touches, from the nonzero entries of the weights.

    Event sources are stacked: internal neuron j is source j and input
    channel c is source N + c; the last source, N + n_in, is the null source
    of a row that takes no event.  Source s touches the lanes
    ``lanes[start[s] : start[s] + count[s]]`` and adds the ``weights`` at the
    same positions to their currents.  An internal source lists the neuron
    itself first (it is reset; its weight is the self-loop w[j, j]), then
    every k != j with w[j, k] != 0, ascending; an input source lists the
    neurons it drives, and may list none, like the null source.
    """

    n: int  # N, the lane ``table`` pads with
    start: np.ndarray  # (N + n_in + 1,) int64
    count: np.ndarray  # (N + n_in + 1,) int64
    lanes: np.ndarray  # (L,) int64
    weights: np.ndarray  # (L,)

    def __post_init__(self):
        # shared through the Network's cache, so nobody may write to it
        for a in (self.start, self.count, self.lanes, self.weights):
            a.setflags(write=False)

    @staticmethod
    def of(net: Network) -> "FanOut":
        n, n_in = net.n_total, net.n_in
        # column 0 stands for the source neuron itself, column 1 + k for lane k
        touch = np.zeros((n + n_in + 1, n + 1), dtype=bool)
        touch[:n, 1:] = net.weights != 0.0
        touch[n:-1, 1:] = net.input_weights != 0.0
        touch[np.arange(n), np.arange(n) + 1] = False
        touch[:n, 0] = True
        rows, cols = np.nonzero(touch)
        lanes = np.where(cols == 0, rows, cols - 1)
        count = touch.sum(axis=1)
        k = int(count[:n].sum())  # rows are ascending: internal sources first
        weights = np.concatenate(
            [net.weights[rows[:k], lanes[:k]], net.input_weights[rows[k:] - n, lanes[k:]]]
        )
        return FanOut(n, np.cumsum(count) - count, count, lanes, weights)

    @property
    def null(self) -> int:
        return self.count.size - 1

    def table(self, sources: np.ndarray):
        """(S, W) tables of the lanes and weights of ``sources``, padded
        with lane N and weight 0."""
        count = self.count[sources]
        col = np.arange(int(count.max(initial=0)))
        real = col < count[:, None]
        pos = np.where(real, self.start[sources][:, None] + col, 0)
        return np.where(real, self.lanes[pos], self.n), np.where(real, self.weights[pos], 0.0)


@dataclass(frozen=True)
class EventTrace:
    """Struct-of-arrays record of forward passes, the one trace type.

    A batch of B passes holds (B, m) slot arrays ``neurons``/``times``/
    ``kinds``, (B, N) final voltages and currents and (B,) final times; its
    row ``trace[b]`` is the single-sample trace, the same class with (m,)
    slot arrays, (N,) final state and a scalar final time.  Dummy slots
    trail the real events of a row, so its times are non-decreasing.
    ``i_spike_recorded`` is the engine's diagnostic record of the spiking
    neuron's synaptic current just before each internal event (None when the
    spikes did not come from the engine); the gradient path ignores it and
    reconstructs currents from the trace.  The arrays are not locked.
    """

    neurons: np.ndarray  # (B, m) or (m,) int64
    times: np.ndarray  # (B, m) or (m,) float64
    kinds: np.ndarray  # (B, m) or (m,) int8
    final_v: np.ndarray  # (B, N) or (N,)
    final_i: np.ndarray  # (B, N) or (N,)
    final_t: np.ndarray  # (B,) or scalar
    i_spike_recorded: np.ndarray | None = None

    def __post_init__(self):
        if not (self.neurons.shape == self.times.shape == self.kinds.shape):
            raise DimensionMismatch("trace arrays must share one shape")

    def __len__(self) -> int:
        return self.times.shape[0]

    @property
    def batch_size(self) -> int:
        return len(self)

    def __getitem__(self, b) -> "EventTrace":
        if self.times.ndim != 2:
            raise DimensionMismatch("a single-sample trace has no rows")
        rec = self.i_spike_recorded
        return EventTrace(
            self.neurons[b],
            self.times[b],
            self.kinds[b],
            self.final_v[b],
            self.final_i[b],
            self.final_t[b],
            None if rec is None else rec[b],
        )


def validate_network(net: Network, require_analytic: bool = True) -> None:
    """Check every structural invariant; raises on the first violation.

    Idempotent and side-effect free. ``require_analytic`` additionally
    demands a tau ratio the production root solvers support.
    """
    p = net.params
    if not (p.tau_mem > 0.0 and p.tau_syn > 0.0):
        raise NonpositiveTimeConstant(
            f"tau_mem={p.tau_mem}, tau_syn={p.tau_syn} must be > 0"
        )
    if p.v_rest != 0.0:
        raise InvalidParameter("v_rest is fixed to 0 by normalization")
    if not p.v_reset < p.v_th:
        raise InvalidParameter(f"v_reset={p.v_reset} must lie below v_th={p.v_th}")
    n = net.n_total
    if net.weights.shape != (n, n):
        raise DimensionMismatch(
            f"weights shape {net.weights.shape} != ({n}, {n})"
        )
    if net.input_weights.ndim != 2 or net.input_weights.shape[1] != n:
        raise DimensionMismatch(
            f"input_weights shape {net.input_weights.shape} incompatible with n_total={n}"
        )
    if not np.all(np.isfinite(net.weights)) or not np.all(np.isfinite(net.input_weights)):
        raise InvalidParameter("weight matrices must be finite")
    for name, idx in (("output_set", net.output_set), ("record_set", net.record_set or ())):
        for k in idx:
            if not 0 <= k < n:
                raise InvalidParameter(f"{name} index {k} out of range [0, {n})")
        if len(set(idx)) != len(idx):
            raise InvalidParameter(f"{name} contains duplicates")
    if require_analytic and not (p.is_equal_tau or p.is_double_tau):
        raise UnsupportedTauRatio(
            f"tau_mem/tau_syn = {p.tau_mem / p.tau_syn:g}: analytic solvers "
            "support only ratios 1 and 2"
        )


# ---------------------------------------------------------------------------
# spike-file format: UTF-8 text, header "neuron,time", one "index,repr(time)"
# record per line, dummy written as "-1,inf".  repr round-trips float64
# exactly, so a write/read cycle is the identity on (neuron, time).  Replay
# files are made of such blocks.


def format_time(t: float) -> str:
    return repr(float(t))


def format_records(neurons, times) -> str:
    """A spike-file block: the header line, then one line per record."""
    pairs = zip(np.asarray(neurons).tolist(), np.asarray(times, dtype=np.float64).tolist())
    return SPIKE_FILE_HEADER + "\n" + "".join(f"{n},{t!r}\n" for n, t in pairs)


def parse_records(lines: Sequence[str]) -> tuple[np.ndarray, np.ndarray]:
    """(neurons, times) arrays of "neuron,time" record lines, header excluded."""
    try:
        pairs = [ln.split(",") for ln in lines]
        neurons = np.array([int(n) for n, _ in pairs], dtype=np.int64)
        times = np.array([float(t) for _, t in pairs], dtype=np.float64)
    except ValueError as e:
        raise InvalidParameter(f"malformed spike record: {e}") from e
    return neurons, times


def _open(path_or_io, mode: str):
    if hasattr(path_or_io, "write") or hasattr(path_or_io, "read"):
        return path_or_io, False
    return open(path_or_io, mode, encoding="utf-8"), True


def write_spike_file(path_or_io, neurons, times) -> None:
    f, close = _open(path_or_io, "w")
    try:
        f.write(format_records(neurons, times))
    finally:
        if close:
            f.close()


def read_records(path_or_io) -> tuple[np.ndarray, np.ndarray]:
    """(neurons, times) of a file in the spike-file format, as written."""
    f, close = _open(path_or_io, "r")
    try:
        lines = [ln.strip() for ln in f if ln.strip()]
    finally:
        if close:
            f.close()
    if not lines or lines[0] != SPIKE_FILE_HEADER:
        raise InvalidParameter("spike file must start with the 'neuron,time' header")
    return parse_records(lines[1:])


def read_spike_file(path_or_io) -> tuple[np.ndarray, np.ndarray]:
    """(neurons, times) of a spike file.

    A record is the dummy (-1, inf) or a neuron index >= 0 at a finite time
    >= 0; anything else raises InvalidParameter.
    """
    neurons, times = read_records(path_or_io)
    real_ok = (neurons >= 0) & (times >= 0.0) & np.isfinite(times)
    bad = np.flatnonzero(~np.where(neurons == DUMMY_NEURON, np.isposinf(times), real_ok))
    if bad.size:
        k = bad[0]
        raise InvalidParameter(f"bad spike record ({neurons[k]}, {times[k]})")
    return neurons, times


def classify_records(neurons, times, in_neurons, in_times) -> np.ndarray:
    """Kinds of raw (B, m) (neuron, time) records, given each row's inputs.

    The file format carries no kind column: a record of neuron -1 is a dummy,
    and input spikes are recognized by matching against the (B, K) inputs the
    caller fed the forward pass (padded with -1 / inf): walking a row's
    records in order, a record equal to the next unmatched input is that
    input.  Every other record is internal.
    """
    b, m = times.shape
    dummy = neurons == DUMMY_NEURON
    kinds = np.where(dummy, SpikeKind.DUMMY, SpikeKind.INTERNAL).astype(np.int8)
    slots = np.arange(m)
    rows = np.arange(b)  # rows whose inputs matched so far
    last = np.full(b, -1)  # slot of each row's last matched input
    for p in range(in_times.shape[1]):
        hit = (
            (neurons[rows] == in_neurons[rows, p, None])
            & (times[rows] == in_times[rows, p, None])
            & (kinds[rows] == SpikeKind.INTERNAL)
            & (slots > last[rows, None])
        )
        found = hit.any(axis=1)
        rows, at = rows[found], hit.argmax(axis=1)[found]
        if not rows.size:
            break
        kinds[rows, at] = SpikeKind.INPUT
        last[rows] = at
    return kinds
