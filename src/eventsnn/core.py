"""Domain types, and the text blocks the engine's files are made of.

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
    an ``EventTrace`` of slot arrays, batched or one row of a batch,
  * neuron state has no type of its own: the engine keeps it in batched
    arrays while a row runs, and a trace carries none; nor has a dataset
    sample, which is one row of ``data.LabelledRows``.

All types except the trace are immutable value types after construction and
safe to share between threads.

Two blocks hold every number the files carry, each written with ``repr`` so
that a float64 reads back bit for bit: a record block, the "neuron,time"
records of one trace row (the body of a replay file, see ``backend``), and a
matrix block (the body of checkpoint and gradients files).
"""
from __future__ import annotations

import enum
import functools
import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

DUMMY_NEURON = -1

RECORDS_HEADER = "neuron,time"


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
    """LIF neuron constants in normalized units (tau_syn = 1, resting
    potential 0)."""

    tau_mem: float = 2.0
    tau_syn: float = 1.0
    v_th: float = 1.0
    v_reset: float = 0.0

    @property
    def is_equal_tau(self) -> bool:
        return math.isclose(self.tau_mem, self.tau_syn, rel_tol=1e-9)

    @property
    def is_double_tau(self) -> bool:
        return math.isclose(self.tau_mem, 2.0 * self.tau_syn, rel_tol=1e-9)

    @property
    def is_analytic(self) -> bool:
        """A tau ratio the production root solvers cover: 1 or 2."""
        return self.is_equal_tau or self.is_double_tau

    @property
    def resets_below_threshold(self) -> bool:
        return self.v_reset < self.v_th  # NaN fails too


def _frozen_array(a, dtype) -> np.ndarray:
    """``a`` itself if it is a read-only C-contiguous ``dtype`` array that
    owns its memory, else a read-only copy."""
    if (
        isinstance(a, np.ndarray)
        and a.dtype == dtype
        and a.base is None
        and a.flags.c_contiguous
        and not a.flags.writeable
    ):
        return a
    out = np.array(a, dtype=dtype, copy=True)
    out.setflags(write=False)
    return out


@dataclass(frozen=True)
class Network:
    """Weight matrices plus neuron parameters for one simulated population.

    ``weights`` is n_total x n_total and may be recurrent (zero delay);
    ``input_weights`` is n_in x n_total. ``output_set`` lists the readout
    neurons; the engine ends a row once each of them has fired, and a net
    without readout runs to t_max.  Every neuron's spikes up to then enter
    the trace, as the gradient path requires.

    Both matrices are held read-only.  A float64 C-contiguous array that is
    already read-only and owns its memory (another Network's matrix, or one
    the caller froze with ``setflags(write=False)`` and keeps no writable
    view of) is taken over as is; anything else, a writable array or a view
    among them, is copied, so later writes to it leave the network as it
    was built.  An array taken over must stay read-only: NumPy lets its
    holder call ``setflags(write=True)`` again, and a write after that
    would change the network and leave its cached ``fan_out`` and
    ``levels`` stale.
    """

    n_total: int
    weights: np.ndarray
    input_weights: np.ndarray
    params: LifParams = field(default_factory=LifParams)
    output_set: tuple = ()

    def __post_init__(self):
        object.__setattr__(self, "weights", _frozen_array(self.weights, np.float64))
        object.__setattr__(
            self, "input_weights", _frozen_array(self.input_weights, np.float64)
        )
        object.__setattr__(self, "output_set", tuple(int(k) for k in self.output_set))

    @property
    def n_in(self) -> int:
        return self.input_weights.shape[0]

    @functools.cached_property
    def fan_out(self) -> "FanOut":
        """The lanes each event source touches; the weights are read-only,
        so this is built once per network."""
        return FanOut.of(self)

    @functools.cached_property
    def levels(self) -> np.ndarray:
        """Each neuron's level in the internal weights: 0 when it has no
        internal fan-out, else 1 + the largest level of its targets.  A net
        whose internal weights form a cycle (a self-loop among them) has
        none: this raises InvalidParameter naming one cycle."""
        n = self.n_total
        pre, post = np.divmod(np.flatnonzero(self.weights.ravel() != 0.0), n)
        level = np.zeros(n, dtype=np.int64)
        # after t rounds a neuron's level is min(t, its longest path), so a
        # DAG settles within n rounds and a neuron that reaches a cycle
        # reads n after n rounds
        for _ in range(n):
            up = np.zeros(n, dtype=np.int64)
            np.maximum.at(up, pre, level[post] + 1)
            if np.array_equal(up, level):
                level.setflags(write=False)
                return level
            level = up
        to_cycle = level == n  # the neurons that reach a cycle
        path = [int(np.argmax(to_cycle))]
        while path.count(path[-1]) < 2:
            path.append(int(np.argmax((self.weights[path[-1]] != 0.0) & to_cycle)))
        cycle = path[path.index(path[-1]) :]
        raise InvalidParameter(
            "the internal weights form a cycle, " + " -> ".join(map(str, cycle))
            + "; the EventProp backward and its current replay take only acyclic nets"
        )

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
    neurons it drives, and may list none, like the null source.  The event
    loop of ``sim`` and the current replay and adjoint jumps of ``grad``
    read it through ``csr_entries``, and hold no other copy of it.
    """

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
        # row-major nonzeros: by source, then ascending lane
        src, lanes = np.divmod(np.flatnonzero(net.weights.ravel() != 0.0), n)
        other = src != lanes
        # each neuron's own entry, then the rest: a stable sort by source
        # keeps the own entry first and the rest ascending
        src = np.concatenate([np.arange(n), src[other]])
        lanes = np.concatenate([np.arange(n), lanes[other]])
        order = np.argsort(src, kind="stable")
        src, lanes = src[order], lanes[order]
        ch, ch_lanes = np.divmod(np.flatnonzero(net.input_weights.ravel() != 0.0), n)
        count = np.concatenate(
            [np.bincount(src, minlength=n), np.bincount(ch, minlength=n_in), [0]]
        )
        weights = np.concatenate([net.weights[src, lanes], net.input_weights[ch, ch_lanes]])
        lanes = np.concatenate([lanes, ch_lanes])
        return FanOut(np.cumsum(count) - count, count, lanes, weights)

    @property
    def null(self) -> int:
        return self.count.size - 1


def csr_entries(start, count, sources):
    """The CSR entries of ``sources`` (any shape, read flat), source by
    source, where source s owns the positions start[s]:start[s] + count[s].
    Returns each entry's position ``pos``, each source's entry count ``cnt``
    (``np.repeat`` by it spreads a value per source onto its entries) and
    their running sum ``end``: source q owns the entries end[q] - cnt[q]:end[q].
    """
    sources = sources.ravel()
    cnt = count[sources]
    end = cnt.cumsum()
    pos = (start[sources] + cnt - end).repeat(cnt)
    pos += np.arange(pos.size)
    return pos, cnt, end


@dataclass(frozen=True)
class EventTrace:
    """Struct-of-arrays record of forward passes, the one trace type.

    A batch of B passes holds (B, m) slot arrays ``neurons``/``times``/
    ``kinds``; its row ``trace[b]`` is the single-sample trace, the same
    class with (m,) slot arrays.  Dummy slots trail the real events of a
    row, so its times are non-decreasing.  A row ends at t_max, at its
    budget or once every output has fired (see ``sim``), so a trace holds
    events only: no neuron state, neither at an event nor at an end time;
    the gradient path reconstructs the currents from the events.  The
    arrays are not locked.
    """

    neurons: np.ndarray  # (B, m) or (m,) int64
    times: np.ndarray  # (B, m) or (m,) float64
    kinds: np.ndarray  # (B, m) or (m,) int8

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
        return EventTrace(self.neurons[b], self.times[b], self.kinds[b])


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
    if not p.resets_below_threshold:
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
    for k in net.output_set:
        if not 0 <= k < n:
            raise InvalidParameter(f"output_set index {k} out of range [0, {n})")
    if len(set(net.output_set)) != len(net.output_set):
        raise InvalidParameter("output_set contains duplicates")
    if require_analytic and not p.is_analytic:
        raise UnsupportedTauRatio(
            f"tau_mem/tau_syn = {p.tau_mem / p.tau_syn:g}: analytic solvers "
            "support only ratios 1 and 2"
        )


# ---------------------------------------------------------------------------
# record blocks, one per row of a replay file: the header "neuron,time", then
# one "index,repr(time)" record per line, the dummy written as "-1,inf".
# repr round-trips float64 exactly, so a write/read cycle is the identity on
# (neuron, time).  A record is checked where it is read into a trace
# (``backend.replay_block_to_trace``).


def format_time(t: float) -> str:
    return repr(float(t))


def format_records(neurons, times) -> str:
    """A record block: the header line, then one line per record."""
    pairs = zip(np.asarray(neurons).tolist(), np.asarray(times, dtype=np.float64).tolist())
    return RECORDS_HEADER + "\n" + "".join(f"{n},{t!r}\n" for n, t in pairs)


def parse_records(lines: Sequence[str]) -> tuple[np.ndarray, np.ndarray]:
    """(neurons, times) arrays of "neuron,time" record lines, header excluded."""
    try:
        pairs = [ln.split(",") for ln in lines]
        neurons = np.array([int(n) for n, _ in pairs], dtype=np.int64)
        times = np.array([float(t) for _, t in pairs], dtype=np.float64)
    except ValueError as e:
        raise InvalidParameter(f"malformed spike record: {e}") from e
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


# ---------------------------------------------------------------------------
# matrix blocks, the body of checkpoint and gradients files: a name line,
# then one line per row of space-separated repr floats.


def format_matrix(name: str, matrix):
    """Yield the lines of a matrix block, one row at a time.  An exact +0.0
    is written as its repr "0.0" without calling ``repr``; -0.0 keeps its
    own."""
    m = np.asarray(matrix, dtype=np.float64)
    yield name + "\n"
    zeros = ["0.0"] * m.shape[-1]
    for row, other in zip(m, (m != 0.0) | np.signbit(m)):
        text = zeros.copy()
        cols = np.flatnonzero(other)
        for c, x in zip(cols.tolist(), row[cols].tolist()):
            text[c] = repr(x)
        yield " ".join(text) + "\n"


def parse_matrix(lines: Sequence[str], at: int, name: str, shape, source) -> np.ndarray:
    """The ``shape`` matrix of the block named at ``lines[at]``; a bad block
    raises InvalidParameter naming ``source``."""
    rows, width = shape
    body = lines[at + 1 : at + 1 + rows]
    if lines[at : at + 1] != [name] or len(body) < rows:
        raise InvalidParameter(f"{source}: expected {rows} rows of {name} at line {at + 1}")
    block, err = None, None
    try:
        block = np.loadtxt(body, comments=None, ndmin=2) if rows else np.zeros(shape)
    except ValueError as e:
        err = e
    if block is not None and block.shape == shape:
        return block
    for r, line in enumerate(body):  # the error path: name the first bad row
        if len(line.split()) != width:
            raise InvalidParameter(
                f"{source}: {name} row {r} has {len(line.split())} entries, expected {width}"
            )
    raise InvalidParameter(f"{source}: bad {name} entry: {err}")
