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
safe to share between threads.  Each checks its invariants once, when it is
built (``dataclasses.replace`` included), and raises a typed error on the
first one broken; no function re-checks them per call.

One block holds every number the files carry: the matrix block, a name line
and then one line of ``repr`` floats per row, so that a float64 reads back
bit for bit.  The checkpoint, gradients and replay files are block files
(``write_block_file``/``read_block_file``): a "<name> <version>" line,
"key value" header lines, then matrix blocks.
"""
from __future__ import annotations

import enum
import functools
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Sequence

import numpy as np

DUMMY_NEURON = -1


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

    @property
    def is_dummy(self) -> bool:
        return self.kind == SpikeKind.DUMMY


@dataclass(frozen=True)
class LifParams:
    """LIF neuron constants in normalized units (tau_syn = 1, resting
    potential 0).

    Invariants: tau_mem > 0 and tau_syn > 0 (else NonpositiveTimeConstant),
    both finite, and v_reset < v_th (else InvalidParameter); a NaN tau or
    voltage fails its first check.  Any tau ratio builds; the crossing
    solvers raise UnsupportedTauRatio off 1 and 2.

    ``analytic_ratio`` is decided once, when the value is built: 2 where
    tau_mem = 2 tau_syn and 1 where tau_mem = tau_syn, each to a relative
    tolerance of 1e-9 (``math.isclose``), else 0.  The solvers branch on it.
    """

    tau_mem: float = 2.0
    tau_syn: float = 1.0
    v_th: float = 1.0
    v_reset: float = 0.0
    analytic_ratio: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not (self.tau_mem > 0.0 and self.tau_syn > 0.0):
            raise NonpositiveTimeConstant(
                f"tau_mem={self.tau_mem}, tau_syn={self.tau_syn} must be > 0"
            )
        if math.isinf(self.tau_mem) or math.isinf(self.tau_syn):
            raise InvalidParameter(
                f"tau_mem={self.tau_mem}, tau_syn={self.tau_syn} must be finite"
            )
        if not self.v_reset < self.v_th:
            raise InvalidParameter(f"v_reset={self.v_reset} must lie below v_th={self.v_th}")
        ratio = 0
        if math.isclose(self.tau_mem, 2.0 * self.tau_syn, rel_tol=1e-9):
            ratio = 2
        elif math.isclose(self.tau_mem, self.tau_syn, rel_tol=1e-9):
            ratio = 1
        object.__setattr__(self, "analytic_ratio", ratio)

    @property
    def is_equal_tau(self) -> bool:
        return self.analytic_ratio == 1

    @property
    def is_double_tau(self) -> bool:
        return self.analytic_ratio == 2

    @property
    def is_analytic(self) -> bool:
        """A tau ratio the production root solvers cover: 1 or 2."""
        return self.analytic_ratio != 0


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

    Invariants: ``weights`` is (n_total, n_total) and ``input_weights``
    (n_in, n_total) (else DimensionMismatch); both are finite, and
    ``output_set`` holds distinct indices in [0, n_total) (else
    InvalidParameter).

    Both matrices are held read-only.  A float64 C-contiguous array that is
    already read-only and owns its memory (another Network's matrix, or one
    the caller froze with ``setflags(write=False)`` and keeps no writable
    view of) is taken over as is; anything else, a writable array or a view
    among them, is copied, so later writes to it leave the network as it
    was built.  An array taken over must stay read-only: NumPy lets its
    holder call ``setflags(write=True)`` again, and a write after that
    would change the network and leave its cached ``fan_out``,
    ``levels`` and ``level_inputs`` stale.
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
        n = self.n_total
        if self.weights.shape != (n, n):
            raise DimensionMismatch(f"weights shape {self.weights.shape} != ({n}, {n})")
        if self.input_weights.ndim != 2 or self.input_weights.shape[1] != n:
            raise DimensionMismatch(
                f"input_weights shape {self.input_weights.shape} incompatible with n_total={n}"
            )
        if not (np.isfinite(self.weights).all() and np.isfinite(self.input_weights).all()):
            raise InvalidParameter("weight matrices must be finite")
        out = self.output_set
        if len(set(out)) != len(out) or not all(0 <= k < n for k in out):
            raise InvalidParameter(f"output_set {out} must hold distinct indices in [0, {n})")

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

    @functools.cached_property
    def level_inputs(self) -> tuple:
        """For each level of ``levels``, 0 up: the (K, H) weights into its H
        neurons from the K event sources that drive it (a nonzero weight
        into one of them), each source's row there in ``FanOut``'s
        numbering (-1 for a source that does not drive the level) and each
        neuron's column (-1 off the level).  Read-only and built once per
        network, for the current replay of ``grad``."""
        stacked = np.vstack([self.weights, self.input_weights, np.zeros((1, self.n_total))])
        out = []
        for lev in range(int(self.levels.max()) + 1):
            in_level = self.levels == lev
            w = stacked[:, in_level]
            drives = (w != 0.0).any(axis=1)
            row = np.where(drives, np.cumsum(drives) - 1, -1)
            col = np.where(in_level, np.cumsum(in_level) - 1, -1)
            w = w[drives]
            for a in (w, row, col):
                a.setflags(write=False)
            out.append((w, row, col))
        return tuple(out)

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
        for a in (w, w_in):  # frozen, Network takes them over without a copy
            a.setflags(write=False)
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
    Returns each entry's position ``pos`` and each source's entry count
    ``cnt`` (``np.repeat`` by it spreads a value per source onto its
    entries).
    """
    sources = sources.ravel()
    cnt = count[sources]
    pos = (start[sources] + cnt - cnt.cumsum()).repeat(cnt)
    pos += np.arange(pos.size)
    return pos, cnt


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


def classify_records(neurons, times, in_neurons, in_times) -> np.ndarray:
    """Kinds of raw (B, m) (neuron, time) records, given each row's inputs.

    The file format carries no kind column: a record of neuron -1 is a dummy,
    and input spikes are recognized by matching against the (B, K) inputs the
    caller fed the forward pass (padded with -1 / inf): walking a row's
    records in order, a record equal to the next unmatched input is that
    input.  Every other record is internal.  The walk goes over the input
    positions: a row's input p is its first record past its input p - 1
    that equals it, and a row that has no such record matches no more.
    """
    b, m = times.shape
    dummy = neurons == DUMMY_NEURON
    kinds = np.where(dummy, SpikeKind.DUMMY, SpikeKind.INTERNAL).astype(np.int8)
    # match[r, p, k]: record k of row r is input p of the row
    match = (
        (neurons[:, None, :] == in_neurons[:, :, None])
        & (times[:, None, :] == in_times[:, :, None])
        & ~dummy[:, None, :]
    )
    slots = np.arange(m)
    rows = np.arange(b)  # rows whose inputs matched so far
    last = np.full(b, -1)  # slot of each row's last matched input
    for p in range(in_times.shape[1]):
        hit = match[rows, p] & (slots > last[rows, None])
        found = hit.any(axis=1)
        rows, at = rows[found], hit.argmax(axis=1)[found]
        if not rows.size:
            break
        kinds[rows, at] = SpikeKind.INPUT
        last[rows] = at
    return kinds


# ---------------------------------------------------------------------------
# block files, the one layout of checkpoint, gradients and replay files: a
# "<name> <version>" line, "key value ..." header lines, then named matrix
# blocks, each a name line and one line per row of space-separated repr
# floats.  Blank lines and CRLF line ends read alike; no line may follow the
# last block.


def format_time(t: float) -> str:
    return repr(float(t))


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


def write_block_file(path, magic: str, header: Sequence[dict], blocks) -> None:
    """Write the ``magic`` line "<name> <version>", one "key value ..." line
    per dict of ``header``, then one matrix block per (name, matrix) of
    ``blocks``."""
    with open(path, "w", encoding="utf-8") as f:
        f.write(magic + "\n")
        for line in header:
            f.write(" ".join(f"{k} {v}" for k, v in line.items()) + "\n")
        for name, matrix in blocks:
            f.writelines(format_matrix(name, matrix))


def read_block_file(path, magic: str, header, sizes: dict, blocks, error=InvalidParameter):
    """The header values and the matrices of a block file.

    ``header`` holds the keys of each header line, in any order there;
    ``sizes`` maps each header key that is a size to its least value, and
    ``blocks`` lists each block's (name, (rows key, columns key)) in file
    order.  Returns the header values by key, a size as an int and any
    other value as a float, and the list of matrices.  A fault raises
    ``error`` naming the file.
    """
    name, _, version = magic.partition(" ")
    kind = name.removeprefix("eventsnn-")
    source = f"{kind} {path}"
    try:
        text = Path(path).read_bytes().decode("utf-8")
    except UnicodeDecodeError as e:
        raise error(f"not a {kind} file: {path}: not UTF-8 text ({e})") from e
    lines = [line for line in text.splitlines() if line.strip()]
    got, _, got_version = (lines or [""])[0].partition(" ")
    if got != name:
        raise error(f"not a {kind} file: {path}")
    if got_version != version:
        raise error(f"{source}: version {got_version!r}; only {version} is read")
    values = {}
    for at, keys in enumerate(header, 1):
        values.update(_header_line((lines + [""])[at], keys, source, error))
    try:
        values = {k: int(v) if k in sizes else float(v) for k, v in values.items()}
    except ValueError as e:
        raise error(f"{source}: bad header: {e}") from e
    for key, least in sizes.items():
        if values[key] < least:
            raise error(f"{source}: bad sizes: need {key} >= {least}, got {values[key]}")
    at, matrices = 1 + len(header), []
    for block, (rows, cols) in blocks:
        shape = values[rows], values[cols]
        matrices.append(_parse_matrix(lines[at : at + 1 + shape[0]], block, shape, source, error))
        at += 1 + shape[0]
    if at < len(lines):
        raise error(f"{source}: {lines[at]!r} follows the last block")
    return values, matrices


def _header_line(line: str, keys, source, error) -> dict[str, str]:
    """The values of a "key value ..." header line that holds each of
    ``keys`` once, in any order."""
    words = line.split()
    values = dict(zip(words[::2], words[1::2]))
    if len(words) != 2 * len(keys) or sorted(values) != sorted(keys):
        raise error(f"{source}: header {line!r} must hold each of {', '.join(keys)} once")
    return values


def _parse_matrix(lines: Sequence[str], name: str, shape, source, error) -> np.ndarray:
    """The ``shape`` matrix of the block ``lines``, its name line first."""
    rows, width = shape
    body = lines[1:]
    if lines[:1] != [name] or len(body) < rows:
        raise error(f"{source}: expected {rows} rows of {name}")
    block, err = None, None
    try:
        block = np.loadtxt(body, comments=None, ndmin=2) if rows else np.zeros(shape)
    except ValueError as e:
        err = e
    if block is not None and block.shape == shape:
        return block
    for r, line in enumerate(body):  # the error path: name the first bad row
        if (n := len(line.split())) != width:
            raise error(f"{source}: {name} row {r} has {n} entries, expected {width}")
    raise error(f"{source}: bad {name} entry: {err}")
