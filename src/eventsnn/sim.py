"""Event-driven simulation loop with a fixed event budget.

Each lane (one neuron of one batch row) keeps its own (v, i) at its own
timestamp, plus its absolute next threshold-crossing time.  Free flow does
not move an absolute crossing time, so a lane is touched only when an event
reaches it.  Each iteration takes the earliest crossing of a row and the head
of its input queue; min(t_input, t_internal) wins, the input first on an
exact tie and the lowest index first among simultaneous crossings.  Only the
event's fan-out lanes are then propagated to its time, updated and re-solved:
an internal spike of j touches j itself (V_j = v_reset) and every neuron with
weights[j, k] != 0 (I_k += weights[j, k]); an input spike touches the
neurons with input_weights[source, k] != 0.  A neuron that sits exactly at
threshold when another one spikes therefore keeps its crossing, so tied
spikes are all emitted.

When no event exists before t_max a row is done: it emits a dummy spike
(-1, inf) and its state freezes at t_max.  Dummies fill the rest of its
budget, so every trace has exactly m entries, and the loop stops as soon as
every row is done.  At the end every lane is propagated once to its row's
final time: t_max, or the last event of a row that used its whole budget.

The engine is written over batched (B, N) state arrays and every operation
acts on its own row only.  It returns one ``EventTrace`` of (B, m) slot
arrays; the single-sample API runs the same code path with B = 1 and
returns row 0, so batched and sequential execution agree bitwise.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .core import (
    DUMMY_NEURON,
    EventTrace,
    InvalidParameter,
    Network,
    NeuronState,
    Spike,
    SpikeKind,
    validate_network,
)
from .lif import next_crossing_safe, propagate_arrays


class UnsortedInput(ValueError):
    """Input events must be fed in non-decreasing time order."""


class InvalidBudget(ValueError):
    """The event budget m must be a positive integer."""


@dataclass
class SimDiagnostics:
    """Counters the simulator fills in when passed as a collector."""

    truncated_inputs: int = 0


@dataclass(frozen=True)
class StepOutput:
    state: NeuronState
    spike: Spike


def pack_inputs(batches: Sequence[Sequence[Spike]]):
    """Pad per-sample input spike lists into (B, K) index/time arrays."""
    b = len(batches)
    k = max((len(s) for s in batches), default=0)
    idx = np.full((b, k + 1), DUMMY_NEURON, dtype=np.int64)
    t = np.full((b, k + 1), np.inf, dtype=np.float64)
    for row, spikes in enumerate(batches):
        for col, s in enumerate(spikes):
            idx[row, col] = s.neuron
            t[row, col] = s.time
    return idx, t


def _check_inputs(net: Network, inputs: Sequence[Spike]) -> None:
    last = -math.inf
    for s in inputs:
        if s.is_dummy:
            raise InvalidParameter("dummy spikes are not valid inputs")
        if not 0 <= s.neuron < net.n_in:
            raise InvalidParameter(
                f"input neuron {s.neuron} out of range [0, {net.n_in})"
            )
        if s.time < last:
            raise UnsortedInput(f"input at t={s.time} after t={last}")
        last = s.time


def _lane_table(mask: np.ndarray) -> np.ndarray:
    """(S, W) table: row s lists the columns set in ``mask[s]``, ascending,
    padded with the sentinel lane ``mask.shape[1]``."""
    s, n = mask.shape
    rr, cc = np.nonzero(mask)
    counts = np.bincount(rr, minlength=s)
    table = np.full((s, int(counts.max(initial=0))), n, dtype=np.int64)
    table[rr, np.arange(rr.size) - (np.cumsum(counts) - counts)[rr]] = cc
    return table


@dataclass(frozen=True)
class FanOut:
    """The lanes an event touches, from the nonzero entries of the weights.

    ``internal[j]`` is neuron j itself followed by its targets; ``inputs[c]``
    lists the targets of input channel c.  Rows are padded with a sentinel
    lane n, whose columns of the widened weights ``w``/``w_in`` are zero, so
    state arrays carry n + 1 lanes and the sentinel stays at rest.
    """

    internal: np.ndarray  # (N, W) int64
    inputs: np.ndarray  # (n_in, W_in) int64
    w: np.ndarray  # (N, N + 1)
    w_in: np.ndarray  # (n_in, N + 1)

    @staticmethod
    def of(net: Network) -> "FanOut":
        n = net.n_total
        targets = net.weights != 0.0
        np.fill_diagonal(targets, False)
        internal = np.concatenate([np.arange(n)[:, None], _lane_table(targets)], axis=1)
        return FanOut(
            internal,
            _lane_table(net.input_weights != 0.0),
            np.pad(net.weights, ((0, 0), (0, 1))),
            np.pad(net.input_weights, ((0, 0), (0, 1))),
        )


def simulate_batch(
    net: Network,
    in_neurons: np.ndarray,
    in_times: np.ndarray,
    m: int,
    t_max: float,
    v0: np.ndarray | None = None,
    i0: np.ndarray | None = None,
    t0: np.ndarray | None = None,
) -> EventTrace:
    """Run B independent event loops of at most m iterations over shared weights."""
    if m <= 0:
        raise InvalidBudget(f"event budget m={m} must be positive")
    p = net.params
    n = net.n_total
    b = in_times.shape[0]
    in_neurons = np.asarray(in_neurons, dtype=np.int64)
    in_times = np.asarray(in_times, dtype=np.float64)
    # one trailing inf column so the queue pointer can always be dereferenced
    in_neurons = np.concatenate([in_neurons, np.full((b, 1), DUMMY_NEURON, np.int64)], axis=1)
    in_times = np.concatenate([in_times, np.full((b, 1), np.inf)], axis=1)

    fan = FanOut.of(net)
    v = np.zeros((b, n + 1))
    i = np.zeros((b, n + 1))
    if v0 is not None:
        v[:, :n] = v0
    if i0 is not None:
        i[:, :n] = i0
    t = np.zeros(b) if t0 is None else np.array(t0, dtype=np.float64)
    tref = np.repeat(t[:, None], n + 1, axis=1)
    tc = tref + next_crossing_safe(v, i, p)
    ptr = np.zeros(b, dtype=np.int64)
    done = np.zeros(b, dtype=bool)

    rows = np.arange(b)
    out_neurons = np.full((b, m), DUMMY_NEURON, dtype=np.int64)
    out_times = np.full((b, m), np.inf)
    out_kinds = np.full((b, m), int(SpikeKind.DUMMY), dtype=np.int8)
    out_ispike = np.zeros((b, m))

    def advance(r, lanes, tn):
        rr = r[:, None]
        vv, ii = propagate_arrays(v[rr, lanes], i[rr, lanes], tn - tref[rr, lanes], p)
        return rr, vv, ii

    def commit(rr, lanes, tn, vv, ii):
        v[rr, lanes] = vv
        i[rr, lanes] = ii
        tref[rr, lanes] = tn
        tc[rr, lanes] = tn + next_crossing_safe(vv, ii, p)

    for k in range(m):
        ix = np.argmin(tc, axis=1)
        t_ix = tc[rows, ix]
        t_in = in_times[rows, ptr]
        is_input = t_in <= t_ix
        t_next = np.where(is_input, t_in, t_ix)
        done |= np.isinf(t_next) | (t_next > t_max)
        if done.all():
            break
        live = ~done
        out_times[live, k] = t_next[live]

        r = np.flatnonzero(live & ~is_input)
        if r.size:
            src = ix[r]
            lanes = fan.internal[src]
            tn = t_next[r, None]
            rr, vv, ii = advance(r, lanes, tn)
            out_neurons[r, k] = src
            out_kinds[r, k] = int(SpikeKind.INTERNAL)
            out_ispike[r, k] = ii[:, 0]
            vv[:, 0] = p.v_reset
            commit(rr, lanes, tn, vv, ii + fan.w[src[:, None], lanes])

        r = np.flatnonzero(live & is_input)
        if r.size:
            src = in_neurons[r, ptr[r]]
            lanes = fan.inputs[src]
            tn = t_next[r, None]
            rr, vv, ii = advance(r, lanes, tn)
            out_neurons[r, k] = src
            out_kinds[r, k] = int(SpikeKind.INPUT)
            commit(rr, lanes, tn, vv, ii + fan.w_in[src[:, None], lanes])
            ptr[r] += 1

    # a row still running used every slot; its state stays at its last event
    t = np.where(done, t_max, out_times[:, -1])
    v, i = propagate_arrays(v[:, :n], i[:, :n], t[:, None] - tref[:, :n], p)
    trace = EventTrace(out_neurons, out_times, out_kinds, v, i, t, out_ispike)
    if net.record_set is not None and len(net.record_set) != net.n_total:
        trace = _filter_record_set(trace, net)
    return trace


def _filter_record_set(trace: EventTrace, net: Network) -> EventTrace:
    """Drop internal spikes of unrecorded neurons, repacking dummies at the end.

    Unobserved events still consumed budget iterations; only their records
    are hidden, mirroring a substrate that reports a subset of units.
    """
    recorded = np.zeros(net.n_total, dtype=bool)
    recorded[list(net.record_set)] = True
    hide = (trace.kinds == int(SpikeKind.INTERNAL)) & ~recorded[
        np.clip(trace.neurons, 0, net.n_total - 1)
    ]
    # kept records first, in their original order; hidden ones become dummies
    order = np.argsort(hide, axis=1, kind="stable")
    gone = np.take_along_axis(hide, order, axis=1)

    def repack(a, blank):
        return np.where(gone, blank, np.take_along_axis(a, order, axis=1))

    return EventTrace(
        repack(trace.neurons, DUMMY_NEURON),
        repack(trace.times, np.inf),
        repack(trace.kinds, int(SpikeKind.DUMMY)).astype(np.int8),
        trace.final_v,
        trace.final_i,
        trace.final_t,
        repack(trace.i_spike_recorded, 0.0),
    )


def simulate(
    net: Network,
    inputs: Sequence[Spike],
    m: int,
    t_max: float,
    initial: NeuronState | None = None,
    diag: SimDiagnostics | None = None,
) -> EventTrace:
    """Event-driven forward pass of one sample: row 0 of ``simulate_batch``.

    Exactly m trace slots, dummies trailing.  Inputs must be sorted by time;
    inputs that do not fit the budget are silently truncated (counted in
    ``diag`` when a collector is passed).
    """
    validate_network(net)
    if m <= 0:
        raise InvalidBudget(f"event budget m={m} must be positive")
    if not t_max > 0.0:
        raise InvalidParameter(f"t_max={t_max} must be positive")
    _check_inputs(net, inputs)
    idx, times = pack_inputs([inputs])
    v0 = i0 = t0 = None
    if initial is not None:
        if initial.n != net.n_total:
            raise InvalidParameter(
                f"initial state has {initial.n} neurons, network {net.n_total}"
            )
        if initial.t > t_max:
            raise InvalidParameter("initial time lies beyond t_max")
        if inputs and inputs[0].time < initial.t:
            raise UnsortedInput("input event earlier than the initial state time")
        v0 = initial.v[None, :]
        i0 = initial.i[None, :]
        t0 = np.array([initial.t])
    trace = simulate_batch(net, idx[:, :-1], times[:, :-1], m, t_max, v0, i0, t0)[0]
    if diag is not None:
        consumed = int(np.sum(trace.kinds == int(SpikeKind.INPUT)))
        diag.truncated_inputs += int(np.sum(times <= t_max)) - consumed
    return trace


def step(
    state: NeuronState,
    net: Network,
    input_queue_head: Spike | None,
    t_max: float,
) -> StepOutput:
    """One event-loop iteration from an explicit state.

    The caller owns the input queue: if the returned spike is the input head,
    pop it before the next call.
    """
    validate_network(net)
    if state.t > t_max:
        raise InvalidParameter(f"state time {state.t} beyond t_max={t_max}")
    head: list[Spike] = []
    if input_queue_head is not None:
        if input_queue_head.time < state.t:
            raise UnsortedInput(
                f"input event at t={input_queue_head.time} earlier than state time {state.t}"
            )
        _check_inputs(net, [input_queue_head])
        head = [input_queue_head]
    idx, times = pack_inputs([head])
    row = simulate_batch(
        net,
        idx[:, :-1],
        times[:, :-1],
        1,
        t_max,
        state.v[None, :],
        state.i[None, :],
        np.array([state.t]),
    )[0]
    return StepOutput(
        state=NeuronState(row.final_v, row.final_i, float(row.final_t)),
        spike=Spike(int(row.neurons[0]), float(row.times[0]), SpikeKind(int(row.kinds[0]))),
    )
