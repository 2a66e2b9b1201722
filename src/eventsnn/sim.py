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

Every row's event is named by one stacked source (neuron j is j, input
channel c is N + c; see ``core.FanOut``, built once per network as
``Network.fan_out``), so an iteration makes one pass whatever kind of event
each row takes: the fan-out lanes of all live rows are gathered into one
flat list, propagated in one call, reset and incremented on the flat
arrays, re-solved in one call and scattered back once.

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

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .core import (
    DUMMY_NEURON,
    DimensionMismatch,
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


def _reject_dummies(inputs: Sequence[Spike]) -> None:
    # a dummy packs to the (-1, inf) padding, which the row check accepts
    if any(s.is_dummy for s in inputs):
        raise InvalidParameter("dummy spikes are not valid inputs")


def check_input_rows(net: Network, in_neurons, in_times, t0=None) -> None:
    """Reject malformed (B, K) input rows before any event runs.

    An entry with a finite time names a channel in [0, n_in); +inf marks
    padding, which only trails.  No time is NaN, times do not decrease
    along a row, and none lies before the row's start ``t0`` (default 0).
    """
    if in_neurons.shape != in_times.shape:
        raise DimensionMismatch(
            f"input ids {in_neurons.shape} and times {in_times.shape} differ in shape"
        )
    if np.isnan(in_times).any():
        raise InvalidParameter("input times must not be NaN")
    bad = np.isfinite(in_times) & ((in_neurons < 0) | (in_neurons >= net.n_in))
    if bad.any():
        row, col = np.argwhere(bad)[0]
        raise InvalidParameter(
            f"row {row}: input channel {in_neurons[row, col]} out of range [0, {net.n_in})"
        )
    if (in_times[:, 1:] < in_times[:, :-1]).any():
        raise UnsortedInput("input times decrease along a row, or padding does not trail")
    if in_times.shape[1] and (in_times[:, 0] < (0.0 if t0 is None else t0)).any():
        raise UnsortedInput("input event earlier than its row's start time")


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
    in_neurons = np.asarray(in_neurons, dtype=np.int64)
    in_times = np.asarray(in_times, dtype=np.float64)
    b = in_times.shape[0]
    check_input_rows(net, in_neurons, in_times, t0)
    fan = net.fan_out
    null = fan.null
    # inputs as flat queues of stacked sources, padding as the null source,
    # with one trailing inf column so a queue pointer can always be read
    width = in_times.shape[1] + 1
    in_src = np.where(np.isfinite(in_times), in_neurons + n, null)
    in_src = np.concatenate([in_src, np.full((b, 1), null)], axis=1).ravel()
    in_times = np.concatenate([in_times, np.full((b, 1), np.inf)], axis=1).ravel()

    v = np.zeros((b, n))
    i = np.zeros((b, n))
    if v0 is not None:
        v[:] = v0
    if i0 is not None:
        i[:] = i0
    t = np.zeros(b) if t0 is None else np.array(t0, dtype=np.float64)
    tref = np.repeat(t[:, None], n, axis=1)
    tc = tref + next_crossing_safe(v, i, p)
    # flat views: lane k of row r is entry r * N + k
    v_f, i_f, tref_f, tc_f = v.reshape(-1), i.reshape(-1), tref.reshape(-1), tc.reshape(-1)
    ptr = np.arange(b) * width
    base = np.arange(b) * n
    done = np.zeros(b, dtype=bool)

    # slot k of every row, kept as (m, B) rows: the stacked source of its
    # event (null once the row is done), its time, and the current of a
    # spiking neuron just before it fired
    src_k = np.full((m, b), null, dtype=np.int64)
    time_k = np.full((m, b), np.inf)
    ispike_k = np.zeros((m, b))
    for k in range(m):
        ix = np.argmin(tc, axis=1)
        t_ix = tc_f[base + ix]
        t_in = in_times[ptr]
        is_input = t_in <= t_ix
        t_next = np.where(is_input, t_in, t_ix)
        done |= np.isinf(t_next) | (t_next > t_max)
        if done.all():
            break
        is_input &= ~done
        src = np.where(is_input, in_src[ptr], ix)
        src[done] = null
        src_k[k] = src
        time_k[k] = t_next
        ptr += is_input

        # one flat list of every row's fan-out lanes
        count = fan.count[src]
        end = count.cumsum()
        first = end - count
        pos = np.arange(end[-1]) + (fan.start[src] - first).repeat(count)
        lanes = fan.lanes[pos] + base.repeat(count)
        tn = t_next.repeat(count)
        vv, ii = propagate_arrays(v_f[lanes], i_f[lanes], tn - tref_f[lanes], p)
        spiking = (src < n).nonzero()[0]
        own = first[spiking]
        ispike_k[k, spiking] = ii[own]
        vv[own] = p.v_reset
        ii += fan.weights[pos]
        v_f[lanes] = vv
        i_f[lanes] = ii
        tref_f[lanes] = tn
        tc_f[lanes] = tn + next_crossing_safe(vv, ii, p)

    # each stacked source as a trace record: its neuron or channel, and kind
    neuron_of = np.concatenate([np.arange(n), np.arange(net.n_in), [DUMMY_NEURON]])
    kind_of = np.full(null + 1, int(SpikeKind.INPUT), dtype=np.int8)
    kind_of[:n] = int(SpikeKind.INTERNAL)
    kind_of[null] = int(SpikeKind.DUMMY)
    # a row still running used every slot; its state stays at its last event
    t = np.where(done, t_max, time_k[-1])
    v, i = propagate_arrays(v, i, t[:, None] - tref, p)
    trace = EventTrace(
        np.ascontiguousarray(neuron_of[src_k.T]),
        np.ascontiguousarray(np.where(src_k == null, np.inf, time_k).T),
        np.ascontiguousarray(kind_of[src_k.T]),
        v,
        i,
        t,
        np.ascontiguousarray(ispike_k.T),
    )
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
    _reject_dummies(inputs)
    idx, times = pack_inputs([inputs])
    v0 = i0 = t0 = None
    if initial is not None:
        if initial.n != net.n_total:
            raise InvalidParameter(
                f"initial state has {initial.n} neurons, network {net.n_total}"
            )
        if initial.t > t_max:
            raise InvalidParameter("initial time lies beyond t_max")
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
    head = [] if input_queue_head is None else [input_queue_head]
    _reject_dummies(head)
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
