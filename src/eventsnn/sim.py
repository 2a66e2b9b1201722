"""Event-driven simulation loop with a fixed event budget.

Each lane (one neuron of one batch row) keeps its own (v, i) at its own
timestamp, plus its absolute next threshold-crossing time.  Free flow does
not move an absolute crossing time, so a lane is touched only when an event
reaches it.

A row of the crossing table ``tc`` holds K + N + 1 columns: column c < K is
the row's input entry c at its time (+inf for padding), column K + k is
neuron k at its next crossing, and the last column is the row's limit,
t_max until the row is loss-complete and -inf after.  One argmin per row
picks its event, and its lowest-column rule on an exact tie is the event
order: inputs first, in their given order, then the lowest index among
simultaneous crossings, and the limit last, so an event exactly at t_max
still runs.  A row is done when its pick is the limit column: no event
exists before t_max, or the row is loss-complete.  A taken input column is
set to +inf; the limit column is written from the row's limit after that
write in every iteration, so a done row stays done.

Only the event's fan-out lanes are propagated to its time, updated and
re-solved: an internal spike of j touches j itself (V_j = v_reset) and
every neuron with weights[j, k] != 0 (I_k += weights[j, k]); an input
spike touches the neurons with input_weights[source, k] != 0.  A neuron
that sits exactly at threshold when another one spikes therefore keeps its
crossing, so tied spikes are all emitted.  Every row's event is named by
one stacked source (neuron j is j, input channel c is N + c, the limit is
the null source that touches nothing; see ``core.FanOut``, built once per
network as ``Network.fan_out``), so an iteration makes one pass whatever
kind of event each row takes: the fan-out lanes of all live rows are
gathered into one flat list by ``core.csr_entries`` (the expansion
``grad`` plans its slots with), propagated in one call, reset and
incremented on the flat arrays, re-solved in one call and scattered back
once.  Every row starts at rest at t = 0, so the first crossings are one
solve of one lane at rest, broadcast to every neuron column.

A lane at rest never crosses (``lif`` finds no upward crossing without
current), so each row's first event is its first input, or its limit when
that input comes after t_max or it has none.  Every lane that input
touches is still at rest, so it propagates to v = +0.0 and gets I = w, its
weight: the first iteration writes that state directly, with the crossing
t plus the solve of (0, w) from one call over every input fan-out entry of
the net, and propagates and solves nothing else.

A row is loss-complete in the iteration where the last neuron of
``net.output_set`` fires for the first time.  The first-spike loss and the
classifier read only each output's first spike, and the EventProp adjoint
is zero past the last of them, so nothing later is simulated; a net
without outputs runs to t_max.  The loop stops at the budget of m
iterations or as soon as every row is done.  The trace is written once
after the loop: the slot records of the iterations that ran, a done row's
as dummy spikes (-1, inf), then dummies up to m, so every trace has
exactly m entries.  Up to its stop, a row's trace is bitwise the prefix of
the trace of the same net with an empty ``output_set``.  No state is kept
past the last event.

The engine is written over batched (B, K + N + 1) arrays and every
operation acts on its own row only, so a row's trace does not depend on the
rest of the batch.  ``simulate_batch`` returns one ``EventTrace`` of (B, m)
slot arrays; ``simulate`` is row 0 of a batch of one.
"""
from __future__ import annotations

from typing import Sequence

import numpy as np

from .core import (
    DUMMY_NEURON,
    DimensionMismatch,
    EventTrace,
    InvalidParameter,
    Network,
    Spike,
    SpikeKind,
    csr_entries,
)
from .lif import next_crossing_safe, propagate_arrays


class UnsortedInput(ValueError):
    """Input events must be fed in non-decreasing time order."""


class InvalidBudget(ValueError):
    """The event budget m must be a positive integer."""


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


def check_input_rows(net: Network, in_neurons, in_times) -> None:
    """Reject malformed (B, K) input rows before any event runs.

    An entry with a finite time names a channel in [0, n_in); +inf marks
    padding, which only trails.  No time is NaN, times do not decrease
    along a row, and none lies before t = 0.
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
    if in_times.shape[1] and (in_times[:, 0] < 0.0).any():
        raise UnsortedInput("input event before t = 0")


def simulate_batch(
    net: Network,
    in_neurons: np.ndarray,
    in_times: np.ndarray,
    m: int,
    t_max: float,
) -> EventTrace:
    """Run B independent event loops of at most m iterations over shared weights."""
    if m <= 0:
        raise InvalidBudget(f"event budget m={m} must be positive")
    if not t_max > 0.0:
        raise InvalidParameter(f"t_max={t_max} must be positive")
    p = net.params
    n = net.n_total
    in_neurons = np.asarray(in_neurons, dtype=np.int64)
    in_times = np.asarray(in_times, dtype=np.float64)
    b, k_in = in_times.shape
    check_input_rows(net, in_neurons, in_times)
    fan = net.fan_out
    null = fan.null
    # each stacked source as a trace record: its neuron or channel, and kind
    neuron_of = np.concatenate([np.arange(n), np.arange(net.n_in), [DUMMY_NEURON]])
    kind_of = np.full(null + 1, int(SpikeKind.INPUT), dtype=np.int8)
    kind_of[:n] = int(SpikeKind.INTERNAL)
    kind_of[null] = int(SpikeKind.DUMMY)

    # a time beyond its row's limit ends the row; inf does so even at
    # t_max = inf, and a row's limit drops to -inf once it is loss-complete
    lim = np.full(b, min(t_max, np.finfo(np.float64).max))
    # the columns of a row: its K inputs, its N neurons, then its limit
    width = k_in + n + 1
    stop = width - 1
    tc = np.empty((b, width))
    tc[:, :k_in] = in_times
    # every row starts at rest, so one lane at rest gives every first crossing
    tc[:, k_in:stop] = next_crossing_safe(np.zeros(1), np.zeros(1), p)
    tc[:, stop] = lim
    # intp, the index type: a gather by an int32 index first converts it
    src_of = np.empty((b, width), dtype=np.intp)
    src_of[:, :k_in] = np.where(np.isfinite(in_times), in_neurons + n, null)
    src_of[:, k_in:stop] = np.arange(n)
    src_of[:, stop] = null
    v = np.zeros((b, width))
    i = np.zeros((b, width))
    tref = np.zeros((b, width))
    # flat views: column c of row r is entry r * width + c
    tc_f, v_f, i_f, tref_f, src_f = (a.reshape(-1) for a in (tc, v, i, tref, src_of))
    base = np.arange(b) * width
    lane0 = base + k_in
    # each neuron's own fan-out entry, the lane its spike resets
    own = np.zeros(fan.lanes.size, dtype=bool)
    own[fan.start[:n]] = True
    # the outputs each row has seen fire, one bit per output; beyond 63
    # outputs the bits are Python ints, which have no width
    n_out = len(net.output_set)
    bit = np.zeros(null + 1, dtype=np.int64 if n_out <= 63 else object)
    bit[list(net.output_set)] = [1 << k for k in range(n_out)]
    full = (1 << n_out) - 1
    seen = np.zeros(b, dtype=bit.dtype)

    # slot k of every row, kept as (m, B) rows: the stacked source of its
    # event (null once the row is done) and its time; only the slots run
    # are read
    src_k = np.empty((m, b), dtype=np.intp)
    time_k = np.empty((m, b))
    k0 = 0
    if k_in and b:
        # no lane at rest crosses: a row's first input, or its limit
        k0 = 1
        t_next = in_times[:, 0]
        src = np.where(t_next <= lim, src_of[:, 0], null)
        src_k[0] = src
        time_k[0] = t_next
        tc[src != null, 0] = np.inf
        # the touched lanes, all at rest, get (+0.0, w, t, t + c0[w])
        entry0 = fan.start[n]  # the input entries follow the neurons'
        c0 = next_crossing_safe(np.zeros(fan.lanes.size - entry0), fan.weights[entry0:], p)
        pos, cnt = csr_entries(fan.start, fan.count, src)
        lanes = fan.lanes[pos] + lane0.repeat(cnt)
        tn = t_next.repeat(cnt)
        i_f[lanes] = fan.weights[pos]
        tref_f[lanes] = tn
        tc_f[lanes] = tn + c0[pos - entry0]
    ran = m
    for k in range(k0, m):
        # one argmin per row: inputs first on an exact tie, then the lowest
        # neuron, then the limit
        at = base + tc.argmin(axis=1)
        src = src_f[at]
        if src.min(initial=null) == null:
            ran = k
            break
        t_next = tc_f[at]
        src_k[k] = src
        time_k[k] = t_next
        # a taken input is consumed; a taken crossing is re-solved below
        tc_f[at] = np.inf

        # the flat fan-out lanes of every row; a spiking neuron's own comes first
        pos, cnt = csr_entries(fan.start, fan.count, src)
        lanes = fan.lanes[pos] + lane0.repeat(cnt)
        tn = t_next.repeat(cnt)
        vv, ii = propagate_arrays(v_f[lanes], i_f[lanes], tn - tref_f[lanes], p)
        vv[own[pos]] = p.v_reset
        ii += fan.weights[pos]
        v_f[lanes] = vv
        i_f[lanes] = ii
        tref_f[lanes] = tn
        tc_f[lanes] = tn + next_crossing_safe(vv, ii, p)
        if n_out:
            seen |= bit[src]
            lim[seen == full] = -np.inf
        # after tc_f[at] = inf, which also hit the limit column of each done row
        tc[:, stop] = lim

    src = src_k[:ran].T
    neurons = np.full((b, m), DUMMY_NEURON, dtype=neuron_of.dtype)
    times = np.full((b, m), np.inf)
    kinds = np.full((b, m), int(SpikeKind.DUMMY), dtype=np.int8)
    neurons[:, :ran] = neuron_of[src]
    times[:, :ran] = np.where(src == null, np.inf, time_k[:ran].T)
    kinds[:, :ran] = kind_of[src]
    return EventTrace(neurons, times, kinds)


def simulate(net: Network, inputs: Sequence[Spike], m: int, t_max: float) -> EventTrace:
    """Event-driven forward pass of one sample: row 0 of ``simulate_batch``.

    Exactly m trace slots, dummies trailing.  Inputs must be sorted by time.
    The row stops at t_max, at the budget or once every output has fired,
    whichever comes first; inputs after the stop are not read.
    """
    # a dummy packs to the (-1, inf) padding, which the row check accepts
    if any(s.is_dummy for s in inputs):
        raise InvalidParameter("dummy spikes are not valid inputs")
    idx, times = pack_inputs([inputs])
    return simulate_batch(net, idx[:, :-1], times[:, :-1], m, t_max)[0]
