"""Gradient estimation from event traces.

Two estimators:

* ``eventprop_backward_batch`` runs the EventProp adjoint pair
  (lambda_v, lambda_i) backward through the trace.  Between events the pair
  follows a closed-form linear flow, so each lane keeps it as two
  coefficients (D, Q) in an exponential frame anchored at a time A:

      lambda_v(t) = D e^{(t-A)/tau_m}
      lambda_i(t) = kappa D e^{(t-A)/tau_m} + Q e^{(t-A)/tau_s},
      kappa = 1 / (tau_s (1/tau_s - 1/tau_m)),

  or lambda_i(t) = (Q - D (t-A)/tau_s) e^{(t-A)/tau_s} when tau_m = tau_s.
  Free flow leaves (D, Q) unchanged and costs nothing.  At an internal spike
  of neuron j, lambda_v of j is set to the loss derivative for that spike
  time, plus the transfer of the downstream adjoints through j's weight
  row, plus lambda_v (I - v_reset/tau_m), all over dV/dt at the crossing.
  The jump reads only j's fan-out lanes (``Network.fan_out``) and rewrites
  only j's (D, Q), keeping lambda_i continuous.  Every event of presynaptic
  j adds -tau_s lambda_i(t) to row j of its weight gradient, on the lanes
  of a gradient support only.  Training passes the mask of the weights it
  updates, so in a feedforward net a hidden spike adds to its output lanes,
  an input spike to the hidden ones and an output spike to none.  Without a
  support the row covers every lane, because the gradient of a weight that
  is zero today is still defined and the finite-difference tests check it;
  a support's result equals that full gradient times the mask exactly.
  Either way the row costs a few multiplications by per-row frame factors
  and no exp per lane.

  So a lane's (D, Q) is piecewise constant between its own spikes, and on
  a net whose internal weights form no cycle a jump reads only lanes of a
  lower level (``Network.levels``: the outputs are level 0).  The backward
  therefore goes level by level from the outputs, with a short recurrence
  over each neuron's own spikes, and reads a lane's state at any slot from
  a table of the lanes' spikes; no loop runs over the trace's slots.  A
  net with a cycle raises ``InvalidParameter``.  The binding contract is
  agreement with central finite differences of the loss under the ideal
  event-driven dynamics.

* The analytic Fast & Deep path (Göltz et al. 2021), for tau_mem =
  2 tau_syn only, works on the first spike times of a feedforward net.
  ``fud_first_spike_times`` solves a layer's first crossings in closed form:
  without a reset before the first spike the membrane is linear in the
  inputs, so the state at every inter-input interval comes from prefix sums
  over the time-sorted inputs.  Each crossing call solves all intervals of
  a block of postsynaptic neurons for a chunk of rows, at most
  LANES_PER_CALL lanes (one row's intervals of one neuron, if that is
  more).  ``fud_feedforward_grads`` differentiates the crossing condition
  implicitly, layer by layer, with one exp per causal delay.

EventProp consumes only the trace plus weights: synaptic currents at spike
times are reconstructed by replaying the trace through the current dynamics,
in the same kind of frame (i(t) = c e^{-(t-A)/tau_s}) and level by level like
the backward, with no loop over slots, so a foreign (hardware/replay) trace
takes the identical code path.

A single anchor per row would overflow e^{|t-A|/tau} on long traces, so the
anchor of an event is the start of its time window of ANCHOR_WINDOW times
the shorter time constant; when a row moves to another window its
coefficients are rescaled by a factor of at most 1.
"""
from __future__ import annotations

import numpy as np

from .core import EventTrace, InvalidParameter, Network, SpikeKind, UnsupportedTauRatio
from .core import csr_entries
from .lif import next_crossing_safe, propagate_arrays

# |dV/dt| below this at a spike counts as a degenerate (grazing) crossing
EPS_VDOT = 1e-6
# frame anchors sit on a grid of this many shorter time constants, which
# bounds every frame factor by e^ANCHOR_WINDOW
ANCHOR_WINDOW = 100.0
# most (row, interval, neuron) lanes in one crossing call of the analytic
# forward; a 5-120-3 training batch of 64 rows (7680 lanes a block) fits whole
LANES_PER_CALL = 8192
# the backward takes its rows in chunks of at most this many support and
# fan-out entries, which bounds its memory however wide the rows are; a
# 5-120-3 training batch of 64 rows takes about 6 chunks under the training
# masks, a replayed row one
PLAN_ENTRIES = 1 << 14


class DegenerateCrossing(RuntimeError):
    """A spike with |dV/dt| < EPS_VDOT makes the adjoint jump ill-defined."""


def _anchor(t, params):
    """Start of the frame window that time t falls in."""
    width = ANCHOR_WINDOW * min(params.tau_mem, params.tau_syn)
    return np.floor(t / width) * width


def _stacked_source(neurons, kinds, net: Network):
    """Row of each slot's source in the stacked weights [w; w_in; 0]:
    neuron j -> j, input channel c -> N + c, a dummy -> the zero row."""
    n = net.n_total
    return np.where(
        kinds == int(SpikeKind.INTERNAL),
        neurons,
        np.where(kinds == int(SpikeKind.INPUT), n + neurons, n + net.n_in),
    )


def reconstruct_currents_batch(neurons, times, kinds, net: Network):
    """Replay trace transitions through the current dynamics only.

    Returns (B, m) with the spiking neuron's synaptic current just before
    each internal event (zero for input/dummy slots), and the time t_end of
    each row's last event (0 for an empty row).  A real slot's time that is
    not finite or precedes the row's previous event raises
    ``InvalidParameter``, and so does a cyclic net (``Network.levels``).

    Each row keeps its currents as coefficients c in the frame
    i(t) = c e^{-(t-A)/tau_s}: an event at t_e adds w e^{(t_e-A)/tau_s} to
    the c of each lane it drives, and a spiking neuron's current is
    c_j e^{-(t_e-A)/tau_s}.  Currents are never reset, so c is the running
    sum of the row's adds in slot order.  Level by level
    (``Network.levels``), the row's events that drive a level fill one
    (1 + K, B, H) block, row 0 the carry and row p the adds of the p-th,
    and ``np.cumsum`` along the events, a left fold in slot order like the
    slot loop's, gives c after each.  A spike of the level reads it at its
    row's count of driving events before it: no neuron drives its own
    level.  The sum runs per anchor window (see the module docstring); a
    window's carry is the last c of the window before, scaled by
    e^{-(A'-A)/tau_s} <= 1.
    """
    b, m = times.shape
    ts = net.params.tau_syn
    level = net.levels
    active = kinds != int(SpikeKind.DUMMY)
    if not np.all(np.isfinite(times) | ~active):
        raise InvalidParameter("trace times must be finite on real slots")
    # seen[:, k]: time of the row's last real event before slot k (0 if none)
    last = np.maximum.accumulate(np.where(active, np.arange(m), -1), axis=1)
    seen = np.where(last >= 0, np.take_along_axis(times, np.maximum(last, 0), axis=1), 0.0)
    seen = np.concatenate([np.zeros((b, 1)), seen], axis=1)
    if np.any(active & (times - seen[:, :-1] < -1e-12)):
        raise InvalidParameter("trace times must be non-decreasing")
    t_end = seen[:, -1]

    # a dummy slot keeps the row's time and anchor and drives no lane; per
    # slot, u = (t-A)/tau_s and the anchor's move A' - A on entering it
    anchor = _anchor(seen, net.params)
    u = (seen[:, 1:] - anchor[:, 1:]) / ts
    move = anchor[:, 1:] - anchor[:, :-1]
    del last, seen, anchor  # freed before the level loop, which holds the peak
    # each slot's window, counted from the row's first
    window = np.cumsum(move != 0.0, axis=1)
    src = _stacked_source(neurons, kinds, net)
    internal = kinds == int(SpikeKind.INTERNAL)
    spike_level = np.where(internal, level[np.where(internal, neurons, 0)], -1)
    rows = np.arange(b)
    out = np.zeros((b, m))
    for lev in range(int(level.max(initial=-1)) + 1):
        in_level = level == lev
        cols = np.flatnonzero(in_level)
        # the stacked weights [w; w_in; 0] into the level's neurons
        w_lev = np.vstack([net.weights, net.input_weights, np.zeros((1, net.n_total))])[:, cols]
        drives = (w_lev != 0.0).any(axis=1)[src]
        reads = spike_level == lev
        carry = np.zeros((b, cols.size))
        for win in range(int(window[reads].max(initial=-1)) + 1):
            here = window == win
            if win:  # the last c of the window before, moved by e^{-(A'-A)/tau_s}
                enter = np.exp(-(move * here).sum(axis=1) / ts)  # one nonzero move
                carry = block[count[:, -1], rows] * enter[:, None]
            # with e = r m + k the flat (row, slot) index, count.take(e): the
            # row's driving events of the window up to slot k
            drv = drives & here
            count = np.cumsum(drv, axis=1)
            block = np.zeros((1 + int(count[:, -1].max()), b, cols.size))
            block[0] = carry
            e = np.flatnonzero(drv)
            add = w_lev.take(src.take(e), axis=0)
            add *= np.exp(u.take(e))[:, None]
            block.reshape(-1, cols.size)[count.take(e) * b + e // m] = add
            del add  # before the next block is allocated
            np.cumsum(block, axis=0, out=block)
            e = np.flatnonzero(reads & here)
            col = (np.cumsum(in_level) - 1).take(neurons.take(e))
            at = (count.take(e) * b + e // m) * cols.size + col
            out.reshape(-1)[e] = block.take(at) * np.exp(-u.take(e))
    return out, t_end


def replay_state(neurons, times, kinds, net: Network, t_max: float):
    """Final (v, i, t) of each row of a (B, m) trace, replayed under the
    ideal dynamics from rest at t = 0 to max(t_max, last event).

    The free flow is linear in (v, i), so its coefficients over every gap
    come from ``propagate_arrays`` in one call before the loop.  The state
    carries a sentinel lane n: a slot that is not an internal event resets
    it instead, and a dummy slot adds the zero row of [w; w_in; 0].
    """
    p = net.params
    b, m = times.shape
    n = net.n_total
    real = kinds != int(SpikeKind.DUMMY)
    seen = np.maximum.accumulate(np.where(real, times, 0.0), axis=1)
    dt = np.diff(seen, axis=1, prepend=0.0)
    v_from_v, _ = propagate_arrays(1.0, 0.0, dt, p)
    v_from_i, i_from_i = propagate_arrays(0.0, 1.0, dt, p)
    # per slot k, (B, 1) columns and flat lane indices
    vv, vi, ii = (np.ascontiguousarray(c.T)[..., None] for c in (v_from_v, v_from_i, i_from_i))
    lane = np.where(kinds == int(SpikeKind.INTERNAL), neurons, n)
    reset = (lane + (n + 1) * np.arange(b)[:, None]).T.copy()
    src = _stacked_source(neurons, kinds, net).T.copy()
    wstack = np.zeros((n + net.n_in + 1, n + 1))
    wstack[:n, :n] = net.weights
    wstack[n : n + net.n_in, :n] = net.input_weights
    v = np.zeros((b, n + 1))
    i = np.zeros((b, n + 1))
    v_flat = v.reshape(-1)
    for k in range(int(np.flatnonzero(real.any(axis=0)).max(initial=-1)) + 1):
        v *= vv[k]
        v += i * vi[k]
        i *= ii[k]
        v_flat[reset[k]] = p.v_reset
        i += wstack[src[k]]
    t = seen[:, -1]
    v, i = propagate_arrays(v[:, :n], i[:, :n], np.maximum(t_max - t, 0.0)[:, None], p)
    return v, i, np.maximum(t_max, t)


def _adjoint_coefficients(times, kinds, currents, net: Network, loss_grads, strict, vdot_floor):
    """Everything the adjoint uses that does not depend on the adjoint, from
    the trace's ``currents``, the pair ``reconstruct_currents_batch`` returns.

    In the frame of slot k (anchor A, e_m = e^{(t-A)/tau_m}) a lane with
    coefficients (D, Q) has lambda_v = D e_m, its gradient row -tau_s
    lambda_i is a_v D + a_q Q, and lambda_v - lambda_i = t_v D + t_q Q.  A
    jump of the spiking neuron j sets D_j = (transfer + gain D_j + loss)
    * scale, where transfer sums t_v D + t_q Q over j's fan-out weighted by
    j's weights, and keeps lambda_i by Q_j += s_q (D_old - D_new).

    Returns coef (8, B, m), the planes of a_v, a_q, t_v, t_q, gain, loss,
    scale and s_q at each (row, slot); shift (B, m), the anchor change
    A' - A <= 0 on entering each slot; and to_window(D, Q, shift), which
    re-expresses (D, Q) in the new frame.
    """
    p = net.params
    b, m = times.shape
    ts, tm = p.tau_syn, p.tau_mem
    i_rec, t_end = currents
    internal = kinds == int(SpikeKind.INTERNAL)
    vdot = i_rec - p.v_th / tm
    ok = np.abs(vdot) >= EPS_VDOT
    if strict and np.any(internal & ~ok):
        raise DegenerateCrossing(
            f"|dV/dt| = {np.abs(vdot[internal]).min():.3g} < {EPS_VDOT} at a spike"
        )
    if vdot_floor > 0.0:
        vdot = np.sign(vdot) * np.maximum(np.abs(vdot), vdot_floor)

    # frame time of slot k: the row's next real event at or after k (t_end
    # past its last one), so a dummy slot leaves time and anchor unchanged
    real = kinds != int(SpikeKind.DUMMY)
    nxt = np.minimum.accumulate(np.where(real, np.arange(m), m)[:, ::-1], axis=1)[:, ::-1]
    t_frame = np.take_along_axis(times, np.minimum(nxt, m - 1), axis=1)
    t_frame = np.concatenate([np.where(nxt < m, t_frame, t_end[:, None]), t_end[:, None]], axis=1)
    anchor = _anchor(t_frame, p)
    u = t_frame[:, :-1] - anchor[:, :-1]

    coef = np.empty((8, b, m))
    a_v, a_q, t_v, t_q, gain, loss, scale, s_q = coef
    if p.is_equal_tau:
        x = u / ts
        e_m = np.exp(x)
        a_v[...], a_q[...] = ts * x * e_m, -ts * e_m
        t_v[...], t_q[...] = e_m * (1.0 + x), -e_m
        s_q[...] = -x

        def to_window(d, q, sh):
            f = np.exp(sh / ts)
            return f * d, f * (q - d * sh / ts)
    else:
        kappa = 1.0 / (ts * (1.0 / ts - 1.0 / tm))
        e_m, e_s = np.exp(u / tm), np.exp(u / ts)
        a_v[...], a_q[...] = -ts * kappa * e_m, -ts * e_s
        t_v[...], t_q[...] = (1.0 - kappa) * e_m, -e_s
        s_q[...] = kappa * e_m / e_s

        def to_window(d, q, sh):
            return np.exp(sh / tm) * d, np.exp(sh / ts) * q
    gain[...] = e_m * (i_rec - p.v_reset / tm)
    loss[...] = np.where(internal, loss_grads, 0.0)
    scale[...] = np.where(internal & ok, 1.0 / np.where(ok, vdot, 1.0), 0.0) / e_m
    return coef, anchor[:, :-1] - anchor[:, 1:], to_window


def _support_rows(net: Network, support):
    """The gradient support as stacked boolean rows [w; w_in; null]."""
    n = net.n_total
    keep = np.zeros((n + net.n_in + 1, n), dtype=bool)
    if support is None:
        keep[:-1] = True
        return keep
    masks = [np.asarray(s) for s in support]
    shapes = [net.weights.shape, net.input_weights.shape]
    if [s.shape for s in masks] != shapes:
        raise InvalidParameter(
            f"support shapes {[s.shape for s in masks]} != weight shapes {shapes}"
        )
    keep[:n] = masks[0] != 0
    keep[n:-1] = masks[1] != 0
    return keep


def eventprop_backward_batch(
    neurons,
    times,
    kinds,
    net: Network,
    loss_grads,
    strict: bool = False,
    vdot_floor: float = 0.0,
    support=None,
):
    """Batched adjoint backward pass; returns gradients summed over the batch.

    ``loss_grads`` is (B, m): the derivative of the loss with respect to each
    trace slot's spike time (zero for slots the loss ignores).  Only an
    internal spike has a time the loss can read, so a nonzero derivative on
    an input or dummy slot raises ``InvalidParameter``.  So does a net whose
    internal weights form a cycle (``Network.levels``).

    ``vdot_floor`` > 0 bounds the 1/dV/dt jump scale during training: a
    near-grazing crossing otherwise injects an arbitrarily large, noisy
    contribution whose true value is ill-conditioned anyway.  The default 0
    keeps the estimator exact.

    ``support`` is a pair of 0/1 masks shaped like (weights, input_weights);
    the gradient is computed on its nonzero entries and is zero elsewhere.
    None means every entry, including weights that are zero today: their
    gradient is defined, and the finite-difference tests check it.  The
    result on a support equals the full-support result times the mask.

    Everything that does not depend on the adjoint is computed for all
    slots first (``_adjoint_coefficients``).  A lane's (D, Q) changes only
    at its own spikes, so its state at slot k is the state just after the
    jump of its first spike after k, moved into slot k's frame by
    ``to_window``, or zero if it has none.  A row's adjoint is zero after
    its last loss derivative, so only the events up to it take part.  The
    rows go in chunks of at most PLAN_ENTRIES entries (more only for a
    single row that has more), counting each event's support entries and
    each spike's fan-out entries.  In a chunk the internal spikes are
    sorted by (row, neuron, slot), and the neurons are visited level by
    level, from the outputs (level 0) up:

    * each spike's jump gathers its fan-out lanes' states at its slot
      (``core.csr_entries`` over ``Network.fan_out``, the neuron's own
      entry skipped: its weight is zero in an acyclic net), all of a lower
      level and so done already, and sums its transfer in fan-out order;
    * a recurrence over each (row, neuron)'s own spikes then runs from its
      last spike down, one round per spike, reading the state after the
      neuron's next spike.

    Every event's gradient row then reads each support lane's state at its
    slot.  The chunk's spikes sit in a table lane by lane, in slot order,
    each lane closed by an end entry of zero state, so a lookup starts at
    the lane's first entry and steps past those at or before the slot, one
    step per spike: a neuron spikes a few times in a row.  The
    gradient entries are added to the accumulator over the support with
    ``np.add.at``, one by one in (row, slot, lane) order, so each weight's
    sum is one left fold in that order whatever the chunks are, and a
    support's result is the full one times the mask bit for bit.
    """
    b, m = times.shape
    n = net.n_total
    loss_grads = np.asarray(loss_grads, dtype=np.float64)
    if loss_grads.shape != (b, m):
        raise InvalidParameter(f"loss_grads shape {loss_grads.shape} != trace shape {(b, m)}")
    if not np.all(np.isfinite(loss_grads)):
        raise InvalidParameter("loss_grads must be finite")
    internal = kinds == int(SpikeKind.INTERNAL)
    misplaced = np.argwhere((loss_grads != 0.0) & ~internal)
    if misplaced.size:
        r, k = misplaced[0]
        raise InvalidParameter(
            f"loss_grads[{r}, {k}] = {loss_grads[r, k]:.6g} is on a "
            f"{SpikeKind(kinds[r, k]).name.lower()} slot; only internal spikes take one"
        )
    level = net.levels
    keep = _support_rows(net, support)
    coef, shift, to_window = _adjoint_coefficients(
        times, kinds, reconstruct_currents_batch(neurons, times, kinds, net), net,
        loss_grads, strict, vdot_floor,
    )
    # coefficient c of event e = r m + k (row r, slot k) is coef[c, e]
    coef = coef.reshape(8, -1)
    # frame[r, k]: the anchor of slot k's frame less that of the row's end
    frame = np.ascontiguousarray(np.cumsum(shift[:, ::-1], axis=1)[:, ::-1])

    has_loss = loss_grads != 0.0
    last = np.where(has_loss.any(axis=1), m - 1 - np.argmax(has_loss[:, ::-1], axis=1), -1)
    live = (kinds != int(SpikeKind.DUMMY)) & (np.arange(m) <= last[:, None])
    fan = net.fan_out
    sources = np.where(live, _stacked_source(neurons, kinds, net), fan.null)

    # support entry e is flat[e] of the stacked rows; its lane is flat[e] % N
    flat = np.flatnonzero(keep)
    s_count = keep.sum(axis=1)
    s_start = np.cumsum(s_count) - s_count
    lane_of = flat % n
    # a jump reads a neuron's fan-out less its own entry, listed first
    j_start, j_count = fan.start[:n] + 1, fan.count[:n] - 1
    # a row's entries: its events' support entries and its spikes' fan-out
    # entries, each spike's own entry standing for the spike
    jumps = np.where(sources < n, sources, fan.null)
    per_row = (s_count[sources] + fan.count[jumps]).sum(axis=1)
    acc = np.zeros(flat.size)
    for lo, hi in _row_chunks(per_row):
        # the chunk's events e in (row, slot) order: row in the chunk, slot,
        # source and frame
        e = np.flatnonzero(live[lo:hi]) + lo * m
        r, k = np.divmod(e, m)
        r -= lo
        src, f = sources.take(e), frame.take(e)
        multi = bool(f.any())  # else every frame is its row's last
        # The lane table lists lane by lane (row r and neuron L of the chunk
        # make lane r N + L) the lane's spikes in slot order, then an end
        # entry at slot m, with their post-jump (D, Q) and frames; the end
        # entry's are zero.  A lane's state at slot k is that of its first
        # entry past k.
        sp = np.flatnonzero(src < n)
        group = r[sp] * n + src[sp]
        order = np.argsort(group, kind="stable")
        sp, group = sp[order], group[order]
        size = np.bincount(group, minlength=(hi - lo) * n) + 1
        first = np.cumsum(size) - size
        at = np.arange(sp.size) + group  # spike i follows `group` end entries
        slot_of = np.full(sp.size + size.size, m)
        slot_of[at] = k[sp]
        d_post, q_post, f_post = (np.zeros(slot_of.size) for _ in range(3))
        f_post[at] = f[sp]

        def state_at(lane, slot, at_frame):
            i = first.take(lane)
            todo = np.flatnonzero(slot_of.take(i) <= slot)
            while todo.size:
                i[todo] += 1
                todo = todo[slot_of.take(i[todo]) <= slot.take(todo)]
            d, q = d_post.take(i), q_post.take(i)
            return to_window(d, q, at_frame - f_post.take(i)) if multi else (d, q)

        # a spike's state follows from its lane's next entry, at + 1; rank
        # counts the spikes after it in its lane
        rank = (first + size - 2)[group] - at
        # the spikes by level, then by rank: each level's rounds in order
        sp_level = level[src[sp]]
        by_level = np.argsort(sp_level * (sp.size + 1) + rank, kind="stable")
        done_lv = 0
        for lev, cut_lv in enumerate(np.cumsum(np.bincount(sp_level)).tolist()):
            lv = by_level[done_lv:cut_lv]
            done_lv = cut_lv
            ev = sp[lv]
            transfer = np.zeros(lv.size)
            if lev:  # a neuron of level 0 has no internal fan-out
                pos, cnt, _ = csr_entries(j_start, j_count, src[ev])
                ev_e = np.repeat(ev, cnt)
                d, q = state_at(
                    r.take(ev_e) * n + fan.lanes[pos], k.take(ev_e),
                    f.take(ev_e) if multi else None,
                )
                d *= np.repeat(coef[2].take(e[ev]), cnt)  # t_v D
                q *= np.repeat(coef[3].take(e[ev]), cnt)  # t_q Q
                d += q
                d *= fan.weights[pos]
                transfer = np.bincount(np.repeat(np.arange(lv.size), cnt), d, lv.size)
            p = at[lv]
            p_next = p + 1
            gain, loss, scale, s_q = coef[4:].take(e[ev], axis=1)
            done = 0
            for cut in np.cumsum(np.bincount(rank[lv])).tolist():
                now = slice(done, cut)
                done = cut
                pn, pn_next = p[now], p_next[now]
                d_j, q_j = d_post.take(pn_next), q_post.take(pn_next)
                if multi:
                    d_j, q_j = to_window(d_j, q_j, f_post[pn] - f_post[pn_next])
                # d_new = (transfer + gain d_j + loss) scale and
                # q = q_j + s_q (d_j - d_new), in place
                d_new = gain[now] * d_j
                d_new += transfer[now]
                d_new += loss[now]
                d_new *= scale[now]
                d_post[pn] = d_new
                d_j -= d_new
                d_j *= s_q[now]
                q_j += d_j
                q_post[pn] = q_j
        # every event's gradient row over its support lanes
        pos, cnt, _ = csr_entries(s_start, s_count, src)
        lane = lane_of.take(pos)
        lane += np.repeat(r * n, cnt)
        d, q = state_at(lane, np.repeat(k, cnt), np.repeat(f, cnt) if multi else None)
        d *= np.repeat(coef[0].take(e), cnt)  # a_v D
        q *= np.repeat(coef[1].take(e), cnt)  # a_q Q
        d += q
        np.add.at(acc, pos, d)
    grad = np.zeros(keep.size)
    grad[flat] = acc
    grad = grad.reshape(keep.shape)
    return grad[:n], grad[n:-1]


def _row_chunks(per_row):
    """(lo, hi) row ranges of at most PLAN_ENTRIES entries each, by
    ``per_row``; a row with more stands alone."""
    chunks, lo, total = [], 0, 0
    for r, count in enumerate(per_row.tolist()):
        if total + count > PLAN_ENTRIES and r > lo:
            chunks.append((lo, r))
            lo, total = r, 0
        total += count
    if per_row.size:
        chunks.append((lo, per_row.size))
    return chunks


def eventprop_backward(
    trace: EventTrace,
    net: Network,
    loss_grads,
    strict: bool = True,
    support=None,
):
    """Adjoint backward pass for a one-sample trace; returns (grad_w, grad_w_in)."""
    return eventprop_backward_batch(
        trace.neurons[None, :],
        trace.times[None, :],
        trace.kinds[None, :],
        net,
        np.asarray(loss_grads)[None],
        strict=strict,
        support=support,
    )


# ---------------------------------------------------------------------------
# Fast-and-Deep analytic path (tau_mem = 2 tau_syn): spike times of a
# first-spike network are closed-form roots, so their derivatives follow from
# implicit differentiation of the crossing condition
#   sum_j w_j * h(T - t_j) = v_th,  h(s) = 2 ts (e^{-s/(2 ts)} - e^{-s/ts}).
# With x = e^{-s/(2 ts)}, h = 2 ts (x - x^2) and dh/ds = x (2x - 1), so one
# exp per delay gives both.


def _interval_frames(t, params, t_max):
    """Per-row interval geometry and frame factors of sorted input times.

    Returns (B, K, 1) arrays: ``start``, the start T of interval k (the
    time of input k, the row's last input time on padding), and ``bound``:
    a crossing at c spikes if c < bound, that is before the next input and
    at or before t_max.  ``frames`` holds, per window a of the inputs'
    anchors, each input's growth e^{(t_j-a)/tau} (0 outside the window)
    and the decay e^{(min(a, A)-T)/tau} <= 1 that takes a sum in frame a to
    the state at T (A = T's anchor; the sum is 0 where a > A), for tau_s
    and tau_m.
    """
    b = t.shape[0]
    real = np.isfinite(t)
    start = np.maximum.accumulate(np.where(real, t, -np.inf), axis=1)
    start = np.where(np.isfinite(start), start, 0.0)
    anchor = _anchor(start, params)
    end = np.concatenate([t[:, 1:], np.full((b, 1), np.inf)], axis=1)
    bound = np.minimum(end, np.nextafter(t_max, np.inf))
    frames = []
    for a in np.unique(anchor[real]):
        u = np.where(real & (anchor == a), t - a, -np.inf)[:, :, None]
        d = (np.minimum(anchor, a) - start)[:, :, None]
        frames.append(
            tuple(np.exp(x / tau) for x in (u, d) for tau in (params.tau_syn, params.tau_mem))
        )
    return start[:, :, None], bound[:, :, None], frames


def fud_first_spike_times(
    in_neurons: np.ndarray,
    in_times: np.ndarray,
    weights: np.ndarray,
    params,
    t_max: float,
) -> np.ndarray:
    """First threshold crossings of one layer of neurons, no reset applied.

    ``in_neurons``/``in_times`` are (B, K) per-sample presynaptic ids and
    sorted arrival times (+inf / -1 padding); ``weights`` is (n_pre, H).
    Returns (B, H) crossing times, +inf where a neuron stays silent up to
    t_max.  Only the first crossing matters in a first-spike code, so the
    membrane keeps evolving freely past threshold.

    Interval k runs from input k to input k + 1 (+inf after the row's last
    input).  Without a reset the membrane is linear in the inputs, so the
    state at the start T of interval k comes from prefix sums over the inputs
    j <= k, in the frame of T's anchor A (``_anchor``):

        i = e^{-(T-A)/tau_s} sum_j w_j e^{(t_j-A)/tau_s},
        v = 2 tau_s (e^{-(T-A)/tau_m} sum_j w_j e^{(t_j-A)/tau_m} - i).

    Inputs are summed per anchor window, so no factor exceeds
    e^ANCHOR_WINDOW, and a window's sum reaches a later interval's state
    through a factor of at most 1 (``_interval_frames``).  The postsynaptic
    neurons are solved in blocks of max(1, min(H, LANES_PER_CALL) // K) and
    the rows in chunks of max(1, LANES_PER_CALL // (K block)) (``_call_shape``):
    each chunk's (rows, K, block) interval lanes take one
    ``next_crossing_safe`` call, so a call covers at most
    max(LANES_PER_CALL, K) lanes however large B is.  Every row's arithmetic
    is the same in any chunk.  A lane spikes in its first interval whose
    crossing lies strictly before the next input and at or before t_max;
    crossings of later intervals come later, so that is the earliest such
    crossing.
    """
    if not params.is_double_tau:
        raise UnsupportedTauRatio("the analytic forward requires tau_mem = 2 tau_syn")
    ts = params.tau_syn
    t = np.asarray(in_times, dtype=np.float64)
    b, kk = t.shape
    n_pre, n_post = weights.shape
    out = np.full((b, n_post), np.inf)
    if kk == 0:
        return out
    start, bound, frames = _interval_frames(t, params, t_max)
    ids = np.clip(in_neurons, 0, n_pre - 1)
    block, chunk = _call_shape(kk, n_post)
    for r in range(0, b, chunk):
        rows = slice(r, r + chunk)
        for lo in range(0, n_post, block):
            w = weights[:, lo : lo + block][ids[rows]]
            # i0: the current at T; i_m: the same sums decayed with tau_m
            i0 = i_m = 0.0
            for grow_s, grow_m, decay_s, decay_m in frames:
                i0 = i0 + np.cumsum(w * grow_s[rows], axis=1) * decay_s[rows]
                i_m = i_m + np.cumsum(w * grow_m[rows], axis=1) * decay_m[rows]
            cross = start[rows] + next_crossing_safe(2.0 * ts * (i_m - i0), i0, params)
            out[rows, lo : lo + block] = np.min(
                cross, axis=1, initial=np.inf, where=cross < bound[rows]
            )
    return out


def _call_shape(kk, n_post):
    """Neurons per block and rows per chunk of one crossing call over K = kk
    intervals: max(1, min(H, LANES_PER_CALL) // K) neurons and as many rows
    as keep the call's rows x K x block lanes within LANES_PER_CALL."""
    block = max(1, min(n_post, LANES_PER_CALL) // kk)
    return block, max(1, LANES_PER_CALL // (kk * block))


def fud_feedforward(
    t_in_by_neuron: np.ndarray,
    w_in: np.ndarray,
    w_ho: np.ndarray,
    params,
    t_max: float,
):
    """Analytic first-spike forward pass of a 2-layer feedforward network.

    ``t_in_by_neuron`` is (B, n_in): the spike time of each input neuron.
    Returns hidden (B, H) and output (B, O) first-spike times, +inf where a
    neuron stays silent.
    """
    t_in = np.asarray(t_in_by_neuron, dtype=np.float64)
    order1 = np.argsort(t_in, axis=1, kind="stable").astype(np.int64)
    t1 = np.take_along_axis(t_in, order1, axis=1)
    t_h = fud_first_spike_times(order1, t1, w_in, params, t_max)
    order2 = np.argsort(t_h, axis=1, kind="stable").astype(np.int64)
    t2 = np.take_along_axis(t_h, order2, axis=1)
    t_o = fud_first_spike_times(order2, t2, w_ho, params, t_max)
    return t_h, t_o


def _layer_grads(t_pre, t_post, w, d_t_post, params, vdot_floor: float = 0.0):
    """Implicit-differentiation chain for one layer, batched.

    t_pre: (B, P) presynaptic spike times (may be +inf),
    t_post: (B, Q) first spike times of this layer,
    w: (P, Q), d_t_post: (B, Q) upstream dL/dT for each postsynaptic neuron.
    Returns (grad_w summed over batch (P, Q), dL/dt_pre (B, P)).
    """
    ts = params.tau_syn
    fin_post = np.isfinite(t_post)
    # x = (t_pre - t_post) / (2 tau_s) = -s / (2 tau_s) is < 0 exactly on the
    # causal pairs (a silent presynaptic time stays +inf, a silent
    # postsynaptic one becomes -inf); in place it then becomes
    # e^{-s/(2 tau_s)} there and 0 elsewhere
    x = np.subtract(t_pre[:, :, None], np.where(fin_post, t_post, -np.inf)[:, None, :])
    causal = x < 0.0
    x /= 2.0 * ts
    np.minimum(x, 0.0, out=x)
    np.exp(x, out=x)
    x *= causal
    x2 = x * x
    kernel = np.subtract(x, x2, out=x)  # h / (2 tau_s)
    kernel_dot = np.subtract(x2, kernel, out=x2)  # x (2x - 1)
    vdot = np.einsum("pq,bpq->bq", w, kernel_dot)
    if vdot_floor > 0.0:
        vdot = np.sign(vdot) * np.maximum(np.abs(vdot), vdot_floor)
    live = fin_post & (np.abs(vdot) >= EPS_VDOT)
    c = np.where(live, d_t_post / np.where(live, vdot, 1.0), 0.0)
    grad_w = np.einsum("bq,bpq->pq", -2.0 * ts * c, kernel)
    d_t_pre = np.einsum("bq,pq,bpq->bp", c, w, kernel_dot)
    return grad_w, d_t_pre


def fud_feedforward_grads(
    t_in_by_neuron: np.ndarray,
    t_h: np.ndarray,
    t_o: np.ndarray,
    w_in: np.ndarray,
    w_ho: np.ndarray,
    d_t_out: np.ndarray,
    params,
    vdot_floor: float = 0.0,
):
    """Batch-summed weight gradients of the analytic feedforward pass."""
    grad_ho, d_t_h = _layer_grads(t_h, t_o, w_ho, d_t_out, params, vdot_floor)
    grad_in, _ = _layer_grads(
        np.asarray(t_in_by_neuron, dtype=np.float64), t_h, w_in, d_t_h, params, vdot_floor
    )
    return grad_ho, grad_in
