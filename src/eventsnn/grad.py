"""Gradient estimation from event traces.

Two estimators share the trace-only interface:

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
  The jump reads only j's fan-out lanes (``sim.FanOut``) and rewrites only
  j's (D, Q), keeping lambda_i continuous.  Every event of presynaptic j
  adds -tau_s lambda_i(t) to row j of its weight gradient; that row stays
  dense on purpose, because the gradient of a weight that is zero today is
  still defined and the finite-difference tests check it.  It costs a few
  multiplications by per-row frame factors and no exp per lane.  The
  binding contract is agreement with central finite differences of the
  loss under the ideal event-driven dynamics.

* ``fud_spike_time_grad`` differentiates the closed-form first-crossing
  condition for tau_mem = 2 tau_syn directly (implicit differentiation of
  the quadratic crossing condition), giving exact spike-time derivatives for
  feedforward first-spike networks.

Both consume only the trace plus weights: synaptic currents at spike times
are reconstructed by replaying the trace through the current dynamics, in
the same kind of frame (i(t) = c e^{-(t-A)/tau_s}), so a foreign
(hardware/replay) trace takes the identical code path.

A single anchor per row would overflow e^{|t-A|/tau} on long traces, so the
anchor of an event is the start of its time window of ANCHOR_WINDOW times
the shorter time constant; when a row moves to another window its
coefficients are rescaled by a factor of at most 1.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .core import EventTrace, InvalidParameter, Network, Spike, SpikeKind
from .lif import propagate_arrays
from .sim import FanOut

# |dV/dt| below this at a spike counts as a degenerate (grazing) crossing
EPS_VDOT = 1e-6
# frame anchors sit on a grid of this many shorter time constants, which
# bounds every frame factor by e^ANCHOR_WINDOW
ANCHOR_WINDOW = 100.0


class DegenerateCrossing(RuntimeError):
    """A spike with |dV/dt| < EPS_VDOT makes the adjoint jump ill-defined."""


class NoSpike(RuntimeError):
    """The analytic path needs the target neuron to actually spike."""


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
    each internal event (zero for input/dummy slots), the final currents at
    each row's last event and that time t_end (0 for an empty row).

    Each row keeps its currents as coefficients c in the frame
    i(t) = c e^{-(t-A)/tau_s}, so decay between events costs nothing: an
    event at t_e adds its stacked weight row [w; w_in][src] e^{(t_e-A)/tau_s}
    and the spiking neuron's current is read as c_j e^{-(t_e-A)/tau_s}.  The
    anchor A moves with the row's time window (see the module docstring);
    on a window change c is scaled by e^{-(A'-A)/tau_s} <= 1.
    """
    b, m = times.shape
    n = net.n_total
    ts = net.params.tau_syn
    active = kinds != int(SpikeKind.DUMMY)
    # seen[:, k]: time of the row's last real event before slot k (0 if none)
    last = np.maximum.accumulate(np.where(active, np.arange(m), -1), axis=1)
    seen = np.where(last >= 0, np.take_along_axis(times, np.maximum(last, 0), axis=1), 0.0)
    seen = np.concatenate([np.zeros((b, 1)), seen], axis=1)
    if np.any(active & (times - seen[:, :-1] < -1e-12)):
        raise InvalidParameter("trace times must be non-decreasing")
    t_end = seen[:, -1]

    # a dummy slot keeps the row's time and anchor and adds the zero row
    anchor = _anchor(seen, net.params)
    grow = np.exp((seen[:, 1:] - anchor[:, 1:]) / ts)
    shrink = np.exp(-(seen[:, 1:] - anchor[:, 1:]) / ts)
    moved = (anchor[:, 1:] != anchor[:, :-1]).any(axis=0)
    rescale = np.exp(-(anchor[:, 1:] - anchor[:, :-1]) / ts)
    wstack = np.concatenate([net.weights, net.input_weights, np.zeros((1, n))])
    src = _stacked_source(neurons, kinds, net)
    spiking = np.clip(neurons, 0, n - 1)

    rows = np.arange(b)
    c = np.zeros((b, n))
    out = np.zeros((b, m))
    for k in range(int(last.max(initial=-1)) + 1):
        if moved[k]:
            c *= rescale[:, k, None]
        out[:, k] = c[rows, spiking[:, k]] * shrink[:, k]
        c += wstack[src[:, k]] * grow[:, k, None]
    out = np.where(kinds == int(SpikeKind.INTERNAL), out, 0.0)
    return out, c * shrink[:, -1, None], t_end


def reconstruct_currents(trace: EventTrace, net: Network) -> np.ndarray:
    """Per-slot synaptic current of the spiking neuron of a one-sample trace."""
    out, _, _ = reconstruct_currents_batch(
        trace.neurons[None, :], trace.times[None, :], trace.kinds[None, :], net
    )
    return out[0]


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


def _adjoint_coefficients(neurons, times, kinds, net: Network, loss_grads, strict, vdot_floor):
    """Everything the adjoint loop uses that does not depend on the adjoint.

    In the frame of slot k (anchor A, e_m = e^{(t-A)/tau_m}) a lane with
    coefficients (D, Q) has lambda_v = D e_m, its gradient row -tau_s
    lambda_i is a_v D + a_q Q, and lambda_v - lambda_i = t_v D + t_q Q.  A
    jump of the spiking neuron j sets D_j = (transfer + gain D_j + loss)
    * scale, where transfer sums t_v D + t_q Q over j's fan-out weighted by
    j's weights, and keeps lambda_i by Q_j += s_q (D_old - D_new).

    Returns coef (m, 8, B, 1), holding a_v, a_q, t_v, t_q, gain, loss, scale
    and s_q of each slot in one contiguous block; shift (m, B), the anchor
    change A' - A <= 0 on entering each slot; and to_window(D, Q, shift),
    which re-expresses (D, Q) in the new frame.
    """
    p = net.params
    b, m = times.shape
    ts, tm = p.tau_syn, p.tau_mem
    i_rec, _, t_end = reconstruct_currents_batch(neurons, times, kinds, net)
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

    coef = np.empty((m, 8, b, 1))
    a_v, a_q, t_v, t_q, gain, loss, scale, s_q = (coef[:, c, :, 0].T for c in range(8))
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
    return coef, (anchor[:, :-1] - anchor[:, 1:]).T, to_window


def eventprop_backward_batch(
    neurons,
    times,
    kinds,
    net: Network,
    loss_grads,
    strict: bool = False,
    vdot_floor: float = 0.0,
):
    """Batched adjoint backward pass; returns gradients summed over the batch.

    ``loss_grads`` is (B, m): the derivative of the loss with respect to each
    trace slot's spike time (zero for slots the loss ignores).

    ``vdot_floor`` > 0 bounds the 1/dV/dt jump scale during training: a
    near-grazing crossing otherwise injects an arbitrarily large, noisy
    contribution whose true value is ill-conditioned anyway.  The default 0
    keeps the estimator exact.

    Everything that does not depend on the adjoint is computed for all
    slots before the loop (``_adjoint_coefficients``).  The loop body is the
    same for every row: a slot that is not an internal event has the
    sentinel source (no fan-out, zero weights, zero jump scale), and its
    gradient row goes to the sink row of the stacked [w; w_in; sink]
    accumulator, which takes one bincount per slot.
    """
    b, m = times.shape
    n, n_in = net.n_total, net.n_in
    coef, shift, to_window = _adjoint_coefficients(
        neurons, times, kinds, net, loss_grads, strict, vdot_floor
    )
    moved = (shift != 0.0).any(axis=1)

    # Fan-out lanes and weights of each slot's spiking neuron; row n of the
    # tables is the null source, all of whose lanes are the sentinel n.
    # The state is (B, N + 1), and lanes index it flat.
    fan = FanOut.of(net)
    table, wtab = fan.table(np.append(np.arange(n), fan.null))
    src = np.where(kinds == int(SpikeKind.INTERNAL), neurons, n).T
    lanes = table[src]
    w_lanes = wtab[src]
    lanes += (np.arange(b) * (n + 1))[:, None]
    size = (n + n_in + 1) * (n + 1)
    base = (_stacked_source(neurons, kinds, net) * (n + 1)).T[..., None].copy()
    cols = np.arange(n + 1)
    last_real = int(np.flatnonzero((kinds != int(SpikeKind.DUMMY)).any(axis=0)).max(initial=-1))

    d_co = np.zeros((b, n + 1))
    q_co = np.zeros((b, n + 1))
    d_flat, q_flat = d_co.reshape(-1), q_co.reshape(-1)
    grad = np.zeros(size)
    for k in range(last_real, -1, -1):
        if moved[k]:
            d_co[...], q_co[...] = to_window(d_co, q_co, shift[k, :, None])
        a_v, a_q, t_v, t_q, gain, loss, scale, s_q = coef[k]
        grad += np.bincount((base[k] + cols).ravel(), (a_v * d_co + a_q * q_co).ravel(), size)
        ln = lanes[k]
        d_l = d_flat[ln]
        q_l = q_flat[ln]
        transfer = np.einsum("bw,bw->b", w_lanes[k], t_v * d_l + t_q * q_l)
        d_new = (transfer + gain[:, 0] * d_l[:, 0] + loss[:, 0]) * scale[:, 0]
        q_flat[ln[:, 0]] = q_l[:, 0] + s_q[:, 0] * (d_l[:, 0] - d_new)
        d_flat[ln[:, 0]] = d_new
    grad = grad.reshape(n + n_in + 1, n + 1)
    return grad[:n, :n].copy(), grad[n : n + n_in, :n].copy()


def eventprop_backward(
    trace: EventTrace,
    net: Network,
    loss_grads,
    strict: bool = True,
):
    """Adjoint backward pass for a one-sample trace; returns (grad_w, grad_w_in)."""
    loss_grads = np.asarray(loss_grads, dtype=np.float64)
    if loss_grads.shape != trace.times.shape:
        raise InvalidParameter(
            f"loss_grads shape {loss_grads.shape} != trace length {trace.times.shape}"
        )
    if not np.all(np.isfinite(loss_grads)):
        raise InvalidParameter("loss_grads must be finite")
    return eventprop_backward_batch(
        trace.neurons[None, :],
        trace.times[None, :],
        trace.kinds[None, :],
        net,
        loss_grads[None, :],
        strict=strict,
    )


# ---------------------------------------------------------------------------
# Fast-and-Deep analytic path (tau_mem = 2 tau_syn): spike times of a
# first-spike network are closed-form roots, so their derivatives follow from
# implicit differentiation of the crossing condition
#   sum_j w_j * h(T - t_j) = v_th,  h(s) = 2 ts (e^{-s/(2 ts)} - e^{-s/ts}).


def _psp(s, ts):
    return 2.0 * ts * (np.exp(-s / (2.0 * ts)) - np.exp(-s / ts))


def _psp_dot(s, ts):
    return -np.exp(-s / (2.0 * ts)) + 2.0 * np.exp(-s / ts)


@dataclass(frozen=True)
class FudSpikeGrad:
    time: float
    d_weights: np.ndarray
    d_times: np.ndarray


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
    """
    from .lif import next_crossing_safe

    b, kk = in_times.shape
    h = weights.shape[1]
    v = np.zeros((b, h))
    i = np.zeros((b, h))
    t = np.zeros(b)
    out = np.full((b, h), np.inf)
    for k in range(kk + 1):
        t_next = in_times[:, k] if k < kk else np.full(b, np.inf)
        dt = next_crossing_safe(v, i, params)
        cross_at = t[:, None] + dt
        hit = np.isinf(out) & (cross_at < t_next[:, None]) & (cross_at <= t_max)
        out = np.where(hit, cross_at, out)
        if k == kk:
            break
        alive = np.isfinite(t_next)
        if not alive.any():
            break
        gap = np.where(alive, t_next - t, 0.0)
        v, i = propagate_arrays(v, i, gap[:, None], params)
        w_rows = weights[np.clip(in_neurons[:, k], 0, weights.shape[0] - 1)]
        i = i + np.where(alive[:, None], w_rows, 0.0)
        t = np.where(alive, t_next, t)
    return out


def fud_spike_time_grad(
    input_spikes: Sequence[Spike] | np.ndarray,
    weights_row: np.ndarray,
    params,
) -> FudSpikeGrad:
    """Exact derivatives of one neuron's first spike time (tau_mem = 2 tau_syn).

    Returns dT/dw_j and dT/dt_j for every input j; inputs arriving at or
    after the spike have zero derivative.  Raises NoSpike when the neuron
    never crosses threshold.
    """
    if not params.is_double_tau:
        from .core import UnsupportedTauRatio

        raise UnsupportedTauRatio("the analytic gradient path requires tau_mem = 2 tau_syn")
    if hasattr(input_spikes, "dtype"):
        t_in = np.asarray(input_spikes, dtype=np.float64)
    else:
        t_in = np.array([s.time for s in input_spikes], dtype=np.float64)
    w = np.asarray(weights_row, dtype=np.float64)
    order = np.argsort(t_in, kind="stable")
    t_star = fud_first_spike_times(
        order[None, :],
        t_in[order][None, :],
        w[:, None],
        params,
        t_max=np.inf,
    )[0, 0]
    if math.isinf(t_star):
        raise NoSpike("neuron does not cross threshold for these inputs")
    return _fud_grads_at(t_star, t_in, w, params)


def _fud_grads_at(t_star: float, t_in, w, params) -> FudSpikeGrad:
    ts = params.tau_syn
    causal = t_in < t_star
    s = np.where(causal, t_star - t_in, 0.0)
    vdot = float(np.sum(np.where(causal, w * _psp_dot(s, ts), 0.0)))
    d_w = np.where(causal, -_psp(s, ts) / vdot, 0.0)
    d_t = np.where(causal, w * _psp_dot(s, ts) / vdot, 0.0)
    return FudSpikeGrad(time=float(t_star), d_weights=d_w, d_times=d_t)


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
    fin_pre = np.isfinite(t_pre)
    fin_post = np.isfinite(t_post)
    tp = np.where(fin_pre, t_pre, 0.0)
    tq = np.where(fin_post, t_post, 0.0)
    causal = fin_pre[:, :, None] & fin_post[:, None, :] & (
        tp[:, :, None] < tq[:, None, :]
    )
    s = np.where(causal, tq[:, None, :] - tp[:, :, None], 0.0)
    kernel = np.where(causal, _psp(s, ts), 0.0)
    kernel_dot = np.where(causal, _psp_dot(s, ts), 0.0)
    vdot = np.einsum("pq,bpq->bq", w, kernel_dot)
    if vdot_floor > 0.0:
        vdot = np.sign(vdot) * np.maximum(np.abs(vdot), vdot_floor)
    live = fin_post & (np.abs(vdot) >= EPS_VDOT)
    inv_vdot = np.where(live, 1.0 / np.where(live, vdot, 1.0), 0.0)
    g = d_t_post * live
    grad_w = np.einsum("bq,bpq->pq", -g * inv_vdot, kernel)
    d_t_pre = np.einsum("bq,pq,bpq->bp", g * inv_vdot, w, kernel_dot)
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
