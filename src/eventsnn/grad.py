"""Gradient estimation from event traces.

Two estimators share the trace-only interface:

* ``eventprop_backward`` integrates the adjoint pair (lambda_v, lambda_i)
  backward through the trace.  Between events the adjoints follow the linear
  flow mirroring the forward dynamics; at each internal spike lambda_v of the
  spiking neuron receives a jump proportional to 1/dV/dt at the crossing,
  combining the loss derivative for that spike time with the transfer of
  downstream adjoints through the spiking neuron's weight row.  Every spike
  of presynaptic j contributes -tau_syn * lambda_i to its weight-row
  gradient.  The binding contract is agreement with central finite
  differences of the loss under the ideal event-driven dynamics; the test
  suite enforces it.

* ``fud_spike_time_grad`` differentiates the closed-form first-crossing
  condition for tau_mem = 2 tau_syn directly (implicit differentiation of
  the quadratic crossing condition), giving exact spike-time derivatives for
  feedforward first-spike networks.

Both consume only the trace plus weights: synaptic currents at spike times
are reconstructed by replaying the trace through the current dynamics, so a
foreign (hardware/replay) trace takes the identical code path.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .core import EventTrace, InvalidParameter, Network, NeuronState, Spike, SpikeKind
from .lif import propagate_arrays
from .sim import FanOut

# |dV/dt| below this at a spike counts as a degenerate (grazing) crossing
EPS_VDOT = 1e-6


class DegenerateCrossing(RuntimeError):
    """A spike with |dV/dt| < EPS_VDOT makes the adjoint jump ill-defined."""


class NoSpike(RuntimeError):
    """The analytic path needs the target neuron to actually spike."""


@dataclass(frozen=True)
class AdjointState:
    """Adjoint pair plus accumulated weight gradients (diagnostic container)."""

    lambda_v: np.ndarray
    lambda_i: np.ndarray
    grad_w: np.ndarray
    grad_w_in: np.ndarray


def _adjoint_flow(lam_v, lam_i, delta, params):
    """Flow the adjoint pair backward over a gap of length delta (>= 0).

    Backward in time: lambda_v decays with tau_mem, lambda_i relaxes toward
    lambda_v with tau_syn -- the mirror image of the forward (I, V) flow.
    """
    tm, ts = params.tau_mem, params.tau_syn
    es = np.exp(-delta / ts)
    if params.is_equal_tau:
        lam_i_new = (lam_i + lam_v * delta / ts) * es
    else:
        em = np.exp(-delta / tm)
        lam_i_new = lam_i * es + (lam_v / ts) * (em - es) / (1.0 / ts - 1.0 / tm)
    return lam_v * np.exp(-delta / tm), lam_i_new


def reconstruct_currents_batch(neurons, times, kinds, net: Network):
    """Replay trace transitions through the current dynamics only.

    Returns (B, m) with the spiking neuron's synaptic current just before
    each internal event (zero for input/dummy slots) and the final (i, t).
    Like the simulator, an event decays and updates only the lanes it
    fans out to, each from its own last update time; every lane is decayed
    to its row's last event once at the end.
    """
    b, m = times.shape
    n = net.n_total
    ts = net.params.tau_syn
    fan = FanOut.of(net)
    active = kinds != int(SpikeKind.DUMMY)
    # seen[:, k]: time of the row's last real event before slot k (0 if none)
    last = np.maximum.accumulate(np.where(active, np.arange(m), -1), axis=1)
    seen = np.where(last >= 0, np.take_along_axis(times, np.maximum(last, 0), axis=1), 0.0)
    seen = np.concatenate([np.zeros((b, 1)), seen], axis=1)
    if np.any(active & (times - seen[:, :-1] < -1e-12)):
        raise InvalidParameter("trace times must be non-decreasing")
    t_end = seen[:, -1]

    i_cur = np.zeros((b, n + 1))
    t_ref = np.zeros((b, n + 1))
    out = np.zeros((b, m))
    internal = kinds == int(SpikeKind.INTERNAL)
    external = kinds == int(SpikeKind.INPUT)
    for k in range(int(last.max(initial=-1)) + 1):
        for mask, table, weights, spiking in (
            (internal[:, k], fan.internal, fan.w, True),
            (external[:, k], fan.inputs, fan.w_in, False),
        ):
            r = np.flatnonzero(mask)
            if r.size == 0:
                continue
            src = neurons[r, k]
            lanes = table[src]
            rr = r[:, None]
            tk = times[r, k, None]
            i_lanes = i_cur[rr, lanes] * np.exp(-np.maximum(tk - t_ref[rr, lanes], 0.0) / ts)
            if spiking:
                out[r, k] = i_lanes[:, 0]
            i_cur[rr, lanes] = i_lanes + weights[src[:, None], lanes]
            t_ref[rr, lanes] = tk
    i_cur = i_cur[:, :n] * np.exp(-np.maximum(t_end[:, None] - t_ref[:, :n], 0.0) / ts)
    return out, i_cur, t_end


def reconstruct_currents(trace: EventTrace, net: Network) -> np.ndarray:
    """Per-spike synaptic current of the spiking neuron at its spike time."""
    out, _, _ = reconstruct_currents_batch(
        trace.neurons[None, :], trace.times[None, :], trace.kinds[None, :], net
    )
    return out[0]


def replay_state(trace: EventTrace, net: Network, t_max: float) -> NeuronState:
    """Final (v, i) obtained by replaying a trace under the ideal dynamics."""
    p = net.params
    v = np.zeros(net.n_total)
    i = np.zeros(net.n_total)
    t = 0.0
    for s in trace:
        if s.is_dummy:
            break
        v, i = propagate_arrays(v, i, s.time - t, p)
        t = s.time
        if s.kind == SpikeKind.INTERNAL:
            v[s.neuron] = p.v_reset
            i = i + net.weights[s.neuron]
        else:
            i = i + net.input_weights[s.neuron]
    v, i = propagate_arrays(v, i, max(t_max - t, 0.0), p)
    return NeuronState(v, i, max(t_max, t))


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
    """
    p = net.params
    b, m = times.shape
    n = net.n_total
    ts, tm = p.tau_syn, p.tau_mem
    i_rec, _, _ = reconstruct_currents_batch(neurons, times, kinds, net)

    lam_v = np.zeros((b, n))
    lam_i = np.zeros((b, n))
    grad_w = np.zeros((n, n))
    grad_w_in = np.zeros((net.n_in, n))
    real = kinds != int(SpikeKind.DUMMY)
    t_cur = np.where(real.any(axis=1), np.max(np.where(real, times, -np.inf), axis=1), 0.0)

    for k in range(m - 1, -1, -1):
        kind = kinds[:, k]
        active = kind != int(SpikeKind.DUMMY)
        if not active.any():
            continue
        tk = times[:, k]
        delta = np.where(active, t_cur - tk, 0.0)
        lam_v, lam_i = _adjoint_flow(lam_v, lam_i, delta[:, None], p)
        t_cur = np.where(active, tk, t_cur)

        nk = np.clip(neurons[:, k], 0, None)
        inp = kind == int(SpikeKind.INPUT)
        if inp.any():
            np.add.at(grad_w_in, nk[inp], -ts * lam_i[inp])
        itn = kind == int(SpikeKind.INTERNAL)
        if itn.any():
            rows = nk[itn]
            np.add.at(grad_w, rows, -ts * lam_i[itn])
            i_spk = i_rec[itn, k]
            vdot = i_spk - p.v_th / tm
            ok = np.abs(vdot) >= EPS_VDOT
            if strict and not ok.all():
                raise DegenerateCrossing(
                    f"|dV/dt| = {np.abs(vdot).min():.3g} < {EPS_VDOT} at a spike"
                )
            if vdot_floor > 0.0:
                vdot = np.sign(vdot) * np.maximum(np.abs(vdot), vdot_floor)
            w_rows = net.weights[rows]
            transfer = np.einsum("bn,bn->b", w_rows, lam_v[itn] - lam_i[itn])
            lam_v_n = lam_v[itn, rows]
            d = transfer + lam_v_n * (i_spk - p.v_reset / tm) + loss_grads[itn, k]
            jump = np.where(ok, d / np.where(ok, vdot, 1.0), 0.0)
            lam_v[itn, rows] = jump
    return grad_w, grad_w_in


def eventprop_backward(
    trace: EventTrace,
    net: Network,
    loss_grads,
    strict: bool = True,
):
    """Adjoint backward pass for one trace; returns (grad_w, grad_w_in)."""
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
