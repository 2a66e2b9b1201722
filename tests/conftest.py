"""Shared oracles and generators for the test suite.

The oracles are deliberately primitive: plain forward-Euler loops, dense
per-event decays of every lane, bracket-and-bisect root finding, the
input-by-input loop of the analytic forward and the point-by-point data
path, independent of the closed-form, event-driven, prefix-sum and
whole-array paths they are used to check.  Where a kernel was rewritten for
speed with bitwise the same output, its previous form is kept here as a
reference: the guarded tau_mem = 2 tau_syn crossing solver, the
queue-pointer event loop with its dense fan-out scan, the float nonzero scan
of the mock weights, the full-width first-spike scan, the repr-only
matrix writer, the record classifier that compared each input position
against every record anew and the slot scatter that took one output at a
time.  The analytic forward's interval sums by ``np.cumsum`` with its
masked ``np.min(where=)``, and the current replay's block sums by
``np.cumsum``, are kept as the references of ``grad._prefix_sums``' vector
adds.  The guarded tau_mem = tau_syn solver, whose Lambert W took
12 Halley steps, is kept as the reference of the two-step one: they agree on
which lanes cross, and on when to within the conditioning of W.  The slot loop
of the EventProp backward and of its current replay, which the level-wise
forms replaced, are kept as ``dense_row_adjoint`` and ``dense_row_currents``:
both level-wise forms take only acyclic nets, and the slot loops are the
reference for every cyclic one (``backward_or_reference``,
``currents_or_reference``).
"""
import dataclasses
import math
from dataclasses import dataclass
from unittest import mock

import numpy as np
import pytest

from eventsnn.backend import quantize_weights
from eventsnn.core import (
    DUMMY_NEURON,
    EventTrace,
    FanOut,
    InvalidParameter,
    LifParams,
    Network,
    Spike,
    SpikeKind,
)
import eventsnn.grad as grad
from eventsnn.grad import (
    EPS_VDOT,
    DegenerateCrossing,
    _adjoint_coefficients,
    _anchor,
    _call_shape,
    _interval_frames,
    _stacked_source,
    eventprop_backward_batch,
    fud_first_spike_times,
    reconstruct_currents_batch,
)
from eventsnn.data import EncodingConfig, YinYangLabel, classify
from eventsnn.lif import next_crossing_safe, propagate_arrays
from eventsnn.sim import check_input_rows
from eventsnn.train import PackedDataset


def euler_first_crossing(v0, i0, params: LifParams, dt=1e-6, t_hi=20.0):
    """First upward threshold crossing of a single neuron, by Euler stepping."""
    v, i, t = float(v0), float(i0), 0.0
    inv_tm = 1.0 / params.tau_mem
    inv_ts = 1.0 / params.tau_syn
    vth = params.v_th
    while t < t_hi:
        v_new = v + dt * (-v * inv_tm + i)
        i_new = i * (1.0 - dt * inv_ts)
        t += dt
        if v < vth <= v_new:
            return t - dt + dt * (vth - v) / (v_new - v)
        v, i = v_new, i_new
    return None


def voltage_at(v0, i0, dt, params: LifParams):
    """V(dt) along the free flow; convenience for oracles and residual checks."""
    v, _ = propagate_arrays(v0, i0, dt, params)
    return v


def bisect_crossing(
    v0: float,
    i0: float,
    params: LifParams,
    t_hi: float = 40.0,
    scan_dt: float = 1e-3,
    tol: float = 1e-12,
) -> float | None:
    """Generic bracket-and-bisect crossing finder (any tau ratio).

    Scans for the first sign change of V - v_th on a uniform grid, then
    bisects.
    """
    grid = np.arange(0.0, t_hi + scan_dt, scan_dt)
    vals = voltage_at(v0, i0, grid, params) - params.v_th
    below = vals[:-1] < 0.0
    above = vals[1:] >= 0.0
    hits = np.nonzero(below & above)[0]
    if len(hits) == 0:
        return None
    lo, hi = grid[hits[0]], grid[hits[0] + 1]
    f = lambda t: float(voltage_at(v0, i0, t, params) - params.v_th)
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if f(mid) < 0.0:
            lo = mid
        else:
            hi = mid
        if hi - lo < tol:
            break
    return 0.5 * (lo + hi)


def _safe_div(num, den):
    ok = den != 0.0
    return np.where(ok, num / np.where(ok, den, 1.0), 0.0), ok


def crossing_dt_double_tau_guarded(v0, i0, params: LifParams):
    """Reference tau_mem = 2 tau_syn crossing solver with guarded operations.

    Every division, square root and logarithm is fed only operands it
    accepts, and invalid lanes are masked explicitly (a finite quotient may
    still overflow to inf, unreported).  The production solver computes the
    same arithmetic unguarded under an ``errstate`` and must agree with this
    one bitwise.
    """
    ts, tm, vth = params.tau_syn, params.tau_mem, params.v_th
    v0 = np.asarray(v0, dtype=np.float64)
    i0 = np.asarray(i0, dtype=np.float64)
    with np.errstate(over="ignore"):
        a = -2.0 * ts * i0
        b = v0 + 2.0 * ts * i0
        c = -vth
        disc = b * b - 4.0 * a * c
        real = disc >= 0.0
        sq = np.sqrt(np.where(real, disc, 0.0))
        q = -0.5 * (b + np.where(b >= 0.0, sq, -sq))
        x1, ok1 = _safe_div(q, a)
        x2, ok2 = _safe_div(c, q)

        def pick(x, ok):
            valid = real & ok & (x > 0.0) & (x < 1.0)
            upward = (i0 * x * x - vth / tm) > 0.0
            return np.where(valid & upward, x, 0.0)

        x_star = np.maximum(pick(x1, ok1), pick(x2, ok2))
        hit = x_star > 0.0
        dt = -2.0 * ts * np.log(np.where(hit, x_star, 0.5))
    return np.where(hit, dt, np.inf)



def lambertw0_halley(z):
    """Reference principal-branch Lambert W on z >= -1/e: 12 guarded Halley
    steps from the branch-point series below -0.25, else z (1 - z)."""
    z = np.asarray(z, dtype=np.float64)
    rho = np.sqrt(np.maximum(2.0 * (np.e * z + 1.0), 0.0))
    near = -1.0 + rho - rho * rho / 3.0 + (11.0 / 72.0) * rho**3
    w = np.where(z < -0.25, near, z * (1.0 - z))
    for _ in range(12):
        ew = np.exp(w)
        f = w * ew - z
        wp1 = w + 1.0
        den = ew * wp1 - (w + 2.0) * f / np.where(wp1 != 0.0, 2.0 * wp1, 1.0)
        step, ok = _safe_div(f, den)
        w = w - np.where(ok, step, 0.0)
    return w


def crossing_dt_equal_tau_guarded(v0, i0, params: LifParams):
    """Reference tau_mem = tau_syn crossing solver with guarded operations.

    Every lane is fed only operands its division and logarithm accept: the
    Lambert argument is clamped to [-1/e, 0) and infeasible lanes are masked
    explicitly.  The production solver takes two unguarded Fritsch steps
    under an ``errstate`` instead; the two agree on which lanes cross and,
    within the conditioning of W near its branch point, on when.
    """
    tau, vth, tm = params.tau_syn, params.v_th, params.tau_mem
    v0 = np.asarray(v0, dtype=np.float64)
    i0 = np.asarray(i0, dtype=np.float64)
    with np.errstate(all="ignore"):
        pos = (i0 > 0.0) & (vth > 0.0)
        i_safe = np.where(pos, i0, 1.0)
        log_mag = np.log(vth / (i_safe * tau)) - v0 / (i_safe * tau)
        # W argument -e^{log_mag} must lie in [-1/e, 0) => log_mag <= -1
        feasible = pos & (log_mag <= -1.0)
        z = -np.exp(np.where(feasible, log_mag, np.log(0.1)))
        z = np.maximum(z, -math.exp(-1.0))
        w = lambertw0_halley(z)
        dt = -tau * w - v0 / i_safe
        dt_pos = np.where(feasible & (dt > 0.0), dt, np.inf)
        t = np.where(np.isfinite(dt_pos), dt_pos, 0.0)
        upward = i0 * np.exp(-t / tau) - vth / tm > 0.0
    return np.where(np.isfinite(dt_pos) & upward, dt_pos, np.inf)

def random_network(
    rng: np.random.Generator,
    n_max=8,
    n_in_max=4,
    w_scale=3.0,
    recurrent=True,
    params: LifParams | None = None,
) -> Network:
    n = int(rng.integers(1, n_max + 1))
    n_in = int(rng.integers(1, n_in_max + 1))
    w = rng.uniform(-w_scale, w_scale, size=(n, n))
    if not recurrent:
        w = np.triu(w, k=1)
    w *= rng.random(size=(n, n)) < 0.7
    w_in = rng.uniform(0.5, 2.0 * w_scale, size=(n_in, n))
    w_in *= rng.random(size=(n_in, n)) < 0.8
    return Network(
        n_total=n,
        weights=w,
        input_weights=w_in,
        params=params if params is not None else LifParams(),
        output_set=(n - 1,),
    )


def without_outputs(net: Network) -> Network:
    """The same net with an empty ``output_set``: the engine runs every row
    to t_max or its budget, as it did before rows stopped at their outputs."""
    return dataclasses.replace(net, output_set=())


def stop_slots(full: EventTrace, output_set) -> np.ndarray:
    """Per row of an unstopped (B, m) trace, the slots a stopped run keeps:
    up to and including the first spike of the last output to fire, or all
    m when some output never fires."""
    m = full.times.shape[1]
    internal = full.kinds == int(SpikeKind.INTERNAL)
    end = np.zeros(full.times.shape[0], dtype=np.int64)
    for k in output_set:
        hit = internal & (full.neurons == k)
        end = np.where(hit.any(axis=1), np.maximum(end, hit.argmax(axis=1) + 1), m)
    return end


def assert_stopped_prefix(stopped: EventTrace, full: EventTrace, output_set) -> np.ndarray:
    """``stopped`` is bitwise ``full``'s prefix up to its stop slot, then
    dummies; both are (B, m) or one-sample traces.  Returns the stop slots."""
    rows = [np.atleast_2d(a) for a in (stopped.neurons, stopped.times, stopped.kinds)]
    want = [np.atleast_2d(a) for a in (full.neurons, full.times, full.kinds)]
    end = stop_slots(EventTrace(*want), output_set)
    for r, e in enumerate(end):
        for got, ref in zip(rows, want):
            np.testing.assert_array_equal(got[r, :e], ref[r, :e])
        assert np.all(rows[0][r, e:] == DUMMY_NEURON) and np.all(np.isposinf(rows[1][r, e:]))
        assert np.all(rows[2][r, e:] == int(SpikeKind.DUMMY))
    return end


def random_inputs(rng: np.random.Generator, net: Network, t_span=1.5, k_max=10):
    k = int(rng.integers(1, k_max + 1))
    times = np.sort(rng.uniform(0.0, t_span, size=k))
    neurons = rng.integers(0, net.n_in, size=k)
    return [
        Spike(int(nrn), float(t), SpikeKind.INPUT) for nrn, t in zip(neurons, times)
    ]


def dense_oracle(net: Network, inputs, dt: float, t_max: float, m: int | None = None):
    """Fixed-grid forward-Euler reference integrator.

    Crossings are detected by sign change against v_th and refined with one
    linear interpolation inside the step.  Input times split grid steps so
    external events land exactly.  With ``m`` given, the trace follows the
    budget contract of ``simulate`` (truncation + dummy padding).  The state
    is kept in Python floats; every lane goes through the same IEEE operations
    in the same order as an elementwise numpy step would.
    """
    if not dt > 0.0:
        raise InvalidParameter(f"dt={dt} must be positive")
    p = net.params
    tm, ts, v_th, v_reset = p.tau_mem, p.tau_syn, p.v_th, p.v_reset
    w, w_in = net.weights.tolist(), net.input_weights.tolist()
    v = [0.0] * net.n_total
    i = [0.0] * net.n_total
    t = 0.0
    queue = [s for s in inputs if s.time <= t_max]
    q_times = [s.time for s in queue] + [np.inf]
    qp = 0
    budget = np.inf if m is None else m
    events: list[tuple] = []  # (neuron, time, kind)
    k_grid = 1

    while t < t_max:
        t_grid = min(k_grid * dt, t_max)
        t_next = min(q_times[qp], t_grid)
        h = t_next - t
        if h > 0.0:
            decay = 1.0 - h / ts
            v_new = [a + h * (-a / tm + b) for a, b in zip(v, i)]
            i_new = [b * decay for b in i]
            if max(v_new) >= v_th:  # cheap pre-filter for the exact test below
                # (frac, neuron) pairs sort as a stable argsort of frac does
                crossed = sorted(
                    ((v_th - a) / (c - a), k)
                    for k, (a, c) in enumerate(zip(v, v_new))
                    if a < v_th <= c
                )
                for frac, nrn in crossed:
                    events.append((nrn, t + h * frac, SpikeKind.INTERNAL))
                    v_new[nrn] = v_reset
                    i_new = [b + c for b, c in zip(i_new, w[nrn])]
            v, i = v_new, i_new
            t = t_next
        if q_times[qp] == t_next:
            s = queue[qp]
            events.append((s.neuron, s.time, SpikeKind.INPUT))
            i = [b + c for b, c in zip(i, w_in[s.neuron])]
            qp += 1
        if t_next == t_grid and t_grid == k_grid * dt:
            k_grid += 1
        if len(events) >= budget:
            break

    if m is not None:
        dummy = (DUMMY_NEURON, np.inf, SpikeKind.DUMMY)
        events = events[:m] + [dummy] * max(0, m - len(events))
    neurons, times, kinds = list(zip(*events)) or [(), (), ()]
    return EventTrace(
        np.array(neurons, dtype=np.int64),
        np.array(times, dtype=np.float64),
        np.array(kinds, dtype=np.int8),
    )


def classify_walk(records, inputs):
    """Kinds of one row of (neuron, time) records, walking them in order
    against the inputs: a dummy for neuron -1, the next unmatched input when
    equal to it, internal otherwise."""
    kinds, p = [], 0
    for neuron, time in records:
        if neuron == DUMMY_NEURON:
            kinds.append(SpikeKind.DUMMY)
        elif p < len(inputs) and inputs[p] == (neuron, time):
            kinds.append(SpikeKind.INPUT)
            p += 1
        else:
            kinds.append(SpikeKind.INTERNAL)
    return kinds


def classify_records_reference(neurons, times, in_neurons, in_times) -> np.ndarray:
    """``core.classify_records`` as it compared each input position against
    every record of the rows still matching, with no table of matches."""
    b, m = times.shape
    dummy = neurons == DUMMY_NEURON
    kinds = np.where(dummy, SpikeKind.DUMMY, SpikeKind.INTERNAL).astype(np.int8)
    slots = np.arange(m)
    rows = np.arange(b)
    last = np.full(b, -1)
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


def scatter_slot_grads_reference(slots, grads, m: int) -> np.ndarray:
    """``train.scatter_slot_grads`` as it scattered one output at a time."""
    b, n_out = grads.shape
    out = np.zeros((b, m))
    rows = np.arange(b)
    for col in range(n_out):
        s = slots[:, col]
        ok = s >= 0
        out[rows[ok], s[ok]] += grads[ok, col]
    return out


def replay_walk(trace: EventTrace, net: Network, t_max: float):
    """Final (v, i, t) of a one-sample trace, one propagation per event."""
    p = net.params
    v, i, t = np.zeros(net.n_total), np.zeros(net.n_total), 0.0
    for neuron, time, kind in zip(trace.neurons, trace.times, trace.kinds):
        if kind == SpikeKind.DUMMY:
            break
        v, i = propagate_arrays(v, i, time - t, p)
        t = time
        if kind == SpikeKind.INTERNAL:
            v[neuron] = p.v_reset
            i = i + net.weights[neuron]
        else:
            i = i + net.input_weights[neuron]
    v, i = propagate_arrays(v, i, max(t_max - t, 0.0), p)
    return v, i, max(t_max, t)


def dense_currents(neurons, times, kinds, net: Network):
    """(B, m) current of the spiking neuron just before each internal event.

    Every lane of a row decays to every real event of that row; input and
    dummy slots read zero.
    """
    b, m = times.shape
    ts = net.params.tau_syn
    i = np.zeros((b, net.n_total))
    t = np.zeros(b)
    out = np.zeros((b, m))
    for k in range(m):
        tk = np.where(kinds[:, k] != int(SpikeKind.DUMMY), times[:, k], t)
        i = i * np.exp(-(tk - t) / ts)[:, None]
        t = tk
        nk = np.clip(neurons[:, k], 0, None)
        itn = kinds[:, k] == int(SpikeKind.INTERNAL)
        inp = kinds[:, k] == int(SpikeKind.INPUT)
        out[itn, k] = i[itn, nk[itn]]
        i[itn] += net.weights[nk[itn]]
        i[inp] += net.input_weights[nk[inp]]
    return out


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


def dense_adjoint(
    neurons, times, kinds, net: Network, loss_grads, strict=False, vdot_floor=0.0
):
    """EventProp backward pass that flows the whole (B, N) adjoint pair to
    every event; same contract as ``grad.eventprop_backward_batch``."""
    p = net.params
    b, m = times.shape
    n = net.n_total
    ts, tm = p.tau_syn, p.tau_mem
    i_rec = dense_currents(neurons, times, kinds, net)

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


def dense_row_currents(neurons, times, kinds, net: Network):
    """The slot loop of ``grad.reconstruct_currents_batch``, on any net,
    cyclic or not, with a dense weight row per slot.

    Each row keeps its currents as frame coefficients c (same anchors and
    rescales), and every slot adds the whole stacked row [w; w_in; 0][src]
    e^{(t-A)/tau_s} to its row's c, touching every lane.  The level-wise
    replay sums the same adds in the same slot order, so on an acyclic net
    it equals this bit for bit; on a cyclic one, which it rejects, this is
    the reference (``currents_or_reference``).
    """
    b, m = times.shape
    n = net.n_total
    ts = net.params.tau_syn
    active = kinds != int(SpikeKind.DUMMY)
    last = np.maximum.accumulate(np.where(active, np.arange(m), -1), axis=1)
    seen = np.where(last >= 0, np.take_along_axis(times, np.maximum(last, 0), axis=1), 0.0)
    seen = np.concatenate([np.zeros((b, 1)), seen], axis=1)
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
    return out, seen[:, -1]


def dense_row_adjoint(
    neurons, times, kinds, net: Network, loss_grads, strict=False, vdot_floor=0.0,
    support=None,
):
    """The slot loop of the EventProp backward, on any net, cyclic or not.

    It walks the trace one slot at a time from the last, on the frame
    coefficient planes that ``grad._adjoint_coefficients`` builds from the
    currents of ``dense_row_currents``, and jumps the spiking
    neuron's (D, Q) at each internal event.  Every slot adds its rows'
    gradient rows a_v D + a_q Q over all N + 1 lanes to a stacked
    (N + n_in + 1, N + 1) accumulator with one bincount.  A jump reads its
    lanes from ``fan_out_reference`` row by row and sums each row's transfer
    in entry order.  This is bit for bit what ``grad.eventprop_backward_batch``
    computed before it went level by level; a ``support`` multiplies the
    result by its masks, as that slot loop's support plans did exactly.
    """
    b, m = times.shape
    n, n_in = net.n_total, net.n_in
    coef, shift, to_window = _adjoint_coefficients(
        times, kinds, dense_row_currents(neurons, times, kinds, net), net, loss_grads,
        strict, vdot_floor,
    )
    moved = (shift != 0.0).any(axis=0)
    fan = fan_out_reference(net)
    internal = kinds == int(SpikeKind.INTERNAL)
    # the sentinel lane n of a row is the spiking lane of a slot that is not
    # an internal event
    spiking = (np.where(internal, neurons, n) + (np.arange(b) * (n + 1))[:, None]).T
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
            d_co[...], q_co[...] = to_window(d_co, q_co, shift[:, k, None])
        a_v, a_q, t_v, t_q, gain, loss, scale, s_q = coef[:, :, k, None]
        grad += np.bincount((base[k] + cols).ravel(), (a_v * d_co + a_q * q_co).ravel(), size)
        transfer = np.zeros(b)
        for r in np.flatnonzero(internal[:, k]):
            j0 = fan.start[neurons[r, k]]
            entries = slice(j0, j0 + fan.count[neurons[r, k]])
            ln = fan.lanes[entries] + r * (n + 1)
            terms = fan.weights[entries] * (t_v[r, 0] * d_flat[ln] + t_q[r, 0] * q_flat[ln])
            transfer[r] = np.cumsum(terms)[-1]  # a sum in entry order
        j = spiking[k]
        d_new = (transfer + gain[:, 0] * d_flat[j] + loss[:, 0]) * scale[:, 0]
        q_flat[j] = q_flat[j] + s_q[:, 0] * (d_flat[j] - d_new)
        d_flat[j] = d_new
    grad = grad.reshape(n + n_in + 1, n + 1)
    grads = grad[:n, :n].copy(), grad[n : n + n_in, :n].copy()
    if support is None:
        return grads
    return tuple(g * mask for g, mask in zip(grads, support))


def is_acyclic(net: Network) -> bool:
    try:
        net.levels
    except InvalidParameter:
        return False
    return True


def currents_or_reference(neurons, times, kinds, net: Network):
    """``grad.reconstruct_currents_batch`` on an acyclic net; on a cyclic one,
    which it rejects, the slot-loop reference ``dense_row_currents``."""
    if is_acyclic(net):
        return reconstruct_currents_batch(neurons, times, kinds, net)
    return dense_row_currents(neurons, times, kinds, net)


def backward_or_reference(neurons, times, kinds, net: Network, loss_grads, **kw):
    """``grad.eventprop_backward_batch`` on an acyclic net; on a cyclic one,
    which it rejects, the slot-loop reference ``dense_row_adjoint``."""
    if is_acyclic(net):
        return eventprop_backward_batch(neurons, times, kinds, net, loss_grads, **kw)
    return dense_row_adjoint(neurons, times, kinds, net, loss_grads, **kw)


def loop_first_spike_times(in_neurons, in_times, weights, params, t_max):
    """Reference first crossings of one no-reset layer, one input at a time.

    The state of every (row, neuron) lane is propagated from input to input;
    before each input the interval's crossing is solved, and a lane spikes in
    its first interval whose crossing lies strictly before the next input and
    at or before t_max.  Same interface as ``grad.fud_first_spike_times``.
    """
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


def fud_first_spike_times_reference(in_neurons, in_times, weights, params, t_max):
    """``grad.fud_first_spike_times`` as it took the interval sums with
    ``np.cumsum`` along the strided K axis and each lane's first crossing
    with ``np.min(initial=inf, where=)``."""
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
            i0 = i_m = 0.0
            for grow_s, grow_m, decay_s, decay_m in frames:
                i0 = i0 + np.cumsum(w * grow_s[rows], axis=1) * decay_s[rows]
                i_m = i_m + np.cumsum(w * grow_m[rows], axis=1) * decay_m[rows]
            cross = start[rows] + next_crossing_safe(2.0 * ts * (i_m - i0), i0, params)
            out[rows, lo : lo + block] = np.min(
                cross, axis=1, initial=np.inf, where=cross < bound[rows]
            )
    return out


def cumsum_in_place(x, axis):
    """The running sums of ``x`` along ``axis`` by ``np.cumsum``, into ``x``."""
    return np.cumsum(x, axis=axis, out=x)


def currents_cumsum_reference(neurons, times, kinds, net: Network):
    """``grad.reconstruct_currents_batch`` with every replay block summed by
    ``np.cumsum`` along its events."""
    with mock.patch.object(grad, "_prefix_sums", cumsum_in_place):
        return reconstruct_currents_batch(neurons, times, kinds, net)


def _psp(s, ts):
    """PSP kernel h(s) = 2 tau_s (e^{-s/(2 tau_s)} - e^{-s/tau_s}) of tau_mem = 2 tau_syn."""
    return 2.0 * ts * (np.exp(-s / (2.0 * ts)) - np.exp(-s / ts))


def _psp_dot(s, ts):
    """dh/ds of ``_psp``."""
    return -np.exp(-s / (2.0 * ts)) + 2.0 * np.exp(-s / ts)


def two_exp_layer_grads(t_pre, t_post, w, d_t_post, params, vdot_floor=0.0):
    """``grad._layer_grads`` with ``_psp`` and ``_psp_dot`` taken separately,
    two exps each, on every causal (B, P, Q) delay."""
    ts = params.tau_syn
    fin_pre = np.isfinite(t_pre)
    fin_post = np.isfinite(t_post)
    tp = np.where(fin_pre, t_pre, 0.0)
    tq = np.where(fin_post, t_post, 0.0)
    causal = fin_pre[:, :, None] & fin_post[:, None, :] & (tp[:, :, None] < tq[:, None, :])
    s = np.where(causal, tq[:, None, :] - tp[:, :, None], 0.0)
    kernel = np.where(causal, _psp(s, ts), 0.0)
    kernel_dot = np.where(causal, _psp_dot(s, ts), 0.0)
    vdot = np.einsum("pq,bpq->bq", w, kernel_dot)
    live = fin_post & (np.abs(vdot) >= EPS_VDOT)  # gated before the floor
    if vdot_floor > 0.0:
        vdot = np.sign(vdot) * np.maximum(np.abs(vdot), vdot_floor)
    inv_vdot = np.where(live, 1.0 / np.where(live, vdot, 1.0), 0.0)
    g = d_t_post * live
    grad_w = np.einsum("bq,bpq->pq", -g * inv_vdot, kernel)
    d_t_pre = np.einsum("bq,pq,bpq->bp", g * inv_vdot, w, kernel_dot)
    return grad_w, d_t_pre


class NoSpike(RuntimeError):
    """The analytic derivative needs the target neuron to actually spike."""


@dataclass(frozen=True)
class FudSpikeGrad:
    time: float
    d_weights: np.ndarray
    d_times: np.ndarray


def fud_spike_time_grad(input_spikes, weights_row, params) -> FudSpikeGrad:
    """Exact derivatives of one neuron's first spike time (tau_mem = 2 tau_syn).

    Implicit differentiation of the crossing condition
    sum_j w_j h(T - t_j) = v_th, h = ``_psp``, gives dT/dw_j and dT/dt_j
    for every input j; inputs arriving at or after the spike have zero
    derivative.  Raises NoSpike when the neuron never crosses threshold.
    """
    if hasattr(input_spikes, "dtype"):
        t_in = np.asarray(input_spikes, dtype=np.float64)
    else:
        t_in = np.array([s.time for s in input_spikes], dtype=np.float64)
    w = np.asarray(weights_row, dtype=np.float64)
    order = np.argsort(t_in, kind="stable")
    t_star = fud_first_spike_times(
        order[None, :], t_in[order][None, :], w[:, None], params, t_max=np.inf
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


def per_point_data_path(seed: int, n: int, r_small: float, enc: EncodingConfig):
    """The data path one sample at a time: keep each drawn candidate while its
    class quota lasts, encode each kept point on its own and scatter its
    spike times into the packed arrays.  Returns the packed dataset and the
    text of its dataset file."""
    rng = np.random.default_rng(seed)
    quotas = [n // 3 + (k < n % 3) for k in range(3)]
    counts = [0, 0, 0]
    points = []
    while len(points) < n:
        xs = rng.uniform(0.0, 1.0, size=512)
        ys = rng.uniform(0.0, 1.0, size=512)
        inside = np.hypot(xs - 0.5, ys - 0.5) <= 0.5
        labels = classify(xs, ys, r_small)
        for x, y, ok, lab in zip(xs.tolist(), ys.tolist(), inside.tolist(), labels.tolist()):
            if ok and counts[lab] < quotas[lab]:
                counts[lab] += 1
                points.append((x, y, lab))
                if len(points) == n:
                    break
    span = enc.t_late - enc.t_early
    by_neuron = np.zeros((n, enc.n_inputs))
    text = "x,y,label\n"
    for row, (x, y, lab) in enumerate(points):
        t_x = enc.t_early + x * span
        t_y = enc.t_early + y * span
        times = [t_x, t_y, enc.t_early + enc.t_late - t_x, enc.t_early + enc.t_late - t_y]
        if enc.bias_enabled:
            times.append(enc.bias_time)
        for neuron, t in enumerate(times):
            by_neuron[row, neuron] = t
        text += f"{x!r},{y!r},{YinYangLabel(lab).name.lower()}\n"
    order = np.argsort(by_neuron, axis=1, kind="stable")
    labels = np.array([lab for _, _, lab in points], dtype=np.int64)
    packed = PackedDataset(
        order.astype(np.int64), np.take_along_axis(by_neuron, order, axis=1), by_neuron, labels
    )
    return packed, text



# ---------------------------------------------------------------------------
# the event loop before inputs became columns of its crossing table: a
# queue pointer per row with the queue head as column 0, an at-rest solve of
# every lane, a dense touch matrix for the fan-out and a full-width gather
# of the slot records.  The engine must match it bitwise.


def fan_out_reference(net: Network) -> FanOut:
    """``FanOut.of`` from a dense (sources, 1 + N) touch matrix."""
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
    return FanOut(np.cumsum(count) - count, count, lanes, weights)


def simulate_batch_reference(net: Network, in_neurons, in_times, m: int, t_max: float):
    """``simulate_batch`` with the inputs as flat queues read through a
    pointer, on ``fan_out_reference``.  Returns the trace and, per slot, the
    current of the spiking neuron just before it fired (0 elsewhere)."""
    p = net.params
    n = net.n_total
    in_neurons = np.asarray(in_neurons, dtype=np.int64)
    in_times = np.asarray(in_times, dtype=np.float64)
    b = in_times.shape[0]
    check_input_rows(net, in_neurons, in_times)
    fan = fan_out_reference(net)
    null = fan.null
    neuron_of = np.concatenate([np.arange(n), np.arange(net.n_in), [DUMMY_NEURON]])
    kind_of = np.full(null + 1, int(SpikeKind.INPUT), dtype=np.int8)
    kind_of[:n] = int(SpikeKind.INTERNAL)
    kind_of[null] = int(SpikeKind.DUMMY)
    is_input = kind_of == int(SpikeKind.INPUT)
    width = in_times.shape[1] + 1
    in_src = np.where(np.isfinite(in_times), in_neurons + n, null)
    in_src = np.concatenate([in_src, np.full((b, 1), null)], axis=1).ravel()
    in_times = np.concatenate([in_times, np.full((b, 1), np.inf)], axis=1).ravel()
    ptr = np.arange(b) * width

    v = np.zeros((b, 1 + n))
    i = np.zeros((b, 1 + n))
    tref = np.zeros((b, 1 + n))
    src_of = np.repeat(np.arange(-1, n, dtype=np.int32)[None, :], b, axis=0)
    src_of[:, 0] = in_src[ptr]
    v_f, i_f, tref_f, src_f = (a.reshape(-1) for a in (v, i, tref, src_of))
    base = np.arange(b) * (1 + n)
    lane0 = base + 1
    lim = np.full(b, min(t_max, np.finfo(np.float64).max))
    n_out = len(net.output_set)
    bit = np.zeros(null + 1, dtype=np.int64 if n_out <= 63 else object)
    bit[list(net.output_set)] = [1 << k for k in range(n_out)]
    full = (1 << n_out) - 1
    seen = np.zeros(b, dtype=bit.dtype)

    src_k = np.full((m, b), null, dtype=np.int32)
    time_k = np.full((m, b), np.inf)
    ispike_k = np.zeros((m, b))
    tc = np.empty((b, 1 + n))
    tc[:, 0] = in_times[ptr]
    tc[:, 1:] = next_crossing_safe(v[:, 1:], i[:, 1:], p)
    tc_f = tc.reshape(-1)
    for k in range(m):
        at = base + tc.argmin(axis=1)
        t_next = tc_f[at]
        done = t_next > lim
        if done.all():
            break
        src = np.where(done, null, src_f[at])
        src_k[k] = src
        time_k[k] = t_next
        ptr += is_input[src]
        tc[:, 0] = in_times[ptr]
        src_of[:, 0] = in_src[ptr]

        count = fan.count[src]
        end = count.cumsum()
        first = end - count
        pos = np.arange(end[-1]) + (fan.start[src] - first).repeat(count)
        lanes = fan.lanes[pos] + lane0.repeat(count)
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
        if n_out:
            seen |= bit[src]
            lim[seen == full] = -np.inf

    trace = EventTrace(
        np.ascontiguousarray(neuron_of[src_k.T]),
        np.ascontiguousarray(np.where(src_k == null, np.inf, time_k).T),
        np.ascontiguousarray(kind_of[src_k.T]),
    )
    return trace, np.ascontiguousarray(ispike_k.T)


def assert_bitwise_trace(got, ref):
    for f in ("neurons", "times", "kinds"):
        a, want = getattr(got, f), getattr(ref, f)
        assert a.dtype == want.dtype and a.shape == want.shape
        assert a.tobytes() == want.tobytes()


def mock_weights_reference(net: Network, mock):
    """The mock's quantized weight matrices, its clip taken from the dense
    matrices and its nonzeros found by a float ``flatnonzero``."""
    clip = mock.weight_clip
    if clip is None:
        clip = float(max(np.abs(net.weights).max(), np.abs(net.input_weights).max(), 1e-12))

    def quantize(w):
        out, nz = np.zeros(w.shape), np.flatnonzero(w)
        out.flat[nz] = quantize_weights(w.flat[nz], mock.weight_bits, clip)
        return out

    return quantize(net.weights), quantize(net.input_weights)


def first_spike_times_reference(neurons, times, kinds, ids):
    """``first_spike_times_batch`` over every slot of the trace."""
    b, _ = times.shape
    out = np.full((b, len(ids)), np.inf)
    slots = np.full((b, len(ids)), -1, dtype=np.int64)
    internal = kinds == int(SpikeKind.INTERNAL)
    for col, neuron in enumerate(ids):
        masked = np.where(internal & (neurons == neuron), times, np.inf)
        idx = np.argmin(masked, axis=1)
        t = masked[np.arange(b), idx]
        out[:, col] = t
        slots[:, col] = np.where(np.isfinite(t), idx, -1)
    return out, slots


def format_matrix_reference(name: str, matrix):
    """``core.format_matrix`` with every entry written by ``repr``."""
    yield name + "\n"
    for row in np.asarray(matrix, dtype=np.float64):
        yield " ".join(map(repr, row.tolist())) + "\n"


def replay_row_lines(lines, sample=0):
    """The indices of row ``sample`` of the neurons block and of the times
    block among the lines of a replay file written without blank lines."""
    words = lines[1].split()
    samples = int(dict(zip(words[::2], words[1::2]))["samples"])
    return 3 + sample, 4 + samples + sample


def edit_replay_record(lines, sample, slot, neuron=None, time=None):
    """Put the tokens ``neuron`` and ``time`` (None keeps the present one)
    into record ``slot`` of row ``sample`` of a replay file's ``lines``, in
    place."""
    for at, token in zip(replay_row_lines(lines, sample), (neuron, time)):
        if token is not None:
            words = lines[at].split()
            words[slot] = token
            lines[at] = " ".join(words)


@pytest.fixture
def rng():
    return np.random.default_rng(12345)
