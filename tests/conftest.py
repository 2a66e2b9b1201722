"""Shared oracles and generators for the test suite.

The oracles are deliberately primitive: plain forward-Euler loops, dense
per-event decays of every lane and bracket-and-bisect root finding,
independent of the closed-form and event-driven paths they are used to check.
"""
import numpy as np
import pytest

from eventsnn.core import (
    DUMMY_NEURON,
    EventTrace,
    InvalidParameter,
    LifParams,
    Network,
    Spike,
    SpikeKind,
    validate_network,
)
from eventsnn.grad import (
    EPS_VDOT,
    DegenerateCrossing,
    _adjoint_coefficients,
    _anchor,
    _stacked_source,
)
from eventsnn.lif import propagate_arrays


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
    validate_network(net, require_analytic=False)
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
        np.array(v),
        np.array(i),
        min(t, t_max),
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
    """``grad.reconstruct_currents_batch`` with a dense weight row per slot.

    Each row keeps its currents as frame coefficients c (same anchors and
    rescales), and every slot adds the whole stacked row [w; w_in; 0][src]
    e^{(t-A)/tau_s} to its row's c, touching every lane.
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
    return out, c * shrink[:, -1, None], seen[:, -1]


def dense_row_adjoint(
    neurons, times, kinds, net: Network, loss_grads, strict=False, vdot_floor=0.0
):
    """``grad.eventprop_backward_batch`` with a dense gradient row per slot.

    The same frame coefficients and jumps, but every slot adds its rows'
    gradient rows a_v D + a_q Q over all N + 1 lanes to a stacked
    (N + n_in + 1, N + 1) accumulator with one bincount: the full support
    computed without a support list.
    """
    b, m = times.shape
    n, n_in = net.n_total, net.n_in
    coef, shift, to_window = _adjoint_coefficients(
        neurons, times, kinds, net, loss_grads, strict, vdot_floor
    )
    moved = (shift != 0.0).any(axis=1)
    fan = net.fan_out
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


@pytest.fixture
def rng():
    return np.random.default_rng(12345)
