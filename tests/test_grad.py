import io
import math

import numpy as np
import pytest

from eventsnn.core import (
    EventTrace,
    InvalidParameter,
    LifParams,
    Network,
    Spike,
    SpikeKind,
    classify_records,
    read_spike_file,
    write_spike_file,
)
from eventsnn.grad import (
    DegenerateCrossing,
    NoSpike,
    eventprop_backward,
    eventprop_backward_batch,
    fud_feedforward,
    fud_feedforward_grads,
    fud_spike_time_grad,
    reconstruct_currents,
    reconstruct_currents_batch,
)
from eventsnn.lif import next_crossing_double_tau
from eventsnn.sim import pack_inputs, simulate, simulate_batch
from eventsnn.train import structure_masks

from conftest import (
    dense_adjoint,
    dense_row_adjoint,
    dense_row_currents,
    random_inputs,
    random_network,
)

P2 = LifParams(tau_mem=2.0)
P1 = LifParams(tau_mem=1.0)
INTERNAL, INPUT, DUMMY = int(SpikeKind.INTERNAL), int(SpikeKind.INPUT), int(SpikeKind.DUMMY)


def in_spike(neuron, t):
    return Spike(neuron, t, SpikeKind.INPUT)


def with_weights(net, w=None, w_in=None):
    return Network(
        n_total=net.n_total,
        weights=net.weights if w is None else w,
        input_weights=net.input_weights if w_in is None else w_in,
        params=net.params,
        output_set=net.output_set,
        record_set=net.record_set,
    )


def first_spike_loss(net, inputs, m, t_max, coeffs):
    """Test loss: sum_k c_k * t_first(output k), silent outputs use t_max."""
    trace = simulate(net, inputs, m, t_max)
    total = 0.0
    slot_grads = np.zeros(m)
    seen = set()
    slots = zip(trace.neurons.tolist(), trace.times.tolist(), trace.kinds.tolist())
    for slot, (neuron, time, kind) in enumerate(slots):
        if kind != INTERNAL or neuron in seen:
            continue
        seen.add(neuron)
        if neuron in net.output_set:
            k = net.output_set.index(neuron)
            total += coeffs[k] * time
            slot_grads[slot] = coeffs[k]
    for k, neuron in enumerate(net.output_set):
        if neuron not in seen:
            total += coeffs[k] * t_max
    return total, slot_grads, trace


def fd_weight_grad(net, inputs, m, t_max, coeffs, matrix, j, i, eps=1e-4):
    def loss_with(delta):
        if matrix == "w":
            w = np.array(net.weights)
            w[j, i] += delta
            pert = with_weights(net, w=w)
        else:
            w_in = np.array(net.input_weights)
            w_in[j, i] += delta
            pert = with_weights(net, w_in=w_in)
        return first_spike_loss(pert, inputs, m, t_max, coeffs)[0]

    return (loss_with(eps) - loss_with(-eps)) / (2.0 * eps)


def min_vdot(net, trace):
    i_spk = reconstruct_currents(trace, net)[trace.kinds == INTERNAL]
    return float(np.min(np.abs(i_spk - net.params.v_th / net.params.tau_mem), initial=math.inf))


def rel_err(a, b, floor=1e-4):
    return abs(a - b) / max(abs(a), abs(b), floor)


class TestReconstructCurrents:
    def test_no_inputs_all_zero(self):
        net = random_network(np.random.default_rng(0))
        trace = simulate(net, [], m=4, t_max=1.0)
        assert np.all(reconstruct_currents(trace, net) == 0.0)

    def test_matches_engine_record_exactly(self, rng):
        for _ in range(20):
            net = random_network(rng)
            inputs = random_inputs(rng, net)
            idx, times = pack_inputs([inputs])
            batch = simulate_batch(net, idx[:, :-1], times[:, :-1], m=16, t_max=2.5)
            rec = reconstruct_currents(batch[0], net)
            internal = batch.kinds[0] == int(SpikeKind.INTERNAL)
            np.testing.assert_allclose(
                rec[internal], batch.i_spike_recorded[0][internal], atol=1e-12
            )

    def test_file_roundtrip_gives_identical_currents(self, rng):
        net = random_network(rng)
        inputs = random_inputs(rng, net)
        trace = simulate(net, inputs, m=16, t_max=2.5)
        buf = io.StringIO()
        write_spike_file(buf, trace.neurons, trace.times)
        buf.seek(0)
        neurons, times = read_spike_file(buf)
        idx, in_times = pack_inputs([inputs])
        kinds = classify_records(neurons[None], times[None], idx, in_times)[0]
        np.testing.assert_array_equal(kinds, trace.kinds)
        zeros = np.zeros(net.n_total)
        trace2 = EventTrace(neurons, times, kinds, zeros, zeros, 0.0)
        np.testing.assert_array_equal(
            reconstruct_currents(trace, net), reconstruct_currents(trace2, net)
        )


class TestEventProp:
    def test_zero_loss_grads_give_zero_gradients(self, rng):
        net = random_network(rng)
        inputs = random_inputs(rng, net)
        trace = simulate(net, inputs, m=16, t_max=2.5)
        g_w, g_w_in = eventprop_backward(trace, net, np.zeros(16), strict=False)
        assert np.all(g_w == 0.0) and np.all(g_w_in == 0.0)

    def test_adjoint_linearity_exact(self, rng):
        net = random_network(rng)
        inputs = random_inputs(rng, net)
        trace = simulate(net, inputs, m=16, t_max=2.5)
        g = rng.normal(size=16) * (np.array(trace.kinds) == int(SpikeKind.INTERNAL))
        g1 = eventprop_backward(trace, net, g, strict=False)
        # power-of-two scale: every intermediate scales exactly, so the
        # identity holds bitwise rather than merely to rounding
        g4 = eventprop_backward(trace, net, 4.0 * g, strict=False)
        np.testing.assert_array_equal(4.0 * g1[0], g4[0])
        np.testing.assert_array_equal(4.0 * g1[1], g4[1])

    def test_dummy_slots_contribute_nothing(self):
        # same events, wider budget: gradients must be identical
        net = Network(
            n_total=2,
            weights=np.array([[0.0, 2.5], [0.0, 0.0]]),
            input_weights=np.array([[4.0, 0.0]]),
            params=P2,
            output_set=(1,),
        )
        inputs = [in_spike(0, 0.0)]
        for m in (8, 20):
            loss, slot_g, trace = first_spike_loss(net, inputs, m, 4.0, [1.0])
            got = eventprop_backward(trace, net, slot_g, strict=False)
            if m == 8:
                base = got
        np.testing.assert_array_equal(base[0], got[0])
        np.testing.assert_array_equal(base[1], got[1])

    def test_single_chain_matches_finite_differences(self):
        # 1 input -> 1 hidden -> 1 output, TTFS-style loss on the output spike
        net = Network(
            n_total=2,
            weights=np.array([[0.0, 2.5], [0.0, 0.0]]),
            input_weights=np.array([[4.0, 0.0]]),
            params=P2,
            output_set=(1,),
        )
        inputs = [in_spike(0, 0.0)]
        m, t_max = 8, 4.0
        loss, slot_g, trace = first_spike_loss(net, inputs, m, t_max, [1.0])
        g_w, g_w_in = eventprop_backward(trace, net, slot_g)
        fd_w = fd_weight_grad(net, inputs, m, t_max, [1.0], "w", 0, 1)
        fd_in = fd_weight_grad(net, inputs, m, t_max, [1.0], "w_in", 0, 0)
        assert rel_err(g_w[0, 1], fd_w) <= 1e-3
        assert rel_err(g_w_in[0, 0], fd_in) <= 1e-3

    def test_random_networks_match_finite_differences(self, rng):
        # compressed version of the acceptance sweep: every weight of every
        # accepted configuration, relative error <= 1e-3 at eps = 1e-4
        checked = 0
        attempts = 0
        while checked < 12 and attempts < 200:
            attempts += 1
            net = random_network(rng, n_max=5)
            inputs = random_inputs(rng, net, k_max=5)
            m, t_max = 30, 2.5
            coeffs = rng.choice([-1.0, 1.0], size=len(net.output_set))
            loss, slot_g, trace = first_spike_loss(net, inputs, m, t_max, coeffs)
            if trace.kinds[-1] != DUMMY:
                continue  # budget must absorb every event
            if min_vdot(net, trace) < 0.12:
                continue  # grazing crossing: gradient ill-conditioned
            g_w, g_w_in = eventprop_backward(trace, net, slot_g, strict=False)
            n = net.n_total
            for j in range(n):
                for i in range(n):
                    fd = fd_weight_grad(net, inputs, m, t_max, coeffs, "w", j, i)
                    assert rel_err(g_w[j, i], fd) <= 1e-3, (attempts, j, i, g_w[j, i], fd)
            for j in range(net.n_in):
                for i in range(n):
                    fd = fd_weight_grad(net, inputs, m, t_max, coeffs, "w_in", j, i)
                    assert rel_err(g_w_in[j, i], fd) <= 1e-3, (
                        attempts, j, i, g_w_in[j, i], fd,
                    )
            checked += 1
        assert checked == 12

    def test_degenerate_crossing_raises_in_strict_mode(self):
        # craft a trace whose reconstructed current at the spike makes
        # dV/dt = I - v_th/tau_mem vanish: I(T) = 1 * e^{-ln 2} = 0.5
        net = Network(
            n_total=1,
            weights=np.zeros((1, 1)),
            input_weights=np.array([[1.0]]),
            params=P2,
            output_set=(0,),
        )
        trace = EventTrace(
            np.array([0, 0, -1]),
            np.array([0.0, math.log(2.0), np.inf]),
            np.array([INPUT, INTERNAL, DUMMY], dtype=np.int8),
            np.zeros(1),
            np.zeros(1),
            0.0,
        )
        slot_g = np.array([0.0, 1.0, 0.0])
        with pytest.raises(DegenerateCrossing):
            eventprop_backward(trace, net, slot_g, strict=True)
        g_w, g_w_in = eventprop_backward(trace, net, slot_g, strict=False)
        assert np.all(np.isfinite(g_w)) and np.all(np.isfinite(g_w_in))


def random_batch(rng, net, b=8, m=30, t_max=2.5):
    """A simulated batch and random loss derivatives on its internal slots."""
    idx, times = pack_inputs([random_inputs(rng, net) for _ in range(b)])
    batch = simulate_batch(net, idx[:, :-1], times[:, :-1], m=m, t_max=t_max)
    g = rng.normal(size=batch.times.shape) * (batch.kinds == int(SpikeKind.INTERNAL))
    return batch, g


def summand_scale(batch, net, loss_grads, **kw):
    """Per matrix, the largest entry of sum_b |gradient of row b|.

    The batch gradient is a sum over rows that can cancel far below its
    terms, so agreement is measured against the size of the terms.
    """
    scale = [0.0, 0.0]
    for r in range(batch.batch_size):
        one = dense_adjoint(
            batch.neurons[r : r + 1], batch.times[r : r + 1], batch.kinds[r : r + 1],
            net, loss_grads[r : r + 1], **kw,
        )
        scale = [s + np.abs(g) for s, g in zip(scale, one)]
    return [float(np.max(s, initial=0.0)) for s in scale]


def assert_matches_dense(batch, net, loss_grads, **kw):
    args = (batch.neurons, batch.times, batch.kinds, net, loss_grads)
    got = eventprop_backward_batch(*args, **kw)
    want = dense_adjoint(*args, **kw)
    scales = summand_scale(batch, net, loss_grads, **kw)
    for g, d, s in zip(got, want, scales):
        assert np.all(np.isfinite(g))
        assert np.max(np.abs(g - d), initial=0.0) <= 1e-12 * max(s, np.max(np.abs(d), initial=0.0))
    return got


def chain_net(params):
    return Network(
        n_total=2,
        weights=np.array([[0.0, 2.5], [0.0, 0.0]]),
        input_weights=np.array([[4.0, 0.0]]),
        params=params,
        output_set=(1,),
    )


LONG_SPAN_INPUTS = (0.0, 99.8, 900.0, 1800.0)


def long_span_batch(params):
    """Bursts of a 2-neuron chain driven at t = 0, 99.8, 900 and 1800.

    exp((t - A) / tau) over the whole span overflows, so one frame anchor
    per row fails; the burst at 99.8 straddles the window edge at t = 100.
    """
    idx, times = pack_inputs([[in_spike(0, t) for t in LONG_SPAN_INPUTS]])
    return simulate_batch(chain_net(params), idx[:, :-1], times[:, :-1], m=32, t_max=2000.0)


class TestEventDrivenAdjoint:
    """The frame-coefficient backward pass against the dense adjoint flow."""

    @pytest.mark.parametrize("params", [P2, P1], ids=["tau_ratio_2", "tau_ratio_1"])
    def test_random_recurrent_nets_match_dense(self, rng, params):
        self_loops = zero_weights = 0
        for _ in range(25):
            net = random_network(rng, params=params)
            self_loops += int(np.any(np.diag(net.weights) != 0.0))
            zero_weights += int(np.any(net.weights == 0.0))
            batch, g = random_batch(rng, net)
            assert_matches_dense(batch, net, g)
        assert self_loops > 0 and zero_weights > 0

    @pytest.mark.parametrize("params", [P2, P1], ids=["tau_ratio_2", "tau_ratio_1"])
    def test_vdot_floor_matches_dense(self, rng, params):
        for _ in range(10):
            net = random_network(rng, params=params)
            batch, g = random_batch(rng, net)
            assert_matches_dense(batch, net, g, vdot_floor=0.5)

    def degenerate_batch(self, rng):
        """Row 0: a spike with dV/dt = 0 up to rounding; rows 1-3 are regular."""
        net = Network(
            n_total=1,
            weights=np.zeros((1, 1)),
            input_weights=np.array([[1.0]]),
            params=P2,
            output_set=(0,),
        )
        batch, _ = random_batch(rng, net, b=4, m=3)
        batch.neurons[0] = [0, 0, -1]
        batch.times[0] = [0.0, math.log(2.0), np.inf]
        batch.kinds[0] = [int(SpikeKind.INPUT), int(SpikeKind.INTERNAL), int(SpikeKind.DUMMY)]
        g = np.where(batch.kinds == int(SpikeKind.INTERNAL), 1.0, 0.0)
        return batch, net, g

    def test_degenerate_crossing_non_strict_matches_dense(self, rng):
        batch, net, g = self.degenerate_batch(rng)
        assert_matches_dense(batch, net, g, strict=False)

    def test_degenerate_crossing_strict_raises_like_dense(self, rng):
        batch, net, g = self.degenerate_batch(rng)
        args = (batch.neurons, batch.times, batch.kinds, net, g)
        with pytest.raises(DegenerateCrossing):
            dense_adjoint(*args, strict=True)
        with pytest.raises(DegenerateCrossing):
            eventprop_backward_batch(*args, strict=True)
        # the regular rows alone pass the strict check
        rest = (a[1:] for a in (batch.neurons, batch.times, batch.kinds))
        eventprop_backward_batch(*rest, net, g[1:], strict=True)

    @pytest.mark.parametrize("params", [P2, P1], ids=["tau_ratio_2", "tau_ratio_1"])
    def test_batch_equals_sum_of_single_rows(self, rng, params):
        for _ in range(10):
            net = random_network(rng, params=params)
            batch, g = random_batch(rng, net)
            whole = eventprop_backward_batch(batch.neurons, batch.times, batch.kinds, net, g)
            rows = [
                eventprop_backward_batch(
                    batch.neurons[r : r + 1], batch.times[r : r + 1],
                    batch.kinds[r : r + 1], net, g[r : r + 1],
                )
                for r in range(batch.batch_size)
            ]
            scales = summand_scale(batch, net, g)
            for m_idx in range(2):
                total = sum(r[m_idx] for r in rows)
                np.testing.assert_allclose(
                    whole[m_idx], total, rtol=1e-12, atol=1e-12 * scales[m_idx]
                )

    @pytest.mark.parametrize("params", [P2, P1], ids=["tau_ratio_2", "tau_ratio_1"])
    def test_long_span_gradients_finite_and_match_dense(self, params):
        batch = long_span_batch(params)
        assert batch.times[0, -1] == np.inf  # every burst fits the budget
        assert np.sum(batch.kinds == int(SpikeKind.INPUT)) == len(LONG_SPAN_INPUTS)
        assert np.any((batch.times > 100.0) & (batch.times < 101.0))
        g = np.where(batch.kinds == int(SpikeKind.INTERNAL), 1.0, 0.0)
        got = assert_matches_dense(batch, chain_net(params), g)
        assert np.all(got[0][0] != 0.0) and got[1][0, 0] != 0.0

    @pytest.mark.parametrize("params", [P2, P1], ids=["tau_ratio_2", "tau_ratio_1"])
    def test_long_span_currents_match_engine(self, params):
        batch = long_span_batch(params)
        out, i_end, t_end = reconstruct_currents_batch(
            batch.neurons, batch.times, batch.kinds, chain_net(params)
        )
        internal = batch.kinds == int(SpikeKind.INTERNAL)
        assert np.all(np.isfinite(out)) and np.all(out[~internal] == 0.0)
        np.testing.assert_allclose(
            out[internal], batch.i_spike_recorded[internal], rtol=0, atol=1e-12
        )
        # the engine propagates to t_max; replay stops at the last event
        last = np.max(batch.times[np.isfinite(batch.times)])
        assert t_end[0] == last
        decay = np.exp(-(batch.final_t[0] - last) / params.tau_syn)
        np.testing.assert_allclose(i_end[0] * decay, batch.final_i[0], rtol=1e-12, atol=1e-300)


TAU_RATIOS = pytest.mark.parametrize("params", [P2, P1], ids=["tau_ratio_2", "tau_ratio_1"])


def random_support(rng, net):
    """0/1 masks with no block structure, shaped like the weights."""
    return tuple(
        (rng.random(w.shape) < 0.5).astype(np.float64) for w in (net.weights, net.input_weights)
    )


def assert_support_is_masked_full(batch, net, loss_grads, support, **kw):
    args = (batch.neurons, batch.times, batch.kinds, net, loss_grads)
    full = eventprop_backward_batch(*args, **kw)
    got = eventprop_backward_batch(*args, support=support, **kw)
    for g, f, mask in zip(got, full, support):
        assert np.array_equal(g, f * mask)
        assert np.all(g[mask == 0] == 0.0)
    return got, full


def assert_bitwise(got, want):
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert g.shape == w.shape and np.array_equal(g, w)


class TestGradientSupport:
    """The gradient on a support equals the full-support gradient times the
    mask, and the full support and the current replay equal the dense-row
    loops, all bitwise."""

    @TAU_RATIOS
    def test_random_support_on_recurrent_nets(self, rng, params):
        self_loops = zero_weights = 0
        for _ in range(25):
            net = random_network(rng, params=params)
            self_loops += int(np.any(np.diag(net.weights) != 0.0))
            zero_weights += int(np.any(net.weights == 0.0))
            batch, g = random_batch(rng, net)
            assert_support_is_masked_full(batch, net, g, random_support(rng, net))
        assert self_loops > 0 and zero_weights > 0

    @TAU_RATIOS
    def test_random_support_with_vdot_floor(self, rng, params):
        for _ in range(10):
            net = random_network(rng, params=params)
            batch, g = random_batch(rng, net)
            support = random_support(rng, net)
            assert_support_is_masked_full(batch, net, g, support, vdot_floor=0.5)

    @TAU_RATIOS
    def test_training_masks_on_5_8_3_nets(self, rng, params):
        support = structure_masks(5, 8, 3)
        feedforward = Network.feedforward(
            rng.uniform(0.5, 3.0, size=(5, 8)), rng.uniform(-1.0, 3.0, size=(8, 3)), params
        )
        # a recurrent net of the same size has gradients off the support too
        recurrent = Network(
            n_total=11,
            weights=rng.uniform(-1.0, 2.0, size=(11, 11)),
            input_weights=rng.uniform(0.5, 3.0, size=(5, 11)),
            params=params,
            output_set=feedforward.output_set,
        )
        for net in (feedforward, recurrent):
            batch, g = random_batch(rng, net, b=16, m=60)
            internal = batch.kinds == INTERNAL
            assert np.any(internal & (batch.neurons >= 8))
            assert np.any(internal & (batch.neurons < 8))
            got, full = assert_support_is_masked_full(batch, net, g, support)
            assert all(np.any(x != 0.0) for x in got)
        assert np.any(full[0][support[0] == 0] != 0.0)

    def test_all_ones_support_is_the_default(self, rng):
        net = random_network(rng)
        batch, g = random_batch(rng, net)
        args = (batch.neurons, batch.times, batch.kinds, net, g)
        ones = (np.ones(net.weights.shape), np.ones(net.input_weights.shape))
        got = eventprop_backward_batch(*args, support=ones)
        assert_bitwise(got, eventprop_backward_batch(*args))

    @TAU_RATIOS
    def test_full_support_equals_dense_row_loop(self, rng, params):
        cases = [(chain_net(params), long_span_batch(params))]
        for _ in range(10):
            net = random_network(rng, params=params)
            cases.append((net, random_batch(rng, net)[0]))
        for net, batch in cases:
            g = rng.normal(size=batch.times.shape) * (batch.kinds == INTERNAL)
            args = (batch.neurons, batch.times, batch.kinds, net, g)
            for kw in ({}, {"vdot_floor": 0.5}):
                got = eventprop_backward_batch(*args, **kw)
                assert_bitwise(got, dense_row_adjoint(*args, **kw))

    @TAU_RATIOS
    def test_currents_equal_dense_row_replay(self, rng, params):
        cases = [(chain_net(params), long_span_batch(params))]
        for _ in range(10):
            net = random_network(rng, params=params)
            cases.append((net, random_batch(rng, net)[0]))
        for net, batch in cases:
            args = (batch.neurons, batch.times, batch.kinds, net)
            assert_bitwise(reconstruct_currents_batch(*args), dense_row_currents(*args))


class TestBackwardInputChecks:
    """The batched backward pass rejects malformed loss grads and supports."""

    @pytest.fixture
    def case(self, rng):
        net = random_network(rng)
        batch, g = random_batch(rng, net, b=4)
        return (batch.neurons, batch.times, batch.kinds, net), g

    def test_one_row_of_loss_grads_for_a_batch_raises(self, case):
        args, g = case
        with pytest.raises(InvalidParameter):
            eventprop_backward_batch(*args, g[0])

    def test_single_sample_loss_grads_of_wrong_length_raise(self, case):
        (neurons, times, kinds, net), g = case
        zeros = np.zeros(net.n_total)
        trace = EventTrace(neurons[0], times[0], kinds[0], zeros, zeros, 0.0)
        with pytest.raises(InvalidParameter):
            eventprop_backward(trace, net, g[0, :-1], strict=False)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_loss_grads_raise(self, case, bad):
        args, g = case
        g[1, 2] = bad
        with pytest.raises(InvalidParameter):
            eventprop_backward_batch(*args, g)

    def test_support_of_wrong_shape_raises(self, case):
        args, g = case
        n, n_in = args[3].n_total, args[3].n_in
        mask_w, mask_in = np.ones((n, n)), np.ones((n_in, n))
        wrong = ((np.ones((n + 1, n)), mask_in), (mask_w, np.ones((n_in, n + 1))), (mask_w,))
        for support in wrong:
            with pytest.raises(InvalidParameter):
                eventprop_backward_batch(*args, g, support=support)


class TestFudSpikeTimeGrad:
    def test_single_input_matches_finite_differences(self):
        w = 4.0
        grad = fud_spike_time_grad([in_spike(0, 0.0)], np.array([w]), P2)
        eps = 1e-5

        def t_of(wv):
            return next_crossing_double_tau(0.0, wv, P2).time

        fd = (t_of(w + eps) - t_of(w - eps)) / (2 * eps)
        assert abs(grad.d_weights[0] - fd) <= 1e-6
        assert grad.time == pytest.approx(t_of(w), abs=1e-12)

    def test_input_time_derivative(self):
        times = np.array([0.0, 0.3])
        w = np.array([3.0, 2.0])
        grad = fud_spike_time_grad(times, w, P2)
        eps = 1e-6

        def t_of(shift):
            t2 = times.copy()
            t2[1] += shift
            return fud_spike_time_grad(t2, w, P2).time

        fd = (t_of(eps) - t_of(-eps)) / (2 * eps)
        assert abs(grad.d_times[1] - fd) <= 1e-6

    def test_no_spike_raises(self):
        with pytest.raises(NoSpike):
            fud_spike_time_grad([in_spike(0, 0.0)], np.array([0.1]), P2)

    def test_joint_scaling_invariance(self):
        # scaling all weights and v_th together leaves the crossing unchanged
        times = np.array([0.0, 0.2, 0.5])
        w = np.array([2.0, 1.5, 1.0])
        base = fud_spike_time_grad(times, w, P2).time
        for s in (0.5, 2.0, 7.3):
            scaled = fud_spike_time_grad(
                times, s * w, LifParams(tau_mem=2.0, v_th=s * P2.v_th)
            ).time
            assert scaled == pytest.approx(base, abs=1e-12)
        # directional derivative along the scaling ray vanishes
        eps = 1e-6
        up = fud_spike_time_grad(
            times, (1 + eps) * w, LifParams(tau_mem=2.0, v_th=(1 + eps) * P2.v_th)
        ).time
        dn = fud_spike_time_grad(
            times, (1 - eps) * w, LifParams(tau_mem=2.0, v_th=(1 - eps) * P2.v_th)
        ).time
        assert abs((up - dn) / (2 * eps)) <= 1e-6


class TestFudNetwork:
    M, T_MAX = 24, 3.0
    CHUNK, ROWS = 256, 32  # candidates per screening run, batch rows it uses

    @staticmethod
    def draw_candidate(rng):
        w_in = rng.uniform(1.2, 2.2, size=(2, 3))
        w_ho = rng.uniform(0.8, 1.6, size=(3, 2))
        net = Network.feedforward(w_in, w_ho, P2)
        inputs = [in_spike(0, 0.0), in_spike(1, float(rng.uniform(0.1, 0.5)))]
        return net, inputs

    def accept(self, net, inputs):
        """The trace if every neuron spikes exactly once, well above grazing."""
        trace = simulate(net, inputs, self.M, self.T_MAX)
        counts = np.bincount(trace.neurons[trace.kinds == INTERNAL], minlength=net.n_total)
        if trace.kinds[-1] != DUMMY or np.any(counts > 1):
            return None
        if np.count_nonzero(counts) != net.n_total:  # everyone spikes exactly once
            return None
        if min_vdot(net, trace) < 0.12:
            return None
        return trace

    def screen(self, cands):
        """Mask of the candidates ``accept`` may take, from one batched run.

        Candidate k is block k of a block-diagonal net, driven in row
        k % ROWS only.  Blocks evolve independently (see
        test_block_diagonal_equals_independent_runs), so in an untruncated
        row a candidate passes exactly when each of its neurons spikes once;
        every candidate of a truncated row passes.
        """
        c, n = len(cands), cands[0][0].n_total
        w = np.zeros((n * c, n * c))
        w_in = np.zeros((2 * c, n * c))
        row_inputs = [[] for _ in range(self.ROWS)]
        for k, (net, inputs) in enumerate(cands):
            w[n * k : n * (k + 1), n * k : n * (k + 1)] = net.weights
            w_in[2 * k : 2 * (k + 1), n * k : n * (k + 1)] = net.input_weights
            row_inputs[k % self.ROWS] += [in_spike(s.neuron + 2 * k, s.time) for s in inputs]
        combined = Network(n_total=n * c, weights=w, input_weights=w_in, params=P2)
        idx, times = pack_inputs([sorted(r, key=lambda s: s.time) for r in row_inputs])
        m = self.M * math.ceil(c / self.ROWS)
        batch = simulate_batch(combined, idx[:, :-1], times[:, :-1], m, self.T_MAX)
        internal = batch.kinds == int(SpikeKind.INTERNAL)
        counts = np.zeros((self.ROWS, n * c), dtype=np.int64)
        np.add.at(counts, (np.nonzero(internal)[0], batch.neurons[internal]), 1)
        truncated = batch.kinds[:, -1] != int(SpikeKind.DUMMY)
        row = np.arange(c) % self.ROWS
        once = (counts.reshape(self.ROWS, c, n)[row, np.arange(c)] == 1).all(axis=1)
        return once | truncated[row]

    def build_single_spike_net(self, rng):
        """Feedforward net + inputs where every neuron spikes exactly once.

        Candidates are drawn in chunks and screened in one batched run; the
        generator is then rewound and advanced past the accepted candidate,
        so it ends where drawing one candidate at a time would leave it.
        """
        while True:
            start = rng.bit_generator.state
            cands = [self.draw_candidate(rng) for _ in range(self.CHUNK)]
            for k in np.flatnonzero(self.screen(cands)):
                net, inputs = cands[k]
                trace = self.accept(net, inputs)
                if trace is not None:
                    rng.bit_generator.state = start
                    for _ in range(k + 1):
                        self.draw_candidate(rng)
                    return net, inputs, trace, self.M, self.T_MAX

    def test_forward_agrees_with_simulator_in_single_spike_regime(self, rng):
        for _ in range(5):
            net, inputs, trace, m, t_max = self.build_single_spike_net(rng)
            n_h = 3
            t_by_neuron = np.zeros((1, 2))
            for s in inputs:
                t_by_neuron[0, s.neuron] = s.time
            t_h, t_o = fud_feedforward(
                t_by_neuron, net.input_weights[:, :n_h], net.weights[:n_h, n_h:], P2, t_max
            )
            internal = trace.kinds == INTERNAL
            sim_times = dict(zip(trace.neurons[internal].tolist(), trace.times[internal]))
            for h in range(n_h):
                assert t_h[0, h] == pytest.approx(sim_times[h], abs=1e-9)
            for o in range(2):
                assert t_o[0, o] == pytest.approx(sim_times[n_h + o], abs=1e-9)

    def test_fud_eventprop_agreement(self, rng):
        # both exact estimators on the same single-spike network: 1e-6 relative
        for _ in range(5):
            net, inputs, trace, m, t_max = self.build_single_spike_net(rng)
            n_h = 3
            coeffs = rng.choice([-1.0, 1.0], size=2)
            loss, slot_g, _ = first_spike_loss(net, inputs, m, t_max, list(coeffs))
            g_w, g_w_in = eventprop_backward(trace, net, slot_g)

            t_by_neuron = np.zeros((1, 2))
            for s in inputs:
                t_by_neuron[0, s.neuron] = s.time
            w_in = net.input_weights[:, :n_h]
            w_ho = net.weights[:n_h, n_h:]
            t_h, t_o = fud_feedforward(t_by_neuron, w_in, w_ho, P2, t_max)
            g_ho, g_in = fud_feedforward_grads(
                t_by_neuron, t_h, t_o, w_in, w_ho, coeffs[None, :], P2
            )
            for h in range(n_h):
                for o in range(2):
                    assert rel_err(g_w[h, n_h + o], g_ho[h, o], floor=1e-9) <= 1e-6
            for j in range(2):
                for h in range(n_h):
                    assert rel_err(g_w_in[j, h], g_in[j, h], floor=1e-9) <= 1e-6
