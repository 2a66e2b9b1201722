import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest

import eventsnn.grad as grad
from eventsnn.backend import read_replay_file, replay_block_to_trace, write_replay_file
from eventsnn.core import (
    EventTrace,
    InvalidParameter,
    LifParams,
    Network,
    Spike,
    SpikeKind,
    UnsupportedTauRatio,
)
from eventsnn.grad import (
    EPS_VDOT,
    DegenerateCrossing,
    Support,
    _anchor,
    _layer_grads,
    eventprop_backward,
    eventprop_backward_batch,
    fud_feedforward,
    fud_feedforward_grads,
    fud_first_spike_times,
    reconstruct_currents_batch,
)
from eventsnn.lif import next_crossing_double_tau, next_crossing_safe
from eventsnn.sim import pack_inputs, simulate, simulate_batch
from eventsnn.data import EncodingConfig, encode_dataset, generate
from eventsnn.train import (
    TtfsLoss,
    build_network,
    first_spike_times_batch,
    pack_samples,
    scatter_slot_grads,
    structure_masks,
    ttfs_from_times,
)

from conftest import (
    NoSpike,
    assert_bitwise_trace,
    backward_or_reference,
    cumsum_in_place,
    currents_cumsum_reference,
    currents_or_reference,
    dense_adjoint,
    dense_row_adjoint,
    dense_row_currents,
    fud_first_spike_times_reference,
    fud_spike_time_grad,
    is_acyclic,
    loop_first_spike_times,
    random_inputs,
    random_network,
    simulate_batch_reference,
    two_exp_layer_grads,
    without_outputs,
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
    )


def first_spike_loss(net, inputs, m, t_max, coeffs, sim_net=None):
    """Test loss: sum_k c_k * t_first(output k), silent outputs use t_max,
    on the trace of ``sim_net`` (default: ``net``)."""
    trace = simulate(net if sim_net is None else sim_net, inputs, m, t_max)
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


def row_currents(trace, net):
    """Per-slot current of the spiking neuron of a one-sample trace; on a
    cyclic net, which the current replay rejects, the slot-loop reference."""
    return currents_or_reference(
        trace.neurons[None], trace.times[None], trace.kinds[None], net
    )[0][0]


def min_vdot(net, trace):
    i_spk = row_currents(trace, net)[trace.kinds == INTERNAL]
    return float(np.min(np.abs(i_spk - net.params.v_th / net.params.tau_mem), initial=math.inf))


def rel_err(a, b, floor=1e-4):
    return abs(a - b) / max(abs(a), abs(b), floor)


def backward(trace, net, loss_grads, strict=True):
    """``eventprop_backward`` of a one-sample trace on an acyclic net; on a
    cyclic one, which it rejects, the slot-loop reference."""
    return backward_or_reference(
        trace.neurons[None], trace.times[None], trace.kinds[None], net,
        np.asarray(loss_grads)[None], strict=strict,
    )


def fd_sweep(rng, backward_fn, recurrent):
    """The finite-difference acceptance sweep, compressed: every weight of
    each of 12 accepted random nets, relative error <= 1e-3 at eps = 1e-4.
    Returns the number of nets checked."""
    checked = 0
    attempts = 0
    while checked < 12 and attempts < 200:
        attempts += 1
        net = random_network(rng, n_max=5, recurrent=recurrent)
        inputs = random_inputs(rng, net, k_max=5)
        m, t_max = 30, 2.5
        coeffs = rng.choice([-1.0, 1.0], size=len(net.output_set))
        loss, slot_g, trace = first_spike_loss(net, inputs, m, t_max, coeffs)
        if trace.kinds[-1] != DUMMY:
            continue  # budget must absorb every event
        if min_vdot(net, trace) < 0.12:
            continue  # grazing crossing: gradient ill-conditioned
        g_w, g_w_in = backward_fn(trace, net, slot_g, strict=False)
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
    return checked


# tracemalloc peak in bytes of one current replay of ``two_hidden_layers_case``:
# 2.43e6 measured with numpy 2.4 in row chunks of REPLAY_ENTRIES, 7.26e6 with
# one block per level and window
REPLAY_PEAK_BYTES = 3.0e6


def two_hidden_layers_case(h=100, b=32, m=600):
    """A 5-h-h-3 feedforward net and its traces of b Yin-Yang rows: the
    inputs drive the first hidden layer hard, so it fires about a hundred
    times in a row and drives the second layer with every spike."""
    rng = np.random.default_rng(7)
    n = 2 * h + 3
    w = np.zeros((n, n))
    w[:h, h : 2 * h] = rng.uniform(-0.1, 0.5, size=(h, h))
    w[h : 2 * h, 2 * h :] = rng.uniform(0.0, 0.2, size=(h, 3))
    w_in = np.zeros((5, n))
    w_in[:, :h] = rng.uniform(0.5, 3.0, size=(5, h))
    net = Network(n, w, w_in, params=P2, output_set=tuple(range(2 * h, n)))
    ds = pack_samples(encode_dataset(generate(3, b), EncodingConfig()))
    return net, simulate_batch(net, ds.sorted_neurons, ds.sorted_times, m, 4.0)


class TestReconstructCurrents:
    def test_no_inputs_all_zero(self):
        net = random_network(np.random.default_rng(0))
        trace = simulate(net, [], m=4, t_max=1.0)
        assert np.all(row_currents(trace, net) == 0.0)

    def test_matches_engine_record_exactly(self, rng):
        # the reference engine records each spiking neuron's current; its
        # traces are bitwise the engine's
        for _ in range(20):
            net = random_network(rng)
            batch, i_spike = engine_record(rng, net)
            rec, _ = currents_or_reference(batch.neurons, batch.times, batch.kinds, net)
            internal = batch.kinds == int(SpikeKind.INTERNAL)
            np.testing.assert_allclose(rec[internal], i_spike[internal], atol=1e-12)

    def test_acyclic_nets_match_engine_record_and_slot_loop(self, rng):
        spikes = 0
        for _ in range(20):
            net = random_network(rng, recurrent=False)
            batch, i_spike = engine_record(rng, net)
            args = (batch.neurons, batch.times, batch.kinds, net)
            rec = reconstruct_currents_batch(*args)
            assert_bitwise(rec, dense_row_currents(*args))
            internal = batch.kinds == int(SpikeKind.INTERNAL)
            np.testing.assert_allclose(rec[0][internal], i_spike[internal], atol=1e-12)
            spikes += int(internal.sum())
        assert spikes > 0

    def test_rows_change_windows_at_different_slots(self):
        # long-span rows beside short ones: each row moves its frame anchor
        # at its own slots, and some rows never move it
        starts = [(0.0, 99.8, 900.0, 1800.0), (0.0, 0.4), (50.0, 150.0), (0.2,), (120.0, 130.0)]
        inputs = [[in_spike(0, t) for t in row] for row in starts]
        idx, times = pack_inputs(inputs)
        run = (without_outputs(chain_net(P2)), idx[:, :-1], times[:, :-1], 32, 2000.0)
        batch = simulate_batch(*run)
        real = batch.kinds != DUMMY
        moves = np.diff(_anchor(np.where(real, batch.times, 0.0), P2), axis=1, prepend=0.0) != 0.0
        moves &= real
        moving = [tuple(np.flatnonzero(row)) for row in moves if row.any()]
        assert len(set(moving)) == len(moving) == 3 and max(map(len, moving)) >= 3
        args = (batch.neurons, batch.times, batch.kinds, chain_net(P2))
        assert_bitwise(reconstruct_currents_batch(*args), dense_row_currents(*args))
        # and each row alone as in the batch
        for r in range(len(starts)):
            one = (*(a[r : r + 1] for a in args[:3]), args[3])
            assert_bitwise(reconstruct_currents_batch(*one), dense_row_currents(*one))

    def test_an_input_that_drives_two_levels(self, rng):
        # 0 -> 1 -> 2 -> 3 with a shortcut 0 -> 2; input 0 drives neurons 0
        # and 2, which sit three levels apart, input 1 drives 1 and 3
        w = np.zeros((4, 4))
        w[0, 1], w[1, 2], w[2, 3], w[0, 2] = 2.0, 2.5, 3.0, -0.8
        w_in = np.array([[4.0, 0.0, 1.5, 0.0], [0.0, 1.0, 0.0, 0.7]])
        net = Network(4, w, w_in, params=P2, output_set=(3,))
        assert net.levels.tolist() == [3, 2, 1, 0]
        batch, i_spike = engine_record(rng, net, b=8)
        internal = batch.kinds == INTERNAL
        assert set(batch.neurons[internal].tolist()) == {0, 1, 2, 3}
        args = (batch.neurons, batch.times, batch.kinds, net)
        rec = reconstruct_currents_batch(*args)
        assert_bitwise(rec, dense_row_currents(*args))
        np.testing.assert_allclose(rec[0][internal], i_spike[internal], atol=1e-12)

    @pytest.mark.parametrize("replay_entries", [1, 40])
    def test_row_chunks_of_any_size(self, rng, monkeypatch, replay_entries):
        # a level's rows go in chunks of at most REPLAY_ENTRIES block
        # entries, and a window's carry crosses from one chunk to the next
        starts = [(0.0, 99.8, 900.0, 1800.0), (0.0, 0.4), (50.0, 150.0), (0.2,), (120.0, 130.0)]
        idx, times = pack_inputs([[in_spike(0, t) for t in row] for row in starts])
        run = (without_outputs(chain_net(P2)), idx[:, :-1], times[:, :-1], 32, 2000.0)
        cases = [(chain_net(P2), simulate_batch(*run))]
        for _ in range(5):
            net = random_network(rng, recurrent=False)
            cases.append((net, random_batch(rng, net)[0]))
        monkeypatch.setattr(grad, "REPLAY_ENTRIES", replay_entries)
        for net, batch in cases:
            args = (batch.neurons, batch.times, batch.kinds, net)
            assert_bitwise(reconstruct_currents_batch(*args), dense_row_currents(*args))

    def test_memory_peak_on_two_hidden_layers(self):
        # a 5-100-100-3 net whose first hidden layer fires up to 128 times in
        # a row: one (1 + K, B, H) block of the second layer's drivers took
        # 7.26e6 bytes at the peak, row chunks of REPLAY_ENTRIES take 2.43e6
        net, batch = two_hidden_layers_case()
        args = (batch.neurons, batch.times, batch.kinds, net)
        first = (batch.kinds == INTERNAL) & (batch.neurons < 100)
        assert first.sum(axis=1).max() > 100
        want = dense_row_currents(*args)
        assert_bitwise(reconstruct_currents_batch(*args), want)
        tracemalloc.start()
        try:
            reconstruct_currents_batch(*args)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= REPLAY_PEAK_BYTES

    @pytest.mark.parametrize(
        "edges, cycle",
        [([(1, 1)], "1 -> 1"), ([(0, 2), (2, 3), (3, 1), (1, 2)], "2 -> 3 -> 1 -> 2")],
        ids=["self_loop", "three_neurons"],
    )
    def test_a_cyclic_net_raises_and_names_its_cycle(self, rng, edges, cycle):
        w = np.zeros((4, 4))
        for j, i in edges:
            w[j, i] = 0.5
        net = Network(4, w, np.full((2, 4), 3.0), params=P2, output_set=(3,))
        batch, _ = engine_record(rng, net)
        args = (batch.neurons, batch.times, batch.kinds, net)
        with pytest.raises(InvalidParameter, match=f"cycle, {cycle};"):
            reconstruct_currents_batch(*args)
        dense_row_currents(*args)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    @pytest.mark.parametrize("kind", [INTERNAL, INPUT], ids=["internal", "input"])
    def test_a_time_that_is_not_finite_raises(self, rng, kind, bad):
        batch, g = random_batch(rng, chain_net(P2), b=4)
        r, k = np.argwhere(batch.kinds == kind)[1]
        # the slot becomes its row's last event: no later time is compared with it
        tail = (r, slice(k + 1, None))
        batch.neurons[tail], batch.times[tail], batch.kinds[tail], g[tail] = -1, np.inf, DUMMY, 0.0
        args = (batch.neurons, batch.times, batch.kinds, chain_net(P2))
        assert np.all(np.isfinite(eventprop_backward_batch(*args, g)[0]))
        batch.times[r, k] = bad
        with pytest.raises(InvalidParameter, match="finite"):
            reconstruct_currents_batch(*args)
        with pytest.raises(InvalidParameter, match="finite"):
            eventprop_backward_batch(*args, g)

    def test_file_roundtrip_gives_identical_currents(self, rng, tmp_path):
        net = random_network(rng)
        inputs = random_inputs(rng, net)
        idx, in_times = pack_inputs([inputs])
        batch = simulate_batch(net, idx[:, :-1], in_times[:, :-1], 16, 2.5)
        write_replay_file(tmp_path / "t.replay", batch, 16, 2.5)
        rf = read_replay_file(tmp_path / "t.replay")
        trace = replay_block_to_trace(rf.neurons, rf.times, net, idx, in_times, 2.5)[0]
        assert_bitwise_trace(trace, batch[0])
        np.testing.assert_array_equal(row_currents(batch[0], net), row_currents(trace, net))


class TestEventProp:
    def test_zero_loss_grads_give_zero_gradients(self, rng):
        net = random_network(rng)
        inputs = random_inputs(rng, net)
        trace = simulate(net, inputs, m=16, t_max=2.5)
        g_w, g_w_in = backward(trace, net, np.zeros(16), strict=False)
        assert np.all(g_w == 0.0) and np.all(g_w_in == 0.0)

    def test_adjoint_linearity_exact(self, rng):
        net = random_network(rng)
        inputs = random_inputs(rng, net)
        trace = simulate(net, inputs, m=16, t_max=2.5)
        g = rng.normal(size=16) * (np.array(trace.kinds) == int(SpikeKind.INTERNAL))
        g1 = backward(trace, net, g, strict=False)
        # power-of-two scale: every intermediate scales exactly, so the
        # identity holds bitwise rather than merely to rounding
        g4 = backward(trace, net, 4.0 * g, strict=False)
        np.testing.assert_array_equal(4.0 * g1[0], g4[0])
        np.testing.assert_array_equal(4.0 * g1[1], g4[1])

    def test_adjoint_linearity_exact_on_acyclic_nets(self, rng):
        for _ in range(10):
            net = random_network(rng, recurrent=False)
            batch, g = random_batch(rng, net, b=4)
            args = (batch.neurons, batch.times, batch.kinds, net)
            g1 = eventprop_backward_batch(*args, g)
            g4 = eventprop_backward_batch(*args, 4.0 * g)
            assert_bitwise(g4, [4.0 * x for x in g1])

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
        # cyclic nets, most of them: the slot-loop reference takes those
        assert fd_sweep(rng, backward, recurrent=True) == 12

    def test_acyclic_networks_match_finite_differences(self, rng):
        assert fd_sweep(rng, eventprop_backward, recurrent=False) == 12

    def test_ttfs_gradients_equal_on_stopped_and_unstopped_traces(self, rng):
        # the finite-difference cases above: the adjoint is zero past the last
        # output's first spike, so the events after the stop change nothing
        def both(net, inputs, m, t_max, coeffs):
            grads, events = [], []
            for sim_net in (net, without_outputs(net)):
                _, slot_g, trace = first_spike_loss(net, inputs, m, t_max, coeffs, sim_net)
                grads.append(backward(trace, net, slot_g, strict=False))
                events.append(int(np.sum(trace.kinds != DUMMY)))
            cut.append(events[0] < events[1])
            return grads

        cut = []

        chain = Network(
            n_total=2,
            weights=np.array([[0.0, 2.5], [0.0, 0.0]]),
            input_weights=np.array([[4.0, 0.0]]),
            params=P2,
            output_set=(1,),
        )
        cases = [both(chain, [in_spike(0, 0.0)], 8, 4.0, [1.0])]
        attempts = 0
        while len(cases) < 13 and attempts < 200:
            attempts += 1
            net = random_network(rng, n_max=5)
            inputs = random_inputs(rng, net, k_max=5)
            coeffs = rng.choice([-1.0, 1.0], size=len(net.output_set))
            _, _, trace = first_spike_loss(net, inputs, 30, 2.5, coeffs)
            if trace.kinds[-1] != DUMMY or min_vdot(net, trace) < 0.12:
                continue
            cases.append(both(net, inputs, 30, 2.5, coeffs))
        assert len(cases) == 13 and sum(cut) >= 6
        for stopped, full in cases:
            np.testing.assert_array_equal(stopped[0], full[0])
            np.testing.assert_array_equal(stopped[1], full[1])

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
        )
        slot_g = np.array([0.0, 1.0, 0.0])
        with pytest.raises(DegenerateCrossing):
            eventprop_backward(trace, net, slot_g, strict=True)
        g_w, g_w_in = eventprop_backward(trace, net, slot_g, strict=False)
        assert np.all(np.isfinite(g_w)) and np.all(np.isfinite(g_w_in))


def engine_record(rng, net, b=1, m=16, t_max=2.5):
    """``net``'s trace of b rows of random inputs, every row run to the
    budget m, and the current of each spiking neuron as the reference engine
    records it; the reference's trace is bitwise the engine's."""
    idx, times = pack_inputs([random_inputs(rng, net) for _ in range(b)])
    args = (without_outputs(net), idx[:, :-1], times[:, :-1], m, t_max)
    batch = simulate_batch(*args)
    ref, i_spike = simulate_batch_reference(*args)
    assert_bitwise_trace(batch, ref)
    return batch, i_spike


def random_batch(rng, net, b=8, m=30, t_max=2.5):
    """A simulated batch and random loss derivatives on its internal slots.

    The loss reads every internal spike, so the rows run as far as a net
    without outputs runs them."""
    idx, times = pack_inputs([random_inputs(rng, net) for _ in range(b)])
    batch = simulate_batch(without_outputs(net), idx[:, :-1], times[:, :-1], m=m, t_max=t_max)
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


def assert_close(got, want, scales):
    """Agreement to 1e-12 of the summands' scale or of the result."""
    for g, d, s in zip(got, want, scales):
        assert np.all(np.isfinite(g))
        assert np.max(np.abs(g - d), initial=0.0) <= 1e-12 * max(s, np.max(np.abs(d), initial=0.0))


def assert_matches_dense(batch, net, loss_grads, **kw):
    """The backward equals the dense adjoint flow and, on an acyclic net,
    the slot-loop reference; a cyclic net takes the slot loop in its place."""
    args = (batch.neurons, batch.times, batch.kinds, net, loss_grads)
    got = backward_or_reference(*args, **kw)
    scales = summand_scale(batch, net, loss_grads, **kw)
    assert_close(got, dense_adjoint(*args, **kw), scales)
    if is_acyclic(net):
        assert_close(got, dense_row_adjoint(*args, **kw), scales)
    return got


def assert_batch_equals_rows(batch, net, g):
    """The batch gradient equals the sum of its rows' gradients."""
    whole = backward_or_reference(batch.neurons, batch.times, batch.kinds, net, g)
    rows = [
        backward_or_reference(
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


def max_spikes_per_neuron(batch):
    """The most internal spikes one neuron has in one row."""
    internal = batch.kinds == INTERNAL
    rows = np.nonzero(internal)[0]
    return int(np.bincount(rows * (batch.neurons.max() + 1) + batch.neurons[internal]).max(initial=0))


def chain_net(params):
    return Network(
        n_total=2,
        weights=np.array([[0.0, 2.5], [0.0, 0.0]]),
        input_weights=np.array([[4.0, 0.0]]),
        params=params,
        output_set=(1,),
    )


LONG_SPAN_INPUTS = (0.0, 99.8, 900.0, 1800.0)


def long_span_run(params):
    """The arguments of a run of a 2-neuron chain driven at t = 0, 99.8, 900
    and 1800.

    exp((t - A) / tau) over the whole span overflows, so one frame anchor
    per row fails; the burst at 99.8 straddles the window edge at t = 100.
    """
    idx, times = pack_inputs([[in_spike(0, t) for t in LONG_SPAN_INPUTS]])
    net = without_outputs(chain_net(params))  # every burst, not only the first
    return net, idx[:, :-1], times[:, :-1], 32, 2000.0


def long_span_batch(params):
    return simulate_batch(*long_span_run(params))


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

    @pytest.mark.parametrize("params", [P2, P1], ids=["tau_ratio_2", "tau_ratio_1"])
    def test_random_acyclic_nets_match_both_references(self, rng, params):
        most = 0
        for _ in range(25):
            net = random_network(rng, params=params, recurrent=False)
            batch, g = random_batch(rng, net)
            most = max(most, max_spikes_per_neuron(batch))
            for kw in ({}, {"vdot_floor": 0.5}):
                assert_matches_dense(batch, net, g, **kw)
        assert most >= 3

    @pytest.mark.parametrize("params", [P2, P1], ids=["tau_ratio_2", "tau_ratio_1"])
    def test_tied_times_match_both_references(self, rng, params):
        # a real slot takes the time of the slot before it: a lane's state
        # is then read by slot order, not by time
        ties = 0
        for _ in range(10):
            net = random_network(rng, params=params, recurrent=False)
            batch, g = random_batch(rng, net)
            real = np.flatnonzero((batch.kinds[:, 1:] != DUMMY).ravel())
            r, k = np.divmod(rng.choice(real, size=min(real.size, 12), replace=False), batch.times.shape[1] - 1)
            batch.times[r, k + 1] = batch.times[r, k]
            later = batch.kinds[:, 1:] != DUMMY
            ties += int(np.sum(later & (batch.times[:, 1:] == batch.times[:, :-1])))
            assert_matches_dense(batch, net, g)
        assert ties > 0

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
            assert_batch_equals_rows(batch, net, g)

    @pytest.mark.parametrize("params", [P2, P1], ids=["tau_ratio_2", "tau_ratio_1"])
    def test_acyclic_batch_equals_sum_of_single_rows(self, rng, params):
        for _ in range(10):
            net = random_network(rng, params=params, recurrent=False)
            batch, g = random_batch(rng, net)
            assert_batch_equals_rows(batch, net, g)

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
        ref, i_spike = simulate_batch_reference(*long_span_run(params))
        assert_bitwise_trace(batch, ref)
        out, t_end = reconstruct_currents_batch(
            batch.neurons, batch.times, batch.kinds, chain_net(params)
        )
        internal = batch.kinds == int(SpikeKind.INTERNAL)
        assert np.all(np.isfinite(out)) and np.all(out[~internal] == 0.0)
        np.testing.assert_allclose(out[internal], i_spike[internal], rtol=0, atol=1e-12)
        # replay stops at the last event
        last = np.max(batch.times[np.isfinite(batch.times)])
        assert t_end[0] == last


TAU_RATIOS = pytest.mark.parametrize("params", [P2, P1], ids=["tau_ratio_2", "tau_ratio_1"])


def random_support(rng, net):
    """0/1 masks with no block structure, shaped like the weights."""
    return tuple(
        (rng.random(w.shape) < 0.5).astype(np.float64) for w in (net.weights, net.input_weights)
    )


def assert_support_is_masked_full(batch, net, loss_grads, support, **kw):
    args = (batch.neurons, batch.times, batch.kinds, net, loss_grads)
    full = backward_or_reference(*args, **kw)
    got = backward_or_reference(*args, support=support, **kw)
    for g, f, mask in zip(got, full, support):
        assert np.array_equal(g, f * mask)
        assert np.all(g[mask == 0] == 0.0)
    return got, full


def assert_bitwise(got, want):
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert g.shape == w.shape and np.array_equal(g, w)


def assert_same_bits(got, want):
    """Equal arrays down to the bit: signed zeros and NaN payloads included."""
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


class TestGradientSupport:
    """The gradient on a support equals the full-support gradient times the
    mask bitwise, the full support equals the slot-loop reference to 1e-12
    and the current replay equals the dense-row replay bitwise.  On a cyclic
    net the slot loop stands in for the backward, and its support is its
    full result times the mask."""

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
    def test_random_support_on_acyclic_nets(self, rng, params):
        for _ in range(25):
            net = random_network(rng, params=params, recurrent=False)
            batch, g = random_batch(rng, net)
            support = random_support(rng, net)
            for kw in ({}, {"vdot_floor": 0.5}):
                assert_support_is_masked_full(batch, net, g, support, **kw)

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
        net = random_network(rng, recurrent=False)
        batch, g = random_batch(rng, net)
        args = (batch.neurons, batch.times, batch.kinds, net, g)
        ones = (np.ones(net.weights.shape), np.ones(net.input_weights.shape))
        got = eventprop_backward_batch(*args, support=ones)
        assert_bitwise(got, eventprop_backward_batch(*args))

    @TAU_RATIOS
    def test_full_support_equals_dense_row_loop(self, rng, params):
        cases = [(chain_net(params), long_span_batch(params))]
        for _ in range(10):
            net = random_network(rng, params=params, recurrent=False)
            cases.append((net, random_batch(rng, net)[0]))
        for net, batch in cases:
            g = rng.normal(size=batch.times.shape) * (batch.kinds == INTERNAL)
            # a row's events past its last loss derivative take no part
            tail = g.copy()
            tail[:, batch.times.shape[1] // 2 + 1 :] = 0.0
            for loss in (g, tail, np.zeros_like(g)):
                args = (batch.neurons, batch.times, batch.kinds, net, loss)
                for kw in ({}, {"vdot_floor": 0.5}):
                    got = eventprop_backward_batch(*args, **kw)
                    want = dense_row_adjoint(*args, **kw)
                    assert_close(got, want, summand_scale(batch, net, loss, **kw))

    @TAU_RATIOS
    def test_currents_equal_dense_row_replay(self, rng, params):
        cases = [(chain_net(params), long_span_batch(params))]
        for _ in range(10):
            net = random_network(rng, params=params)
            cases.append((net, random_batch(rng, net)[0]))
        for net, batch in cases:
            args = (batch.neurons, batch.times, batch.kinds, net)
            assert_bitwise(currents_or_reference(*args), dense_row_currents(*args))

    @TAU_RATIOS
    def test_acyclic_currents_equal_dense_row_replay(self, rng, params):
        for _ in range(10):
            net = random_network(rng, params=params, recurrent=False)
            batch = random_batch(rng, net)[0]
            args = (batch.neurons, batch.times, batch.kinds, net)
            assert_bitwise(reconstruct_currents_batch(*args), dense_row_currents(*args))


def workload_case(m=108):
    """A 5-120-3 batch of 64 Yin-Yang rows with the loss derivatives of the
    first-spike loss, as training sees it.  At these init weights the outputs
    fire late, so about half the rows fill the budget m, some before every
    output has fired, and the others stop at their outputs."""
    net = build_network(5, 120, 3, LifParams(), np.random.default_rng(5), 0.8, 0.06)
    return first_spike_case(net, m)


def first_spike_case(net, m):
    """``net``'s traces of 64 Yin-Yang rows and the first-spike loss
    derivatives at their slots."""
    ds = pack_samples(encode_dataset(generate(3, 64), EncodingConfig()))
    batch = simulate_batch(net, ds.sorted_neurons, ds.sorted_times, m, 4.0)
    t_first, slots = first_spike_times_batch(
        batch.neurons, batch.times, batch.kinds, net.output_set
    )
    _, g = ttfs_from_times(t_first, ds.labels, TtfsLoss(), 4.0)
    return net, batch, scatter_slot_grads(slots, g, m)


TRAINING_MASKS = structure_masks(5, 120, 3)
# the masks' Support and the full one, built once for every 5-120-3 backward
# below, as training and replay-train build theirs once for all their steps
TRAINING_SUPPORT, FULL_SUPPORT = (
    Support.of(Network.feedforward(np.zeros((5, 120)), np.zeros((120, 3))), s)
    for s in (TRAINING_MASKS, None)
)
# tracemalloc peaks of one backward in bytes, of ``workload_case`` under the
# training masks and the full support: 1.67e6 and 1.77e6 measured with numpy
# 2.4 in row chunks of PLAN_ENTRIES (2.16e6 and 2.53e6 with the slot loop's
# plans, 2.49e6 and 2.96e6 when its jump read padded fan-out tables, 1.79e6
# and 2.16e6 when each slot built its own index lists); lower them when the
# chunks shrink, never raise them
BACKWARD_PEAK_BYTES = {"masks": 1.7e6, "full": 1.8e6}


def slots_of(trace):
    return trace.neurons, trace.times, trace.kinds


def assert_equals_dense_rows(neurons, times, kinds, net, loss_grads):
    """Currents equal the dense-row replay bitwise, the full-support
    gradients equal the slot-loop reference to 1e-12 of their largest entry
    and the gradients on the training masks equal them times the masks
    bitwise."""
    args = (neurons, times, kinds, net)
    assert_bitwise(reconstruct_currents_batch(*args), dense_row_currents(*args))
    for kw in ({}, {"vdot_floor": 0.5}):
        full = eventprop_backward_batch(*args, loss_grads, **kw)
        assert_close(full, dense_row_adjoint(*args, loss_grads, **kw), (0.0, 0.0))
        got = eventprop_backward_batch(*args, loss_grads, support=TRAINING_MASKS, **kw)
        assert_bitwise(got, [f * mask for f, mask in zip(full, TRAINING_MASKS)])
        for built, want in ((TRAINING_SUPPORT, got), (FULL_SUPPORT, full)):
            assert_bitwise(eventprop_backward_batch(*args, loss_grads, support=built, **kw), want)
    return got


class TestWorkloadShapedPlans:
    """The level-wise current replay and adjoint and the adjoint's row
    chunks on a training batch of the 5-120-3 net, at B=64 and B=1, and on
    their edge cases."""

    @pytest.fixture(scope="class")
    def case(self):
        return workload_case()

    def test_batch_of_64(self, case):
        net, batch, g = case
        capped = batch.kinds[:, -1] != DUMMY
        silent = np.sum(g != 0.0, axis=1) < 3
        assert 0 < capped.sum() < 64 and np.any(capped & silent)
        got = assert_equals_dense_rows(*slots_of(batch), net, g)
        assert all(np.any(x != 0.0) for x in got)

    def test_single_rows(self, case):
        net, batch, g = case
        capped = batch.kinds[:, -1] != DUMMY
        for r in (np.flatnonzero(capped)[0], np.flatnonzero(~capped)[0]):
            neurons, times, kinds, loss = (a[r : r + 1] for a in (*slots_of(batch), g))
            # the row ends at an output's spike, which has no support entry
            stop = np.flatnonzero(loss[0]).max()
            assert kinds[0, stop] == INTERNAL and neurons[0, stop] >= 120
            assert_equals_dense_rows(neurons, times, kinds, net, loss)

    def test_no_loss_derivative(self, case):
        net, batch, g = case
        got = assert_equals_dense_rows(*slots_of(batch), net, np.zeros_like(g))
        assert all(np.all(x == 0.0) for x in got)

    def test_all_dummy_row(self, case):
        net, batch, g = case
        rows = [(a[:3], np.full((1, a.shape[1]), fill, dtype=a.dtype))
                for a, fill in zip((*slots_of(batch), g), (-1, np.inf, DUMMY, 0.0))]
        for order in ((0, 1), (1, 0)):
            neurons, times, kinds, loss = (np.concatenate([p[i] for i in order]) for p in rows)
            assert_equals_dense_rows(neurons, times, kinds, net, loss)

    def test_one_slot_traces(self, case):
        net = case[0]
        ds = pack_samples(encode_dataset(generate(3, 4), EncodingConfig()))
        first = simulate_batch(net, ds.sorted_neurons, ds.sorted_times, 1, 4.0)
        assert np.all(first.kinds == INPUT)
        assert_equals_dense_rows(*slots_of(first), net, np.zeros((4, 1)))
        # a hidden and an output neuron's lone spike, each with a loss derivative
        neurons, times = np.array([[7], [121]]), np.array([[0.5], [0.8]])
        kinds = np.full((2, 1), INTERNAL, dtype=np.int8)
        assert_equals_dense_rows(neurons, times, kinds, net, np.array([[0.3], [-1.0]]))

    def test_current_replay_equals_the_cumsum_scan_bit_for_bit(self, case, monkeypatch):
        # the (1 + K, rows, H) blocks of the batch take vector adds, those of
        # a single row's output level np.cumsum; both equal np.cumsum's bits
        net, batch, _ = case
        shapes = []
        scan = grad._prefix_sums

        def recorded(x, axis):
            shapes.append(x.shape)
            return scan(x, axis)

        monkeypatch.setattr(grad, "_prefix_sums", recorded)
        capped = batch.kinds[:, -1] != DUMMY
        rows = [slice(None), *(slice(r, r + 1) for r in np.flatnonzero(capped)[:2])]
        for r in rows:
            args = (*(a[r] for a in slots_of(batch)), net)
            got = reconstruct_currents_batch(*args)
            for g, w in zip(got, currents_cumsum_reference(*args)):
                assert_same_bits(g, w)
        adds = {shape[0] ** 2 <= math.prod(shape) for shape in shapes}
        assert adds == {True, False}

    @pytest.mark.parametrize("plan_entries", [1, 500])
    def test_runs_of_any_size(self, case, monkeypatch, plan_entries):
        # the backward's row chunks, bounded by PLAN_ENTRIES; its sums are
        # the same whatever its chunks
        net, batch, g = case
        args = (*slots_of(batch), net, g)
        default = [eventprop_backward_batch(*args, support=s) for s in (TRAINING_MASKS, None)]
        monkeypatch.setattr(grad, "PLAN_ENTRIES", plan_entries)
        chunks = []
        row_chunks = grad._row_chunks
        monkeypatch.setattr(grad, "_row_chunks", lambda per_row: chunks.append(row_chunks(per_row)) or chunks[-1])
        assert_equals_dense_rows(*args)
        assert len(chunks[-1]) > 10
        supports = zip((TRAINING_MASKS, None), (TRAINING_SUPPORT, FULL_SUPPORT), default)
        for s, built, want in supports:
            assert_bitwise(eventprop_backward_batch(*args, support=s), want)
            assert_bitwise(eventprop_backward_batch(*args, support=built), want)

    @pytest.mark.parametrize("support", ["masks", "full"])
    def test_backward_memory_peak(self, case, support):
        kw = {"support": TRAINING_MASKS if support == "masks" else None}
        assert backward_peak(*case, **kw) <= BACKWARD_PEAK_BYTES[support]



def backward_peak(net, batch, g, **kw):
    """The tracemalloc peak in bytes of a backward after a warm-up call."""
    args = (batch.neurons, batch.times, batch.kinds, net, g)
    eventprop_backward_batch(*args, **kw)
    tracemalloc.start()
    try:
        eventprop_backward_batch(*args, **kw)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def many_output_spikes_case(m=138):
    """``workload_case``'s net with its first output's weights from the
    hidden layer scaled by 8, on the same rows: that output fires early and
    on, 10 to 12 times before the row's last loss derivative in 31 of the 64
    rows, as trained outputs do."""
    net = build_network(5, 120, 3, LifParams(), np.random.default_rng(5), 0.8, 0.06)
    w = np.array(net.weights)
    w[:120, 120] *= 8.0
    return first_spike_case(Network(123, w, net.input_weights, net.params, net.output_set), m)


def lane_ends(neurons, net, loss_grads):
    """Each (row, neuron) lane's end, one neuron at a time, the lower levels
    first: its last slot with a loss derivative, raised to the end of each
    neuron it has a nonzero weight to (-1 if none)."""
    end = np.full((len(loss_grads), net.n_total), -1)
    for r, k in zip(*np.nonzero(loss_grads)):
        end[r, neurons[r, k]] = max(end[r, neurons[r, k]], k)
    for j in np.argsort(net.levels, kind="stable"):
        for t in np.flatnonzero(net.weights[j]):
            end[:, j] = np.maximum(end[:, j], end[:, t])
    return end


def live_entries(neurons, kinds, net, loss_grads, support):
    """Per row, the support entries of its events up to its last loss
    derivative plus the fan-out entries of its spikes up to their lane's
    end; also the (B, m) mask of the dead spikes, past their lane's end but
    not past their row's last loss derivative."""
    end = lane_ends(neurons, net, loss_grads)
    if support is None:
        support = (np.ones(net.weights.shape), np.ones(net.input_weights.shape))
    s_count = np.concatenate([np.count_nonzero(mask, axis=1) for mask in support])
    entries = np.zeros(len(end), dtype=np.int64)
    dead = np.zeros(kinds.shape, dtype=bool)
    for r, k in zip(*np.nonzero(kinds != DUMMY)):
        if k > end[r].max():
            continue
        j = neurons[r, k]
        if kinds[r, k] == INPUT:
            entries[r] += s_count[net.n_total + j]
            continue
        entries[r] += s_count[j]
        if k <= end[r, j]:
            entries[r] += net.fan_out.count[j]
        dead[r, k] = k > end[r, j]
    return entries, dead


def assert_counts_live_spikes(monkeypatch, batch, net, loss_grads, support):
    """The backward's row chunks count the live spikes' fan-out entries only,
    under the full support and ``support``; returns the dead spikes."""
    per_rows = []
    row_chunks = grad._row_chunks
    monkeypatch.setattr(
        grad, "_row_chunks", lambda per_row: per_rows.append(per_row) or row_chunks(per_row)
    )
    args = (batch.neurons, batch.times, batch.kinds, net, loss_grads)
    for s in (None, support):
        eventprop_backward_batch(*args, support=s)
        want, dead = live_entries(batch.neurons, batch.kinds, net, loss_grads, s)
        assert np.array_equal(per_rows[-1], want)
    return dead


# tracemalloc peaks of one backward of ``many_output_spikes_case`` under the
# training masks and the full support: 1.87e6 and 2.06e6 measured with numpy
# 2.4 (1.89e6 and 2.07e6 when every spike took a jump)
MANY_SPIKES_PEAK_BYTES = {"masks": 1.9e6, "full": 2.1e6}


class TestLaneEnds:
    """A spike past its lane's end takes no jump: the gradients still equal
    the slot-loop reference, a support's equal the full ones times the mask
    bitwise, and the row chunks count only the live spikes."""

    @pytest.fixture(scope="class")
    def many(self):
        return many_output_spikes_case()

    def test_an_output_fires_ten_times_before_the_last_loss_derivative(self, many, monkeypatch):
        net, batch, g = many
        dead = assert_counts_live_spikes(monkeypatch, batch, net, g, TRAINING_MASKS)
        slot = np.arange(g.shape[1])
        last = np.max(np.where(g != 0.0, slot, -1), axis=1)
        before = (batch.kinds == INTERNAL) & (batch.neurons == 120) & (slot <= last[:, None])
        assert before.sum(axis=1).max() >= 10
        assert np.count_nonzero(dead & (batch.neurons == 120)) > 200
        got = assert_equals_dense_rows(*slots_of(batch), net, g)
        assert all(np.any(x != 0.0) for x in got)

    def test_a_loss_derivative_on_an_outputs_third_spike_only(self, many, monkeypatch):
        net, batch, g = many
        spikes = (batch.kinds == INTERNAL) & (batch.neurons == 120)
        third = spikes & (np.cumsum(spikes, axis=1) == 3)
        assert third.sum() > 50
        loss = np.where(third, -0.7, 0.0)
        # the output's first two spikes are live, and so is every hidden
        # spike before the third: each hidden neuron drives that output
        assert_counts_live_spikes(monkeypatch, batch, net, loss, TRAINING_MASKS)
        got = assert_equals_dense_rows(*slots_of(batch), net, loss)
        assert np.any(got[0][:120, 120] != 0.0)

    def test_a_loss_derivative_on_a_hidden_spike_only(self, many, monkeypatch):
        net, batch, g = many
        hidden = (batch.kinds == INTERNAL) & (batch.neurons < 120)
        pick = hidden & (np.cumsum(hidden, axis=1) == 30)
        assert pick.sum() > 50
        loss = np.where(pick, 0.8, 0.0)
        dead = assert_counts_live_spikes(monkeypatch, batch, net, loss, TRAINING_MASKS)
        # no output lane has an end, so each output spike before it is dead
        assert np.any(dead & (batch.neurons == 120))
        got = assert_equals_dense_rows(*slots_of(batch), net, loss)
        assert np.any(got[1] != 0.0)

    @TAU_RATIOS
    def test_an_end_that_propagates_two_levels(self, rng, params, monkeypatch):
        # levels 3, 2, 1 and 0 of neurons {0, 1}, {2, 3}, {4, 5} and {6}:
        # 1 -> 3 -> 5 -> 6 is one path to the output, and 0 and 2 reach 4
        # too.  The output's first spike takes a loss derivative and so does
        # a later spike of 4, so the output's end reaches 5, 3 and 1, whose
        # spikes between the two derivatives are dead
        w = np.zeros((7, 7))
        w[0, 2:4], w[1, 3] = [2.5, 1.5], 3.0
        w[2, 4:6], w[3, 5] = [2.0, 0.6], 2.4
        w[4:6, 6] = [2.5, 2.0]
        w_in = np.zeros((2, 7))
        w_in[:, 0:2] = [[4.0, 1.5], [2.0, 5.0]]
        net = Network(7, w, w_in, params=params, output_set=(6,))
        assert net.levels.tolist() == [3, 3, 2, 2, 1, 1, 0]
        rows = [np.sort(rng.uniform(0.0, 3.0, size=8)) for _ in range(6)]
        idx, times = pack_inputs([[in_spike(i % 2, t) for i, t in enumerate(row)] for row in rows])
        batch = simulate_batch(without_outputs(net), idx[:, :-1], times[:, :-1], 80, 6.0)
        internal = batch.kinds == INTERNAL
        out = internal & (batch.neurons == 6)
        first = out & (np.cumsum(out, axis=1) == 1)
        after = internal & (batch.neurons == 4) & (np.cumsum(first, axis=1) == 1)
        later = after & (np.cumsum(after, axis=1) == 2)
        assert later.sum() >= 4
        loss = np.where(first | later, rng.normal(size=first.shape), 0.0)
        dead = assert_counts_live_spikes(monkeypatch, batch, net, loss, random_support(rng, net))
        for j in (1, 3, 5):
            assert np.any(dead & (batch.neurons == j))
        assert not np.any(dead & np.isin(batch.neurons, (0, 2, 4)) & internal)
        for kw in ({}, {"vdot_floor": 0.5}):
            args = (batch.neurons, batch.times, batch.kinds, net, loss)
            got = eventprop_backward_batch(*args, **kw)
            scales = summand_scale(batch, net, loss, **kw)
            assert_close(got, dense_row_adjoint(*args, **kw), scales)
            assert_support_is_masked_full(batch, net, loss, random_support(rng, net), **kw)

    @pytest.mark.parametrize("support", ["masks", "full"])
    def test_backward_memory_peak(self, many, support):
        kw = {"support": TRAINING_MASKS if support == "masks" else None}
        assert backward_peak(*many, **kw) <= MANY_SPIKES_PEAK_BYTES[support]


class TestBackwardInputChecks:
    """The batched backward pass rejects malformed loss grads and supports."""

    @pytest.fixture
    def case(self, rng):
        net = random_network(rng, recurrent=False)
        batch, g = random_batch(rng, net, b=4)
        return (batch.neurons, batch.times, batch.kinds, net), g

    @pytest.mark.parametrize(
        "edges, cycle", [([(1, 1)], "1 -> 1"), ([(0, 2), (2, 3), (3, 2)], "2 -> 3 -> 2")],
        ids=["self_loop", "recurrent_weight"],
    )
    def test_a_cyclic_net_raises_and_names_its_cycle(self, case, edges, cycle):
        args, g = case
        net = Network(4, np.zeros((4, 4)), np.ones((2, 4)), output_set=(3,))
        w = np.array(net.weights)
        for j, i in edges:
            w[j, i] = 0.5
        cyclic = with_weights(net, w=w)
        trace = simulate_batch(cyclic, np.array([[0, 1]]), np.array([[0.1, 0.2]]), 12, 3.0)
        g = np.where(trace.kinds == INTERNAL, 1.0, 0.0)
        with pytest.raises(InvalidParameter, match=f"cycle, {cycle};"):
            eventprop_backward_batch(trace.neurons, trace.times, trace.kinds, cyclic, g)
        dense_row_adjoint(trace.neurons, trace.times, trace.kinds, cyclic, g)

    def test_one_row_of_loss_grads_for_a_batch_raises(self, case):
        args, g = case
        with pytest.raises(InvalidParameter):
            eventprop_backward_batch(*args, g[0])

    def test_single_sample_loss_grads_of_wrong_length_raise(self, case):
        (neurons, times, kinds, net), g = case
        trace = EventTrace(neurons[0], times[0], kinds[0])
        with pytest.raises(InvalidParameter):
            eventprop_backward(trace, net, g[0, :-1], strict=False)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_loss_grads_raise(self, case, bad):
        args, g = case
        g[1, 2] = bad
        with pytest.raises(InvalidParameter):
            eventprop_backward_batch(*args, g)

    def test_loss_derivative_on_an_input_slot_raises(self, case):
        args, g = case
        r, k = np.argwhere(args[2] == INPUT)[-1]
        g[r, k] = 0.5
        with pytest.raises(InvalidParameter, match=rf"loss_grads\[{r}, {k}\].*input slot"):
            eventprop_backward_batch(*args, g)

    def test_loss_derivative_on_a_dummy_slot_raises(self, case):
        (neurons, times, kinds, net), g = case
        # one more slot, a dummy in every row
        neurons, times, kinds, g = (
            np.concatenate([a, np.full((a.shape[0], 1), fill, dtype=a.dtype)], axis=1)
            for a, fill in ((neurons, -1), (times, np.inf), (kinds, DUMMY), (g, 0.0))
        )
        m = g.shape[1]
        g[2, m - 1] = -1.0
        with pytest.raises(InvalidParameter, match=rf"loss_grads\[2, {m - 1}\].*dummy slot"):
            eventprop_backward_batch(neurons, times, kinds, net, g)

    def test_support_of_wrong_shape_raises(self, case):
        args, g = case
        n, n_in = args[3].n_total, args[3].n_in
        mask_w, mask_in = np.ones((n, n)), np.ones((n_in, n))
        wrong = ((np.ones((n + 1, n)), mask_in), (mask_w, np.ones((n_in, n + 1))), (mask_w,))
        for support in wrong:
            with pytest.raises(InvalidParameter, match=r"support shapes .* != weight shapes"):
                eventprop_backward_batch(*args, g, support=support)
            with pytest.raises(InvalidParameter, match=r"support shapes .* != weight shapes"):
                Support.of(args[3], support)
        # a Support built for a net of another (n_total, n_in)
        for other in (n - 1, n_in), (n + 1, n_in), (n, n_in - 1), (n, n_in + 1):
            if min(other) < 1:
                continue
            net = Network(other[0], np.zeros(other[:1] * 2), np.zeros(other[::-1]))
            for masks in None, (np.ones(net.weights.shape), np.ones(net.input_weights.shape)):
                with pytest.raises(InvalidParameter, match="another net shape"):
                    eventprop_backward_batch(*args, g, support=Support.of(net, masks))


def random_layer(rng, b, k, n_pre, h, spans):
    """A layer's sorted (B, K) inputs, each row's times drawn from one of
    ``spans``, with +inf padding (id -1 or a real id, as fud_feedforward
    pads) and mixed-sign (n_pre, h) weights."""
    lo, hi = np.array(spans)[rng.integers(0, len(spans), size=(b, k))].transpose(2, 0, 1)
    times = np.sort(rng.uniform(lo, hi), axis=1)
    ids = rng.integers(0, n_pre, size=(b, k))
    pad = np.arange(k) >= k - rng.integers(0, k + 1, size=b)[:, None]
    times[pad] = np.inf
    ids[pad] = rng.choice([-1, 0], size=int(pad.sum()))
    return ids, times, rng.uniform(-1.5, 3.0, size=(n_pre, h))


def assert_matches_loop(ids, times, w, t_max):
    """Same silent/spiking pattern as the loop oracle, times within 1e-12."""
    got = fud_first_spike_times(ids, times, w, P2, t_max)
    want = loop_first_spike_times(ids, times, w, P2, t_max)
    assert np.array_equal(np.isinf(got), np.isinf(want))
    fin = np.isfinite(want)
    assert np.all(np.abs(got[fin] - want[fin]) <= 1e-12)
    return got


class TestFudFirstSpikeTimes:
    T_MAX = 4.0
    # three anchor windows (0, 100, 200) with inputs on both sides of a border
    WINDOWS = [(0.0, 3.0), (98.5, 101.5), (199.0, 203.0)]

    def test_matches_loop_on_random_layers(self, rng):
        seen = np.zeros(4, dtype=int)  # silent, spiking, padded, inputs past t_max
        for _ in range(40):
            b, k, n_pre, h = (int(rng.integers(1, x)) for x in (16, 11, 7, 26))
            ids, times, w = random_layer(rng, b, k, n_pre, h, [(0.0, 6.0)])
            out = assert_matches_loop(ids, times, w, self.T_MAX)
            fin = np.isfinite(times)
            seen += [np.isinf(out).sum(), np.isfinite(out).sum(), (~fin).sum(),
                     (times[fin] > self.T_MAX).sum()]
        assert np.all(seen > 0)

    @pytest.mark.parametrize("k, h", [(1, 7), (9, 1), (1, 1)])
    def test_single_input_or_single_neuron(self, rng, k, h):
        for _ in range(10):
            assert_matches_loop(*random_layer(rng, 12, k, 3, h, [(0.0, 3.0)]), self.T_MAX)

    def test_inputs_across_three_anchor_windows(self, rng):
        ids, times, w = random_layer(rng, 24, 12, 6, 30, self.WINDOWS)
        assert np.unique(_anchor(times[np.isfinite(times)], P2)).size >= 3
        out = assert_matches_loop(ids, times, w, np.inf)
        assert np.unique(_anchor(out[np.isfinite(out)], P2)).size >= 3

    def test_batch_rows_equal_single_rows_bitwise(self, rng, monkeypatch):
        # B = 16 takes one row chunk; the larger B spans three chunks and a
        # remainder.  No crossing call covers more than LANES_PER_CALL lanes.
        block, chunk = grad._call_shape(12, 48)
        for b, h, n_calls in ((16, 9, 9), (3 * chunk + chunk // 3, 48, 4 * (48 // block))):
            ids, times, w = random_layer(rng, b, 12, 5, h, [(0.0, 6.0), *self.WINDOWS])
            lanes = []

            def counted(v0, i0, params):
                lanes.append(v0.size)
                return next_crossing_safe(v0, i0, params)

            monkeypatch.setattr(grad, "next_crossing_safe", counted)
            batch = fud_first_spike_times(ids, times, w, P2, np.inf)
            monkeypatch.undo()
            assert len(lanes) == n_calls and max(lanes) <= grad.LANES_PER_CALL
            for r in range(b):
                single = fud_first_spike_times(ids[r : r + 1], times[r : r + 1], w, P2, np.inf)
                assert np.array_equal(batch[r], single[0])

    @pytest.mark.parametrize("b", [1, 64, 256])
    def test_equals_the_cumsum_form_bit_for_bit(self, rng, b):
        # a training net's hidden (K = 5, H = 120) and output (K = 120, H =
        # 3) layer shapes: at B = 256 the rows split into chunks of
        # LANES_PER_CALL lanes, and the output layer's long K axis takes
        # np.cumsum where the hidden layer's takes vector adds
        seen = np.zeros(4, dtype=int)  # silent, spiking, padded, past t_max
        for k, n_pre, h, scale in ((5, 5, 120, 1.0), (120, 120, 3, 0.05)):
            ids, times, w = random_layer(rng, b, k, n_pre, h, [(0.0, 6.0), *self.WINDOWS])
            w *= scale
            # row 0 puts its inputs in each anchor window in turn, then one
            # padding slot
            lo, hi = np.array([(0.0, 3.0), (100.0, 101.5), (200.0, 203.0)])[np.arange(k - 1) % 3].T
            times[0] = np.append(np.sort(rng.uniform(lo, hi)), np.inf)
            ids[0] = np.append(rng.integers(0, n_pre, size=k - 1), -1)
            assert np.unique(_anchor(times[0, :-1], P2)).size == 3
            if b == 256:
                assert b > grad._call_shape(k, h)[1]
            for t_max in (self.T_MAX, np.inf):
                got = fud_first_spike_times(ids, times, w, P2, t_max)
                assert_same_bits(got, fud_first_spike_times_reference(ids, times, w, P2, t_max))
                fin = np.isfinite(times)
                seen += [np.isinf(got).sum(), np.isfinite(got).sum(), (~fin).sum(),
                         (times[fin] > self.T_MAX).sum()]
        assert np.all(seen > 0)

    def test_a_crossing_exactly_at_an_interval_bound(self):
        # neuron j of row j first crosses at c_j, where an inhibiting input
        # then arrives: a crossing at the next input does not count, so the
        # neuron stays silent, and one an ulp before it does.  A crossing at
        # t_max counts, one an ulp past it does not.
        h = 6
        w0 = np.linspace(1.5, 4.0, h)
        row = (np.array([[0]]), np.array([[0.3]]))
        c = fud_first_spike_times(*row, w0[None], P2, self.T_MAX)[0]
        crossing = np.isfinite(c)
        assert 0 < crossing.sum() < h
        ids = np.tile([0, 1], (h, 1))
        w = np.stack([w0, np.full(h, -50.0)])
        for at, want in ((c, np.inf), (np.nextafter(c, np.inf), c)):
            times = np.stack([np.full(h, 0.3), at], axis=1)
            got = fud_first_spike_times(ids, times, w, P2, self.T_MAX)
            assert_same_bits(got, fud_first_spike_times_reference(ids, times, w, P2, self.T_MAX))
            assert np.array_equal(np.diag(got)[crossing], np.broadcast_to(want, h)[crossing])
        for j in np.flatnonzero(crossing):
            for t_max, want in ((c[j], c[j]), (np.nextafter(c[j], -np.inf), np.inf)):
                args = (*row, w0[None], P2, float(t_max))
                got = fud_first_spike_times(*args)
                assert_same_bits(got, fud_first_spike_times_reference(*args))
                assert got[0, j] == want

    def test_requires_double_tau(self):
        with pytest.raises(UnsupportedTauRatio):
            fud_first_spike_times(np.zeros((1, 1), int), np.zeros((1, 1)), np.ones((1, 1)), P1, 1.0)


# (shape, axis) on both sides of ``grad._prefix_sums``' rule: the first ten
# take vector adds, the last eight np.cumsum
SCAN_CASES = [
    ((6, 40), 0), ((3, 5, 7), 1), ((2, 3, 4), 2), ((1, 9), 0), ((9, 1), 1),
    ((1, 1), 0), ((1,), 0), ((0, 4), 0), ((64, 5, 24), 1), ((7, 64, 120), 0),
    ((40, 6), 0), ((2, 30, 1), 1), ((9, 1), 0), ((1, 9), 1), ((7,), 0),
    ((4, 0), 0), ((64, 120, 1), 1), ((116, 1, 3), 0),
]


class TestPrefixSums:
    """``grad._prefix_sums`` equals ``np.cumsum`` bit for bit, with vector
    adds on an axis no longer than the rest of the array and ``np.cumsum``
    on a longer one."""

    @pytest.mark.parametrize("shape, axis", SCAN_CASES)
    def test_equals_cumsum_bit_for_bit(self, rng, shape, axis):
        n = shape[axis]
        adds = n * n <= math.prod(shape)
        x = rng.normal(size=shape) * 10.0 ** rng.integers(-300, 300, size=shape)
        special = np.array([0.0, -0.0, np.inf, -np.inf])
        pick = rng.random(shape) < 0.3
        x[pick] = rng.choice(special, size=int(pick.sum()))
        if x.size:
            x.flat[0] = -0.0  # a leading -0.0 stays -0.0
        with np.errstate(invalid="ignore", over="ignore"):
            want = cumsum_in_place(x.copy(), axis)
            with mock.patch.object(np, "cumsum", wraps=np.cumsum) as spy:
                got = grad._prefix_sums(x, axis)
        assert got is x
        assert spy.called != adds
        assert_same_bits(got, want)

    def test_cases_cover_both_sides_of_the_rule(self):
        adds = [s[a] ** 2 <= math.prod(s) for s, a in SCAN_CASES]
        assert adds == [True] * 10 + [False] * 8


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


class TestFudLayerGrads:
    """One exp per delay gives the gradients of two exps per kernel."""

    @pytest.mark.parametrize("vdot_floor", [0.0, 0.5])
    def test_equals_two_exp_reference(self, rng, vdot_floor):
        seen = np.zeros(3, dtype=int)  # silent inputs, silent neurons, acausal pairs
        for _ in range(40):
            b, n_in, h, o = (int(rng.integers(1, x)) for x in (20, 7, 30, 5))
            t_in = rng.uniform(0.0, 2.0, size=(b, n_in))
            t_in[rng.random(t_in.shape) < 0.1] = np.inf
            w_in = rng.uniform(-1.0, 3.0, size=(n_in, h))
            w_ho = rng.uniform(-1.0, 3.0, size=(h, o))
            t_h, t_o = fud_feedforward(t_in, w_in, w_ho, P2, 4.0)
            d_t_out = rng.normal(size=(b, o))
            got = fud_feedforward_grads(t_in, t_h, t_o, w_in, w_ho, d_t_out, P2, vdot_floor)
            want_ho, d_t_h = two_exp_layer_grads(t_h, t_o, w_ho, d_t_out, P2, vdot_floor)
            want_in, _ = two_exp_layer_grads(t_in, t_h, w_in, d_t_h, P2, vdot_floor)
            for g, want in zip(got, (want_ho, want_in)):
                assert np.all(np.abs(g - want) <= 1e-13 * np.abs(want).max())
            seen += [np.isinf(t_in).sum(), np.isinf(t_h).sum() + np.isinf(t_o).sum(),
                     (t_in[:, :, None] >= t_h[:, None, :]).sum()]
        assert np.all(seen > 0)

    def test_a_grazing_spike_is_gated_before_the_floor(self):
        # neuron 0 fires with dV/dt = 1e-9 < EPS_VDOT, neuron 1 with 0.42: at
        # vdot_floor 0.5 the grazing spike still adds nothing, as in the
        # EventProp backward, and the other divides by its clamped slope
        t_pre, t_post = np.array([[0.0, 0.3]]), np.array([[1.0, 1.0]])
        x = np.exp((t_pre[0] - 1.0) / (2.0 * P2.tau_syn))
        kernel_dot = x * (2.0 * x - 1.0)
        w = np.array([[1.0, 1.0], [(1e-9 - kernel_dot[0]) / kernel_dot[1], 1.0]])
        vdot = kernel_dot @ w
        assert abs(vdot[0]) < EPS_VDOT and EPS_VDOT < vdot[1] < 0.5
        for floor in (0.0, 0.5):
            grad_w, d_t_pre = _layer_grads(t_pre, t_post, w, np.array([[1.0, 0.0]]), P2, floor)
            assert not grad_w.any() and not d_t_pre.any(), floor
        both = _layer_grads(t_pre, t_post, w, np.array([[1.0, 1.0]]), P2, 0.5)
        second = _layer_grads(t_pre, t_post, w, np.array([[0.0, 1.0]]), P2, 0.5)
        for got, want in zip(both, second):
            np.testing.assert_array_equal(got, want)
        np.testing.assert_allclose(second[0][:, 1], -2.0 * P2.tau_syn * (x - x * x) / 0.5)


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
        """The trace to t_max if every neuron spikes exactly once in it, well
        above grazing."""
        trace = simulate(without_outputs(net), inputs, self.M, self.T_MAX)
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
