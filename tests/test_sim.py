import math

import numpy as np
import pytest

from eventsnn.backend import BackendConfig, ReplayConfig, forward_batch
from eventsnn.core import (
    FanOut,
    InvalidParameter,
    LifParams,
    Network,
    NeuronState,
    Spike,
    SpikeKind,
)
from eventsnn.lif import next_crossing_double_tau
from eventsnn.sim import (
    InvalidBudget,
    SimDiagnostics,
    UnsortedInput,
    pack_inputs,
    simulate,
    simulate_batch,
    step,
)

from conftest import dense_oracle, euler_first_crossing, random_inputs, random_network

P2 = LifParams(tau_mem=2.0)


def single_neuron_net(w_in=4.0, w_rec=0.0):
    return Network(
        n_total=1,
        weights=np.array([[w_rec]]),
        input_weights=np.array([[w_in]]),
        params=P2,
        output_set=(0,),
    )


INTERNAL, INPUT, DUMMY = int(SpikeKind.INTERNAL), int(SpikeKind.INPUT), int(SpikeKind.DUMMY)


def in_spike(neuron, t):
    return Spike(neuron, t, SpikeKind.INPUT)


def assert_batch_matches_solo(net, batch_inputs, m, t_max):
    idx, times = pack_inputs(batch_inputs)
    batch = simulate_batch(net, idx[:, :-1], times[:, :-1], m=m, t_max=t_max)
    for b, inputs in enumerate(batch_inputs):
        solo = simulate(net, inputs, m=m, t_max=t_max)
        got = batch[b]
        np.testing.assert_array_equal(got.neurons, solo.neurons)
        np.testing.assert_array_equal(got.times, solo.times)
        np.testing.assert_array_equal(got.kinds, solo.kinds)
        np.testing.assert_array_equal(got.final_v, solo.final_v)
        np.testing.assert_array_equal(got.final_i, solo.final_i)
        assert got.final_t == solo.final_t
    return batch


def assert_rows_match_dense(net, batch, batch_inputs, t_max):
    """Each row against the Euler oracle: the same input records, and the
    same internal spikes within 1e-3.  Kinds are compared separately, since
    a tie of an input and a crossing may resolve either way on the grid."""
    for b, inputs in enumerate(batch_inputs):
        row = batch[b]
        assert row.kinds[-1] == DUMMY  # untruncated, so both runs see all events
        dn = dense_oracle(net, inputs, dt=1e-5, t_max=t_max)
        for kind in (INPUT, INTERNAL):
            ev, de = row.kinds == kind, dn.kinds == kind
            assert row.neurons[ev].tolist() == dn.neurons[de].tolist()
            assert np.all(np.abs(row.times[ev] - dn.times[de]) <= 1e-3)


def internal_spikes(trace):
    internal = trace.kinds == INTERNAL
    return list(zip(trace.neurons[internal].tolist(), trace.times[internal].tolist()))


def real_times(trace):
    return trace.times[trace.kinds != DUMMY].tolist()


class TestStep:
    def test_zero_weights_passes_input_through(self):
        net = Network(
            n_total=2,
            weights=np.zeros((2, 2)),
            input_weights=np.zeros((1, 2)),
            params=P2,
            output_set=(1,),
        )
        out = step(NeuronState.zeros(2), net, in_spike(0, 0.2), t_max=3.0)
        assert out.spike == in_spike(0, 0.2)
        assert out.state.t == 0.2

    def test_strong_input_then_internal_spike(self):
        net = single_neuron_net(w_in=4.0)
        st = NeuronState.zeros(1)
        out1 = step(st, net, in_spike(0, 0.0), t_max=5.0)
        assert out1.spike.kind == SpikeKind.INPUT
        assert out1.state.i[0] == 4.0
        out2 = step(out1.state, net, None, t_max=5.0)
        t_expected = euler_first_crossing(0.0, 4.0, P2, dt=1e-6)
        assert out2.spike.kind == SpikeKind.INTERNAL
        assert out2.spike.time == pytest.approx(t_expected, abs=1e-4)
        assert out2.state.v[0] == P2.v_reset

    def test_quiescent_network_emits_dummy(self):
        net = single_neuron_net()
        out = step(NeuronState.zeros(1), net, None, t_max=3.0)
        assert out.spike.is_dummy
        assert out.state.t == 3.0

    def test_spike_never_before_state_time(self):
        net = single_neuron_net()
        with pytest.raises(UnsortedInput):
            step(NeuronState(np.zeros(1), np.zeros(1), t=1.0), net, in_spike(0, 0.5), 3.0)


class TestSimulate:
    def test_budget_contract_with_dummies(self):
        net = Network(
            n_total=2,
            weights=np.zeros((2, 2)),
            input_weights=np.zeros((1, 2)),
            params=P2,
            output_set=(1,),
        )
        tr = simulate(net, [in_spike(0, 0.1), in_spike(0, 0.4)], m=4, t_max=3.0)
        assert tr.kinds.tolist() == [INPUT, INPUT, DUMMY, DUMMY]

    def test_truncation_keeps_budget_and_order(self):
        net = single_neuron_net(w_in=4.0)
        inputs = [in_spike(0, 0.1 * k) for k in range(8)]
        diag = SimDiagnostics()
        tr = simulate(net, inputs, m=3, t_max=3.0, diag=diag)
        assert len(tr) == 3
        times = real_times(tr)
        assert times == sorted(times)
        assert diag.truncated_inputs > 0

    def test_invalid_budget(self):
        with pytest.raises(InvalidBudget):
            simulate(single_neuron_net(), [], m=0, t_max=1.0)

    def test_unsorted_inputs_rejected(self):
        with pytest.raises(UnsortedInput):
            simulate(single_neuron_net(), [in_spike(0, 1.0), in_spike(0, 0.5)], 4, 3.0)

    def test_dummy_law_once_dummy_always_dummy(self, rng):
        for _ in range(20):
            net = random_network(rng)
            inputs = random_inputs(rng, net)
            tr = simulate(net, inputs, m=12, t_max=2.5)
            kinds = tr.kinds.tolist()
            if DUMMY in kinds:
                first = kinds.index(DUMMY)
                assert all(k == DUMMY for k in kinds[first:])
            times = real_times(tr)
            assert times == sorted(times)
            assert len(tr) == 12

    def test_input_priority_on_exact_tie(self):
        # internal crossing engineered at exactly t=0.5 via initial state,
        # input at the same instant: input must be processed first
        net = single_neuron_net(w_in=0.0)
        t_int = euler_first_crossing(0.0, 4.0, P2, dt=1e-7)
        st = NeuronState(np.array([0.0]), np.array([4.0]))
        out = step(st, net, in_spike(0, t_int), t_max=3.0)
        # analytic time may differ from euler time in the last digits; use
        # the solver itself to build the exact tie
        from eventsnn.lif import next_crossing_double_tau

        t_exact = next_crossing_double_tau(0.0, 4.0, P2).time
        out = step(st, net, in_spike(0, t_exact), t_max=3.0)
        assert out.spike.kind == SpikeKind.INPUT

    def test_recurrent_two_neuron_alternation(self):
        # mutually excitatory pair: origins must alternate
        net = Network(
            n_total=2,
            weights=np.array([[0.0, 3.0], [3.0, 0.0]]),
            input_weights=np.array([[4.0, 0.0]]),
            params=P2,
            output_set=(1,),
        )
        tr = simulate(net, [in_spike(0, 0.0)], m=9, t_max=40.0)
        internal = [nrn for nrn, _ in internal_spikes(tr)]
        assert len(internal) >= 6
        assert all(a != b for a, b in zip(internal, internal[1:]))

    def test_initial_state_respected(self):
        net = single_neuron_net()
        st = NeuronState(np.array([0.0]), np.array([4.0]), t=1.0)
        tr = simulate(net, [], m=2, t_max=5.0, initial=st)
        t_rel = euler_first_crossing(0.0, 4.0, P2, dt=1e-6)
        assert tr.times[0] == pytest.approx(1.0 + t_rel, abs=1e-4)


class TestBatchedEngine:
    def test_batch_matches_sequential_bitwise(self, rng):
        nets = random_network(rng, n_max=6)
        batch_inputs = [random_inputs(rng, nets) for _ in range(16)]
        assert_batch_matches_solo(nets, batch_inputs, m=14, t_max=3.0)

    def test_block_diagonal_equals_independent_runs(self, rng):
        # k disconnected subnets in one matrix == k independent simulations;
        # subnets are drawn until their full event set fits the budget, since
        # truncation cuts the combined and solo runs at different events
        sub_nets = []
        sub_inputs = []
        solos = []
        while len(sub_nets) < 3:
            net = random_network(rng, n_max=3, n_in_max=2)
            inputs = random_inputs(rng, net, k_max=4, t_span=0.8)
            solo = simulate(net, inputs, m=300, t_max=1.5)
            if solo.kinds[-1] != DUMMY:
                continue
            sub_nets.append(net)
            sub_inputs.append(inputs)
            solos.append(solo)
        sizes = [s.n_total for s in sub_nets]
        n_ins = [s.n_in for s in sub_nets]
        n = sum(sizes)
        n_in = sum(n_ins)
        w = np.zeros((n, n))
        w_in = np.zeros((n_in, n))
        off_n = np.cumsum([0] + sizes)
        off_i = np.cumsum([0] + n_ins)
        for k, s in enumerate(sub_nets):
            w[off_n[k] : off_n[k + 1], off_n[k] : off_n[k + 1]] = s.weights
            w_in[off_i[k] : off_i[k + 1], off_n[k] : off_n[k + 1]] = s.input_weights
        combined = Network(
            n_total=n, weights=w, input_weights=w_in, params=P2, output_set=(0,)
        )
        merged = sorted(
            (
                Spike(s.neuron + off_i[k], s.time, SpikeKind.INPUT)
                for k, spikes in enumerate(sub_inputs)
                for s in spikes
            ),
            key=lambda s: s.time,
        )
        tr = simulate(combined, merged, m=900, t_max=1.5)
        assert tr.kinds[-1] == DUMMY
        for k, solo in enumerate(solos):
            want = internal_spikes(solo)
            got = [
                (nrn - off_n[k], t)
                for nrn, t in internal_spikes(tr)
                if off_n[k] <= nrn < off_n[k + 1]
            ]
            assert len(got) == len(want)
            for (gn, gt), (wn, wt) in zip(got, want):
                assert gn == wn and abs(gt - wt) <= 1e-12


class TestDenseOracle:
    def test_zero_weight_net_reproduces_inputs_only(self):
        net = Network(
            n_total=2,
            weights=np.zeros((2, 2)),
            input_weights=np.zeros((1, 2)),
            params=P2,
            output_set=(1,),
        )
        inputs = [in_spike(0, 0.3), in_spike(0, 0.9)]
        tr = dense_oracle(net, inputs, dt=1e-3, t_max=2.0)
        assert tr.kinds.tolist() == [INPUT, INPUT]
        assert tr.times.tolist() == [0.3, 0.9]

    def test_single_neuron_crossing_convergence(self):
        net = single_neuron_net(w_in=4.0)
        expected = euler_first_crossing(0.0, 4.0, P2, dt=1e-7)
        errs = []
        for dt in (1e-3, 1e-4, 1e-5):
            tr = dense_oracle(net, [in_spike(0, 0.0)], dt=dt, t_max=2.0)
            errs.append(abs(internal_spikes(tr)[0][1] - expected))
        assert errs[0] < 5e-3 and errs[2] < 5e-5
        assert errs[2] < errs[0]

    def test_matches_simulate_on_random_networks(self, rng):
        for _ in range(15):
            net = random_network(rng, n_max=5)
            inputs = random_inputs(rng, net, k_max=6)
            ev = simulate(net, inputs, m=24, t_max=2.0)
            dn = dense_oracle(net, inputs, dt=1e-5, t_max=2.0, m=24)
            real = ev.kinds != DUMMY
            assert ev.neurons[real].tolist() == dn.neurons[dn.kinds != DUMMY].tolist()
            assert ev.kinds[real].tolist() == dn.kinds[dn.kinds != DUMMY].tolist()
            assert np.all(np.abs(ev.times[real] - dn.times[real]) <= 1e-3)


class TestSimultaneousCrossings:
    # two identical neurons on one input cross threshold at the same instant;
    # an engine that re-solves every neuron at each spike finds the second one
    # sitting exactly at threshold, with no upward crossing left, and drops it
    def twin_net(self):
        return Network(
            n_total=2,
            weights=np.zeros((2, 2)),
            input_weights=np.array([[3.0, 3.0]]),
            params=P2,
            output_set=(1,),
        )

    def test_both_spike_lowest_index_first(self):
        net = self.twin_net()
        inputs = [in_spike(0, 0.0)]
        tr = simulate(net, inputs, m=6, t_max=1.0)
        got = internal_spikes(tr)
        assert [nrn for nrn, _ in got] == [0, 1]
        assert got[0][1] == got[1][1]
        dn = dense_oracle(net, inputs, dt=1e-5, t_max=1.0, m=6)
        assert [nrn for nrn, _ in internal_spikes(dn)] == [0, 1]
        for (_, a), (_, b) in zip(got, internal_spikes(dn)):
            assert abs(a - b) <= 1e-3

    def test_mock_backend_keeps_tied_spikes(self):
        from eventsnn.backend import BackendConfig, MockConfig, forward

        cfg = BackendConfig(kind="mock", mock=MockConfig(jitter_sigma=0.0, weight_bits=6))
        tr = forward(cfg, self.twin_net(), [in_spike(0, 0.0)], 6, 4.0, seed=3)
        got = internal_spikes(tr)
        assert [nrn for nrn, _ in got] == [0, 1]
        assert got[0][1] == got[1][1]


class TestEngineEdgeCases:
    def test_self_loop(self, rng):
        w = rng.uniform(-2.0, 2.0, size=(3, 3))
        np.fill_diagonal(w, [1.5, -2.0, 0.7])
        net = Network(
            n_total=3,
            weights=w,
            input_weights=rng.uniform(1.0, 5.0, size=(2, 3)),
            params=P2,
            output_set=(2,),
        )
        batch_inputs = [random_inputs(rng, net, k_max=6) for _ in range(8)]
        assert_batch_matches_solo(net, batch_inputs, m=30, t_max=3.0)
        # the self-loop current lands on the spiking neuron itself
        single = single_neuron_net(w_in=4.0, w_rec=2.0)
        ev = simulate(single, [in_spike(0, 0.0)], m=12, t_max=3.0)
        dn = dense_oracle(single, [in_spike(0, 0.0)], dt=1e-5, t_max=3.0, m=12)
        assert ev.kinds.tolist() == dn.kinds.tolist()
        assert len(internal_spikes(ev)) >= 2
        real = ev.kinds != DUMMY
        assert np.all(np.abs(ev.times[real] - dn.times[real]) <= 1e-3)

    def test_zero_input_row_and_zero_weight_row(self, rng):
        w = rng.uniform(-2.0, 3.0, size=(4, 4))
        w[1] = 0.0  # neuron 1 drives nobody
        w_in = rng.uniform(1.0, 5.0, size=(3, 4))
        w_in[2] = 0.0  # input channel 2 drives nobody
        net = Network(n_total=4, weights=w, input_weights=w_in, params=P2, output_set=(3,))
        batch_inputs = [random_inputs(rng, net, k_max=8) for _ in range(8)]
        batch_inputs.append([in_spike(2, 0.1), in_spike(2, 0.4)])
        batch = assert_batch_matches_solo(net, batch_inputs, m=30, t_max=3.0)
        silent = batch[len(batch_inputs) - 1]
        assert silent.kinds[:3].tolist() == [INPUT, INPUT, DUMMY]
        np.testing.assert_array_equal(silent.final_i, np.zeros(4))

    def test_record_set_subset(self, rng):
        base = random_network(rng, n_max=6)
        while base.n_total < 3:
            base = random_network(rng, n_max=6)
        recorded = tuple(range(0, base.n_total, 2))
        net = Network(
            n_total=base.n_total,
            weights=base.weights,
            input_weights=base.input_weights,
            params=base.params,
            output_set=base.output_set,
            record_set=recorded,
        )
        batch_inputs = [random_inputs(rng, net) for _ in range(8)]
        batch = assert_batch_matches_solo(net, batch_inputs, m=20, t_max=2.5)
        idx, times = pack_inputs(batch_inputs)
        full = simulate_batch(base, idx[:, :-1], times[:, :-1], m=20, t_max=2.5)
        for b in range(len(batch_inputs)):
            keep = ~((full.kinds[b] == INTERNAL) & ~np.isin(full.neurons[b], recorded))
            n_kept = int(keep.sum())
            for field in ("neurons", "times", "kinds"):
                want = getattr(full, field)[b][keep]
                np.testing.assert_array_equal(getattr(batch, field)[b][:n_kept], want)
            assert np.all(batch.kinds[b][n_kept:] == DUMMY)


class TestEarlyStopAndFinalState:
    def test_wide_budget_only_adds_trailing_dummies(self, rng):
        net = random_network(rng, n_max=6)
        batch_inputs = [random_inputs(rng, net) for _ in range(8)]
        idx, times = pack_inputs(batch_inputs)
        wide = simulate_batch(net, idx[:, :-1], times[:, :-1], m=400, t_max=2.5)
        real = wide.kinds != int(SpikeKind.DUMMY)
        n_real = real.sum(axis=1)
        assert 2 * n_real.max() < 400  # the budget is far above the activity
        for b in range(len(batch_inputs)):
            assert real[b, : n_real[b]].all() and not real[b, n_real[b] :].any()
        tight_m = int(n_real.max()) + 1
        tight = simulate_batch(net, idx[:, :-1], times[:, :-1], m=tight_m, t_max=2.5)
        np.testing.assert_array_equal(wide.neurons[:, :tight_m], tight.neurons)
        np.testing.assert_array_equal(wide.times[:, :tight_m], tight.times)
        np.testing.assert_array_equal(wide.kinds[:, :tight_m], tight.kinds)
        np.testing.assert_array_equal(wide.final_v, tight.final_v)
        assert np.all(wide.final_t == 2.5) and np.all(tight.final_t == 2.5)

    def test_truncated_row_keeps_time_of_last_event(self):
        net = single_neuron_net(w_in=4.0, w_rec=1.0)
        batch_inputs = [[in_spike(0, 0.0)], []]
        idx, times = pack_inputs(batch_inputs)
        batch = simulate_batch(net, idx[:, :-1], times[:, :-1], m=3, t_max=5.0)
        assert batch.kinds[0, -1] == int(SpikeKind.INTERNAL)
        assert batch.final_t[0] == batch.times[0, -1] < 5.0
        assert batch.final_v[0, 0] == P2.v_reset
        assert batch.final_t[1] == 5.0

    def test_final_state_matches_replay(self, rng):
        from eventsnn.grad import replay_state

        for _ in range(10):
            net = random_network(rng, n_max=6)
            inputs = random_inputs(rng, net)
            tr = simulate(net, inputs, m=300, t_max=2.5)
            assert tr.kinds[-1] == DUMMY
            v, i, t = replay_state(tr.neurons[None], tr.times[None], tr.kinds[None], net, 2.5)
            assert tr.final_t == t[0]
            np.testing.assert_allclose(tr.final_v, v[0], rtol=0, atol=1e-12)
            np.testing.assert_allclose(tr.final_i, i[0], rtol=0, atol=1e-12)


class TestMixedKindIterations:
    # one event step serves every row, whatever kind of event each row takes

    def test_input_and_internal_rows_in_one_iteration(self):
        net = Network(
            n_total=3,
            weights=np.array([[0.0, 0.0, 2.5], [0.0, 0.0, 2.5], [0.0, 0.0, 0.0]]),
            input_weights=np.array([[0.5, 0.5, 0.0], [4.0, 0.0, 0.0]]),
            params=P2,
            output_set=(2,),
        )
        batch_inputs = [
            [in_spike(0, 0.1 * k) for k in range(4)],
            [in_spike(1, 0.0), in_spike(0, 1.2)],
            [in_spike(1, 0.0), in_spike(1, 0.05), in_spike(0, 0.4)],
        ]
        batch = assert_batch_matches_solo(net, batch_inputs, m=24, t_max=2.0)
        # slot 1: row 0 takes its second input while row 1's neuron 0 fires
        assert batch.kinds[:, 1].tolist() == [INPUT, INTERNAL, INPUT]
        mixed = [
            k for k in range(24) if {INPUT, INTERNAL} <= set(batch.kinds[:, k].tolist())
        ]
        assert len(mixed) >= 2
        assert_rows_match_dense(net, batch, batch_inputs, t_max=2.0)

    def test_input_ties_an_internal_crossing_exactly(self):
        # input 1 at t = 0 drives neuron 0 to cross at exactly t_x; input 0
        # arrives at t_x too and only touches neuron 1, so both events stand
        net = Network(
            n_total=2,
            weights=np.array([[0.0, 1.0], [0.0, 0.0]]),
            input_weights=np.array([[0.0, 1.5], [4.0, 0.0]]),
            params=P2,
            output_set=(1,),
        )
        t_x = next_crossing_double_tau(0.0, 4.0, P2).time
        batch_inputs = [
            [in_spike(1, 0.0), in_spike(0, t_x)],
            [in_spike(1, 0.0), in_spike(0, 0.5 * t_x)],
        ]
        batch = assert_batch_matches_solo(net, batch_inputs, m=12, t_max=2.0)
        tie = batch[0]
        assert tie.kinds[:3].tolist() == [INPUT, INPUT, INTERNAL]
        assert tie.neurons[:3].tolist() == [1, 0, 0]
        assert tie.times[1] == tie.times[2] == t_x
        assert batch[1].kinds[:3].tolist() == [INPUT, INPUT, INTERNAL]
        assert_rows_match_dense(net, batch, batch_inputs, t_max=2.0)

    def test_output_neuron_without_targets(self, rng):
        # feedforward 2-3-2: the outputs 3 and 4 drive nobody, so their
        # spikes touch one lane, the neuron itself
        w = np.zeros((5, 5))
        w[:3, 3:] = rng.uniform(1.0, 3.0, size=(3, 2))
        w_in = rng.uniform(1.5, 4.0, size=(2, 5))
        w_in[:, 3:] = 0.0
        net = Network(n_total=5, weights=w, input_weights=w_in, params=P2, output_set=(3, 4))
        fan = FanOut.of(net)
        assert fan.count[3] == fan.count[4] == 1
        assert fan.lanes[fan.start[3]] == 3 and fan.lanes[fan.start[4]] == 4
        batch_inputs = [random_inputs(rng, net, k_max=4, t_span=1.0) for _ in range(4)]
        batch = assert_batch_matches_solo(net, batch_inputs, m=40, t_max=2.0)
        out_spike = (batch.kinds == INTERNAL) & (batch.neurons >= 3)
        other = (batch.kinds == INPUT) | ((batch.kinds == INTERNAL) & (batch.neurons < 3))
        assert np.any(out_spike.any(axis=0) & other.any(axis=0))
        assert_rows_match_dense(net, batch, batch_inputs, t_max=2.0)


def two_input_net():
    return Network(
        n_total=2,
        weights=np.zeros((2, 2)),
        input_weights=np.array([[3.0, 0.0], [0.0, 3.0]]),
        params=P2,
        output_set=(1,),
    )


RUNNERS = {
    "simulate_batch": lambda net, idx, t: simulate_batch(net, idx, t, 6, 3.0),
    "numeric": lambda net, idx, t: forward_batch(
        BackendConfig(), net, idx, t, 6, 3.0, [0] * len(t)
    ),
    "mock": lambda net, idx, t: forward_batch(
        BackendConfig(kind="mock"), net, idx, t, 6, 3.0, [0] * len(t)
    ),
    # the rows are checked before the (absent) file is read
    "replay": lambda net, idx, t: forward_batch(
        BackendConfig(kind="replay", replay=ReplayConfig("absent.replay")),
        net, idx, t, 6, 3.0, [0] * len(t),
    ),
}


@pytest.mark.parametrize("run", RUNNERS.values(), ids=RUNNERS.keys())
class TestMalformedInputRows:
    def test_dummy_channel_at_finite_time(self, run):
        with pytest.raises(InvalidParameter):
            run(two_input_net(), np.array([[0, -1]]), np.array([[0.1, 0.2]]))

    def test_channel_beyond_n_in(self, run):
        with pytest.raises(InvalidParameter):
            run(two_input_net(), np.array([[0, 2]]), np.array([[0.1, 0.2]]))

    def test_unsorted_row(self, run):
        with pytest.raises(UnsortedInput):
            run(two_input_net(), np.array([[0, 1, 0]]), np.array([[0.5, 0.1, 0.3]]))

    def test_nan_time(self, run):
        with pytest.raises(InvalidParameter):
            run(two_input_net(), np.array([[0, 1]]), np.array([[0.1, np.nan]]))

    def test_padding_before_an_input(self, run):
        with pytest.raises(UnsortedInput):
            run(two_input_net(), np.array([[-1, 0]]), np.array([[np.inf, 0.5]]))

    def test_time_before_the_start(self, run):
        with pytest.raises(UnsortedInput):
            run(two_input_net(), np.array([[0]]), np.array([[-0.1]]))


@pytest.mark.parametrize("runner", ["simulate_batch", "numeric", "mock"])
def test_padded_rows_accepted(runner):
    idx = np.array([[0, 1, -1], [1, -1, -1]])
    t = np.array([[0.1, 0.2, np.inf], [0.3, np.inf, np.inf]])
    kinds = RUNNERS[runner](two_input_net(), idx, t).kinds
    assert kinds[0, :2].tolist() == [INPUT, INPUT] and kinds[1, 0] == INPUT


def test_input_before_initial_state_time_rejected():
    net = single_neuron_net()
    with pytest.raises(UnsortedInput):
        simulate_batch(
            net, np.array([[0]]), np.array([[0.5]]), 4, 3.0,
            np.zeros((1, 1)), np.zeros((1, 1)), np.array([1.0]),
        )
