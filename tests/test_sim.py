import dataclasses
import math

import numpy as np
import pytest

from eventsnn.backend import (
    BackendConfig,
    MockConfig,
    _mock_network,
    forward_batch,
)
from eventsnn.config import load_config
from eventsnn.core import (
    FanOut,
    InvalidParameter,
    LifParams,
    Network,
    Spike,
    SpikeKind,
)
from eventsnn.data import build_dataset, encode_dataset
from eventsnn import sim as sim_mod
from eventsnn.lif import next_crossing_double_tau, next_crossing_safe, propagate_arrays
from eventsnn.sim import (
    InvalidBudget,
    UnsortedInput,
    pack_inputs,
    simulate,
    simulate_batch,
)
from eventsnn.train import init_network, pack_samples

from conftest import (
    assert_bitwise_trace,
    assert_stopped_prefix,
    dense_oracle,
    euler_first_crossing,
    fan_out_reference,
    mock_weights_reference,
    random_inputs,
    random_network,
    simulate_batch_reference,
    without_outputs,
)

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


def run_rows(net, batch_inputs, m, t_max):
    idx, times = pack_inputs(batch_inputs)
    return simulate_batch(net, idx[:, :-1], times[:, :-1], m=m, t_max=t_max)


def assert_unstopped_prefix(net, batch, batch_inputs, m, t_max):
    """``batch`` of the readout net is the prefix of the same rows run with
    no outputs; returns that unstopped batch for the oracle comparisons."""
    full = assert_batch_matches_solo(without_outputs(net), batch_inputs, m, t_max)
    assert_stopped_prefix(batch, full, net.output_set)
    return full


class TestStep:
    # a run with budget m stops after its m-th event step, when the row runs
    # out of events before t_max, or once every output has fired

    def test_zero_weights_passes_input_through(self):
        net = Network(
            n_total=2,
            weights=np.zeros((2, 2)),
            input_weights=np.zeros((1, 2)),
            params=P2,
            output_set=(1,),
        )
        out = run_rows(net, [[in_spike(0, 0.2)]], m=1, t_max=3.0)[0]
        assert (out.neurons[0], out.times[0], out.kinds[0]) == (0, 0.2, INPUT)

    def test_strong_input_then_internal_spike(self):
        net = single_neuron_net(w_in=4.0)
        out1 = run_rows(net, [[in_spike(0, 0.0)]], m=1, t_max=5.0)[0]
        assert out1.kinds[0] == INPUT
        out2 = run_rows(net, [[in_spike(0, 0.0)]], m=2, t_max=5.0)[0]
        t_expected = euler_first_crossing(0.0, 4.0, P2, dt=1e-6)
        assert out2.kinds[1] == INTERNAL
        assert out2.times[1] == pytest.approx(t_expected, abs=1e-4)

    def test_quiescent_network_emits_dummy(self):
        net = single_neuron_net()
        out = run_rows(net, [[]], m=1, t_max=3.0)[0]
        assert (out.neurons[0], out.times[0], out.kinds[0]) == (-1, math.inf, DUMMY)


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
        tr = simulate(net, inputs, m=3, t_max=3.0)
        assert len(tr) == 3
        times = real_times(tr)
        assert times == sorted(times)
        assert int(np.sum(tr.kinds == INPUT)) < len(inputs)  # inputs were cut

    def test_invalid_budget(self):
        with pytest.raises(InvalidBudget):
            simulate(single_neuron_net(), [], m=0, t_max=1.0)

    @pytest.mark.parametrize("t_max", [0.0, -1.0, np.nan])
    def test_t_max_must_be_positive(self, t_max):
        with pytest.raises(InvalidParameter, match="t_max"):
            run_rows(single_neuron_net(), [[in_spike(0, 0.1)]], m=4, t_max=t_max)

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
        # input 1 drives neuron 0 to cross at exactly t_exact, built with the
        # solver itself; input 0 arrives at the same instant and touches no
        # lane, so both events stand and the input must be processed first
        net = Network(
            n_total=1,
            weights=np.zeros((1, 1)),
            input_weights=np.array([[0.0], [4.0]]),
            params=P2,
            output_set=(0,),
        )
        t_exact = next_crossing_double_tau(0.0, 4.0, P2).time
        out = run_rows(net, [[in_spike(1, 0.0), in_spike(0, t_exact)]], m=3, t_max=3.0)[0]
        assert out.kinds.tolist() == [INPUT, INPUT, INTERNAL]
        assert out.neurons.tolist() == [1, 0, 0]
        assert out.times[1] == out.times[2] == t_exact

    def test_recurrent_two_neuron_alternation(self):
        # mutually excitatory pair: origins must alternate
        net = Network(
            n_total=2,
            weights=np.array([[0.0, 3.0], [3.0, 0.0]]),
            input_weights=np.array([[4.0, 0.0]]),
            params=P2,
            output_set=(1,),
        )
        tr = simulate(without_outputs(net), [in_spike(0, 0.0)], m=9, t_max=40.0)
        internal = [nrn for nrn, _ in internal_spikes(tr)]
        assert len(internal) >= 6
        assert all(a != b for a, b in zip(internal, internal[1:]))
        # the readout net stops at neuron 1's first spike, in slot 2
        stopped = simulate(net, [in_spike(0, 0.0)], m=9, t_max=40.0)
        assert assert_stopped_prefix(stopped, tr, net.output_set).tolist() == [3]


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
            net = without_outputs(random_network(rng, n_max=3, n_in_max=2))
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
        tr = simulate(without_outputs(combined), merged, m=900, t_max=1.5)
        assert tr.kinds[-1] == DUMMY
        assert_stopped_prefix(simulate(combined, merged, m=900, t_max=1.5), tr, (0,))
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
            ev = simulate(without_outputs(net), inputs, m=24, t_max=2.0)
            assert_stopped_prefix(simulate(net, inputs, m=24, t_max=2.0), ev, net.output_set)
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
        ev = simulate(without_outputs(single), [in_spike(0, 0.0)], m=12, t_max=3.0)
        stopped = simulate(single, [in_spike(0, 0.0)], m=12, t_max=3.0)
        assert assert_stopped_prefix(stopped, ev, single.output_set).tolist() == [2]
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

    def test_truncated_row_keeps_time_of_last_event(self):
        net = single_neuron_net(w_in=4.0, w_rec=1.0)
        batch_inputs = [[in_spike(0, 0.0)], []]
        full = run_rows(without_outputs(net), batch_inputs, m=3, t_max=5.0)
        assert full.kinds[0, -1] == int(SpikeKind.INTERNAL)
        assert full.times[0, -1] < 5.0
        assert full.kinds[1].tolist() == [DUMMY] * 3
        # the readout neuron's first spike ends the row before its budget
        stopped = run_rows(net, batch_inputs, m=3, t_max=5.0)
        assert assert_stopped_prefix(stopped, full, net.output_set).tolist() == [2, 3]


def with_outputs(rng, net):
    """The net with a random nonempty subset of its neurons as outputs."""
    k = int(rng.integers(1, net.n_total + 1))
    outputs = rng.choice(net.n_total, size=k, replace=False)
    return dataclasses.replace(net, output_set=tuple(outputs.tolist()))


class TestLossCompleteStop:
    # a row retires in the iteration where the last output fires for the
    # first time; before that it is bitwise the row of a net without outputs

    @pytest.mark.parametrize(
        "kw",
        [{"recurrent": False}, {}, {"params": LifParams(tau_mem=1.0)}],
        ids=["feedforward", "recurrent", "equal_tau"],
    )
    def test_stopped_trace_is_the_unstopped_prefix(self, rng, kw):
        early = 0
        for _ in range(20):
            net = with_outputs(rng, random_network(rng, n_max=6, **kw))
            batch_inputs = [random_inputs(rng, net) for _ in range(6)]
            stopped = assert_batch_matches_solo(net, batch_inputs, m=40, t_max=2.5)
            full = run_rows(without_outputs(net), batch_inputs, m=40, t_max=2.5)
            end = assert_stopped_prefix(stopped, full, net.output_set)
            for r, e in enumerate(end):
                real = int(np.sum(full.kinds[r] != DUMMY))
                if e < 40:  # loss-complete: the last kept slot is an output
                    assert stopped.kinds[r, e - 1] == INTERNAL
                    assert stopped.neurons[r, e - 1] in net.output_set
                early += e < real
        assert early >= 20  # the stop cuts real events off many rows

    @pytest.mark.parametrize("n_hidden, m", [(120, 138), (500, 2000)])
    def test_benchmark_sized_batch(self, n_hidden, m):
        # the benchmark's 5-120-3 training net at its budget, and its wide
        # 5-500-3 evaluation net, at init on 64 Yin-Yang rows
        cfg = load_config(None, {
            "network.n_hidden": str(n_hidden), "sim.m": str(m),
            "dataset.n_train": "64", "dataset.n_test": "3", "train.seed": "1",
        })
        points, _ = build_dataset(cfg.dataset)
        ds = pack_samples(encode_dataset(points, cfg.dataset))
        net = init_network(cfg, ds, np.random.default_rng(1), m)
        args = (ds.sorted_neurons, ds.sorted_times, m, cfg.sim.t_max)
        stopped = simulate_batch(net, *args)
        full = simulate_batch(without_outputs(net), *args)
        end = assert_stopped_prefix(stopped, full, net.output_set)
        real = np.sum(full.kinds != DUMMY, axis=1)
        assert end.shape == (64,) and np.all(end <= real) and np.median(end) < np.median(real)

    def test_lanes_solved_in_a_wide_forward(self, monkeypatch):
        # a guard on the work of the benchmark's wide 5-500-3 forward at
        # B=64: the first iteration solves the input fan-out entries once
        # instead of every lane its inputs touch (123493 lanes before);
        # lower the bound when the count falls, never raise it
        cfg = load_config(None, {
            "network.n_hidden": "500", "sim.m": "2000",
            "dataset.n_train": "64", "dataset.n_test": "3", "train.seed": "1",
        })
        points, _ = build_dataset(cfg.dataset)
        ds = pack_samples(encode_dataset(points, cfg.dataset))
        net = init_network(cfg, ds, np.random.default_rng(1), cfg.sim.m)
        lanes = []

        def counted(v, i, p):
            lanes.append(np.size(v))
            return next_crossing_safe(v, i, p)

        monkeypatch.setattr(sim_mod, "next_crossing_safe", counted)
        simulate_batch(net, ds.sorted_neurons, ds.sorted_times, cfg.sim.m, cfg.sim.t_max)
        assert sum(lanes) <= 93_993

    def test_rows_retire_apart_with_inputs_still_queued(self):
        # input 0 drives the output across threshold about 0.5 later; the
        # weak channel 1 keeps a queue of inputs past every row's stop
        net = Network(
            n_total=1,
            weights=np.zeros((1, 1)),
            input_weights=np.array([[4.0], [0.2]]),
            params=P2,
            output_set=(0,),
        )
        batch_inputs = [
            sorted(
                [in_spike(0, 0.13 * r + 0.05)] + [in_spike(1, 0.1 * j) for j in range(25)],
                key=lambda s: s.time,
            )
            for r in range(6)
        ]
        stopped = assert_batch_matches_solo(net, batch_inputs, m=40, t_max=3.0)
        full = run_rows(without_outputs(net), batch_inputs, m=40, t_max=3.0)
        end = assert_stopped_prefix(stopped, full, net.output_set)
        assert len(set(end.tolist())) == len(batch_inputs)  # six different iterations
        assert np.all(np.sum(stopped.kinds == INPUT, axis=1) < 26)  # inputs left unread
        assert np.all(np.sum(full.kinds == INPUT, axis=1) == 26)

    def test_every_output_must_fire(self):
        # a silent output keeps its row running to t_max
        net = Network(
            n_total=2,
            weights=np.zeros((2, 2)),
            input_weights=np.array([[4.0, 0.0]]),
            params=P2,
            output_set=(0, 1),
        )
        full = run_rows(without_outputs(net), [[in_spike(0, 0.0)]], m=8, t_max=3.0)
        stopped = run_rows(net, [[in_spike(0, 0.0)]], m=8, t_max=3.0)
        assert assert_stopped_prefix(stopped, full, net.output_set).tolist() == [8]
        np.testing.assert_array_equal(stopped.times, full.times)

    def test_more_outputs_than_a_bitmask_word(self, rng):
        # 70 outputs, each driven by its own input: the row stops at the
        # 70th distinct first spike, whatever fires in between
        n = 72
        w = rng.uniform(0.0, 0.3, size=(n, n)) * (rng.random((n, n)) < 0.3)
        net = Network(
            n_total=n,
            weights=w,
            input_weights=np.eye(n) * 4.0,
            params=P2,
            output_set=tuple(range(70)),
        )
        inputs = [in_spike(k, 0.01 * k) for k in range(n)]
        full = simulate(without_outputs(net), inputs, m=400, t_max=3.0)
        stopped = simulate(net, inputs, m=400, t_max=3.0)
        end = assert_stopped_prefix(stopped, full, net.output_set)
        assert end[0] < int(np.sum(full.kinds != DUMMY))

    def test_wide_readout_rows_stop_apart(self, rng):
        # a 5-20-70 feedforward net: 70 outputs take Python-int bits, and
        # each of six rows stops once all 70 have fired, after about 100 of
        # the unstopped run's 300 events
        net = Network.feedforward(
            rng.normal(1.5, 0.5, size=(5, 20)), rng.normal(0.5, 0.3, size=(20, 70)), P2
        )
        in_times = np.sort(rng.uniform(0.0, 1.5, size=(6, 5)), axis=1)
        in_neurons = np.argsort(rng.uniform(size=(6, 5)), axis=1)
        args = (in_neurons, in_times, 300, 4.0)
        stopped = simulate_batch(net, *args)
        full = simulate_batch(without_outputs(net), *args)
        end = assert_stopped_prefix(stopped, full, net.output_set)
        assert np.all(end < np.sum(full.kinds != DUMMY, axis=1))
        for r, e in enumerate(end):
            fired = stopped.neurons[r, :e][stopped.kinds[r, :e] == INTERNAL]
            assert set(net.output_set) <= set(fired.tolist())
            assert stopped.neurons[r, e - 1] in net.output_set
            assert stopped.neurons[r, e - 1] not in fired[:-1]  # its first spike


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
        stopped = assert_batch_matches_solo(net, batch_inputs, m=24, t_max=2.0)
        batch = assert_unstopped_prefix(net, stopped, batch_inputs, m=24, t_max=2.0)
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
        stopped = assert_batch_matches_solo(net, batch_inputs, m=12, t_max=2.0)
        batch = assert_unstopped_prefix(net, stopped, batch_inputs, m=12, t_max=2.0)
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
        stopped = assert_batch_matches_solo(net, batch_inputs, m=40, t_max=2.0)
        batch = assert_unstopped_prefix(net, stopped, batch_inputs, m=40, t_max=2.0)
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



def layout_case(rng, case: int):
    """A random net and (B, K) input rows for the crossing-table checks.

    Weights are recurrent with self-loops; every third net has two neurons
    with the same incoming and self weights, so they cross together; every
    fifth has no outputs.  Rows tie input times, pad, and put an input
    exactly at t_max or past it; the first events, which start from rest,
    come at t = 0 in every fourth case, tie across rows, and one row may
    have every input past t_max while the others take theirs.
    """
    params = P2 if case % 2 else LifParams(tau_mem=1.0, tau_syn=1.0)
    n, n_in = int(rng.integers(1, 9)), int(rng.integers(1, 5))
    w = rng.uniform(-3.0, 3.0, (n, n)) * (rng.random((n, n)) < 0.6)
    w_in = rng.uniform(0.5, 6.0, (n_in, n)) * (rng.random((n_in, n)) < 0.8)
    if n >= 2 and case % 3 == 0:
        w_in[:, 1] = w_in[:, 0]
        w[:, 1] = w[:, 0]
        w[1, 1], w[0, 1], w[1, 0] = w[0, 0], 0.0, 0.0
    outputs = () if case % 5 == 0 else tuple(
        int(k) for k in rng.choice(n, size=int(rng.integers(1, n + 1)), replace=False)
    )
    net = Network(n_total=n, weights=w, input_weights=w_in, params=params, output_set=outputs)
    t_max = float(rng.choice([1.0, 2.5, 4.0, np.inf]))
    b, k = int(rng.integers(1, 7)), int(rng.integers(0, 9))
    times = np.sort(rng.uniform(0.0, min(t_max, 3.0), (b, k)), axis=1)
    neurons = rng.integers(0, n_in, (b, k))
    if k >= 1 and case % 4 == 1:
        times[0, 0] = 0.0  # a first input at the start
    if k >= 2:
        times[0, 1] = times[0, 0]  # tied input times, on two channels or one
    if b >= 2 and k >= 2:
        neurons[1, k // 2:], times[1, k // 2:] = -1, np.inf  # a padded row
    if b >= 3 and k >= 1 and np.isfinite(t_max):
        times[2, -1] = t_max  # an input exactly at t_max
    if b >= 4 and k >= 1 and np.isfinite(t_max):
        times[3, -1] = t_max + 0.5  # an input no row reads
    if b >= 5 and k >= 1:
        times[4] = times[0]  # first inputs tied across rows
    if b >= 6 and k >= 1 and np.isfinite(t_max):
        times[5] += t_max + 0.25  # a row with no input before t_max
    m = int(rng.integers(1, 60))
    return net, neurons, times, m, t_max


def layout_cases():
    rng = np.random.default_rng(2026)
    return [layout_case(rng, case) for case in range(320)]


def stop_kind(ref, net, m: int) -> list:
    """Why each row of a reference trace stopped."""
    real = np.sum(ref.kinds != DUMMY, axis=1)
    fired = [
        all(np.any((ref.kinds[r] == INTERNAL) & (ref.neurons[r] == o)) for o in net.output_set)
        for r in range(len(real))
    ]
    return [
        "budget" if e == m else "loss" if net.output_set and f else "t_max"
        for e, f in zip(real.tolist(), fired)
    ]


class TestCrossingTableLayout:
    """Inputs as columns of the crossing table, one at-rest solve, the trace
    written over the slots run, and the 1-D nonzero scans give bitwise the
    traces, fan-outs and mock weights of the queue-pointer engine."""

    def test_traces_equal_the_queue_engine(self):
        stops, ties, at_t_max = [], 0, 0
        first = {"at 0": 0, "tied across rows": 0, "none beside an input": 0}
        for net, neurons, times, m, t_max in layout_cases():
            ref, _ = simulate_batch_reference(net, neurons, times, m, t_max)
            assert_bitwise_trace(simulate_batch(net, neurons, times, m, t_max), ref)
            stops += stop_kind(ref, net, m)
            internal = np.where(ref.kinds == INTERNAL, ref.times, np.nan)
            ties += int(np.sum(internal[:, 1:] == internal[:, :-1]))
            at_t_max += int(np.sum((ref.kinds == INPUT) & (ref.times == t_max)))
            took = ref.kinds[:, 0] == INPUT
            first["at 0"] += int(np.sum(took & (ref.times[:, 0] == 0.0)))
            t0 = ref.times[took, 0]
            first["tied across rows"] += int(t0.size > np.unique(t0).size)
            first["none beside an input"] += int(took.any() and not took.all())
        assert min(stops.count(kind) for kind in ("budget", "loss", "t_max")) >= 50
        assert ties >= 10 and at_t_max >= 10
        assert min(first.values()) >= 20, first

    @pytest.mark.parametrize("tau_mem", [1.0, 2.0])
    def test_no_lane_at_rest_crosses(self, tau_mem):
        # the invariant the first iteration rests on, as it skips the solve
        # of every lane at rest: without current no threshold, at or below
        # rest too, is crossed
        for v_th in (-5.0, -1.0, -1e-300, -0.0, 0.0, 5e-324, 1e-300, 1.0, 7.0):
            for tau_syn in (0.5, 1.0, 3.0):
                p = LifParams(tau_mem=tau_mem * tau_syn, tau_syn=tau_syn, v_th=v_th,
                              v_reset=v_th - 1.0)
                rest = next_crossing_safe(np.zeros(2), np.array([0.0, -0.0]), p)
                assert np.isposinf(rest).all(), (p, rest)

    @pytest.mark.parametrize("b, k", [(0, 3), (3, 0), (0, 0)])
    def test_empty_batch_or_no_inputs(self, rng, b, k):
        net = random_network(rng, params=P2)
        neurons, times = np.full((b, k), -1), np.full((b, k), np.inf)
        ref, _ = simulate_batch_reference(net, neurons, times, 5, 2.0)
        assert_bitwise_trace(simulate_batch(net, neurons, times, 5, 2.0), ref)
        assert ref.times.shape == (b, 5)

    def test_fan_out_equals_the_touch_matrix(self, rng):
        wide = Network.feedforward(
            rng.normal(size=(5, 500)) * (rng.random((5, 500)) < 0.9),
            rng.normal(size=(500, 3)) * (rng.random((500, 3)) < 0.9),
            P2,
        )
        signed_zeros = Network(
            n_total=3,
            weights=np.array([[-0.0, 1.0, 0.0], [0.0, 2.0, -0.0], [0.5, 0.0, 0.0]]),
            input_weights=np.array([[0.0, -0.0, 3.0]]),
        )
        nets = [case[0] for case in layout_cases()] + [wide, signed_zeros]
        for net in nets:
            got, want = FanOut.of(net), fan_out_reference(net)
            for f in ("start", "count", "lanes", "weights"):
                a, ref = getattr(got, f), getattr(want, f)
                assert a.dtype == ref.dtype and a.tobytes() == ref.tobytes()

    def test_mock_weights_equal_the_float_scan(self, rng):
        wide = Network.feedforward(
            rng.normal(size=(5, 500)),
            rng.normal(size=(500, 3)) * (rng.random((500, 3)) < 0.5),
            P2,
        )
        nets = [case[0] for case in layout_cases()] + [wide]
        mocks = (MockConfig(), MockConfig(weight_bits=3, weight_clip=1.5))
        for j, net in enumerate(nets):
            mock = mocks[j % 2]
            want = mock_weights_reference(net, mock)
            got = _mock_network(net, mock)
            assert got.weights.tobytes() == want[0].tobytes()
            assert got.input_weights.tobytes() == want[1].tobytes()


class TestSolverCalls:
    """The loop reaches the solver and the free flow through ``sim``'s own
    bindings of ``lif.next_crossing_safe`` and ``lif.propagate_arrays``, one
    call of each per iteration over the fan-out lanes of every row, beside
    the at-rest solve and the solve of the input fan-out entries; the
    benchmark's ``lif`` figures count these calls."""

    @staticmethod
    def expected(net, trace, k_in):
        """Lanes per iteration, from the trace alone, and the first-input
        solve's lane count, None where no first iteration runs."""
        b = trace.times.shape[0]
        fan = net.fan_out
        k0 = int(k_in > 0 and b > 0)
        real = np.flatnonzero((trace.kinds != DUMMY).any(axis=0))
        ran = max(k0, int(real[-1]) + 1 if real.size else 0)
        src = np.where(
            trace.kinds == INTERNAL,
            trace.neurons,
            np.where(trace.kinds == INPUT, trace.neurons + net.n_total, fan.null),
        )
        lanes = fan.count[src[:, k0:ran]].sum(axis=0).tolist()
        return lanes, (fan.lanes.size - int(fan.start[net.n_total]) if k0 else None)

    def test_one_call_of_each_per_iteration(self, monkeypatch, rng):
        solved, flowed = [], []

        def solve(v, i, p):
            solved.append(np.size(v))
            return next_crossing_safe(v, i, p)

        def flow(v, i, dt, p):
            flowed.append(np.size(v))
            return propagate_arrays(v, i, dt, p)

        monkeypatch.setattr(sim_mod, "next_crossing_safe", solve)
        monkeypatch.setattr(sim_mod, "propagate_arrays", flow)
        cases = layout_cases()
        for b, k in ((0, 3), (3, 0), (0, 0)):
            cases.append((random_network(rng, params=P2), np.full((b, k), -1),
                          np.full((b, k), np.inf), 5, 2.0))
        iterations = 0
        for net, neurons, times, m, t_max in cases:
            solved.clear()
            flowed.clear()
            trace = simulate_batch(net, neurons, times, m, t_max)
            lanes, first = self.expected(net, trace, times.shape[1])
            assert flowed == lanes
            assert solved == [1] + ([] if first is None else [first]) + lanes
            iterations += len(lanes)
        assert iterations >= 3000
