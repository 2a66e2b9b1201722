import dataclasses
import math
import tracemalloc

import numpy as np
import pytest

from eventsnn.backend import KINDS, BackendConfig, forward_batch
from eventsnn.core import (
    DimensionMismatch,
    EventTrace,
    InvalidParameter,
    LifParams,
    Network,
    NonpositiveTimeConstant,
    Spike,
    SpikeKind,
    UnsupportedTauRatio,
    classify_records,
)
from eventsnn.grad import fud_feedforward
from eventsnn.sim import simulate, simulate_batch
from eventsnn.train import (
    TtfsLoss,
    read_checkpoint,
    replace_weights,
    split_layers,
    write_checkpoint,
)

from conftest import classify_records_reference, classify_walk, random_network

INTERNAL, INPUT, DUMMY = int(SpikeKind.INTERNAL), int(SpikeKind.INPUT), int(SpikeKind.DUMMY)


def make_net(n=2, tau_mem=2.0, weights=None, input_weights=None, **params):
    return Network(
        n_total=n,
        weights=np.zeros((n, n)) if weights is None else weights,
        input_weights=np.zeros((1, n)) if input_weights is None else input_weights,
        params=LifParams(tau_mem=tau_mem, **params),
        output_set=(n - 1,),
    )


class TestSpike:
    def test_dummy_encoding(self):
        d = Spike(-1, math.inf, SpikeKind.DUMMY)
        assert d.neuron == -1 and math.isinf(d.time) and d.is_dummy

    def test_dummy_must_be_minus_one_inf(self):
        with pytest.raises(InvalidParameter):
            Spike(0, math.inf, SpikeKind.DUMMY)
        with pytest.raises(InvalidParameter):
            Spike(-1, 1.0, SpikeKind.DUMMY)

    def test_real_spike_needs_finite_nonnegative_time(self):
        with pytest.raises(InvalidParameter):
            Spike(0, math.inf, SpikeKind.INTERNAL)
        with pytest.raises(InvalidParameter):
            Spike(-3, 0.5, SpikeKind.INPUT)


class TestValidateNetwork:
    """Each value type validates itself once, when it is built."""

    def test_wellformed_passes(self):
        make_net(n=2, tau_mem=2.0)

    def test_shape_violation(self):
        with pytest.raises(DimensionMismatch):
            make_net(n=2, weights=np.zeros((3, 2)))
        with pytest.raises(DimensionMismatch):
            make_net(n=2, input_weights=np.zeros((1, 3)))
        with pytest.raises(DimensionMismatch):
            make_net(n=2, input_weights=np.zeros(2))

    def test_nonpositive_tau(self):
        for tau in ({"tau_mem": -1.0}, {"tau_syn": 0.0}, {"tau_mem": math.nan}):
            with pytest.raises(NonpositiveTimeConstant):
                LifParams(**tau)

    @pytest.mark.parametrize("tau", [(math.inf, 1.0), (2.0, math.inf), (math.inf, math.inf)])
    def test_tau_must_be_finite(self, tau):
        # (inf, inf) would decide ratio 2, and its flow is NaN
        with pytest.raises(InvalidParameter, match="finite"):
            LifParams(*tau)

    def test_reset_must_sit_below_threshold(self):
        for v_reset in (1.0, 1.5, math.nan):
            with pytest.raises(InvalidParameter, match="v_reset"):
                LifParams(v_reset=v_reset)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_weights_must_be_finite(self, bad):
        w = np.zeros((2, 2))
        w[0, 1] = bad
        with pytest.raises(InvalidParameter, match="finite"):
            make_net(n=2, weights=w)
        w_in = np.zeros((1, 2))
        w_in[0, 0] = bad
        with pytest.raises(InvalidParameter, match="finite"):
            make_net(n=2, input_weights=w_in)

    @pytest.mark.parametrize("output_set", [(3,), (4,), (-1,), (0, 3)])
    def test_output_set_out_of_range(self, output_set):
        # index 4 of a 3-neuron net with 5 inputs would name an input
        # channel's stacked source, 3 + 1, in the event loop
        with pytest.raises(InvalidParameter, match="distinct indices in"):
            Network(3, np.zeros((3, 3)), np.zeros((5, 3)), output_set=output_set)

    def test_output_set_duplicates(self):
        with pytest.raises(InvalidParameter, match="distinct indices in"):
            Network(3, np.zeros((3, 3)), np.zeros((5, 3)), output_set=(1, 2, 1))

    def test_every_builder_checks(self, tmp_path):
        bad = np.ones((5, 6))
        bad[2, 3] = np.nan
        with pytest.raises(InvalidParameter, match="finite"):
            Network.feedforward(bad, np.ones((6, 3)))
        net = Network.feedforward(np.ones((5, 6)), np.ones((6, 3)))
        with pytest.raises(InvalidParameter, match="output_set"):
            dataclasses.replace(net, output_set=(9,))
        with pytest.raises(InvalidParameter, match="v_reset"):
            dataclasses.replace(net.params, v_reset=2.0)
        w_ih = np.ones((5, 6))
        w_ih[1, 2] = np.inf
        with pytest.raises(InvalidParameter, match="finite"):
            replace_weights(net, (w_ih, np.ones((6, 3))))
        with pytest.raises(DimensionMismatch):
            replace_weights(net, (np.ones((5, 6)), np.ones((8, 3))))
        path = tmp_path / "ck.txt"
        write_checkpoint(path, net, 6)
        lines = path.read_text().splitlines()
        assert lines[3] == "input_to_hidden"
        lines[4] = lines[4].replace("1.0", "nan", 1)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(InvalidParameter, match="finite") as err:
            read_checkpoint(path)
        assert str(path) in str(err.value)

    @pytest.mark.parametrize("xi", [0.0, -0.5, math.nan])
    def test_loss_needs_a_positive_xi(self, xi):
        with pytest.raises(InvalidParameter, match="xi"):
            TtfsLoss(xi=xi)

    def test_tau_ratio_rejected_for_analytic_path(self):
        # a net of any ratio builds, as the test oracles need; every engine
        # path raises at its first solve
        net = Network.feedforward(np.ones((2, 3)), np.ones((3, 2)), LifParams(tau_mem=1.5))
        in_neurons, in_times = np.array([[0, 1]]), np.array([[0.1, 0.2]])
        with pytest.raises(UnsupportedTauRatio):
            simulate(net, [Spike(0, 0.1, SpikeKind.INPUT)], 10, 4.0)
        with pytest.raises(UnsupportedTauRatio):
            simulate_batch(net, in_neurons, in_times, 10, 4.0)
        for kind in KINDS:
            with pytest.raises(UnsupportedTauRatio):
                forward_batch(BackendConfig(kind), net, in_neurons, in_times, 10, 4.0, [0])
        with pytest.raises(UnsupportedTauRatio):
            fud_feedforward(in_times, *split_layers(net)[1:], net.params, 4.0)


class TestLevels:
    def test_random_dags_match_a_recursive_longest_path(self, rng):
        def longest(net, j):
            targets = np.flatnonzero(net.weights[j])
            return 1 + max(longest(net, k) for k in targets) if targets.size else 0

        depths = set()
        for _ in range(30):
            net = random_network(rng, recurrent=False)
            want = [longest(net, j) for j in range(net.n_total)]
            assert net.levels.tolist() == want
            depths.add(max(want))
        assert len(depths) >= 4

    def test_feedforward_net_has_two_levels(self):
        net = Network.feedforward(np.ones((5, 8)), np.ones((8, 3)))
        assert net.levels.tolist() == [1] * 8 + [0] * 3

    @pytest.mark.parametrize(
        "edges, cycle",
        [([(0, 0)], "0 -> 0"), ([(2, 0), (0, 1), (1, 0)], "0 -> 1 -> 0"),
         ([(0, 1), (1, 2), (2, 0)], "0 -> 1 -> 2 -> 0")],
    )
    def test_a_cycle_raises_and_is_named(self, edges, cycle):
        w = np.zeros((3, 3))
        for j, i in edges:
            w[j, i] = -0.5
        with pytest.raises(InvalidParameter, match=f"cycle, {cycle};"):
            make_net(3, weights=w).levels


class TestImmutability:
    def test_arrays_are_locked(self):
        net = make_net()
        with pytest.raises(ValueError):
            net.weights[0, 0] = 1.0

    def test_a_feedforward_build_fills_its_matrices_once(self, rng):
        # feedforward hands its fresh matrices over frozen, so the network
        # takes them as they are instead of copying both again
        w_ih, w_ho = rng.normal(size=(5, 500)), rng.normal(size=(500, 3))
        tracemalloc.start()
        try:
            net = Network.feedforward(w_ih, w_ho)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * (net.weights.nbytes + net.input_weights.nbytes)


class TestClassifyRecords:
    def test_matches_the_record_walk(self, rng):
        # few distinct values, so records often equal an input out of order,
        # repeat one, or share an input's neuron or time
        b, m, k = 60, 12, 5
        values = np.array([0.1, 0.2, 0.3, 0.5])
        in_neurons = rng.integers(0, 3, size=(b, k))
        in_times = np.sort(rng.choice(values, size=(b, k)), axis=1)
        pad = np.arange(k) >= rng.integers(0, k + 1, size=b)[:, None]
        in_neurons[pad] = -1
        in_times[pad] = np.inf
        take = rng.integers(0, k, size=(b, m))
        from_input = rng.random((b, m)) < 0.6
        neurons = np.where(
            from_input, np.take_along_axis(in_neurons, take, 1), rng.integers(0, 3, size=(b, m))
        )
        times = np.where(
            from_input, np.take_along_axis(in_times, take, 1), rng.choice(values, size=(b, m))
        )
        tail = np.arange(m) >= rng.integers(0, m + 1, size=b)[:, None]
        neurons[tail] = -1
        times[tail] = np.inf
        kinds = classify_records(neurons, times, in_neurons, in_times)
        for r in range(b):
            pairs = zip(in_neurons[r].tolist(), in_times[r].tolist())
            inputs = [(n, t) for n, t in pairs if n >= 0]
            records = zip(neurons[r].tolist(), times[r].tolist())
            assert kinds[r].tolist() == [int(x) for x in classify_walk(records, inputs)]
        assert np.any(kinds == INPUT) and np.any((kinds == INTERNAL) & (neurons < 3))

    def test_matches_the_per_position_loop(self, rng):
        # the table of matches and the loop that compared each input
        # position anew give the same kinds bitwise, on whole batches and
        # on single rows, as replay-train classifies them
        for b, m, k in ((200, 16, 5), (120, 40, 8)):
            blocks = adversarial_blocks(rng, b, m, k)
            args, cases = blocks[:4], blocks[4]
            assert all(c.sum() >= 5 for c in cases.values()), {
                key: int(c.sum()) for key, c in cases.items()
            }
            want = classify_records_reference(*args)
            got = classify_records(*args)
            assert got.dtype == want.dtype and np.array_equal(got, want)
            for r in range(b):
                one = [a[r : r + 1] for a in args]
                assert np.array_equal(classify_records(*one), want[r : r + 1])
            assert np.any(got == INPUT) and np.any(got == DUMMY)


def adversarial_blocks(rng, b, m, k, t_max=4.0):
    """(B, m) records of rows run on (B, K) inputs, and per row which hard
    cases it holds.  Inputs are padded (-1, inf) past a row's own count,
    some lie past t_max and are not recorded, and some repeat the input
    before them.  An internal record copies an input's (neuron, time)
    before or after it, and a row is cut at a random record, as a budget or
    an output stop cuts it, then padded with dummies."""
    grid = np.array([0.1, 0.2, 0.3, 0.5, 3.9, 4.5, 5.0])
    in_neurons, in_times = np.full((b, k), -1), np.full((b, k), np.inf)
    neurons, times = np.full((b, m), -1), np.full((b, m), np.inf)
    cases = {key: np.zeros(b, bool) for key in (
        "padded", "twin_inputs", "past_t_max", "copy_before", "copy_after", "cut_inputs",
    )}
    for r in range(b):
        k_r = rng.integers(0, k + 1)
        cases["padded"][r] = k_r < k
        n_in = rng.integers(0, 3, size=k_r)
        t_in = np.sort(rng.choice(grid, size=k_r))
        for p in range(1, k_r):
            if rng.random() < 0.3:
                n_in[p], t_in[p] = n_in[p - 1], t_in[p - 1]
                cases["twin_inputs"][r] = True
        in_neurons[r, :k_r], in_times[r, :k_r] = n_in, t_in
        live = np.flatnonzero(t_in <= t_max)
        cases["past_t_max"][r] = live.size < k_r
        # (time, tie-break, neuron, input position or -1); inputs of one
        # time keep their order, internal records fall anywhere among them
        recs = [(t_in[p], p / k, n_in[p], p) for p in live]
        for _ in range(rng.integers(0, m)):
            if live.size and rng.random() < 0.4:
                p = rng.choice(live)
                tie = (p + rng.choice([-0.5, 0.5])) / k
                recs.append((t_in[p], tie, n_in[p], -1))
            else:
                t = rng.choice(grid[grid <= t_max])
                recs.append((t, rng.random(), rng.integers(0, 4), -1))
        recs.sort(key=lambda x: x[:2])
        recs = recs[: rng.integers(0, min(len(recs), m) + 1)]
        kept = [x[3] for x in recs if x[3] >= 0]
        cases["cut_inputs"][r] = 0 < len(kept) < live.size
        for p in kept:
            at = [i for i, x in enumerate(recs) if x[3] < 0 and x[2] == n_in[p] and x[0] == t_in[p]]
            here = next(i for i, x in enumerate(recs) if x[3] == p)
            cases["copy_before"][r] |= any(i < here for i in at)
            cases["copy_after"][r] |= any(i > here for i in at)
        neurons[r, : len(recs)] = [x[2] for x in recs]
        times[r, : len(recs)] = [x[0] for x in recs]
    return neurons, times, in_neurons, in_times, cases


class TestEventTrace:
    def test_row_is_a_one_sample_trace(self):
        batch = EventTrace(
            np.array([[0, -1], [1, 0]]),
            np.array([[0.5, np.inf], [0.2, 0.7]]),
            np.array([[INPUT, DUMMY], [INPUT, INTERNAL]], dtype=np.int8),
        )
        assert len(batch) == batch.batch_size == 2
        row = batch[1]
        assert isinstance(row, EventTrace) and len(row) == 2
        assert row.neurons.tolist() == [1, 0] and row.times.tolist() == [0.2, 0.7]
        assert row.kinds.tolist() == [INPUT, INTERNAL]
        with pytest.raises(DimensionMismatch):
            row[0]
