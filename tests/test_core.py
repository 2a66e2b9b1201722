import io
import math

import numpy as np
import pytest

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
    read_spike_file,
    validate_network,
    write_spike_file,
)

from conftest import classify_walk

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
        d = Spike.dummy()
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
    def test_wellformed_passes(self):
        validate_network(make_net(n=2, tau_mem=2.0))

    def test_shape_violation(self):
        with pytest.raises(DimensionMismatch):
            validate_network(make_net(n=2, weights=np.zeros((3, 2))))

    def test_tau_ratio_rejected_for_analytic_path(self):
        net = make_net(tau_mem=1.5)
        with pytest.raises(UnsupportedTauRatio):
            validate_network(net)
        # oracle/testing path may still accept odd ratios
        validate_network(net, require_analytic=False)

    def test_nonpositive_tau(self):
        with pytest.raises(NonpositiveTimeConstant):
            validate_network(make_net(tau_mem=-1.0))

    def test_reset_must_sit_below_threshold(self):
        with pytest.raises(InvalidParameter):
            validate_network(make_net(v_reset=1.5))

    def test_idempotent(self):
        net = make_net()
        before = net.weights.copy()
        validate_network(net)
        validate_network(net)
        np.testing.assert_array_equal(net.weights, before)


class TestImmutability:
    def test_arrays_are_locked(self):
        net = make_net()
        with pytest.raises(ValueError):
            net.weights[0, 0] = 1.0


class TestSpikeFile:
    def roundtrip(self, neurons, times):
        buf = io.StringIO()
        write_spike_file(buf, neurons, times)
        buf.seek(0)
        return read_spike_file(buf)

    def kinds(self, neurons, times, in_neurons=(), in_times=()):
        return classify_records(
            np.array([neurons]), np.array([times]),
            np.array([in_neurons], dtype=np.int64), np.array([in_times], dtype=np.float64),
        )[0].tolist()

    def test_roundtrip_identity_with_dummy(self):
        neurons = [3, 0, -1]
        times = [0.1234567890123456789, 1.0 / 3.0, math.inf]
        back_n, back_t = self.roundtrip(neurons, times)
        assert back_n.tolist() == neurons and back_t.tolist() == times
        assert self.kinds(back_n, back_t) == [INTERNAL, INTERNAL, DUMMY]

    def test_roundtrip_classifies_inputs_against_context(self):
        in_neurons, in_times = [1, 0], [0.25, 0.5]
        neurons = [1, 1, 0, -1]
        times = [0.25, 0.3, 0.5, math.inf]
        back_n, back_t = self.roundtrip(neurons, times)
        assert back_n.tolist() == neurons and back_t.tolist() == times
        kinds = self.kinds(back_n, back_t, in_neurons, in_times)
        assert kinds == [INPUT, INTERNAL, INPUT, DUMMY]

    def test_roundtrip_random_times_bit_exact(self, rng):
        times = np.sort(rng.uniform(0, 4, size=50))
        neurons = np.arange(50) % 7
        back_n, back_t = self.roundtrip(neurons, times)
        assert back_t.tolist() == times.tolist()
        np.testing.assert_array_equal(back_n, neurons)

    def test_dummy_is_literal_inf_token(self):
        buf = io.StringIO()
        write_spike_file(buf, [-1], [math.inf])
        assert buf.getvalue().splitlines()[1] == "-1,inf"

    def test_header_required(self):
        with pytest.raises(InvalidParameter):
            read_spike_file(io.StringIO("0,1.0\n"))

    def test_invalid_records_rejected(self):
        # the records a Spike could not hold: bad times, a neuron below -1,
        # and a -1 record that is not the dummy
        for record in ("0,nan", "0,-0.5", "0,inf", "-3,0.5", "-1,0.5", "1,2,3", "x,1.0"):
            with pytest.raises(InvalidParameter):
                read_spike_file(io.StringIO(f"neuron,time\n{record}\n"))


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
