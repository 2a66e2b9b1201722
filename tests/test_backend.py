import math

import numpy as np
import pytest

from eventsnn.backend import (
    BackendConfig,
    MockConfig,
    ReplayShapeMismatch,
    ReplayUnsorted,
    _apply_mock_noise,
    _mock_network,
    check_manifest,
    forward,
    forward_batch,
    quantize_weights,
    read_replay_file,
    replay_block_to_trace,
    write_replay_file,
)
from eventsnn.cli import build_parser
from eventsnn.core import EventTrace, InvalidParameter, LifParams, Network, SpikeKind
from eventsnn.grad import replay_state
from eventsnn.sim import pack_inputs, simulate, simulate_batch

from conftest import (
    backward_or_reference,
    edit_replay_record,
    mock_weights_reference,
    random_inputs,
    random_network,
    replay_row_lines,
    replay_walk,
)

P2 = LifParams(tau_mem=2.0)
INTERNAL, INPUT, DUMMY = int(SpikeKind.INTERNAL), int(SpikeKind.INPUT), int(SpikeKind.DUMMY)


class TestQuantizeWeights:
    def test_zero_stays_zero(self):
        for bits in (2, 3, 6, 8, 16):
            assert quantize_weights(np.array([0.0]), bits, 1.0)[0] == 0.0

    def test_two_bit_rounding(self):
        # bits=2 keeps levels {-1, 0, 1}: 0.6 snaps up to 1.0
        assert quantize_weights(np.array([0.6]), 2, 1.0)[0] == 1.0
        assert quantize_weights(np.array([0.4]), 2, 1.0)[0] == 0.0
        assert quantize_weights(np.array([-0.6]), 2, 1.0)[0] == -1.0

    def test_ties_round_away_from_zero(self):
        assert quantize_weights(np.array([0.5]), 2, 1.0)[0] == 1.0
        assert quantize_weights(np.array([-0.5]), 2, 1.0)[0] == -1.0

    def test_saturation(self):
        q = quantize_weights(np.array([5.0, -7.0]), 6, 1.0)
        assert q[0] == 1.0 and q[1] == -1.0

    def test_six_bit_error_bound_exhaustive(self, rng):
        # levels are clip/31 apart, so the in-range rounding error is
        # bounded by half a step = clip/62
        clip = 1.7
        w = rng.uniform(-clip, clip, size=20_000)
        q = quantize_weights(w, 6, clip)
        assert np.max(np.abs(q - w)) <= clip / 62 + 1e-15
        levels = np.unique(q)
        assert len(levels) == 63
        step = np.diff(levels)
        np.testing.assert_allclose(step, clip / 31, atol=1e-12)

    def test_monotone_up_to_ties(self, rng):
        w = np.sort(rng.uniform(-2, 2, size=500))
        q = quantize_weights(w, 4, 1.5)
        assert np.all(np.diff(q) >= 0.0)

    def test_bits_below_two_rejected(self):
        with pytest.raises(InvalidParameter):
            quantize_weights(np.zeros(1), 1, 1.0)


class TestMockNetwork:
    def test_sparse_quantize_equals_dense_bitwise(self, rng):
        # mostly zero weights with -0.0, subnormals and entries beyond the clip
        w = rng.normal(size=(40, 40)) * (rng.random((40, 40)) < 0.1)
        w[0, :6] = [-0.0, 0.0, 5e-324, -5e-324, 9.0, -9.0]
        w_in = np.where(rng.random((5, 40)) < 0.5, rng.normal(size=(5, 40)), -0.0)
        net = Network(n_total=40, weights=w, input_weights=w_in, params=P2, output_set=(39,))
        for clip in (None, 1.5):
            mock = MockConfig(weight_bits=6, weight_clip=clip)
            got = _mock_network(net, mock)
            c = clip or max(np.abs(w).max(), np.abs(w_in).max())
            for q, dense in ((got.weights, w), (got.input_weights, w_in)):
                want = quantize_weights(dense, 6, c)
                assert q.dtype == want.dtype
                assert np.array_equal(q.view(np.int64), want.view(np.int64))

    def test_network_copies_what_the_caller_can_still_write(self, rng):
        w, w_in = rng.normal(size=(6, 6)), rng.normal(size=(3, 6))
        base = rng.normal(size=(12, 6))
        frozen_view = base[6:]
        frozen_view.setflags(write=False)  # read-only, but its base is not
        for weights in (w, base[::2], base[:6], w.T, frozen_view, w.astype(np.float32)):
            keep = np.array(weights, dtype=np.float64)
            net = Network(n_total=6, weights=weights, input_weights=w_in)
            assert not net.weights.flags.writeable
            for a in (w, base):
                a += 1.0
            assert net.weights.tobytes() == keep.tobytes()
        frozen = rng.normal(size=(6, 6))
        frozen.setflags(write=False)
        assert Network(n_total=6, weights=frozen, input_weights=w_in).weights is frozen

    def test_mock_network_takes_over_its_quantized_weights(self, rng):
        net = random_network(rng, params=P2)
        for mock in (MockConfig(), MockConfig(weight_bits=3, weight_clip=1.5)):
            got = _mock_network(net, mock)
            want = mock_weights_reference(net, mock)
            for q, ref in zip((got.weights, got.input_weights), want):
                assert q.tobytes() == ref.tobytes()
                assert q.base is None and not q.flags.writeable


class TestNumericBackend:
    def test_passthrough_bit_for_bit(self, rng):
        net = random_network(rng)
        inputs = random_inputs(rng, net)
        tr_b = forward(BackendConfig(kind="numeric"), net, inputs, 12, 2.5, seed=3)
        tr_s = simulate(net, inputs, m=12, t_max=2.5)
        np.testing.assert_array_equal(tr_b.times, tr_s.times)
        np.testing.assert_array_equal(tr_b.neurons, tr_s.neurons)
        np.testing.assert_array_equal(tr_b.kinds, tr_s.kinds)


def full_width_mock_noise(batch, mock, t_max, seeds):
    """Mock noise sorted over every slot of each row: the same draws, one
    per internal spike, and one stable sort of the whole row."""
    internal = batch.kinds == INTERNAL
    times = batch.times.copy()
    drop = np.zeros_like(internal)
    for row, n_int in enumerate(internal.sum(axis=1)):
        if n_int == 0:
            continue
        rng = np.random.default_rng(np.random.SeedSequence((int(seeds[row]), 0xE5)))
        at = np.flatnonzero(internal[row])
        if mock.jitter_sigma > 0.0:
            jit = rng.normal(0.0, mock.jitter_sigma, size=n_int)
            times[row, at] = np.clip(times[row, at] + jit, 0.0, t_max)
        if mock.spike_loss_prob > 0.0:
            drop[row, at] = rng.random(n_int) < mock.spike_loss_prob
    times[drop] = np.inf
    order = np.argsort(times, axis=1, kind="stable")
    dropped = np.take_along_axis(drop, order, axis=1)
    neurons = np.take_along_axis(batch.neurons, order, axis=1)
    kinds = np.take_along_axis(batch.kinds, order, axis=1)
    return (
        np.where(dropped, -1, neurons),
        np.take_along_axis(times, order, axis=1),
        np.where(dropped, DUMMY, kinds).astype(np.int8),
    )


class TestMockBackend:
    @pytest.mark.parametrize("loss", [0.0, 0.3])
    def test_noise_on_the_real_prefix_equals_the_full_width_sort(self, rng, loss):
        # with loss, jitter 0 too (the losses drawn alone); seeds repeat
        # inside a batch, and a second call on the same seeds draws the same
        jitters = (0.3, 0.0) if loss else (0.3,)
        mocks = [MockConfig(jitter_sigma=s, spike_loss_prob=loss) for s in jitters]
        tails = 0
        for _ in range(10):
            net = random_network(rng)
            idx, times = pack_inputs([random_inputs(rng, net) for _ in range(8)])
            fresh = simulate_batch(net, idx[:, :-1], times[:, :-1], 60, 2.5)
            seeds = rng.integers(0, 1000, size=8)
            seeds[-2:] = seeds[:2]
            tails += np.sum(fresh.kinds != DUMMY, axis=1).max() < 60
            for mock in mocks:
                for _ in range(2):
                    batch = EventTrace(fresh.neurons.copy(), fresh.times.copy(), fresh.kinds.copy())
                    # the call edits batch in place, so the oracle reads it first
                    want = full_width_mock_noise(batch, mock, 2.5, seeds)
                    got = _apply_mock_noise(batch, mock, 2.5, seeds)
                    for a, b in zip((got.neurons, got.times, got.kinds), want):
                        assert a.dtype == b.dtype
                        np.testing.assert_array_equal(a, b)
        assert tails >= 5  # batches whose every row has a dummy tail

    def test_degenerate_noise_equals_numeric(self, rng):
        # sigma=0, many bits, no loss: the mock trace must match exactly
        net = random_network(rng)
        inputs = random_inputs(rng, net)
        cfg = BackendConfig(
            kind="mock",
            mock=MockConfig(jitter_sigma=0.0, weight_bits=40, spike_loss_prob=0.0),
        )
        tr_m = forward(cfg, net, inputs, 12, 2.5, seed=5)
        tr_n = simulate(net, inputs, m=12, t_max=2.5)
        np.testing.assert_array_equal(tr_m.neurons, tr_n.neurons)
        np.testing.assert_array_equal(tr_m.kinds, tr_n.kinds)
        np.testing.assert_allclose(tr_m.times, tr_n.times, atol=1e-12)

    def test_same_seed_same_trace(self, rng):
        net = random_network(rng)
        inputs = random_inputs(rng, net)
        cfg = BackendConfig(kind="mock", mock=MockConfig(jitter_sigma=0.05))
        a = forward(cfg, net, inputs, 12, 2.5, seed=7)
        b = forward(cfg, net, inputs, 12, 2.5, seed=7)
        np.testing.assert_array_equal(a.times, b.times)
        c = forward(cfg, net, inputs, 12, 2.5, seed=8)
        assert not np.array_equal(a.times, c.times)

    def test_noisy_trace_is_sorted_and_padded(self, rng):
        net = random_network(rng)
        inputs = random_inputs(rng, net)
        cfg = BackendConfig(
            kind="mock", mock=MockConfig(jitter_sigma=0.2, spike_loss_prob=0.3)
        )
        tr = forward(cfg, net, inputs, 15, 2.5, seed=1)
        assert len(tr) == 15
        real = tr.times[tr.kinds != DUMMY].tolist()
        assert real == sorted(real)
        assert all(0.0 <= t <= 2.5 for t in real)

    def test_batch_matches_single_runs(self, rng):
        net = random_network(rng)
        batches = [random_inputs(rng, net) for _ in range(6)]
        cfg = BackendConfig(kind="mock", mock=MockConfig(jitter_sigma=0.05))
        idx, times = pack_inputs(batches)
        got = forward_batch(cfg, net, idx[:, :-1], times[:, :-1], 12, 2.5, seeds=list(range(6)))
        for b, inputs in enumerate(batches):
            solo = forward(cfg, net, inputs, 12, 2.5, seed=b)
            np.testing.assert_array_equal(got[b].times, solo.times)
            np.testing.assert_array_equal(got[b].neurons, solo.neurons)

    def test_invalid_mock_params_rejected(self):
        with pytest.raises(InvalidParameter):
            forward(
                BackendConfig(kind="mock", mock=MockConfig(weight_bits=1)),
                random_network(np.random.default_rng(0)),
                [],
                4,
                1.0,
            )
        with pytest.raises(InvalidParameter):
            forward(
                BackendConfig(kind="mock", mock=MockConfig(spike_loss_prob=1.5)),
                random_network(np.random.default_rng(0)),
                [],
                4,
                1.0,
            )

    def test_weight_bits_end_where_the_level_count_stops_being_a_float(self):
        # 2^(bits-1) - 1 levels is a float64 up to 1024 bits; from 1025 on
        # the quantizer raised OverflowError at the first mock forward
        w = np.array([-1.0, -0.3, 0.0, 0.7, 1.0])
        q = quantize_weights(w, 1024, 1.0)
        np.testing.assert_allclose(q, w, rtol=1e-12, atol=0.0)
        assert MockConfig(weight_bits=1024).weight_bits == 1024
        for bits in (1025, 1100):
            with pytest.raises(InvalidParameter, match="backend.mock.weight_bits"):
                MockConfig(weight_bits=bits)
            with pytest.raises(InvalidParameter, match="weight_bits"):
                quantize_weights(w, bits, 1.0)

    def test_a_clip_whose_top_level_overflows_is_rejected(self):
        # at 1024 bits 2^1023 - 1 levels times a clip of 3 is not a float:
        # w * levels overflowed to an infinite weight; a clip of 1.5 still
        # quantizes, to the same bits as the level arithmetic written out
        w = np.array([0.5, -1.2, 3.0])
        with pytest.raises(InvalidParameter, match="weight_bits=1024 with weight_clip=3"):
            quantize_weights(w, 1024, 3.0)
        levels = float(2**1023 - 1)
        scaled = np.clip(w, -1.5, 1.5) * levels / 1.5
        want = np.sign(scaled) * np.floor(np.abs(scaled) + 0.5) * 1.5 / levels
        np.testing.assert_array_equal(quantize_weights(w, 1024, 1.5), want)


class TestReplayBackend:
    def make_traces(self, rng, n_samples=4, m=14, t_max=2.5):
        net = random_network(rng)
        sample_inputs = [random_inputs(rng, net, k_max=5) for _ in range(n_samples)]
        idx, times = pack_inputs(sample_inputs)
        traces = simulate_batch(net, idx[:, :-1], times[:, :-1], m, t_max)
        return net, sample_inputs, traces

    def replay_file(self, rng, tmp_path):
        net, sample_inputs, traces = self.make_traces(rng)
        path = tmp_path / "t.replay"
        write_replay_file(path, traces, m=14, t_max=2.5)
        return net, sample_inputs, traces, path

    def read_back(self, path, net, sample_inputs):
        """The file's blocks as one trace, row b checked against sample b."""
        rf = read_replay_file(path)
        idx, times = pack_inputs(sample_inputs)
        return replay_block_to_trace(rf.neurons, rf.times, net, idx, times, 2.5)

    def test_loopback_gradients_identical(self, rng, tmp_path):
        # the hardware-in-the-loop seam: dump traces, reload, same gradients
        net, sample_inputs, traces, path = self.replay_file(rng, tmp_path)
        replayed = self.read_back(path, net, sample_inputs)
        for b in range(len(sample_inputs)):
            trace = traces[b]
            re_trace = replayed[b]
            np.testing.assert_array_equal(re_trace.times, trace.times)
            g = np.zeros(14)
            g[np.flatnonzero(trace.kinds == INTERNAL)[:1]] = 1.0
            # the backward on an acyclic net, else the slot-loop reference
            (a_w, a_in), (b_w, b_in) = (
                backward_or_reference(
                    t.neurons[None], t.times[None], t.kinds[None], net, g[None], strict=False
                )
                for t in (trace, re_trace)
            )
            assert np.max(np.abs(a_w - b_w)) <= 1e-12
            assert np.max(np.abs(a_in - b_in)) <= 1e-12

    def test_batched_replay_matches_each_row_to_its_block(self, rng, tmp_path):
        net, sample_inputs, traces, path = self.replay_file(rng, tmp_path)
        got = self.read_back(path, net, sample_inputs)
        for row in range(len(sample_inputs)):
            for field in ("neurons", "times", "kinds"):
                want = getattr(traces, field)[row]
                np.testing.assert_array_equal(getattr(got, field)[row], want)

    def test_final_state_matches_the_event_walk(self, rng):
        # grad.replay_state, the state at t_max of a replayed trace, against
        # one propagation per event
        for _ in range(5):
            net, sample_inputs, traces = self.make_traces(rng, n_samples=8)
            idx, in_times = pack_inputs(sample_inputs)
            got = replay_block_to_trace(traces.neurons, traces.times, net, idx, in_times, 2.5)
            final_v, final_i, final_t = replay_state(got.neurons, got.times, got.kinds, net, 2.5)
            for b in range(len(sample_inputs)):
                v, i, t = replay_walk(traces[b], net, 2.5)
                np.testing.assert_allclose(final_v[b], v, rtol=1e-12, atol=1e-12)
                np.testing.assert_allclose(final_i[b], i, rtol=1e-12, atol=1e-12)
                assert final_t[b] == t

    def test_manifest_budget_mismatch(self, rng, tmp_path):
        net, sample_inputs, traces, path = self.replay_file(rng, tmp_path)
        rf = read_replay_file(path)
        with pytest.raises(ReplayShapeMismatch):
            check_manifest(rf, 13, 2.5)
        with pytest.raises(ReplayShapeMismatch):
            check_manifest(rf, 14, 2.0)

    def test_truncated_file_rejected(self, rng, tmp_path):
        net, sample_inputs, traces, path = self.replay_file(rng, tmp_path)
        body = path.read_text().splitlines()
        (tmp_path / "bad.replay").write_text("\n".join(body[:-3]) + "\n")
        with pytest.raises(ReplayShapeMismatch):
            read_replay_file(tmp_path / "bad.replay")

    def test_non_utf8_file_rejected(self, rng, tmp_path):
        net, sample_inputs, traces, path = self.replay_file(rng, tmp_path)
        raw = path.read_bytes()
        (tmp_path / "bad.replay").write_bytes(raw[:40] + b"\xff" + raw[40:])
        with pytest.raises(ReplayShapeMismatch, match="not UTF-8"):
            read_replay_file(tmp_path / "bad.replay")

    def test_unsorted_block_rejected(self, rng):
        net, sample_inputs, traces = self.make_traces(rng)
        neurons, times = traces.neurons[:1].copy(), traces.times[:1].copy()
        idx, in_times = pack_inputs(sample_inputs[:1])
        if np.sum(traces.kinds[0] != DUMMY) >= 2:
            neurons[0, :2] = neurons[0, 1::-1]
            times[0, :2] = times[0, 1::-1]
            with pytest.raises((ReplayUnsorted, ReplayShapeMismatch)):
                replay_block_to_trace(neurons, times, net, idx, in_times, 2.5)


class TestReplayRecords:
    """The records of a replay file, written, edited and read back into a
    trace: the format holds each float64 exactly, and every record no trace
    can hold fails with a typed error."""

    T_MAX = 4.0
    NET = Network(
        n_total=7, weights=np.zeros((7, 7)), input_weights=np.zeros((2, 7)), params=P2
    )

    def write(self, path, neurons, times):
        m = len(times)
        rows = EventTrace(np.array([neurons]), np.array([times]), np.zeros((1, m), np.int8))
        write_replay_file(path, rows, m, self.T_MAX)

    def read(self, path, in_neurons=(), in_times=()):
        rf = read_replay_file(path)
        inputs = np.array([in_neurons], dtype=np.int64), np.array([in_times], dtype=np.float64)
        return replay_block_to_trace(rf.neurons, rf.times, self.NET, *inputs, self.T_MAX)[0]

    def roundtrip(self, tmp_path, neurons, times, *inputs):
        self.write(tmp_path / "t.replay", neurons, times)
        return self.read(tmp_path / "t.replay", *inputs)

    def test_roundtrip_identity_with_dummy(self, tmp_path):
        neurons = [3, 0, -1]
        times = [0.1234567890123456789, 1.0 / 3.0, math.inf]
        back = self.roundtrip(tmp_path, neurons, times)
        assert back.neurons.tolist() == neurons and back.times.tolist() == times
        assert back.kinds.tolist() == [INTERNAL, INTERNAL, DUMMY]

    def test_roundtrip_classifies_inputs_against_context(self, tmp_path):
        neurons = [1, 1, 0, -1]
        times = [0.25, 0.3, 0.5, math.inf]
        back = self.roundtrip(tmp_path, neurons, times, [1, 0], [0.25, 0.5])
        assert back.neurons.tolist() == neurons and back.times.tolist() == times
        assert back.kinds.tolist() == [INPUT, INTERNAL, INPUT, DUMMY]

    def test_roundtrip_random_times_bit_exact(self, rng, tmp_path):
        times = np.sort(rng.uniform(0, self.T_MAX, size=50))
        neurons = np.arange(50) % 7
        back = self.roundtrip(tmp_path, neurons, times)
        assert back.times.tolist() == times.tolist()
        np.testing.assert_array_equal(back.neurons, neurons)

    def test_file_roundtrip_of_any_float64_bit_exact(self, rng, tmp_path):
        # random bit patterns (NaNs aside), subnormals, -0.0, +-inf and
        # 17-digit reprs: the file holds every float64 exactly
        times = rng.integers(0, 2**64, size=(3, 200), dtype=np.uint64).view(np.float64)
        times[np.isnan(times)] = 0.5
        times[1, :60] = rng.integers(1, 2**52, size=60, dtype=np.uint64).view(np.float64)
        times[1, 60:80] *= -1.0
        specials = [
            5e-324, -5e-324, 2.225073858507201e-308, 1e-320, -0.0, 0.0, math.inf,
            -math.inf, 0.30000000000000004, 1.0000000000000002, 1.7976931348623157e308,
        ]
        times[2, : len(specials)] = specials
        assert any(
            len(repr(abs(t)).split("e")[0].replace(".", "").strip("0")) == 17
            for t in times.ravel().tolist()
        )
        neurons = rng.integers(-1, 1000, size=times.shape)
        path = tmp_path / "t.replay"
        write_replay_file(path, EventTrace(neurons, times, np.zeros(times.shape, np.int8)), 200, 4.0)
        rf = read_replay_file(path)
        assert rf.times.dtype == np.float64 and rf.times.tobytes() == times.tobytes()
        assert rf.neurons.dtype == np.int64 and np.array_equal(rf.neurons, neurons)

    def test_crlf_and_blank_lines_read_alike(self, tmp_path):
        path = tmp_path / "t.replay"
        self.write(path, [3, 0, -1], [0.125, 1.0 / 3.0, math.inf])
        want = read_replay_file(path)
        lines = path.read_text().splitlines()
        path.write_bytes(("\n\r\n".join(lines) + "\r\n\n").encode())
        got = read_replay_file(path)
        assert got.neurons.tolist() == want.neurons.tolist()
        assert got.times.tobytes() == want.times.tobytes()

    def test_dummy_is_literal_inf_token(self, tmp_path):
        self.write(tmp_path / "t.replay", [-1], [math.inf])
        lines = (tmp_path / "t.replay").read_text().splitlines()
        assert lines == [
            "eventsnn-replay v2", "m 1 t_max 4.0 samples 1", "neurons", "-1.0", "times", "inf",
        ]

    def test_header_required(self, tmp_path):
        path = tmp_path / "t.replay"
        self.write(path, [0, -1], [1.0, math.inf])
        lines = path.read_text().splitlines()
        cases = [
            (1, "m 2 t_max 4.0", "samples"),  # a header key missing
            (1, "m 2 t_max 4.0 samples 1 m 2", "m, t_max, samples"),  # a key twice
            (1, "m 0 t_max 4.0 samples 1", "m >= 1"),
            (1, "m 2 t_max 4.0 samples -1", "samples >= 0"),
            (1, "m two t_max 4.0 samples 1", "bad header"),
            (1, "m 2 t_max x samples 1", "bad header"),
            (2, lines[3], "rows of neurons"),  # same line count, no block name
            (4, "time", "rows of times"),
        ]
        for at, line, match in cases:
            path.write_text("\n".join(lines[:at] + [line] + lines[at + 1 :]) + "\n")
            with pytest.raises(ReplayShapeMismatch, match=match) as err:
                read_replay_file(path)
            assert str(path) in str(err.value)

    def test_record_format_file_rejected(self, tmp_path):
        # the "m=<int> t_max=<float> samples=<int>" file of "neuron,time"
        # record blocks is not read any more
        path = tmp_path / "t.replay"
        path.write_text("m=2 t_max=4.0 samples=1\nneuron,time\n0,1.0\n-1,inf\n")
        with pytest.raises(ReplayShapeMismatch, match="not a replay file") as err:
            read_replay_file(path)
        assert str(path) in str(err.value)

    @pytest.mark.parametrize("version", ["v1", "v3", ""])
    def test_other_version_rejected(self, tmp_path, version):
        path = tmp_path / "t.replay"
        self.write(path, [0, -1], [1.0, math.inf])
        lines = path.read_text().splitlines()
        path.write_text("\n".join([f"eventsnn-replay {version}"] + lines[1:]) + "\n")
        with pytest.raises(ReplayShapeMismatch, match=f"version '{version}'; only v2"):
            read_replay_file(path)

    def test_line_after_the_last_block_rejected(self, tmp_path):
        path = tmp_path / "t.replay"
        self.write(path, [0, -1], [1.0, math.inf])
        text = path.read_text()
        for extra in ("1.0 inf", "neurons", "#"):
            path.write_text(text + "\n" + extra + "\r\n")
            with pytest.raises(ReplayShapeMismatch, match="follows the last block"):
                read_replay_file(path)

    def test_invalid_records_rejected(self, tmp_path):
        # the records a Spike could not hold: bad times, a neuron below -1,
        # a -1 record that is not the dummy, and ids that are no integer;
        # each (neuron, time) replaces the dummy after the input record
        # (1, 0.25) of a valid block
        cases = [
            (None, "nan", ReplayShapeMismatch, "outside"),
            (None, "-0.5", ReplayShapeMismatch, "outside"),
            ("0", "inf", ReplayShapeMismatch, "outside"),
            ("-3", "0.5", ReplayShapeMismatch, "out of range"),
            ("-1", "0.5", ReplayShapeMismatch, "-1"),
            ("1.5", "0.5", ReplayShapeMismatch, "not an integer"),
            ("inf", "0.5", ReplayShapeMismatch, "not an integer"),
            ("-inf", "0.5", ReplayShapeMismatch, "not an integer"),
            ("nan", "0.5", ReplayShapeMismatch, "not an integer"),
            (repr(2.0**53 + 2), "0.5", ReplayShapeMismatch, "not an integer"),
            ("1e300", "0.5", ReplayShapeMismatch, "not an integer"),
            ("1,2", "0.5", InvalidParameter, "bad neurons entry"),
            ("x", "1.0", InvalidParameter, "bad neurons entry"),
            ("0", "0.5,", InvalidParameter, "bad times entry"),
        ]
        path = tmp_path / "t.replay"
        self.write(path, [1, -1, -1], [0.25, math.inf, math.inf])
        lines = path.read_text().splitlines()
        assert self.read(path, [1], [0.25]).kinds.tolist() == [INPUT, DUMMY, DUMMY]
        for neuron, time, error, match in cases:
            bad = list(lines)
            edit_replay_record(bad, 0, 1, "0" if neuron is None else neuron, time)
            path.write_text("\n".join(bad) + "\n")
            with pytest.raises(error, match=match):
                self.read(path, [1], [0.25])
        # an id of 2^53, the bound itself, reads; only the net's range
        # check rejects it
        bad = list(lines)
        edit_replay_record(bad, 0, 1, repr(2.0**53), "0.5")
        path.write_text("\n".join(bad) + "\n")
        assert read_replay_file(path).neurons[0, 1] == 2**53
        with pytest.raises(ReplayShapeMismatch, match="out of range"):
            self.read(path, [1], [0.25])

    def test_records_that_pair_up_only_across_lines_rejected(self, tmp_path):
        # row 0 one entry too long and row 1 one too short: the block holds
        # 2 x m entries, but neither row is one entry per record
        path = tmp_path / "t.replay"
        neurons, times = np.array([[1, -1, -1], [0, 1, -1]]), np.full((2, 3), math.inf)
        times[:, 0] = 0.25
        write_replay_file(path, EventTrace(neurons, times, np.zeros((2, 3), np.int8)), 3, 4.0)
        lines = path.read_text().splitlines()
        for name, block in (("neurons", 0), ("times", 1)):
            at = [replay_row_lines(lines, row)[block] for row in (0, 1)]
            for change in ((1, -1), (-1, 1), (1, 0), (0, -1)):  # entries added to rows 0, 1
                bad = list(lines)
                for row, d in zip(at, change):
                    words = bad[row].split()
                    bad[row] = " ".join(words + words[:d] if d >= 0 else words[:d])
                path.write_text("\n".join(bad) + "\n")
                r = 0 if change[0] else 1  # the first bad row
                with pytest.raises(InvalidParameter, match=f"{name} row {r} has {3 + change[r]} "):
                    read_replay_file(path)


class TestReplayTrainValidation:
    """replay-train checks a file against the config and the dataset: its
    manifest, and each block against its sample's inputs."""

    CONFIG = (
        "dataset.n_train = 24\ndataset.n_test = 6\nnetwork.n_hidden = 6\n"
        "sim.t_max = 4.0\n"
    )

    def run(self, argv):
        args = build_parser().parse_args(argv)
        return args.fn(args)

    def exported(self, tmp_path, capsys):
        cfg = tmp_path / "config.txt"
        cfg.write_text(self.CONFIG)
        out = tmp_path / "export"
        argv = ["export-traces", "--samples", "4", "--config", str(cfg), "--out", str(out)]
        assert self.run(argv) == 0
        capsys.readouterr()
        return cfg, out / "traces.replay", out / "checkpoint.txt"

    def replay(self, tmp_path, cfg, traces, checkpoint):
        return self.run([
            "replay-train", "--traces", str(traces), "--checkpoint", str(checkpoint),
            "--config", str(cfg), "--out", str(tmp_path / "replay"),
        ])

    def test_accepts_its_own_export(self, tmp_path, capsys):
        cfg, traces, checkpoint = self.exported(tmp_path, capsys)
        assert self.replay(tmp_path, cfg, traces, checkpoint) == 0

    def test_rejects_other_t_max(self, tmp_path, capsys):
        cfg, traces, checkpoint = self.exported(tmp_path, capsys)
        cfg.write_text(self.CONFIG.replace("sim.t_max = 4.0", "sim.t_max = 5.0"))
        with pytest.raises(ReplayShapeMismatch, match="t_max"):
            self.replay(tmp_path, cfg, traces, checkpoint)

    def test_rejects_blocks_of_other_samples(self, tmp_path, capsys):
        cfg, traces, checkpoint = self.exported(tmp_path, capsys)
        cfg.write_text(self.CONFIG + "dataset.seed = 7\n")
        with pytest.raises(ReplayShapeMismatch, match="input"):
            self.replay(tmp_path, cfg, traces, checkpoint)

    def test_rejects_minus_one_record_with_a_time(self, tmp_path, capsys):
        cfg, traces, checkpoint = self.exported(tmp_path, capsys)
        lines = traces.read_text().splitlines()
        m = read_replay_file(traces).m
        edit_replay_record(lines, 0, m - 1, "-1", "0.5")  # the last record of the first row
        traces.write_text("\n".join(lines) + "\n")
        with pytest.raises(ReplayShapeMismatch, match="-1"):
            self.replay(tmp_path, cfg, traces, checkpoint)
