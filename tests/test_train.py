import dataclasses
import functools
import hashlib
import math

import numpy as np
import pytest

from eventsnn.config import (
    ExperimentConfig,
    apply_overrides,
    flatten,
    load_config,
    save_config,
)
from eventsnn.backend import forward_batch
from eventsnn.data import build_dataset, encode_dataset
from eventsnn.core import EventTrace, InvalidParameter, LifParams, Network, SpikeKind
from eventsnn.sim import pack_inputs, simulate_batch
from eventsnn.train import (
    AdamState,
    ShapeMismatch,
    TtfsLoss,
    _spike_counts,
    adam_step,
    first_spike_times_batch,
    init_network,
    pack_samples,
    read_checkpoint,
    scatter_slot_grads,
    split_layers,
    train,
    ttfs_from_times,
    ttfs_loss,
    write_checkpoint,
)

from conftest import (
    first_spike_times_reference,
    format_matrix_reference,
    random_inputs,
    random_network,
    scatter_slot_grads_reference,
)

P2 = LifParams(tau_mem=2.0)


DUMMY_SLOT = (-1, math.inf, SpikeKind.DUMMY)


def trace_of(slots):
    """One-sample trace of (neuron, time, kind) slots."""
    neurons, times, kinds = zip(*slots)
    return EventTrace(np.array(neurons), np.array(times), np.array(kinds, dtype=np.int8))


def out_spike(neuron, t):
    return (neuron, t, SpikeKind.INTERNAL)


class TestTtfsLoss:
    def test_equal_times_give_log3(self):
        t = np.array([[1.0, 1.0, 1.0]])
        loss, grads = ttfs_from_times(t, np.array([1]), TtfsLoss(xi=0.5), t_max=4.0)
        assert loss[0] == pytest.approx(math.log(3.0), abs=1e-12)
        # gradients: label positive (earlier helps), others negative
        assert grads[0, 1] > 0 > grads[0, 0]

    def test_early_correct_spike_drives_loss_to_zero(self):
        t = np.array([[1e-3, 3.0, 3.0]])
        loss, _ = ttfs_from_times(t, np.array([0]), TtfsLoss(xi=0.25), t_max=4.0)
        assert loss[0] < 1e-4

    def test_grads_match_finite_differences(self, rng):
        cfg = TtfsLoss(xi=0.5, alpha=0.1)
        for _ in range(50):
            t = rng.uniform(0.2, 3.5, size=(1, 3))
            label = int(rng.integers(0, 3))
            _, grads = ttfs_from_times(t, np.array([label]), cfg, t_max=4.0)
            eps = 1e-6
            for k in range(3):
                up, dn = t.copy(), t.copy()
                up[0, k] += eps
                dn[0, k] -= eps
                lu, _ = ttfs_from_times(up, np.array([label]), cfg, t_max=4.0)
                ld, _ = ttfs_from_times(dn, np.array([label]), cfg, t_max=4.0)
                fd = (lu[0] - ld[0]) / (2 * eps)
                assert abs(grads[0, k] - fd) <= 1e-8

    def test_silent_outputs_finite_loss_zero_grads(self):
        t = np.array([[np.inf, np.inf, np.inf]])
        loss, grads = ttfs_from_times(t, np.array([2]), TtfsLoss(), t_max=4.0)
        assert np.isfinite(loss[0]) and loss[0] == pytest.approx(math.log(3.0))
        assert np.all(grads == 0.0)

    def test_trace_level_loss_places_grads_on_first_spike_slots(self):
        tr = trace_of(
            [
                out_spike(0, 0.5),
                out_spike(1, 0.7),
                out_spike(0, 0.9),  # second spike of 0 carries no gradient
                DUMMY_SLOT,
            ]
        )
        loss, slot_g = ttfs_loss(tr, output_set=(0, 1, 2), label=0, cfg=TtfsLoss(), t_max=4.0)
        assert slot_g[0] != 0.0 and slot_g[1] != 0.0
        assert slot_g[2] == 0.0 and slot_g[3] == 0.0

    def test_output_set_required(self):
        from eventsnn.core import InvalidParameter

        with pytest.raises(InvalidParameter):
            ttfs_loss(trace_of([DUMMY_SLOT]), output_set=(), label=0, cfg=TtfsLoss(), t_max=4.0)


class TestFirstSpikes:
    def test_first_spike_extraction(self):
        tr = trace_of(
            [
                (0, 0.1, SpikeKind.INPUT),
                out_spike(1, 0.4),
                out_spike(1, 0.8),
                out_spike(2, 0.9),
                DUMMY_SLOT,
            ]
        )
        t, slots = first_spike_times_batch(
            tr.neurons[None], tr.times[None], tr.kinds[None], (0, 1, 2)
        )
        assert math.isinf(t[0, 0])  # input spike of neuron 0 is not internal
        assert t[0, 1] == 0.4 and slots[0, 1] == 1
        assert t[0, 2] == 0.9 and slots[0, 2] == 3

    @staticmethod
    def assert_like_full_width(neurons, times, kinds, ids):
        got = first_spike_times_batch(neurons, times, kinds, ids)
        want = first_spike_times_reference(neurons, times, kinds, ids)
        for a, ref in zip(got, want):
            assert a.dtype == ref.dtype and a.shape == ref.shape
            assert a.tobytes() == ref.tobytes()
        return got

    def test_all_dummy_batch(self):
        # no internal record: the prefix read is empty
        shape = (4, 6)
        t, slots = self.assert_like_full_width(
            np.full(shape, -1), np.full(shape, np.inf),
            np.full(shape, int(SpikeKind.DUMMY), dtype=np.int8), (0, 1, 2),
        )
        assert np.all(np.isposinf(t)) and np.all(slots == -1)

    def test_input_only_rows(self):
        # input records share ids with the outputs but never count
        neurons = np.array([[0, 1, 2, -1], [2, 2, -1, -1], [-1, -1, -1, -1]])
        times = np.where(neurons >= 0, [[0.1, 0.2, 0.3, 0.0]], np.inf)
        kinds = np.where(neurons >= 0, int(SpikeKind.INPUT), int(SpikeKind.DUMMY))
        kinds = kinds.astype(np.int8)
        t, slots = self.assert_like_full_width(neurons, times, kinds, (0, 1, 2))
        assert np.all(np.isposinf(t)) and np.all(slots == -1)
        # one internal record in the middle: the prefix ends on it
        kinds[1, 1] = int(SpikeKind.INTERNAL)
        t, slots = self.assert_like_full_width(neurons, times, kinds, (0, 1, 2))
        assert t[1, 2] == 0.2 and slots[1, 2] == 1 and np.sum(slots >= 0) == 1

    def test_first_spike_in_the_last_slot(self, rng):
        # the prefix is the full width; rows end at different slots
        m = 7
        neurons = rng.integers(0, 3, (5, m))
        times = np.sort(rng.uniform(0.0, 2.0, (5, m)), axis=1)
        kinds = np.full((5, m), int(SpikeKind.INPUT), dtype=np.int8)
        kinds[0, -1] = int(SpikeKind.INTERNAL)
        neurons[0, -1] = 2
        kinds[1, 2:5] = int(SpikeKind.INTERNAL)
        neurons[2, 3:], times[2, 3:], kinds[2, 3:] = -1, np.inf, int(SpikeKind.DUMMY)
        t, slots = self.assert_like_full_width(neurons, times, kinds, (2, 0, 1))
        assert slots[0, 0] == m - 1 and t[0, 0] == times[0, -1]

    def test_simulated_batches(self, rng):
        for _ in range(40):
            net = random_network(rng, n_max=6)
            idx, times = pack_inputs([random_inputs(rng, net) for _ in range(5)])
            m = int(rng.integers(1, 30))
            tr = simulate_batch(net, idx[:, :-1], times[:, :-1], m=m, t_max=2.5)
            self.assert_like_full_width(tr.neurons, tr.times, tr.kinds, range(net.n_total))

    def test_spike_counts_match_a_per_event_count(self, rng):
        # input channels share ids with neurons; only internal events count
        net = random_network(rng, n_max=6)
        idx, times = pack_inputs([random_inputs(rng, net) for _ in range(8)])
        tr = simulate_batch(net, idx[:, :-1], times[:, :-1], m=20, t_max=2.5)
        want = np.zeros((8, net.n_total))
        for b, k in zip(*np.nonzero(tr.kinds == int(SpikeKind.INTERNAL))):
            want[b, tr.neurons[b, k]] += 1.0
        got = _spike_counts(tr.neurons, tr.kinds, net.n_total)
        assert got.dtype == np.float64 and want.sum() > 0
        np.testing.assert_array_equal(got, want)


def test_scatter_slot_grads_equals_the_per_output_loop(rng):
    # random slots, silent outputs (slot -1) and outputs that share a
    # slot, whose derivatives sum in output order as the loop added them
    for b, n_out, m in ((1, 3, 6), (64, 3, 20), (40, 7, 5)):
        slots = rng.integers(-1, m, size=(b, n_out))
        grads = rng.normal(size=(b, n_out)) * 10.0 ** rng.integers(-8, 9, size=(b, n_out))
        grads[rng.random((b, n_out)) < 0.1] = -0.0
        shared = rng.random(b) < 0.5
        slots[shared, 1] = slots[shared, 0]
        slots[0, :3] = m - 1, m - 1, -1
        got = scatter_slot_grads(slots, grads, m)
        want = scatter_slot_grads_reference(slots, grads, m)
        assert got.shape == (b, m) and np.array_equal(got.view(np.int64), want.view(np.int64))
    # three outputs on one slot: ((0 + 1e16) + 1) + -1e16 is 0.0, not 1.0
    got = scatter_slot_grads(np.array([[2, 2, 2]]), np.array([[1e16, 1.0, -1e16]]), 4)
    assert got.tolist() == [[0.0, 0.0, 0.0, 0.0]]


class TestAdam:
    def test_zero_grads_leave_params(self):
        p = (np.array([1.0, 2.0]),)
        st = AdamState.init(p)
        q, st2 = adam_step(p, (np.zeros(2),), st, lr=0.1)
        np.testing.assert_array_equal(q[0], p[0])
        assert st2.step == 1

    def test_constant_grad_step_bound(self):
        # with constant gradient the update magnitude approaches lr
        p = (np.array([0.0]),)
        st = AdamState.init(p)
        lr = 0.01
        prev = p[0].copy()
        for _ in range(200):
            p, st = adam_step(p, (np.array([3.7]),), st, lr=lr)
            assert abs(p[0][0] - prev[0]) <= lr * (1.0 + 1e-6)
            prev = p[0].copy()

    def test_scalar_quadratic_convergence(self):
        # minimize (x - 3)^2 / 2
        p = (np.array([10.0]),)
        st = AdamState.init(p)
        for k in range(5000):
            g = p[0] - 3.0
            p, st = adam_step(p, (g,), st, lr=0.05)
            if abs(p[0][0] - 3.0) < 1e-6:
                break
        assert abs(p[0][0] - 3.0) < 1e-6

    def test_shape_mismatch(self):
        p = (np.zeros((2, 2)),)
        with pytest.raises(ShapeMismatch):
            adam_step(p, (np.zeros(3),), AdamState.init(p), lr=0.1)


class TestConfig:
    def test_defaults_roundtrip_through_file(self, tmp_path):
        cfg = ExperimentConfig()
        save_config(cfg, tmp_path / "c.txt")
        again = load_config(tmp_path / "c.txt")
        assert again == cfg

    def test_overrides(self):
        cfg = apply_overrides(
            ExperimentConfig(),
            {"network.n_hidden": "64", "backend.kind": "mock", "train.lr": "0.001"},
        )
        assert cfg.network.n_hidden == 64
        assert cfg.backend.kind == "mock"
        assert cfg.train.lr == 0.001

    def test_unknown_key_rejected(self):
        from eventsnn.core import InvalidParameter

        with pytest.raises(InvalidParameter):
            apply_overrides(ExperimentConfig(), {"network.bogus": "1"})

    # per key, a valid value away from its default: as written, and as loaded
    NON_DEFAULT = {
        "dataset.seed": ("7", 7),
        "dataset.n_train": ("30", 30),
        "dataset.n_test": ("12", 12),
        "dataset.r_small": ("0.2", 0.2),
        "dataset.t_early": ("0.25", 0.25),
        "dataset.t_late": ("2.5", 2.5),
        "dataset.t_bias": ("1", 1.0),
        "dataset.bias_enabled": ("false", False),
        "network.n_hidden": ("6", 6),
        "network.n_out": ("4", 4),
        "network.tau_mem_ratio": ("1", 1.0),
        "network.v_th": ("1.5", 1.5),
        "network.v_reset": ("-0.5", -0.5),
        "sim.m": ("40", 40),
        "sim.t_max": ("3.5", 3.5),
        "backend.kind": ("mock", "mock"),
        "backend.mock.jitter_sigma": ("0.05", 0.05),
        "backend.mock.weight_bits": ("4", 4),
        "backend.mock.weight_clip": ("2", 2.0),
        "backend.mock.spike_loss_prob": ("0.1", 0.1),
        "train.epochs": ("3", 3),
        "train.batch": ("8", 8),
        "train.lr": ("1e-3", 0.001),
        "train.lr_decay": ("0.5", 0.5),
        "train.beta1": ("0.8", 0.8),
        "train.beta2": ("0.99", 0.99),
        "train.xi": ("0.25", 0.25),
        "train.alpha": ("0.1", 0.1),
        "train.gamma": ("0.0", 0.0),
        "train.rate_lambda": ("0.001", 0.001),
        "train.grad_clip": ("5", 5.0),
        "train.vdot_floor": ("0.01", 0.01),
        "train.seed": ("3", 3),
        "train.estimator": ("fud", "fud"),
        "train.patience": ("2", 2),
    }

    def test_every_key_roundtrips_away_from_its_default(self, tmp_path):
        default = flatten(ExperimentConfig())
        assert self.NON_DEFAULT.keys() == default.keys()
        for key, (raw, value) in self.NON_DEFAULT.items():
            cfg = load_config(None, {key: raw})
            got = functools.reduce(getattr, key.split("."), cfg)
            assert got == value and type(got) is type(value), key  # the field's type
            assert flatten(cfg)[key] != default[key]
            save_config(cfg, tmp_path / "c.txt")
            assert load_config(tmp_path / "c.txt") == cfg, key

    def test_keys_of_one_section_are_checked_together(self):
        # t_early = 2 alone would leave an empty encoding window
        cfg = load_config(None, {"dataset.t_early": "2", "dataset.t_late": "3"})
        assert (cfg.dataset.t_early, cfg.dataset.t_late) == (2.0, 3.0)


def assert_blocks_written_by_repr(path, w_ih, w_ho):
    """The checkpoint's weight blocks are byte for byte the repr writer's."""
    want = "".join(
        [*format_matrix_reference("input_to_hidden", w_ih),
         *format_matrix_reference("hidden_to_output", w_ho)]
    )
    *_, blocks = path.read_text(encoding="utf-8").split("\n", 3)  # after 3 header lines
    assert blocks == want and "-0.0" in blocks.split()


class TestCheckpoint:
    def test_roundtrip(self, tmp_path, rng):
        net = Network.feedforward(rng.normal(size=(5, 6)), rng.normal(size=(6, 2)), P2)
        path = tmp_path / "ck.txt"
        write_checkpoint(path, net, n_hidden=6)
        assert path.read_text().splitlines()[:3] == [
            "eventsnn-checkpoint v2",
            "tau_mem 2.0 tau_syn 1.0 v_th 1.0 v_reset 0.0",
            "n_in 5 n_hidden 6 n_out 2",
        ]
        back, n_hidden = read_checkpoint(path)
        assert n_hidden == 6
        np.testing.assert_array_equal(back.weights, net.weights)
        np.testing.assert_array_equal(back.input_weights, net.input_weights)
        assert back.output_set == net.output_set
        assert back.params == net.params

    def test_roundtrip_keeps_every_bit(self, tmp_path, rng):
        # random doubles of every magnitude, signed zeros, subnormals, extremes
        bits = rng.integers(0, 2**63 - 2**52, size=(11, 6), dtype=np.int64)
        w = bits.view(np.float64) * rng.choice([-1.0, 1.0], size=(11, 6))
        w.flat[:10] = [-0.0, 0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e308,
                       -1e308, 1.7976931348623157e308, 0.1, -1 / 3]
        w[5:, :2].flat[:4] = [-0.0, 5e-324, -1.7976931348623157e308, 0.0]
        w_ih, w_ho = w[:5], w[5:, :2]
        path = tmp_path / "ck.txt"
        write_checkpoint(path, Network.feedforward(w_ih, w_ho, P2), n_hidden=6)
        _, *back = split_layers(read_checkpoint(path)[0])
        for got, want in zip(back, (w_ih, w_ho)):
            assert np.array_equal(got.view(np.int64), want.view(np.int64))
        assert_blocks_written_by_repr(path, w_ih, w_ho)

    def test_wide_checkpoint_bytes_match_the_repr_writer(self, tmp_path, rng):
        # the 5-500-3 blocks, with signed zeros in each
        w_ih, w_ho = rng.normal(size=(5, 500)), rng.normal(size=(500, 3))
        w_ih[[0, 4], [3, 499]] = -0.0
        w_ho[[0, 7, 499], [1, 0, 2]] = -0.0
        path = tmp_path / "wide.txt"
        write_checkpoint(path, Network.feedforward(w_ih, w_ho, P2), n_hidden=500)
        assert_blocks_written_by_repr(path, w_ih, w_ho)

    def test_entry_that_is_not_a_float_raises_typed_error(self, tmp_path, rng):
        path, lines = self.written(tmp_path, rng)
        for row, name in ((5, "input_to_hidden"), (len(lines) - 1, "hidden_to_output")):
            for junk in ("#", "0.5#", "x"):
                bad = list(lines)
                bad[row] = " ".join(bad[row].split()[:-1] + [junk])
                path.write_text("\n".join(bad) + "\n")
                with pytest.raises(InvalidParameter, match=f"bad {name} entry"):
                    read_checkpoint(path)

    def written(self, tmp_path, rng):
        net = Network.feedforward(rng.normal(size=(5, 6)), rng.normal(size=(6, 2)), P2)
        path = tmp_path / "ck.txt"
        write_checkpoint(path, net, n_hidden=6)
        lines = path.read_text().splitlines()
        assert (lines[3], lines[9], len(lines)) == ("input_to_hidden", "hidden_to_output", 16)
        return path, lines

    def test_truncated_file_raises_typed_error(self, tmp_path, rng):
        path, lines = self.written(tmp_path, rng)
        # in the header, in the input-to-hidden block, in the hidden-to-output one
        for keep in (2, 3, 6, 12, len(lines) - 1):
            path.write_text("\n".join(lines[:keep]) + "\n")
            with pytest.raises(InvalidParameter):
                read_checkpoint(path)

    def test_short_row_raises_typed_error(self, tmp_path, rng):
        path, lines = self.written(tmp_path, rng)
        for row in (5, len(lines) - 1):  # an input-to-hidden row, the last hidden-to-output row
            bad = list(lines)
            bad[row] = " ".join(bad[row].split()[:-1])
            path.write_text("\n".join(bad) + "\n")
            with pytest.raises(InvalidParameter, match="entries"):
                read_checkpoint(path)

    def test_long_row_raises_typed_error(self, tmp_path, rng):
        path, lines = self.written(tmp_path, rng)
        for row, name in ((4, "input_to_hidden"), (len(lines) - 1, "hidden_to_output")):
            bad = list(lines)
            bad[row] += " 0.5"
            path.write_text("\n".join(bad) + "\n")
            with pytest.raises(InvalidParameter, match=f"{name} row .* entries") as err:
                read_checkpoint(path)
            assert str(path) in str(err.value)

    def test_line_after_the_last_block_raises_typed_error(self, tmp_path, rng):
        path, lines = self.written(tmp_path, rng)
        for extra in (lines[-1], "hidden_to_output", "0.5"):
            path.write_text("\n".join(lines + [extra]) + "\n")
            with pytest.raises(InvalidParameter, match="follows the last block") as err:
                read_checkpoint(path)
            assert str(path) in str(err.value)

    def test_crlf_and_blank_lines_read_alike(self, tmp_path, rng):
        path, lines = self.written(tmp_path, rng)
        want, _ = read_checkpoint(path)
        path.write_bytes(("\r\n\n".join(lines) + "\r\n \n").encode())
        back, n_hidden = read_checkpoint(path)
        assert back.params == want.params and n_hidden == 6
        np.testing.assert_array_equal(back.weights, want.weights)
        np.testing.assert_array_equal(back.input_weights, want.input_weights)

    def test_header_is_read_by_key(self, tmp_path, rng):
        # each header line with its pairs in another order: the same net
        path, lines = self.written(tmp_path, rng)
        want, _ = read_checkpoint(path)
        for row in (1, 2):
            words = lines[row].split()
            lines[row] = " ".join(words[2:4] + words[:2] + words[4:])
        assert lines[1].startswith("tau_syn 1.0 tau_mem 2.0")
        assert lines[2] == "n_hidden 6 n_in 5 n_out 2"
        path.write_text("\n".join(lines) + "\n")
        back, n_hidden = read_checkpoint(path)
        assert back.params == want.params == P2 and n_hidden == 6
        np.testing.assert_array_equal(back.weights, want.weights)
        np.testing.assert_array_equal(back.input_weights, want.input_weights)

    def test_header_without_a_key_raises_typed_error(self, tmp_path, rng):
        path, lines = self.written(tmp_path, rng)
        for row, key in ((1, "v_th"), (2, "n_out"), (2, "n_hidden"), (1, "tau_mem")):
            bad = list(lines)
            words = bad[row].split()
            at = words.index(key)
            bad[row] = " ".join(words[:at] + words[at + 2 :])
            path.write_text("\n".join(bad) + "\n")
            with pytest.raises(InvalidParameter, match=key) as err:
                read_checkpoint(path)
            assert str(path) in str(err.value)

    def test_wrong_n_out_raises_typed_error(self, tmp_path, rng):
        # below one, the sizes are rejected; else the hidden-to-output rows
        # do not have n_out entries
        path, lines = self.written(tmp_path, rng)
        for n_out, error in (("0", "bad sizes"), ("-2", "bad sizes"), ("3", "entries"),
                             ("1", "entries")):
            lines[2] = "n_in 5 n_hidden 6 n_out " + n_out
            path.write_text("\n".join(lines) + "\n")
            with pytest.raises(InvalidParameter, match=error) as err:
                read_checkpoint(path)
            assert str(path) in str(err.value)

    def test_hidden_count_below_one_raises_typed_error(self, tmp_path, rng):
        path, lines = self.written(tmp_path, rng)
        for n_hidden in ("0", "-1"):
            lines[2] = f"n_in 5 n_hidden {n_hidden} n_out 2"
            path.write_text("\n".join(lines) + "\n")
            with pytest.raises(InvalidParameter, match="bad sizes"):
                read_checkpoint(path)

    @pytest.mark.parametrize("version", ["v1", "v3", ""])
    def test_other_version_raises_typed_error_naming_it(self, tmp_path, rng, version):
        path, lines = self.written(tmp_path, rng)
        lines[0] = f"eventsnn-checkpoint {version}"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(InvalidParameter, match=f"version '{version}'") as err:
            read_checkpoint(path)
        assert str(path) in str(err.value)

    def test_n_hidden_other_than_the_nets_is_not_written(self, tmp_path, rng):
        # a 5-6-2 net: its outputs start at neuron 6, whatever the caller says
        net = Network.feedforward(rng.normal(size=(5, 6)), rng.normal(size=(6, 2)), P2)
        path = tmp_path / "ck.txt"
        for n_hidden in (5, 7, 8):
            with pytest.raises(InvalidParameter, match=f"after its n_hidden={n_hidden} >= 1"):
                write_checkpoint(path, net, n_hidden)
            assert not path.exists()

    def test_a_net_the_two_blocks_cannot_hold_is_not_written(self, tmp_path, rng):
        net = Network.feedforward(rng.normal(size=(5, 6)), rng.normal(size=(6, 2)), P2)
        path = tmp_path / "ck.txt"
        for at in ((2, 2), (1, 4), (7, 6), (6, 0)):  # self-loop, hidden-hidden, output-output, back
            w = np.array(net.weights)
            w[at] = 0.5
            with pytest.raises(InvalidParameter, match="outside the two layer blocks"):
                write_checkpoint(path, Network(8, w, net.input_weights, P2, net.output_set), 6)
        w_in = np.array(net.input_weights)
        w_in[3, 7] = -0.5  # an input straight to an output
        with pytest.raises(InvalidParameter, match="outside the two layer blocks"):
            write_checkpoint(path, Network(8, net.weights, w_in, P2, net.output_set), 6)
        for outputs in ((7, 6), (5, 7), (), tuple(range(8))):
            with pytest.raises(InvalidParameter, match="are not the neurons after"):
                write_checkpoint(path, dataclasses.replace(net, output_set=outputs), 6)
        assert not path.exists()
        # a zero of either sign outside the blocks holds no weight
        w = np.array(net.weights)
        w[2, 2] = -0.0
        write_checkpoint(path, Network(8, w, net.input_weights, P2, net.output_set), 6)
        np.testing.assert_array_equal(read_checkpoint(path)[0].weights, net.weights)

    def test_cli_eval_on_bad_checkpoint_exits_2(self, tmp_path, rng, capsys):
        from eventsnn.cli import main

        path, lines = self.written(tmp_path, rng)
        path.write_text("\n".join(lines[:-2]) + "\n")
        assert main(["eval", "--checkpoint", str(path), "--out", str(tmp_path / "out")]) == 2
        assert "config error" in capsys.readouterr().err

    def test_non_utf8_checkpoint_is_a_typed_error_and_exits_2(self, tmp_path, rng, capsys):
        from eventsnn.cli import main

        path, _ = self.written(tmp_path, rng)
        path.write_bytes(b"\xff\xfe" + path.read_bytes())
        with pytest.raises(InvalidParameter, match="not a checkpoint file") as err:
            read_checkpoint(path)
        assert str(path) in str(err.value)
        assert main(["eval", "--checkpoint", str(path), "--out", str(tmp_path / "out")]) == 2
        assert "config error" in capsys.readouterr().err


# sha256 prefixes of init_network's weights, one draw at INIT_MEANS: the net
# that an activity probe (>= 90 % of pairs spiking) keeps when no budget cuts
# its rows short
INIT_WEIGHTS = {
    ("train", 1): "195d93d968a9fc36",
    ("train", 2): "fb958352153a035e",
    ("train", 3): "60f646e2f1fafc84",
    ("wide-mock", 1): "de49fb3e9a2ddf66",
    ("wide-mock", 2): "59197438515cf3a3",
    ("wide-mock", 3): "1b23b4cbde46c25c",
}
INIT_CONFIGS = {
    # the benchmark's 5-120-3 training net and its 5-500-3 mock evaluation net
    "train": {"network.n_hidden": "120", "sim.m": "138", "dataset.n_train": "1280"},
    "wide-mock": {
        "network.n_hidden": "500", "sim.m": "2000", "backend.kind": "mock",
        "dataset.n_train": "64",
    },
}


def weights_digest(net):
    return hashlib.sha256(net.weights.tobytes() + net.input_weights.tobytes()).hexdigest()[:16]


@pytest.mark.parametrize("name, seed", sorted(INIT_WEIGHTS))
def test_init_weights_are_those_of_the_unstopped_probe(name, seed):
    keys = {**INIT_CONFIGS[name], "dataset.n_test": "3"}
    cfg = load_config(None, {**keys, "dataset.seed": str(seed), "train.seed": str(seed)})
    points, _ = build_dataset(cfg.dataset)
    ds = pack_samples(encode_dataset(points, cfg.dataset))
    rng = np.random.default_rng(seed)
    net = init_network(cfg, ds, rng, cfg.sim.m)
    assert weights_digest(net) == INIT_WEIGHTS[name, seed]
    # the generator ends where one draw leaves it: train draws its epoch
    # orders from it next
    one_draw = np.random.default_rng(seed)
    init_network(cfg, ds, one_draw)
    assert rng.bit_generator.state == one_draw.bit_generator.state


@pytest.mark.parametrize("seed", [1, 2, 3])
@pytest.mark.parametrize(
    "n_hidden, kind, m", [(120, "numeric", 1000), (500, "mock", 4000)], ids=["120", "500-mock"]
)
def test_the_fixed_init_is_active_up_to_t_max(n_hidden, kind, m, seed):
    # a first-spike net learns nothing while silent: on the benchmark's two
    # nets at init, >= 90 % of hidden and of output (row, neuron) pairs spike
    # before t_max.  The rows run without outputs, so none stops early, under
    # a budget none reaches (about 400 and 1650 events are used)
    cfg = load_config(None, {
        "network.n_hidden": str(n_hidden), "backend.kind": kind, "dataset.n_train": "64",
        "dataset.n_test": "3", "dataset.seed": str(seed), "train.seed": str(seed),
    })
    points, _ = build_dataset(cfg.dataset)
    ds = pack_samples(encode_dataset(points, cfg.dataset))
    net = init_network(cfg, ds, np.random.default_rng(seed))
    batch = forward_batch(
        cfg.backend, dataclasses.replace(net, output_set=()), ds.sorted_neurons,
        ds.sorted_times, m, cfg.sim.t_max, seeds=range(64),
    )
    assert np.all(batch.kinds[:, -1] == SpikeKind.DUMMY)
    spiked = _spike_counts(batch.neurons, batch.kinds, net.n_total) > 0
    assert spiked[:, :n_hidden].mean() >= 0.9
    assert spiked[:, n_hidden:].mean() >= 0.9


# sha256 prefixes of train()'s best and final weights on two epochs of
# TestTrainingLoop.small_cfg at the defaults, recorded when training held the
# dense (N, N) and (n_in, N) matrices and masked each step to the layers: a
# masked entry has zero Adam moments and a zero step, so Adam on the two
# blocks gives the same bits
TRAINED_WEIGHTS = {
    "eventprop": ("8022208891dd1b34", "8022208891dd1b34"),
    "fud": ("99d130e8e0a656e1", "99d130e8e0a656e1"),
}


# train()'s (train_loss, train_acc, test_acc) per epoch on the same runs,
# recorded when the loop wired the loss, slots and backward itself: each
# batch's loss and predictions now come from the step functions
TRAINED_HISTORY = {
    "eventprop": [
        (1.1827337383769643, 0.11428571428571428, 0.14444444444444443),
        (1.1013381228981782, 0.2523809523809524, 0.4666666666666667),
    ],
    "fud": [
        (1.1353222843433235, 0.2761904761904762, 0.08888888888888889),
        (1.1131045620578015, 0.14761904761904762, 0.17777777777777778),
    ],
}


class TestTrainingLoop:
    def small_cfg(self, **over):
        cfg = ExperimentConfig()
        flat = {
            "dataset.n_train": "210",
            "dataset.n_test": "90",
            "network.n_hidden": "24",
            "train.epochs": "3",
            "train.batch": "32",
        }
        flat.update(over)
        return apply_overrides(cfg, flat)

    def test_lr_zero_keeps_weights_and_chance_accuracy(self):
        cfg = self.small_cfg(**{"train.lr": "0.0", "train.epochs": "2"})
        result = train(cfg)
        np.testing.assert_array_equal(
            result.final_net.weights, result.best_net.weights
        )
        # untrained net predicts one class or noise: accuracy near chance
        accs = [m.test_acc for m in result.history]
        assert all(a < 0.6 for a in accs)

    def test_loss_decreases_over_short_run(self):
        cfg = self.small_cfg(**{"train.epochs": "10"})
        result = train(cfg)
        losses = [m.train_loss for m in result.history]
        assert np.mean(losses[-3:]) < np.mean(losses[:3])

    def test_deterministic_given_seed(self):
        cfg = self.small_cfg()
        a = train(cfg)
        b = train(cfg)
        np.testing.assert_array_equal(a.final_net.weights, b.final_net.weights)
        assert [m.train_loss for m in a.history] == [m.train_loss for m in b.history]

    @pytest.mark.parametrize("estimator", sorted(TRAINED_WEIGHTS))
    def test_trained_weights_are_those_of_the_dense_loop(self, estimator):
        cfg = self.small_cfg(**{"train.epochs": "2", "train.estimator": estimator})
        result = train(cfg)
        got = (weights_digest(result.best_net), weights_digest(result.final_net))
        assert got == TRAINED_WEIGHTS[estimator]

    @pytest.mark.parametrize("estimator", sorted(TRAINED_HISTORY))
    def test_trained_history_is_that_of_the_loop_that_wired_its_step(self, estimator):
        cfg = self.small_cfg(**{"train.epochs": "2", "train.estimator": estimator})
        got = [(m.train_loss, m.train_acc, m.test_acc) for m in train(cfg).history]
        assert got == TRAINED_HISTORY[estimator]

    @pytest.mark.parametrize("knob", ["train.alpha", "train.rate_lambda", "train.grad_clip"])
    def test_a_regularizing_knob_moves_the_weights_of_one_epoch(self, knob):
        # each acts inside the step: a knob that stopped acting would end the
        # epoch at the default run's weights
        default = train(self.small_cfg(**{"train.epochs": "1"})).final_net
        got = train(self.small_cfg(**{"train.epochs": "1", knob: "0.01"})).final_net
        assert not np.array_equal(got.weights, default.weights)
        assert not np.array_equal(got.input_weights, default.input_weights)

    @pytest.mark.parametrize("knob, value", [("train.beta1", "0.5"), ("train.beta2", "0.9")])
    def test_an_adam_beta_moves_the_weights_of_one_epoch(self, knob, value):
        # Adam's first step is the same for every beta; the later steps of
        # the epoch read the moment averages the betas set
        default = train(self.small_cfg(**{"train.epochs": "1"})).final_net
        got = train(self.small_cfg(**{"train.epochs": "1", knob: value})).final_net
        assert not np.array_equal(got.weights, default.weights)
        assert not np.array_equal(got.input_weights, default.input_weights)

    def test_lr_decay_acts_from_the_second_epoch(self):
        # epoch e trains at lr * lr_decay**e: epoch 0 is the default run's
        default = train(self.small_cfg(**{"train.epochs": "2"}))
        decayed = train(self.small_cfg(**{"train.epochs": "2", "train.lr_decay": "0.5"}))
        fields = ("train_loss", "train_acc", "test_acc")
        assert [getattr(decayed.history[0], f) for f in fields] == [
            getattr(default.history[0], f) for f in fields
        ]
        assert not np.array_equal(decayed.final_net.weights, default.final_net.weights)
        assert not np.array_equal(
            decayed.final_net.input_weights, default.final_net.input_weights
        )

    def test_patience_zero_stops_after_the_first_epoch_without_a_gain(self):
        # at lr 0 every epoch scores the same, so epoch 1 is the first stale one
        cfg = self.small_cfg(
            **{"train.lr": "0.0", "train.epochs": "5", "train.patience": "0"}
        )
        assert [m.epoch for m in train(cfg).history] == [0, 1]

    def test_fud_estimator_runs(self):
        cfg = self.small_cfg(**{"train.estimator": "fud", "train.epochs": "6"})
        result = train(cfg)
        losses = [m.train_loss for m in result.history]
        assert losses[-1] < losses[0]

    def test_metrics_and_checkpoint_written(self, tmp_path):
        cfg = self.small_cfg(**{"train.epochs": "2"})
        result = train(cfg, out_dir=tmp_path)
        lines = (tmp_path / "metrics.csv").read_text().splitlines()
        assert lines[0] == "epoch,train_loss,train_acc,test_acc,seconds"
        assert len(lines) == 1 + len(result.history)
        net, _ = read_checkpoint(tmp_path / "checkpoint.txt")
        np.testing.assert_array_equal(net.weights, result.best_net.weights)
