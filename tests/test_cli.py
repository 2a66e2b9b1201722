"""The CLI's exit-code contract: 0 success, 2 config error, 3 runtime error."""
import numpy as np
import pytest

from eventsnn import data as data_mod
from eventsnn.backend import forward_batch, read_replay_file
from eventsnn.cli import main
from eventsnn.config import load_config
from eventsnn.core import InvalidParameter, Network, SpikeKind, classify_records, format_matrix
from eventsnn.data import build_dataset, encode_dataset
from eventsnn.train import (
    AdamState,
    gradient_from_trace,
    pack_samples,
    read_checkpoint,
    split_layers,
    structure_masks,
    train_step,
    write_checkpoint,
)

TINY = (
    "dataset.n_train = 30\n"
    "dataset.n_test = 12\n"
    "network.n_hidden = 6\n"
    "train.epochs = 1\n"
    "train.batch = 10\n"
)


@pytest.fixture
def tiny(tmp_path):
    path = tmp_path / "config.txt"
    path.write_text(TINY)
    return path


def run(*argv, config):
    return main([*map(str, argv), "--config", str(config)])


def test_smoke_chain_and_exit_codes(tmp_path, tiny, capsys):
    assert run("generate", "--out", tmp_path / "data", config=tiny) == 0
    written = sorted(p.name for p in (tmp_path / "data").iterdir())
    assert written == ["config_used.txt", "test.csv", "train.csv"]
    assert run("train", "--out", tmp_path / "train", config=tiny) == 0
    checkpoint = tmp_path / "train" / "checkpoint.txt"
    assert run("eval", "--checkpoint", checkpoint, "--out", tmp_path / "eval", config=tiny) == 0
    for backend in ("numeric", "mock"):
        out = tmp_path / f"export-{backend}"
        assert run(
            "export-traces", "--samples", 5, "--checkpoint", checkpoint,
            "--backend", backend, "--out", out, config=tiny,
        ) == 0
        assert run(
            "replay-train", "--traces", out / "traces.replay", "--checkpoint", checkpoint,
            "--out", tmp_path / f"replay-{backend}", config=tiny,
        ) == 0
    traces = tmp_path / "export-numeric" / "traces.replay"

    bogus = tmp_path / "bogus.txt"
    bogus.write_text(TINY + "network.bogus = 1\n")
    assert run("eval", "--checkpoint", checkpoint, "--out", tmp_path / "x", config=bogus) == 2

    truncated = tmp_path / "truncated.replay"
    truncated.write_text("\n".join(traces.read_text().splitlines()[:-3]) + "\n")
    assert run(
        "replay-train", "--traces", truncated, "--checkpoint", checkpoint,
        "--out", tmp_path / "x", config=tiny,
    ) == 2

    other_seed = tmp_path / "seed.txt"
    other_seed.write_text(TINY + "dataset.seed = 7\n")
    assert run(
        "replay-train", "--traces", traces, "--checkpoint", checkpoint,
        "--out", tmp_path / "x", config=other_seed,
    ) == 2
    assert "input" in capsys.readouterr().err


@pytest.mark.parametrize("samples", [0, -1])
def test_export_needs_a_positive_sample_count(tmp_path, tiny, capsys, samples):
    out = tmp_path / "export"
    assert run("export-traces", "--samples", samples, "--out", out, config=tiny) == 2
    assert "--samples" in capsys.readouterr().err
    assert not (out / "traces.replay").exists()


def cycle(tmp_path, config, tag, samples=5):
    """export-traces, then replay-train from its file; the four files they write."""
    export, replay = tmp_path / f"export-{tag}", tmp_path / f"replay-{tag}"
    assert run("export-traces", "--samples", samples, "--out", export, config=config) == 0
    assert run(
        "replay-train", "--traces", export / "traces.replay",
        "--checkpoint", export / "checkpoint.txt", "--out", replay, config=config,
    ) == 0
    files = (export / "traces.replay", export / "checkpoint.txt")
    return [p.read_bytes() for p in files + (replay / "gradients.txt", replay / "checkpoint.txt")]


def test_export_and_replay_write_what_the_full_draw_gives(tmp_path, tiny, monkeypatch):
    # the commands draw only the rows they read; the same commands on the
    # leading rows of the whole training set write the same bytes
    prefix = cycle(tmp_path, tiny, "prefix")
    train_pts, _ = build_dataset(load_config(tiny).dataset)
    monkeypatch.setattr(data_mod, "draw_train", lambda dcfg, rows: train_pts[:rows])
    assert cycle(tmp_path, tiny, "full") == prefix


def test_each_command_draws_only_the_set_and_rows_it_reads(tmp_path, tiny, monkeypatch):
    draws = []
    real = data_mod.generate

    def generate(seed, n, r_small=0.1, rows=None):
        draws.append((seed, n, rows))
        return real(seed, n, r_small, rows)

    monkeypatch.setattr(data_mod, "generate", generate)
    cycle(tmp_path, tiny, "cycle")
    assert draws == [(42, 30, 5), (42, 30, 5)]
    draws.clear()
    assert run("generate", "--out", tmp_path / "data", config=tiny) == 0
    assert draws == [(42, 30, None), (43, 12, None)]
    draws.clear()
    checkpoint = tmp_path / "export-cycle" / "checkpoint.txt"
    assert run("eval", "--checkpoint", checkpoint, "--out", tmp_path / "eval", config=tiny) == 0
    assert draws == [(43, 12, None)]


def test_export_of_more_samples_than_the_training_set_exports_all_of_it(tmp_path, tiny, capsys):
    out = tmp_path / "export"
    assert run("export-traces", "--samples", 50, "--out", out, config=tiny) == 0
    assert "exported 30 traces" in capsys.readouterr().out
    assert read_replay_file(out / "traces.replay").times.shape[0] == 30


def test_replay_of_more_samples_than_the_training_set_is_a_config_error(
    tmp_path, tiny, capsys
):
    export = tmp_path / "export"
    assert run("export-traces", "--samples", 20, "--out", export, config=tiny) == 0
    small = tmp_path / "small.txt"
    small.write_text(TINY + "dataset.n_train = 12\n")
    capsys.readouterr()
    assert run(
        "replay-train", "--traces", export / "traces.replay",
        "--checkpoint", export / "checkpoint.txt", "--out", tmp_path / "replay", config=small,
    ) == 2
    err = capsys.readouterr().err
    assert "20 samples" in err and "n_train=12" in err
    assert not (tmp_path / "replay" / "gradients.txt").exists()


def test_replay_of_a_file_without_samples_is_a_config_error(tmp_path, tiny, capsys):
    export = tmp_path / "export"
    assert run("export-traces", "--samples", 2, "--out", export, config=tiny) == 0
    head = (export / "traces.replay").read_text().splitlines()[0]
    empty = tmp_path / "empty.replay"
    empty.write_text(head.replace("samples=2", "samples=0") + "\n")
    assert read_replay_file(empty).times.shape == (0, read_replay_file(export / "traces.replay").m)
    capsys.readouterr()
    assert run(
        "replay-train", "--traces", empty, "--checkpoint", export / "checkpoint.txt",
        "--out", tmp_path / "replay", config=tiny,
    ) == 2
    assert "0 samples" in capsys.readouterr().err
    assert not (tmp_path / "replay" / "gradients.txt").exists()


# each malformed replay file below, and the error it must report
MALFORMED_REPLAY = {
    "truncated": "replay body has",
    "unsorted": "non-decreasing",
    "neuron-out-of-range": "internal neuron out of range",
    "dummy-with-a-time": "must be the dummy",
    "other-t_max": "manifest t_max",
    "other-samples": "not the sample's input spikes",
}


@pytest.mark.parametrize("case", list(MALFORMED_REPLAY))
def test_every_malformed_replay_file_is_a_config_error(tmp_path, tiny, capsys, case):
    export = tmp_path / "export"
    assert run("export-traces", "--samples", 5, "--out", export, config=tiny) == 0
    traces = export / "traces.replay"
    m = read_replay_file(traces).m
    lines = traces.read_text().splitlines()
    # the line numbers of the first block's real records
    real = [i for i in range(2, 2 + m) if not lines[i].startswith("-1,")]
    config = tiny
    if case == "truncated":
        lines = lines[:-3]
    elif case == "unsorted":
        a, b = real[-2:]
        assert lines[a].split(",")[1] != lines[b].split(",")[1]
        lines[a], lines[b] = lines[b], lines[a]
    elif case == "neuron-out-of-range":
        lines[real[-1]] = "9," + lines[real[-1]].split(",")[1]  # the net has 9 neurons
    elif case == "dummy-with-a-time":
        lines[1 + m] = "-1,0.5"
    elif case == "other-t_max":
        assert "t_max=4.0" in lines[0]
        lines[0] = lines[0].replace("t_max=4.0", "t_max=5.0")
    else:
        config = tmp_path / "seed.txt"
        config.write_text(TINY + "dataset.seed = 7\n")
    traces.write_text("\n".join(lines) + "\n")
    capsys.readouterr()
    out = tmp_path / "replay"
    assert run(
        "replay-train", "--traces", traces, "--checkpoint", export / "checkpoint.txt",
        "--out", out, config=config,
    ) == 2
    err = capsys.readouterr().err
    assert "config error" in err and MALFORMED_REPLAY[case] in err
    assert not any((out / f).exists() for f in ("gradients.txt", "checkpoint.txt"))


@pytest.mark.parametrize(
    "keys",
    [
        "train.estimator = fdu\n",
        "train.estimator = fud\nnetwork.tau_mem_ratio = 1.0\n",
    ],
    ids=["unknown", "fud_at_tau_ratio_1"],
)
def test_train_rejects_an_estimator_it_cannot_run(tmp_path, keys, capsys):
    config = tmp_path / "config.txt"
    config.write_text(TINY + keys)
    out = tmp_path / "train"
    assert run("train", "--out", out, config=config) == 2
    assert "train.estimator" in capsys.readouterr().err
    assert not (out / "metrics.csv").exists()


def test_eval_rejects_an_unknown_estimator(tmp_path, tiny, capsys):
    assert run("train", "--out", tmp_path / "train", config=tiny) == 0
    config = tmp_path / "config.txt"
    config.write_text(TINY + "train.estimator = fdu\n")
    checkpoint = tmp_path / "train" / "checkpoint.txt"
    out = tmp_path / "eval"
    assert run("eval", "--checkpoint", checkpoint, "--out", out, config=config) == 2
    assert "train.estimator" in capsys.readouterr().err
    assert not (out / "eval.txt").exists()


def test_eval_rejects_fud_on_a_checkpoint_off_tau_ratio_2(tmp_path, capsys):
    # the config's ratio is 2; the checkpoint's, which eval runs, is 1
    equal = tmp_path / "equal.txt"
    equal.write_text(TINY + "network.tau_mem_ratio = 1\n")
    assert run("train", "--out", tmp_path / "train", config=equal) == 0
    config = tmp_path / "fud.txt"
    config.write_text(TINY + "train.estimator = fud\n")
    checkpoint = tmp_path / "train" / "checkpoint.txt"
    out = tmp_path / "eval"
    assert run("eval", "--checkpoint", checkpoint, "--out", out, config=config) == 2
    assert "train.estimator = fud" in capsys.readouterr().err
    assert not (out / "eval.txt").exists()


@pytest.mark.parametrize("bits", [1025, 1100])
def test_eval_rejects_mock_weight_bits_past_a_float_level_count(tmp_path, tiny, bits, capsys):
    # the quantizer's 2^(bits-1) - 1 levels overflowed a float: exit 3 at
    # the first mock forward; now the config load names the key
    assert run("train", "--out", tmp_path / "train", config=tiny) == 0
    config = tmp_path / "config.txt"
    config.write_text(TINY + f"backend.kind = mock\nbackend.mock.weight_bits = {bits}\n")
    checkpoint = tmp_path / "train" / "checkpoint.txt"
    out = tmp_path / "eval"
    assert run("eval", "--checkpoint", checkpoint, "--out", out, config=config) == 2
    assert "backend.mock.weight_bits" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "command", [["train"], ["eval", "--checkpoint", "absent.txt"]], ids=lambda c: c[0]
)
def test_fud_on_the_mock_backend_is_a_config_error(tmp_path, command, capsys):
    # fud computes its own spike times: it would ignore the mock silently
    for keys, flags in (("", ["--backend", "mock"]), ("backend.kind = mock\n", [])):
        config = tmp_path / "config.txt"
        config.write_text(TINY + "train.estimator = fud\n" + keys)
        out = tmp_path / "out"
        assert run(*command, *flags, "--out", out, config=config) == 2
        err = capsys.readouterr().err
        assert "train.estimator = fud" in err and "backend.kind = numeric, got mock" in err
        assert not out.exists()


def test_fud_eval_splits_the_checkpoint_where_its_outputs_start(tmp_path):
    # the hidden layer's width comes from the checkpoint, not from the
    # config's network.n_hidden
    config = tmp_path / "fud.txt"
    config.write_text(TINY + "train.estimator = fud\nnetwork.n_hidden = 20\n")
    assert run("train", "--out", tmp_path / "train", config=config) == 0
    checkpoint = tmp_path / "train" / "checkpoint.txt"
    reports = []
    for n_hidden in (10, 20, 120):
        config.write_text(TINY + f"train.estimator = fud\nnetwork.n_hidden = {n_hidden}\n")
        out = tmp_path / f"eval-{n_hidden}"
        assert run("eval", "--checkpoint", checkpoint, "--out", out, config=config) == 0
        reports.append((out / "eval.txt").read_text())
    assert reports[0] == reports[1] == reports[2]


def test_export_and_replay_size_the_run_from_the_checkpoint(tmp_path, tiny):
    # a 20-hidden checkpoint under the 6-hidden config: the budget m, the
    # gradient masks and the sizes written come from the checkpoint's net
    wide = tmp_path / "wide.txt"
    wide.write_text(TINY + "network.n_hidden = 20\n")
    assert run("export-traces", "--samples", 5, "--out", tmp_path / "init", config=wide) == 0
    checkpoint = tmp_path / "init" / "checkpoint.txt"
    gradients = []
    for config in (tiny, wide):
        export, out = tmp_path / f"export-{config.stem}", tmp_path / f"replay-{config.stem}"
        assert run(
            "export-traces", "--samples", 5, "--checkpoint", checkpoint,
            "--out", export, config=config,
        ) == 0
        assert read_replay_file(export / "traces.replay").m == 5 + 23 + 10
        assert run(
            "replay-train", "--traces", export / "traces.replay", "--checkpoint", checkpoint,
            "--out", out, config=config,
        ) == 0
        assert (out / "checkpoint.txt").read_text().splitlines()[2].endswith(
            "n_hidden 20 n_out 3"
        )
        gradients.append((out / "gradients.txt").read_bytes())
    assert gradients[0] == gradients[1]


def test_a_cyclic_net_is_not_written_as_a_checkpoint(tmp_path, tiny):
    # a self-loop on hidden neuron 2, set by hand: the forward would run it,
    # the EventProp backward would not, and the two weight blocks of a
    # checkpoint cannot hold it
    assert run("export-traces", "--samples", 5, "--out", tmp_path / "init", config=tiny) == 0
    net, n_hidden = read_checkpoint(tmp_path / "init" / "checkpoint.txt")
    w = np.array(net.weights)
    w[2, 2] = 0.5
    cyclic = Network(net.n_total, w, net.input_weights, net.params, net.output_set)
    checkpoint = tmp_path / "cyclic.txt"
    with pytest.raises(InvalidParameter, match="outside the two layer blocks"):
        write_checkpoint(checkpoint, cyclic, n_hidden)
    assert not checkpoint.exists()


def test_eval_and_replay_reject_a_v1_checkpoint_and_name_its_version(tmp_path, tiny, capsys):
    # the dense v1 layout of the same net: no command reads it any more
    init = tmp_path / "init"
    assert run("export-traces", "--samples", 5, "--out", init, config=tiny) == 0
    net, _ = read_checkpoint(init / "checkpoint.txt")
    old = tmp_path / "v1.txt"
    old.write_text("".join([
        "eventsnn-checkpoint v1\n",
        (init / "checkpoint.txt").read_text().splitlines()[1] + "\n",
        "n_in 5 n_total 9 n_hidden 6 n_out 3\n",
        *format_matrix("input_weights", net.input_weights),
        *format_matrix("weights", net.weights),
    ]))
    commands = {
        "eval": ["eval"],
        "replay": ["replay-train", "--traces", init / "traces.replay"],
    }
    capsys.readouterr()
    for name, command in commands.items():
        out = tmp_path / name
        assert run(*command, "--checkpoint", old, "--out", out, config=tiny) == 2, name
        err = capsys.readouterr().err
        assert "version 'v1'" in err and str(old) in err, name
        assert not any((out / f).exists() for f in ("eval.txt", "gradients.txt"))


@pytest.mark.parametrize(
    "key",
    ["sim.t_max = -1", "sim.t_max = 0", "sim.t_max = nan", "sim.m = -5", "sim.m = auto"],
)
def test_train_rejects_a_bad_sim_section(tmp_path, key, capsys):
    config = tmp_path / "config.txt"
    config.write_text(TINY + key + "\n")
    out = tmp_path / "train"
    assert run("train", "--out", out, config=config) == 2
    assert key.split(" =")[0] in capsys.readouterr().err
    assert not (out / "metrics.csv").exists()


@pytest.mark.parametrize(
    "key",
    [
        "train.batch = 0",
        "train.batch = -5",
        "train.epochs = -3",
        "network.n_hidden = 0",
        "network.n_out = 0",
        "train.lr = nan",
        "train.lr = -0.001",
        "train.lr = inf",
        "train.lr_decay = -0.5",
        "train.lr_decay = nan",
        "train.beta1 = 1.0",
        "train.beta1 = -0.1",
        "train.beta2 = 1.0",
        "train.beta2 = nan",
        "backend.mock.jitter_sigma = nan",
        "backend.mock.jitter_sigma = -0.1",
        "network.tau_mem_ratio = 3",
        "network.tau_mem_ratio = 0",
        "network.n_hidden = true",
        "train.lr = true",
        "dataset.t_bias = abc",
        "backend.mock.weight_clip = abc",
        "backend.kind = bogus",
        "train.estimator = bogus",
        "network.v_reset = 1.5",
        "network.v_th = nan",
        "dataset.n_test = 0",
        "train.xi = 0",
        "backend.mock.weight_clip = 0",
        "dataset.seed = -1",
        "train.seed = -1",
        "train.alpha = nan",
        "train.alpha = inf",
        "train.gamma = nan",
        "train.gamma = -0.01",
        "train.rate_lambda = -0.1",
        "train.grad_clip = nan",
        "train.vdot_floor = -0.5",
        "network.v_th = inf",
        "network.v_reset = -inf",
        "train.patience = -1",
    ],
)
def test_train_rejects_a_value_that_breaks_the_run(tmp_path, key, capsys):
    # each fails when the config loads, before the output directory exists
    config = tmp_path / "config.txt"
    config.write_text(TINY + "backend.kind = mock\n" + key + "\n")
    out = tmp_path / "train"
    assert run("train", "--out", out, config=config) == 2
    assert key.split(" =")[0] in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "command",
    [
        ["generate"],
        ["train"],
        ["eval", "--checkpoint", "absent.txt"],
        ["export-traces"],
        ["replay-train", "--traces", "absent.replay"],
    ],
    ids=lambda c: c[0],
)
def test_the_removed_replay_backend_is_rejected_before_out_exists(
    tmp_path, tiny, command, capsys
):
    # a recorded file is read by replay-train alone: replay is no --backend
    # choice and no backend.kind, and backend.replay is no config section
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as exit_:
        run(*command, "--backend", "replay", "--out", out, config=tiny)
    assert exit_.value.code == 2
    assert not out.exists()
    for key in ("backend.kind = replay", "backend.replay.trace_path = x"):
        config = tmp_path / "config.txt"
        config.write_text(TINY + key + "\n")
        capsys.readouterr()
        assert run(*command, "--out", out, config=config) == 2
        assert key.split(" =")[0] in capsys.readouterr().err
        assert not out.exists()


@pytest.mark.parametrize("flag", [["--seed", "5"], ["--backend", "numeric"]])
def test_generate_takes_no_seed_or_backend(tmp_path, tiny, flag, capsys):
    # dataset.seed alone fixes the point sets and generate runs no forward
    # pass, so both flags, once ignored, are usage errors
    out = tmp_path / "data"
    with pytest.raises(SystemExit) as exit_:
        run("generate", *flag, "--out", out, config=tiny)
    assert exit_.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err
    assert not out.exists()


def test_replay_train_takes_no_backend(tmp_path, tiny, capsys):
    # replay-train runs no forward pass, so the flag, once ignored, is a
    # usage error; --seed stays, for the init when no --checkpoint is given
    out = tmp_path / "replay"
    with pytest.raises(SystemExit) as exit_:
        run("replay-train", "--traces", "absent.replay", "--backend", "numeric", "--out", out,
            config=tiny)
    assert exit_.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err
    assert not out.exists()
    export = tmp_path / "export"
    assert run("export-traces", "--seed", 5, "--samples", 5, "--out", export, config=tiny) == 0
    written = []
    for source in (["--seed", 5], ["--checkpoint", export / "checkpoint.txt"]):
        out = tmp_path / f"replay{len(written)}"
        assert run(
            "replay-train", "--traces", export / "traces.replay", *source, "--out", out,
            config=tiny,
        ) == 0
        written.append((out / "checkpoint.txt").read_bytes())
    assert written[0] == written[1]


@pytest.mark.parametrize("value", ["0", "-0.1", "nan", "0.26", "0.71", "1.0"])
@pytest.mark.parametrize("command", ["generate", "train"])
def test_r_small_outside_its_lobe_is_a_config_error(tmp_path, command, value, capsys):
    # a dot that leaves its lobe (or has no area) never fills some class quota
    config = tmp_path / "config.txt"
    config.write_text(TINY + f"dataset.r_small = {value}\n")
    out = tmp_path / command
    assert run(command, "--out", out, config=config) == 2
    assert "dataset.r_small" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "keys",
    ["dataset.t_early = 1.0\ndataset.t_late = 0.5\n", "dataset.t_late = nan\n"],
    ids=["reversed", "nan"],
)
def test_generate_rejects_a_bad_encoding_window(tmp_path, keys, capsys):
    config = tmp_path / "config.txt"
    config.write_text(TINY + keys)
    out = tmp_path / "data"
    assert run("generate", "--out", out, config=config) == 2
    assert "encoding window" in capsys.readouterr().err
    assert not (out / "train.csv").exists()


@pytest.mark.parametrize(
    "command",
    [
        ["generate"],
        ["train"],
        ["eval", "--checkpoint", "absent.txt"],
        ["export-traces"],
        ["replay-train", "--traces", "absent.replay"],
    ],
    ids=lambda c: c[0],
)
def test_a_bad_encoding_window_leaves_no_output_directory(tmp_path, command, capsys):
    config = tmp_path / "config.txt"
    config.write_text(TINY + "dataset.t_late = nan\n")
    out = tmp_path / "out"
    assert run(*command, "--out", out, config=config) == 2
    assert "encoding window" in capsys.readouterr().err
    assert not out.exists()


def test_replay_of_blocks_that_stop_before_their_last_input(tmp_path):
    # each exported row stops once every output has fired; at 120 hidden
    # neurons that is before the last input, so a block holds only a prefix
    # of its sample's inputs, and replay-train must still accept each block
    # as its sample's
    wide = tmp_path / "wide.txt"
    wide.write_text(TINY + "network.n_hidden = 120\n")
    export = tmp_path / "export"
    assert run("export-traces", "--samples", 30, "--out", export, config=wide) == 0
    cfg = load_config(wide)
    points, _ = build_dataset(cfg.dataset)
    ds = pack_samples(encode_dataset(points[:30], cfg.dataset))
    rf = read_replay_file(export / "traces.replay")
    kinds = classify_records(rf.neurons, rf.times, ds.sorted_neurons, ds.sorted_times)
    n_inputs = np.sum(kinds == int(SpikeKind.INPUT), axis=1)
    assert np.sum(n_inputs < ds.sorted_times.shape[1]) >= 10
    out = tmp_path / "replay"
    assert run(
        "replay-train", "--traces", export / "traces.replay",
        "--checkpoint", export / "checkpoint.txt", "--out", out, config=wide,
    ) == 0
    lines = (out / "gradients.txt").read_text().split()
    assert all(np.isfinite(float(x)) for x in lines if x[0] in "-0123456789")


@pytest.mark.parametrize(
    "edits",
    [
        [(4, 0, "nan")],  # line 4 is the first input-weight row
        [(4, 0, "inf")],
        [(1, "v_reset", "1.5")],
        [(1, "tau_mem", "-2.0")],
        [(2, "n_out", "0")],
        [(1, "tau_mem", "1.5")],
        [(1, "tau_mem", "inf"), (1, "tau_syn", "inf")],
    ],
    ids=[
        "nan-weight", "inf-weight", "v_reset-1.5", "tau_mem-neg", "n_out-0", "tau_mem-1.5",
        "tau-inf",
    ],
)
def test_each_command_rejects_a_bad_checkpoint(tmp_path, tiny, capsys, edits):
    assert run("export-traces", "--samples", 5, "--out", tmp_path / "init", config=tiny) == 0
    lines = (tmp_path / "init" / "checkpoint.txt").read_text().splitlines()
    assert lines[2] == "n_in 5 n_hidden 6 n_out 3"
    for row, at, value in edits:  # a word by position, or a header key's value
        words = lines[row].split()
        words[at if isinstance(at, int) else words.index(at) + 1] = value
        lines[row] = " ".join(words)
    checkpoint = tmp_path / "bad.txt"
    checkpoint.write_text("\n".join(lines) + "\n")
    traces = tmp_path / "init" / "traces.replay"
    commands = {
        "eval": ["eval"],
        "export": ["export-traces", "--samples", 5],
        "replay": ["replay-train", "--traces", traces],
    }
    capsys.readouterr()
    for name, command in commands.items():
        out = tmp_path / name
        assert run(*command, "--checkpoint", checkpoint, "--out", out, config=tiny) == 2, name
        assert str(checkpoint) in capsys.readouterr().err
        written = ("eval.txt", "traces.replay", "gradients.txt", "checkpoint.txt")
        assert not any((out / f).exists() for f in written)


# the benchmark's replay net, 5-120-3 at m = 138: on 64 exported rows some
# hidden neurons fire on fewer than half of them, so train's gamma bump acts
WIDE = "network.n_hidden = 120\nsim.m = 138\ndataset.seed = 1\ntrain.seed = 1\n"


def test_replay_train_takes_the_step_train_takes_on_the_forward_trace(tmp_path):
    # export-traces then replay-train writes the checkpoint of train_step
    # from a fresh Adam state on forward_batch's trace of the same rows: the
    # per-row sum of the gradients differs from the batched one only in
    # summation order, and the step's weights are equal bit for bit
    wide = tmp_path / "wide.txt"
    wide.write_text(WIDE)
    cycle(tmp_path, wide, "wide", samples=64)
    cfg = load_config(wide)
    net, n_hidden = read_checkpoint(tmp_path / "export-wide" / "checkpoint.txt")
    ds = pack_samples(encode_dataset(data_mod.draw_train(cfg.dataset, 64), cfg.dataset))
    trace = forward_batch(
        cfg.backend, net, ds.sorted_neurons, ds.sorted_times,
        cfg.sim.budget(net.n_in, net.n_total), cfg.sim.t_max, seeds=range(64),
    )
    support = structure_masks(net.n_in, n_hidden, net.n_total - n_hidden)
    _, g_ih, g_ho, counts = gradient_from_trace(cfg, net, trace, ds.labels, support)
    assert np.any((counts[:, :n_hidden] > 0).mean(axis=0) < 0.5)
    blocks = split_layers(net)[1:]
    want, _ = train_step(cfg, blocks, AdamState.init(blocks), cfg.train.lr, (g_ih, g_ho), counts)
    got, _ = read_checkpoint(tmp_path / "replay-wide" / "checkpoint.txt")
    for got_block, want_block in zip(split_layers(got)[1:], want):
        np.testing.assert_array_equal(got_block, want_block)


@pytest.mark.parametrize(
    "knob, value",
    [
        ("train.gamma", "0.1"), ("train.rate_lambda", "0.01"), ("train.grad_clip", "0.01"),
        ("train.vdot_floor", "0.5"),
    ],
)
def test_a_step_knob_moves_the_replayed_step(tmp_path, knob, value):
    # replay-train takes train's step, so each of its knobs acts there too
    wide = tmp_path / "wide.txt"
    wide.write_text(WIDE)
    checkpoint = cycle(tmp_path, wide, "default", samples=64)[3]
    wide.write_text(WIDE + f"{knob} = {value}\n")
    assert cycle(tmp_path, wide, "knob", samples=64)[3] != checkpoint
