"""The CLI's exit-code contract: 0 success, 2 config error, 3 runtime error."""
import numpy as np
import pytest

from eventsnn.backend import read_replay_file
from eventsnn.cli import main
from eventsnn.config import load_config
from eventsnn.core import SpikeKind, classify_records
from eventsnn.data import build_dataset, encode_dataset
from eventsnn.train import pack_samples, read_checkpoint, replace_weights, write_checkpoint

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
    ) == 3

    other_seed = tmp_path / "seed.txt"
    other_seed.write_text(TINY + "dataset.seed = 7\n")
    assert run(
        "replay-train", "--traces", traces, "--checkpoint", checkpoint,
        "--out", tmp_path / "x", config=other_seed,
    ) == 3
    assert "input" in capsys.readouterr().err


@pytest.mark.parametrize("samples", [0, -1])
def test_export_needs_a_positive_sample_count(tmp_path, tiny, capsys, samples):
    out = tmp_path / "export"
    assert run("export-traces", "--samples", samples, "--out", out, config=tiny) == 2
    assert "--samples" in capsys.readouterr().err
    assert not (out / "traces.replay").exists()


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


def test_replay_train_rejects_a_cyclic_checkpoint_that_export_accepts(tmp_path, tiny, capsys):
    # a self-loop on hidden neuron 2, set by hand: the forward runs any net,
    # the EventProp backward only an acyclic one
    assert run("export-traces", "--samples", 5, "--out", tmp_path / "init", config=tiny) == 0
    net, n_hidden = read_checkpoint(tmp_path / "init" / "checkpoint.txt")
    w = np.array(net.weights)
    w[2, 2] = 0.5
    checkpoint = tmp_path / "cyclic.txt"
    write_checkpoint(checkpoint, replace_weights(net, (w, np.array(net.input_weights))), n_hidden)
    export = tmp_path / "export"
    assert run(
        "export-traces", "--samples", 5, "--checkpoint", checkpoint, "--out", export, config=tiny,
    ) == 0
    capsys.readouterr()
    assert run(
        "replay-train", "--traces", export / "traces.replay", "--checkpoint", checkpoint,
        "--out", tmp_path / "replay", config=tiny,
    ) == 2
    assert "cycle, 2 -> 2;" in capsys.readouterr().err


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
