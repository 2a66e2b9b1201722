"""Command-line entry point.

Subcommands: generate, train, eval, export-traces, replay-train.
Every run is reproducible from its config file; the effective config is
echoed into each output directory.  Exit codes: 0 success, 2 config error,
3 runtime error.
"""
from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

from . import data as data_mod
from .backend import (
    check_manifest,
    forward_batch,
    read_replay_file,
    replay_block_to_trace,
    write_replay_file,
)
from .config import ExperimentConfig, load_config, save_config
from .core import InvalidParameter, format_time, validate_network
from .train import (
    AdamState,
    TtfsLoss,
    adam_step,
    evaluate,
    gradient_from_trace,
    init_network,
    pack_samples,
    read_checkpoint,
    replace_weights,
    structure_masks,
    train as run_training,
    write_checkpoint,
)

GRADIENTS_MAGIC = "eventsnn-gradients v1"


class ConfigError(Exception):
    pass


def _load_cfg(args) -> ExperimentConfig:
    overrides: dict[str, str] = {}
    if getattr(args, "seed", None) is not None:
        overrides["train.seed"] = str(args.seed)
    if getattr(args, "backend", None) is not None:
        overrides["backend.kind"] = args.backend
    try:
        return load_config(args.config, overrides)
    except (InvalidParameter, OSError, ValueError) as e:
        raise ConfigError(str(e)) from e


def _out_dir(args) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _echo_config(cfg: ExperimentConfig, out: Path) -> None:
    save_config(cfg, out / "config_used.txt")


def _network_for(cfg: ExperimentConfig, args, ds, m):
    if getattr(args, "checkpoint", None):
        net, _ = read_checkpoint(args.checkpoint)
        return net
    rng = np.random.default_rng(cfg.train.seed)
    return init_network(cfg, ds, rng, m)


def cmd_generate(args) -> int:
    cfg = _load_cfg(args)
    out = _out_dir(args)
    enc, train_pts, test_pts = data_mod.build_dataset(cfg.dataset)
    data_mod.write_dataset(out / "train.csv", train_pts)
    data_mod.write_dataset(out / "test.csv", test_pts)
    data_mod.write_encoded_set(
        out / "train_encoded.spikes", data_mod.encode_dataset(train_pts, enc)
    )
    data_mod.write_encoded_set(
        out / "test_encoded.spikes", data_mod.encode_dataset(test_pts, enc)
    )
    _echo_config(cfg, out)
    print(f"wrote {len(train_pts)} train / {len(test_pts)} test samples to {out}")
    return 0


def cmd_train(args) -> int:
    cfg = _load_cfg(args)
    out = _out_dir(args)
    _echo_config(cfg, out)
    result = run_training(cfg, out_dir=out, log=print if args.verbose else None)
    print(
        f"best test accuracy {result.best_test_acc:.4f} at epoch {result.best_epoch} "
        f"({len(result.history)} epochs run); outputs in {out}"
    )
    return 0


def cmd_eval(args) -> int:
    cfg = _load_cfg(args)
    out = _out_dir(args)
    net, n_hidden = read_checkpoint(args.checkpoint)
    validate_network(net)
    enc, _, test_pts = data_mod.build_dataset(cfg.dataset)
    ds_test = pack_samples(data_mod.encode_dataset(test_pts, enc))
    m = cfg.sim.budget(enc.n_inputs, net.n_total)
    acc = evaluate(cfg, net, ds_test, m)
    (out / "eval.txt").write_text(f"test_acc {acc:.6f}\n", encoding="utf-8")
    _echo_config(cfg, out)
    print(f"test accuracy {acc:.4f}")
    return 0


def cmd_export_traces(args) -> int:
    cfg = _load_cfg(args)
    if args.samples < 1:
        raise ConfigError(f"--samples {args.samples}: export at least one sample")
    out = _out_dir(args)
    enc, train_pts, _ = data_mod.build_dataset(cfg.dataset)
    ds = pack_samples(data_mod.encode_dataset(train_pts[: args.samples], enc))
    m = cfg.sim.budget(enc.n_inputs, cfg.network.n_hidden + cfg.network.n_out)
    net = _network_for(cfg, args, ds, m)
    traces = forward_batch(
        cfg.backend, net, ds.sorted_neurons, ds.sorted_times, m, cfg.sim.t_max,
        seeds=range(len(ds)),
    )
    path = out / "traces.replay"
    write_replay_file(path, traces, m, cfg.sim.t_max)
    if not getattr(args, "checkpoint", None):
        write_checkpoint(out / "checkpoint.txt", net, cfg.network.n_hidden)
    _echo_config(cfg, out)
    print(f"exported {len(traces)} traces to {path}")
    return 0


def cmd_replay_train(args) -> int:
    cfg = _load_cfg(args)
    out = _out_dir(args)
    rf = read_replay_file(args.traces)
    n = rf.times.shape[0]
    enc, train_pts, _ = data_mod.build_dataset(cfg.dataset)
    if len(train_pts) < n:
        raise InvalidParameter(
            f"replay file holds {n} samples but the dataset only {len(train_pts)}"
        )
    ds = pack_samples(data_mod.encode_dataset(train_pts[:n], enc))
    m = cfg.sim.budget(enc.n_inputs, cfg.network.n_hidden + cfg.network.n_out)
    t_max = cfg.sim.t_max
    check_manifest(rf, m, t_max)
    net = _network_for(cfg, args, ds, m)
    loss_cfg = TtfsLoss(xi=cfg.train.xi, alpha=cfg.train.alpha)
    mask_w, mask_w_in = structure_masks(
        enc.n_inputs, cfg.network.n_hidden, cfg.network.n_out
    )
    g_w_sum = np.zeros((net.n_total, net.n_total))
    g_w_in_sum = np.zeros((net.n_in, net.n_total))
    for s in range(n):
        block = slice(s, s + 1)
        trace = replay_block_to_trace(
            rf.neurons[block], rf.times[block], net,
            ds.sorted_neurons[block], ds.sorted_times[block], t_max,
        )
        _, g_w, g_w_in = gradient_from_trace(
            net, trace[0], int(ds.labels[s]), loss_cfg, t_max, (mask_w, mask_w_in)
        )
        g_w_sum += g_w
        g_w_in_sum += g_w_in
    grads = (g_w_sum * mask_w / n, g_w_in_sum * mask_w_in / n)
    params = (np.array(net.weights), np.array(net.input_weights))
    new_params, _ = adam_step(
        params, grads, AdamState.init(params), cfg.train.lr,
        (cfg.train.beta1, cfg.train.beta2),
    )
    write_gradients(out / "gradients.txt", grads[0], grads[1])
    write_checkpoint(
        out / "checkpoint.txt", replace_weights(net, new_params), cfg.network.n_hidden
    )
    _echo_config(cfg, out)
    print(f"applied one optimizer step from {n} replayed traces")
    return 0


def write_gradients(path, grad_w, grad_w_in) -> None:
    with open(path, "w", encoding="utf-8") as f:
        f.write(GRADIENTS_MAGIC + "\n")
        f.write(f"n_in {grad_w_in.shape[0]} n_total {grad_w.shape[0]}\n")
        f.write("grad_input_weights\n")
        for row in grad_w_in:
            f.write(" ".join(format_time(x) for x in row) + "\n")
        f.write("grad_weights\n")
        for row in grad_w:
            f.write(" ".join(format_time(x) for x in row) + "\n")


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="eventsnn",
        description="Event-driven spiking network training on the Yin-Yang task",
    )
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument("--config", default=None, help="config file (key = value lines)")
        sp.add_argument("--seed", type=int, default=None, help="override train.seed")
        sp.add_argument(
            "--backend", choices=["numeric", "mock", "replay"], default=None
        )
        sp.add_argument("--out", default="out", help="output directory")

    sp = sub.add_parser("generate", help="write dataset + encoded spike files")
    common(sp)
    sp.set_defaults(fn=cmd_generate)

    sp = sub.add_parser("train", help="train per config; writes metrics + checkpoint")
    common(sp)
    sp.add_argument("--verbose", action="store_true")
    sp.set_defaults(fn=cmd_train)

    sp = sub.add_parser("eval", help="evaluate a checkpoint on the test set")
    common(sp)
    sp.add_argument("--checkpoint", required=True)
    sp.set_defaults(fn=cmd_eval)

    sp = sub.add_parser("export-traces", help="dump per-sample forward traces")
    common(sp)
    sp.add_argument("--checkpoint", default=None)
    sp.add_argument("--samples", type=int, default=10)
    sp.set_defaults(fn=cmd_export_traces)

    sp = sub.add_parser(
        "replay-train", help="one optimizer step from replayed traces"
    )
    common(sp)
    sp.add_argument("--traces", required=True)
    sp.add_argument("--checkpoint", default=None)
    sp.set_defaults(fn=cmd_replay_train)
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (ConfigError, InvalidParameter) as e:
        print(f"config error: {e}", file=sys.stderr)
        return 2
    except Exception as e:  # noqa: BLE001 - CLI boundary
        print(f"error: {e}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
