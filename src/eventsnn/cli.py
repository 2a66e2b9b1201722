"""Command-line entry point.

Subcommands: generate, train, eval, export-traces, replay-train, plot.
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
    BackendConfig,
    ReplayConfig,
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


def _dataset(cfg: ExperimentConfig):
    enc = data_mod.EncodingConfig(
        t_early=cfg.dataset.t_early,
        t_late=cfg.dataset.t_late,
        t_bias=cfg.dataset.t_bias,
        bias_enabled=cfg.dataset.bias_enabled,
    )
    train_pts = data_mod.generate(cfg.dataset.seed, cfg.dataset.n_train, cfg.dataset.r_small)
    test_pts = data_mod.generate(
        cfg.dataset.seed + 1, cfg.dataset.n_test, cfg.dataset.r_small
    )
    return enc, train_pts, test_pts


def _network_for(cfg: ExperimentConfig, args, ds, m):
    if getattr(args, "checkpoint", None):
        net, _ = read_checkpoint(args.checkpoint)
        return net
    rng = np.random.default_rng(cfg.train.seed)
    return init_network(cfg, ds, rng, m)


def cmd_generate(args) -> int:
    cfg = _load_cfg(args)
    out = _out_dir(args)
    enc, train_pts, test_pts = _dataset(cfg)
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
    enc, _, test_pts = _dataset(cfg)
    ds_test = pack_samples(data_mod.encode_dataset(test_pts, enc))
    m = cfg.sim.budget(enc.n_inputs, net.n_total)
    acc = evaluate(cfg, net, ds_test, m)
    (out / "eval.txt").write_text(f"test_acc {acc:.6f}\n", encoding="utf-8")
    _echo_config(cfg, out)
    print(f"test accuracy {acc:.4f}")
    return 0


def cmd_export_traces(args) -> int:
    from .backend import forward

    cfg = _load_cfg(args)
    out = _out_dir(args)
    enc, train_pts, _ = _dataset(cfg)
    samples = data_mod.encode_dataset(train_pts, enc)[: args.samples]
    ds = pack_samples(samples)
    m = cfg.sim.budget(enc.n_inputs, cfg.network.n_hidden + cfg.network.n_out)
    net = _network_for(cfg, args, ds, m)
    traces = []
    for k, s in enumerate(samples):
        traces.append(
            forward(cfg.backend, net, s.sorted_spikes(), m, cfg.sim.t_max, seed=k)
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
    enc, train_pts, _ = _dataset(cfg)
    samples = data_mod.encode_dataset(train_pts, enc)[: len(rf.blocks)]
    if len(samples) < len(rf.blocks):
        raise InvalidParameter(
            f"replay file holds {len(rf.blocks)} samples but the dataset only {len(samples)}"
        )
    ds = pack_samples(samples)
    m = cfg.sim.budget(enc.n_inputs, cfg.network.n_hidden + cfg.network.n_out)
    if rf.m != m:
        from .backend import ReplayShapeMismatch

        raise ReplayShapeMismatch(f"manifest m={rf.m}, config expects m={m}")
    net = _network_for(cfg, args, ds, m)
    loss_cfg = TtfsLoss(xi=cfg.train.xi, alpha=cfg.train.alpha)
    n = net.n_total
    g_w_sum = np.zeros((n, n))
    g_w_in_sum = np.zeros((net.n_in, n))
    for block, sample in zip(rf.blocks, samples):
        trace = replay_block_to_trace(
            block, net, sample.sorted_spikes(), m, cfg.sim.t_max
        )
        _, g_w, g_w_in = gradient_from_trace(
            net, trace, int(sample.label), loss_cfg, cfg.sim.t_max
        )
        g_w_sum += g_w
        g_w_in_sum += g_w_in
    mask_w, mask_w_in = structure_masks(
        enc.n_inputs, cfg.network.n_hidden, cfg.network.n_out
    )
    grads = (
        g_w_sum * mask_w / len(rf.blocks),
        g_w_in_sum * mask_w_in / len(rf.blocks),
    )
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
    print(f"applied one optimizer step from {len(rf.blocks)} replayed traces")
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


def cmd_plot(args) -> int:
    cfg = _load_cfg(args)
    out = _out_dir(args)
    wrote = []
    if args.dataset:
        points = data_mod.read_dataset(args.dataset)
        if not points:
            raise InvalidParameter(f"dataset file {args.dataset} holds no points")
        path = out / "dataset_scatter.csv"
        with open(path, "w", encoding="utf-8") as f:
            f.write("x,y,label\n")
            for p in points:
                f.write(f"{format_time(p.x)},{format_time(p.y)},{p.label.name.lower()}\n")
        wrote.append(path)
    if args.metrics:
        lines = Path(args.metrics).read_text(encoding="utf-8").splitlines()
        if len(lines) < 2:
            raise InvalidParameter(f"metrics file {args.metrics} holds no rows")
        path = out / "metrics_curves.csv"
        Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")
        wrote.append(path)
    if not wrote:
        raise ConfigError("plot needs --dataset and/or --metrics")
    _echo_config(cfg, out)
    for p in wrote:
        print(f"wrote {p}")
    return 0


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

    sp = sub.add_parser("plot", help="emit plot-ready CSV data")
    common(sp)
    sp.add_argument("--dataset", default=None, help="dataset csv to scatter")
    sp.add_argument("--metrics", default=None, help="metrics csv to re-emit")
    sp.set_defaults(fn=cmd_plot)
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
