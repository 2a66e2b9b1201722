"""Command-line entry point.

Subcommands: generate, train, eval, export-traces, replay-train.
``--backend`` picks the forward pass (``numeric`` or ``mock``) of train,
eval and export-traces; a recorded replay file is read by replay-train
alone, which runs no forward pass and takes train's first step on its
traces (``train.train_step`` from a fresh Adam state).  Without
``--checkpoint`` export-traces and replay-train start from
``train.init_network``'s draw from ``train.seed`` (``--seed``).
Every run is reproducible from its config file; the effective config is
echoed into each output directory.  Exit codes: 0 success, 2 config error,
3 runtime error.

Each command draws only the point set and the rows it reads (``data``):
generate writes both full sets, train draws both, eval only the test set,
export-traces the first ``--samples`` training points (at most
``dataset.n_train``) and replay-train the first training points, one per
block of its file.  Such a prefix is bit for bit the first rows of the
full training set.
"""
from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

from . import data as data_mod
from .backend import (
    KINDS,
    check_manifest,
    forward_batch,
    read_replay_file,
    replay_block_to_trace,
    write_replay_file,
)
from .config import ExperimentConfig, load_config, save_config
from .core import InvalidParameter, Network, format_matrix
from .grad import Support
from .train import (
    AdamState,
    evaluate,
    gradient_from_trace,
    init_network,
    pack_samples,
    read_checkpoint,
    replace_weights,
    split_layers,
    structure_masks,
    train as run_training,
    train_step,
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


def _network_for(cfg: ExperimentConfig, args, ds):
    """The ``--checkpoint`` net, else the config's initial net, and the
    event budget m of that net."""
    if getattr(args, "checkpoint", None):
        net, _ = read_checkpoint(args.checkpoint)
    else:
        net = init_network(cfg, ds, np.random.default_rng(cfg.train.seed))
    return net, cfg.sim.budget(cfg.dataset.n_inputs, net.n_total)


def cmd_generate(args) -> int:
    cfg = _load_cfg(args)
    out = _out_dir(args)
    train_pts, test_pts = data_mod.build_dataset(cfg.dataset)
    data_mod.write_dataset(out / "train.csv", train_pts)
    data_mod.write_dataset(out / "test.csv", test_pts)
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
    net, _ = read_checkpoint(args.checkpoint)
    test_pts = data_mod.draw_test(cfg.dataset)
    ds_test = pack_samples(data_mod.encode_dataset(test_pts, cfg.dataset))
    m = cfg.sim.budget(cfg.dataset.n_inputs, net.n_total)
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
    train_pts = data_mod.draw_train(cfg.dataset, min(args.samples, cfg.dataset.n_train))
    ds = pack_samples(data_mod.encode_dataset(train_pts, cfg.dataset))
    net, m = _network_for(cfg, args, ds)
    traces = forward_batch(
        cfg.backend, net, ds.sorted_neurons, ds.sorted_times, m, cfg.sim.t_max,
        seeds=range(len(ds)),
    )
    path = out / "traces.replay"
    write_replay_file(path, traces, m, cfg.sim.t_max)
    if not getattr(args, "checkpoint", None):
        write_checkpoint(out / "checkpoint.txt", net, split_layers(net)[0])
    _echo_config(cfg, out)
    print(f"exported {len(traces)} traces to {path}")
    return 0


def cmd_replay_train(args) -> int:
    """``train``'s first step (``train_step`` from a fresh Adam state) on the
    checkpoint net's two weight blocks, from the replayed traces' EventProp
    gradients and spike counts.  gradients.txt holds their mean before the
    step.

    From a fresh Adam state the step moves each weight by about
    lr * sign(g), whatever the size of g, so ``train.gamma`` and
    ``train.vdot_floor`` barely act here."""
    cfg = _load_cfg(args)
    out = _out_dir(args)
    rf = read_replay_file(args.traces)
    n = rf.times.shape[0]
    n_train = cfg.dataset.n_train
    if not 1 <= n <= n_train:
        raise InvalidParameter(
            f"replay file holds {n} samples; replay-train reads 1 to dataset.n_train={n_train}"
        )
    train_pts = data_mod.draw_train(cfg.dataset, n)
    ds = pack_samples(data_mod.encode_dataset(train_pts, cfg.dataset))
    net, m = _network_for(cfg, args, ds)
    t_max = cfg.sim.t_max
    check_manifest(rf, m, t_max)
    n_hidden, *blocks = split_layers(net)
    support = Support.of(net, structure_masks(net.n_in, n_hidden, net.n_total - n_hidden))
    sums, counts = [np.zeros_like(b) for b in blocks], []
    for s in range(n):
        block = slice(s, s + 1)
        trace = replay_block_to_trace(
            rf.neurons[block], rf.times[block], net,
            ds.sorted_neurons[block], ds.sorted_times[block], t_max,
        )
        _, *grads, c = gradient_from_trace(cfg, net, trace, ds.labels[block], support)
        sums = [acc + g for acc, g in zip(sums, grads)]
        counts.append(c)
    new_blocks, _ = train_step(
        cfg, blocks, AdamState.init(blocks), cfg.train.lr, sums, np.concatenate(counts)
    )
    write_gradients(out / "gradients.txt", [g / n for g in sums])
    write_checkpoint(out / "checkpoint.txt", replace_weights(net, new_blocks), n_hidden)
    _echo_config(cfg, out)
    print(f"applied one training step from {n} replayed traces")
    return 0


def write_gradients(path, grads) -> None:
    # gradients.txt stays dense, the (n_in, N) and (N, N) matrices of the
    # Network of the two blocks, because the benchmark parses that layout
    dense = Network.feedforward(*grads)
    with open(path, "w", encoding="utf-8") as f:
        f.write(GRADIENTS_MAGIC + "\n")
        f.write(f"n_in {dense.n_in} n_total {dense.n_total}\n")
        f.writelines(format_matrix("grad_input_weights", dense.input_weights))
        f.writelines(format_matrix("grad_weights", dense.weights))


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="eventsnn",
        description="Event-driven spiking network training on the Yin-Yang task",
    )
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp, seed=True, forward=True):
        sp.add_argument("--config", default=None, help="config file (key = value lines)")
        if seed:
            sp.add_argument("--seed", type=int, default=None, help="override train.seed")
        if forward:
            sp.add_argument("--backend", choices=KINDS, default=None)
        sp.add_argument("--out", default="out", help="output directory")

    # dataset.seed alone fixes the point sets: generate takes no --seed and,
    # running no forward pass, no --backend
    sp = sub.add_parser("generate", help="write the train and test point sets")
    common(sp, seed=False, forward=False)
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
        "replay-train",
        help="one training step, from a fresh Adam state, on replayed traces",
        description="One training step, from a fresh Adam state, on replayed "
        "traces: each weight moves by about lr * sign(g), so train.gamma and "
        "train.vdot_floor barely act.",
    )
    # running no forward pass, replay-train takes no --backend
    common(sp, forward=False)
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
