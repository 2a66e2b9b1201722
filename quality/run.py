"""eventsnn accuracy harness: one pinned training config per (seed, cell).

    python3 quality/run.py --name NAME [--seeds 1 2 3 4 5]
        [--cell ESTIMATOR:BACKEND:EPOCHS ...] [--side LABEL=CHECKOUT ...]
        [--set KEY=VALUE ...] [--what TEXT]

Run from the repository root.  Each run trains ``PINNED`` (every config key
the run reads) with the cell's estimator, backend and epoch count and
``train.seed`` set to the seed; the point sets stay at ``dataset.seed``, so
the seed picks the init and the batch orders.  ``--set`` overrides pinned
keys.  Every run records its best and final test accuracy, the best epoch,
the final net's no-decision rate (test rows whose outputs all stay silent),
silent-output fraction (test (row, output) pairs that never fire),
budget-fill rate (test rows whose trace fills the event budget, its last
slot real; null for fud, which has no trace) and predicted-class counts,
and its wall time.

Each ``--side`` is a checkout whose ``src/`` is imported; the default is
this one, labelled ``change``.  Every run goes in its own process, and per
(seed, cell) the sides take turns going first, so a parent/change pair
shares the host's state.  The runs, a per-(side, cell) summary, the
machine, the command and the protocol go to ``QUALITY_<NAME>.json`` at the
root, as ``perfbench`` writes a ``BENCH_*.json``.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

# one BLAS thread, as in perfbench, keeps the wall times steady
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

ROOT = Path(__file__).resolve().parent.parent

PINNED = {
    "dataset.seed": "42",
    "dataset.n_train": "2000",
    "dataset.n_test": "1000",
    "dataset.r_small": "0.1",
    "dataset.t_early": "0.0",
    "dataset.t_late": "1.5",
    "dataset.t_bias": "none",
    "dataset.bias_enabled": "true",
    "network.n_hidden": "120",
    "network.n_out": "3",
    "network.tau_mem_ratio": "2.0",
    "network.v_th": "1.0",
    "network.v_reset": "0.0",
    "sim.m": "0",
    "sim.t_max": "4.0",
    "backend.mock.jitter_sigma": "0.01",
    "backend.mock.weight_bits": "6",
    "backend.mock.weight_clip": "none",
    "backend.mock.spike_loss_prob": "0.0",
    "train.batch": "64",
    "train.lr": "0.005",
    "train.lr_decay": "0.97",
    "train.beta1": "0.9",
    "train.beta2": "0.999",
    "train.xi": "0.1",
    "train.alpha": "0.0",
    "train.gamma": "0.01",
    "train.rate_lambda": "0.0",
    "train.grad_clip": "0.0",
    "train.vdot_floor": "0.0",
}
SEEDS = (1, 2, 3, 4, 5)
CELLS = ("eventprop:numeric:8", "eventprop:mock:8", "fud:numeric:30")


def cell_keys(cell: str, seed: int, overrides: dict) -> dict:
    """The config keys of one run: ``PINNED``, the cell's, the seed, then
    ``overrides``.  Patience is the epoch count, so every epoch runs."""
    estimator, backend, epochs = cell.split(":")
    return {
        **PINNED,
        "train.estimator": estimator,
        "backend.kind": backend,
        "train.epochs": epochs,
        "train.patience": epochs,
        "train.seed": str(seed),
        **overrides,
    }


def run_one(keys: dict) -> dict:
    """Train one config with the eventsnn on ``sys.path``; its figures."""
    import importlib

    import numpy as np

    # the package's train() shadows the module, so modules go by full name
    core = importlib.import_module("eventsnn.core")
    data = importlib.import_module("eventsnn.data")
    train = importlib.import_module("eventsnn.train")
    load_config = importlib.import_module("eventsnn.config").load_config

    cfg = load_config(None, keys)
    t0 = time.perf_counter()
    result = train.train(cfg)
    wall_s = time.perf_counter() - t0
    # the final net's first-spike times on the test set, batched and seeded
    # as evaluate() reads them
    _, test_pts = data.build_dataset(cfg.dataset)
    ds = train.pack_samples(data.encode_dataset(test_pts, cfg.dataset))
    m = cfg.sim.budget(cfg.dataset.n_inputs, cfg.network.n_hidden + cfg.network.n_out)
    bs = max(cfg.train.batch, 256)
    t_first, filled = [], []
    for lo in range(0, len(ds), bs):
        idx = np.arange(lo, min(lo + bs, len(ds)))
        t_out, extra = train._forward_times(cfg, result.final_net, ds, idx, m, 999_983)
        t_first.append(t_out)
        if cfg.train.estimator != "fud":
            filled.append(extra.kinds[:, -1] != int(core.SpikeKind.DUMMY))
    t_first = np.concatenate(t_first)
    predicted = train.predict_from_times(t_first)
    final_acc = result.history[-1].test_acc
    if float(np.mean(predicted == ds.labels)) != final_acc:
        raise RuntimeError("the final net's test predictions disagree with evaluate()")
    return {
        "best_test_acc": result.best_test_acc,
        "best_epoch": result.best_epoch,
        "final_test_acc": final_acc,
        "final_no_decision_rate": float(np.isinf(t_first).all(axis=1).mean()),
        "final_silent_output_frac": float(np.isinf(t_first).mean()),
        "final_budget_fill_rate": float(np.concatenate(filled).mean()) if filled else None,
        "final_class_counts": np.bincount(predicted, minlength=cfg.network.n_out).tolist(),
        "epochs_run": len(result.history),
        "wall_s": wall_s,
    }


def child(src: str, keys: dict) -> dict:
    """``run_one`` in a fresh process that imports eventsnn from ``src``."""
    out = subprocess.run(
        [sys.executable, __file__, "--one", json.dumps(keys)],
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True, text=True, check=False,
    )
    if out.returncode:
        raise RuntimeError(f"a run on {src} failed:\n{out.stderr}")
    return json.loads(out.stdout.splitlines()[-1])


def revision(checkout: Path) -> str:
    out = subprocess.run(
        ["git", "-C", str(checkout), "describe", "--always", "--dirty", "--abbrev=12"],
        capture_output=True, text=True, check=False,
    )
    return out.stdout.strip() or "unknown"


def summary(runs, sides, cells) -> dict:
    out = {}
    for side in sides:
        for cell in cells:
            sel = [r for r in runs if r["side"] == side and r["cell"] == cell]
            best = [r["best_test_acc"] for r in sel]
            final = [r["final_test_acc"] for r in sel]
            out[f"{side} {cell}"] = {
                "mean_best_test_acc": statistics.mean(best),
                "min_best_test_acc": min(best),
                "mean_final_test_acc": statistics.mean(final),
                "min_final_test_acc": min(final),
                "median_wall_s": statistics.median(r["wall_s"] for r in sel),
            }
    return out


def machine() -> dict:
    import numpy

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "platform": platform.platform(),
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--name")
    ap.add_argument("--seeds", type=int, nargs="+", default=list(SEEDS))
    ap.add_argument("--cell", action="append", help="ESTIMATOR:BACKEND:EPOCHS")
    ap.add_argument("--side", action="append", help="LABEL=CHECKOUT")
    ap.add_argument("--set", action="append", default=[], help="KEY=VALUE")
    ap.add_argument("--what", default="")
    ap.add_argument("--one", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.one:
        print(json.dumps(run_one(json.loads(args.one))))
        return 0
    if not args.name:
        ap.error("--name is required")
    cells = args.cell or list(CELLS)
    sides = dict(s.split("=", 1) for s in args.side or [f"change={ROOT}"])
    overrides = dict(s.split("=", 1) for s in args.set)
    revisions = {label: revision(Path(path)) for label, path in sides.items()}
    runs = []
    for i, (seed, cell) in enumerate((s, c) for s in args.seeds for c in cells):
        order = list(sides) if i % 2 == 0 else list(sides)[::-1]
        for side in order:
            keys = cell_keys(cell, seed, overrides)
            run = {"side": side, "seed": seed, "cell": cell, **child(f"{sides[side]}/src", keys)}
            print(f"{side:>8} seed {seed} {cell:<20} best {run['best_test_acc']:.3f} "
                  f"(epoch {run['best_epoch']}) final {run['final_test_acc']:.3f} "
                  f"no-decision {run['final_no_decision_rate']:.3f} "
                  f"silent {run['final_silent_output_frac']:.3f} {run['wall_s']:.1f} s",
                  flush=True)
            runs.append(run)
    command = ["python3", "quality/run.py", "--name", args.name, "--seeds", *map(str, args.seeds)]
    command += [f"--cell {c}" for c in cells]
    command += [f"--side {label}=<checkout of {rev}>" for label, rev in revisions.items()]
    command += [f"--set {s}" for s in args.set]
    report = {
        "what": args.what,
        "machine": machine(),
        "command": " ".join(command),
        "protocol": "each run trains config (PINNED with the cell's train.estimator, "
        "backend.kind, train.epochs = train.patience, train.seed = seed) in its own "
        "process; per (seed, cell) the sides alternate which runs first; final_* read the "
        "last epoch's net on the test set as evaluate() does; wall_s is train.train's "
        "wall clock, unscaled",
        "sides": revisions,
        "config": {c: cell_keys(c, "SEED", overrides) for c in cells},
        "summary": summary(runs, sides, cells),
        "runs": runs,
    }
    path = ROOT / f"QUALITY_{args.name}.json"
    path.write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {path.name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
